"""Seeded request sequences for the three student workloads.

Every source is generated from the lab catalog and the mutation corpus;
the seed only orders and assigns them. A workload is an endless stream
of *rounds*, each a list of *steps*. A step is what one student does
without pausing (save then submit, or a whole compile-run-view
session). Every round of a workload holds the same programs, so the
closed-loop client checks its time budget only between rounds: every
run measures whole rounds, whatever its length.

Fresh programs carry a token that survives preprocessing: an unused
global declaration prepended to the source, and the same name declared
as an unused local at the top of every kernel body. A comment would not
do, because ``CompileCache`` keys on the preprocessed text and
``codegen.KERNEL_CACHE`` is process-global, so a comment-only change
would still hit both. The local changes every kernel's own text too, so
a cache keyed on a single kernel rather than the whole program would
still miss. An uninitialised unused local costs no simulated
instruction.

The traffic shares below (resubmissions per changed program, the mix of
programs in a round) are assumptions of this benchmark, not measured
figures: the paper publishes no attempt or resubmission distribution.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.labs.catalog import ALL_LABS, EXTRA_LABS, get_lab
from repro.labs.mutations import MUTATIONS, buggy_source

LABS = ALL_LABS + EXTRA_LABS
#: Students in the cohort. Job steps go to them in turn, so one
#: student's attempt and revision history grows by about one session
#: per 4 dev_loop rounds. With 16 students it grew four times a round,
#: the history and attempts views slowed as a run went on, and the
#: dev_loop median latency rose by 70% over 24 rounds, so a faster
#: program, which fits more rounds, read slower.
STUDENTS = 256

#: The one mutation that never finishes: it only runs on the quick copy
#: of its lab, whose run limit the benchmark shortens (an instructor
#: setting, paper section IV-E).
TIMEOUT_MUTATION = "no-stride-advance"
QUICK_LAB = "image-equalization-quick"
QUICK_RUN_LIMIT_S = 0.25

#: Parenthesis depth of the nested-expression input inside the
#: workload. The parser still handles it; the depth that makes it raise
#: is exercised by the defect probe in run.py, outside the workload.
WORKLOAD_NEST_DEPTH = 40
DEFECT_NEST_DEPTH = 200

#: resubmit_storm: the few programs a cohort keeps resubmitting.
STORM_PROGRAMS = ("solution:vector-add", "solution:basic-matmul",
                  "solution:stencil", "solution:spmv",
                  "solution:scatter-gather", "mutation:off-by-one-guard")
#: resubmit_storm: per round, each (program, action) role sends this
#: many byte-identical resubmissions plus one changed program. An
#: assumption, not a measured share: it makes 4 of 5 job requests
#: result-cache hits. The repository's cache benchmark
#: (benchmarks/bench_cache_resubmission.py) assumes a harsher 93%
#: duplicates; neither figure comes from the paper.
STORM_RESUBMITS = 4
#: resubmit_storm: every this-many rounds the changed program is fresh;
#: in the other rounds it is a comment or whitespace variant. Also an
#: assumption.
STORM_FRESH_EVERY = 4


#: The opening of a CUDA (``__global__``) or OpenCL (``__kernel``)
#: kernel body; a prototype ends in ``;`` before any ``{``.
KERNEL_BODY = re.compile(r"\b(?:__global__|__kernel)\b[^{;]*\{")


@dataclass
class Req:
    """One browser request the client sends."""

    student: int
    method: str
    path: str
    form: dict = field(default_factory=dict)
    #: request class: save, compile, run, submit or view
    cls: str = "view"
    #: timed requests make up the latency and throughput metrics
    timed: bool = True
    #: input name, for reporting mismatches
    label: str = ""
    #: oracle key of the program a job request carries (None: not a job)
    expect: str | None = None


@dataclass
class Program:
    label: str
    slug: str
    source: str
    #: oracle key: "solution", "skeleton:<slug>", "mutation:<name>",
    #: "malformed", "nested" or "timeout"
    expect: str


class Fresh:
    """Makes a program fresh: a token unique per seed, pass and program,
    declared as a global and inside every kernel body, and a header
    comment of seeded length (student files
    differ in size; the comment only moves the synthetic compile-cost
    model, which charges per source character). Passes of one seed get
    the same header lengths, so they cost the same simulated time."""

    def __init__(self, seed: int, tag: str):
        self.prefix = f"bench_fresh_{seed}_{tag}_"
        self.count = 0
        self.rng = random.Random(f"fresh:{seed}")

    def __call__(self, source: str) -> str:
        self.count += 1
        token = f"{self.prefix}{self.count:07d}"
        header = "/" * (2 + self.rng.randrange(400))
        source = KERNEL_BODY.sub(lambda m: f"{m.group(0)} int {token};",
                                 source)
        return f"int {token};\n{header}\n{source}"


def comment_variant(source: str, k: int) -> str:
    """Same preprocessed text, different bytes (a trailing comment)."""
    return source.replace("{\n", "{//v%d\n" % k, 1)


def whitespace_variant(source: str, k: int) -> str:
    """Same preprocessed text: padding inside the dropped include line."""
    if "#include <wb.h>" not in source:
        return comment_variant(source, k)
    return source.replace("#include <wb.h>", "#include " + " " * k + "<wb.h>",
                          1)


def malformed_sources(source: str) -> dict[str, str]:
    """Inputs that must end in a compile error."""
    return {
        "truncated": source[:source.rstrip().rfind("}")],
        "stray-paren": ");\n" + source,
        "bad-declarator": "int 3x = ;\n" + source,
        "unterminated-comment": source + "/* unterminated",
    }


def nested_source(depth: int) -> str:
    """vector-add whose index expression nests ``depth`` parentheses."""
    solution = get_lab("vector-add").solution
    expr = "(" * depth + "blockIdx.x" + ")" * depth
    return solution.replace("int i = blockIdx.x",
                            f"int i = {expr} * 0 + blockIdx.x", 1)


def program_pool() -> dict[str, Program]:
    """Every program the workloads draw from, by label."""
    pool: dict[str, Program] = {}
    for lab in LABS:
        pool[f"solution:{lab.slug}"] = Program(
            f"solution:{lab.slug}", lab.slug, lab.solution, "solution")
        pool[f"skeleton:{lab.slug}"] = Program(
            f"skeleton:{lab.slug}", lab.slug, lab.skeleton,
            f"skeleton:{lab.slug}")
    for m in MUTATIONS:
        slug = QUICK_LAB if m.name == TIMEOUT_MUTATION else m.lab_slug
        pool[f"mutation:{m.name}"] = Program(
            f"mutation:{m.name}", slug, buggy_source(m),
            "timeout" if m.name == TIMEOUT_MUTATION else f"mutation:{m.name}")
    return pool


def _save(student: int, slug: str, source: str, timed: bool) -> Req:
    return Req(student, "POST", f"/lab/{slug}/code", {"source": source},
               cls="save", timed=timed)


def _job(student: int, program: Program, action: str) -> Req:
    form = {"dataset": "0"} if action == "run" else {}
    return Req(student, "POST", f"/lab/{program.slug}/{action}", form,
               cls=action, label=program.label, expect=program.expect)


def grade_fresh(seed: int, tag: str):
    """Each step: autosave a never-seen program, then submit it for
    grading on every dataset. One round is every lab's solution plus
    every mutation that finishes, in a seeded order; each program has
    the same weight, an assumption of this benchmark."""
    rng = random.Random(f"grade_fresh:{seed}")
    fresh = Fresh(seed, tag)
    pool = program_pool()
    round_ = [p for label, p in pool.items()
              if label.startswith("solution:")
              or (label.startswith("mutation:") and p.expect != "timeout")]
    student = 0
    while True:
        order = round_[:]
        rng.shuffle(order)
        steps = []
        for program in order:
            s = student % STUDENTS
            student += 1
            steps.append([
                _save(s, program.slug, fresh(program.source), timed=False),
                _job(s, program, "submit")])
        yield steps


def dev_loop(seed: int, tag: str):
    """Each step is one develop-incrementally session: autosave,
    compile, run dataset 0, then the attempts, history and description
    views. One round is every lab's skeleton and solution, every
    finishing mutation, four malformed inputs on seeded labs and the
    nested expression; the first round also holds the timeout. Each
    program has the same weight and every session sends all three
    views, assumptions of this benchmark."""
    rng = random.Random(f"dev_loop:{seed}")
    fresh = Fresh(seed, tag)
    pool = program_pool()
    base = [p for p in pool.values() if p.expect != "timeout"]
    nested = Program("nested:vector-add", "vector-add",
                     nested_source(WORKLOAD_NEST_DEPTH), "nested")
    student = 0
    first = True
    while True:
        order = base + [nested]
        for kind in ("truncated", "stray-paren", "bad-declarator",
                     "unterminated-comment"):
            lab = rng.choice(LABS)
            order.append(Program(f"malformed:{kind}:{lab.slug}", lab.slug,
                                 malformed_sources(lab.solution)[kind],
                                 "malformed"))
        if first:
            order.append(pool[f"mutation:{TIMEOUT_MUTATION}"])
            first = False
        rng.shuffle(order)
        steps = []
        for program in order:
            s = student % STUDENTS
            student += 1
            slug = program.slug
            steps.append([
                _save(s, slug, fresh(program.source), timed=True),
                _job(s, program, "compile"),
                _job(s, program, "run"),
                Req(s, "GET", f"/lab/{slug}/attempts"),
                Req(s, "GET", f"/lab/{slug}/history"),
                Req(s, "GET", f"/lab/{slug}/description")])
        yield steps


def resubmit_storm(seed: int, tag: str):
    """A cohort resubmitting a few programs. Each (program, action)
    role is one student: every program is both submitted for grading
    and run on dataset 0. Per round, each role sends 4 byte-identical
    resubmissions and 1 changed program: a comment or whitespace
    variant (compile cache hit, result cache miss), or every 4th round
    a fresh program (both caches miss)."""
    rng = random.Random(f"resubmit_storm:{seed}")
    fresh = Fresh(seed, tag)
    pool = program_pool()
    roles = [(pool[label], action) for label in STORM_PROGRAMS
             for action in ("submit", "run")]
    fresh_base: dict[int, str] = {}
    variants: dict[int, int] = {}
    round_index = 0
    while True:
        plan = [(s, kind) for s in range(len(roles))
                for kind in ["same"] * STORM_RESUBMITS + ["changed"]]
        rng.shuffle(plan)
        steps = []
        for s, kind in plan:
            program, action = roles[s]
            step = []
            if s not in fresh_base or (
                    kind == "changed"
                    and round_index % STORM_FRESH_EVERY
                    == STORM_FRESH_EVERY - 1):
                fresh_base[s] = fresh(program.source)
                variants[s] = 0
                step.append(_save(s, program.slug, fresh_base[s],
                                  timed=False))
            elif kind == "changed":
                # each variant of a base program has distinct bytes
                k = variants[s] = variants[s] + 1
                vary = comment_variant if k % 2 else whitespace_variant
                step.append(_save(s, program.slug, vary(fresh_base[s], k),
                                  timed=False))
            step.append(_job(s, program, action))
            steps.append(step)
        round_index += 1
        yield steps


WORKLOADS = {
    "grade_fresh": grade_fresh,
    "dev_loop": dev_loop,
    "resubmit_storm": resubmit_storm,
}
