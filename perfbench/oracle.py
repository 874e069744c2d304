"""The correctness oracle: the verdict every job request must get.

The table is written by hand from what each program does, not recorded
from a run. A solution must be correct on every dataset, which the
worker checks against the numpy-generated ``repro.wb.datasets``
outputs. Each mutation has its own outcome class. Racy mutations may
pass or fail depending on the interleaving the simulator picks, so
either verdict is accepted for them.

A verdict is read from the response the student sees: a compile
response starts with ``ok`` or ``error``; a run or submit response
lists one ``[dataset i] <outcome>: <report>`` line per dataset, and no
such line when compilation failed. A compile error carries the
compiler's diagnostic. A job that failed, was dead-lettered or found no
worker has an empty report; its verdict is ``failed``, which no table
entry accepts.
"""

from __future__ import annotations

import re

from repro.labs.catalog import ALL_LABS, EXTRA_LABS

CORRECT = frozenset({"correct"})
WRONG = frozenset({"wrong"})
EITHER = frozenset({"correct", "wrong", "correct+wrong"})
COMPILE_ERROR = frozenset({"compile_error"})
RUNTIME_ERROR = frozenset({"runtime_error"})

#: Skeletons that already produce the expected output: device-query
#: only prints device properties the harness checks for, and the
#: OpenACC skeleton's serial loop is already a correct vector add.
SKELETONS_THAT_PASS = frozenset({"device-query", "openacc-vecadd"})

#: mutation name -> (verdict on dataset 0, verdict when graded)
MUTATIONS: dict[str, tuple[frozenset, frozenset]] = {
    # vector-add datasets have 16, 100, 257 and 1024 elements: only
    # 1024 is a whole number of 256-thread blocks, so only it stays in
    # bounds without the guard
    "missing-boundary-check": (RUNTIME_ERROR,
                               frozenset({"correct+runtime_error"})),
    "off-by-one-guard": (WRONG, WRONG),
    "wrong-operator": (WRONG, WRONG),
    "missing-wbsolution": (WRONG, WRONG),
    "missing-memcpy-back": (WRONG, WRONG),
    "typo-in-identifier": (COMPILE_ERROR, COMPILE_ERROR),
    "divergent-syncthreads": (RUNTIME_ERROR, RUNTIME_ERROR),
    "missing-second-barrier": (EITHER, EITHER),
    "row-col-swapped": (EITHER, EITHER),
    "plain-write-instead-of-atomic": (EITHER, EITHER),
    "missing-cas-claim": (EITHER, EITHER),
}


#: A kernel launch in CUDA host code, ``name<<<``.
CUDA_LAUNCH = re.compile(r"(\w+)\s*<<<")
#: An OpenCL kernel; the lab's host harness launches every one.
OPENCL_KERNEL = re.compile(r"\b__kernel\b[^{;]*\{")


def classify(action: str, body: str) -> str:
    """The verdict class of one compile/run/submit response."""
    head, _, report = body.partition("\n")
    if action == "compile" and head == "ok":
        return "compiled"
    outcomes = set()
    for line in report.splitlines():
        if not line.startswith("[dataset "):
            continue
        outcome, _, text = line.partition("] ")[2].partition(": ")
        if outcome == "ok":
            outcome = ("correct" if text.startswith("Solution is correct.")
                       else "wrong")
        outcomes.add(outcome)
    if outcomes:
        return "+".join(sorted(outcomes))
    return "compile_error" if report.strip() else "failed"


def expected(action: str, key: str) -> frozenset:
    """Acceptable verdicts for ``action`` on the program with oracle
    ``key`` (see ``workloads.Program.expect``)."""
    if key == "malformed":
        return COMPILE_ERROR
    if action == "compile":
        if key.startswith("mutation:") and MUTATIONS[
                key.split(":", 1)[1]][0] == COMPILE_ERROR:
            return COMPILE_ERROR
        return frozenset({"compiled"})
    if key in ("solution", "nested"):
        return CORRECT
    if key == "timeout":
        return frozenset({"run_timeout"})
    kind, _, name = key.partition(":")
    if kind == "skeleton":
        return CORRECT if name in SKELETONS_THAT_PASS else WRONG
    on_dataset0, graded = MUTATIONS[name]
    return graded if action == "submit" else on_dataset0


def kernels_lowered(action: str, key: str, source: str) -> int:
    """Distinct kernels the first run or grade of a never-seen program
    lowers: every kernel its host code launches, none when it does not
    compile, and only the first for the timeout, whose first launch
    never returns."""
    if expected(action, key) == COMPILE_ERROR:
        return 0
    if key == "timeout":
        return 1
    return (len(set(CUDA_LAUNCH.findall(source)))
            + len(OPENCL_KERNEL.findall(source)))


def check_table() -> None:
    """Fail fast if the catalog grew a lab or mutation the table lacks."""
    from repro.labs.mutations import MUTATIONS as CORPUS
    missing = [m.name for m in CORPUS
               if m.name not in MUTATIONS and m.name != "no-stride-advance"]
    slugs = {lab.slug for lab in ALL_LABS + EXTRA_LABS}
    unknown = SKELETONS_THAT_PASS - slugs
    if missing or unknown:
        raise SystemExit(f"oracle table out of date: mutations {missing}, "
                         f"labs {sorted(unknown)}")
