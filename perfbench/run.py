#!/usr/bin/env python3
"""Front-door attempt benchmark: student requests through WebGpuApp.

Drives generated student requests through
``repro.web.app.WebGpuApp.handle`` over a ``WebGPU2`` platform with
``PlatformCaches`` on and a two-worker fleet tagged
cuda/opencl/mpi/openacc with two GPUs each, so every catalog lab runs.
One closed-loop client in one process: it sends a request only after
the previous response. A child process times the host-speed reference
while the client waits (see hostspeed.py). A ``ManualClock`` advances 10 simulated seconds
before each compile/run/submit and 1 before any other request, so the
6-per-minute rate limiter never fires; a student whose session is
older than 7 simulated hours logs in again first.

Run from the repository root::

    python3 perfbench/run.py --workload grade_fresh --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
sends the first rounds of the seed untraced, then the seed traced, and
reports the per-layer ledger, the tracing overhead, and the
determinism check between the two passes. The last stdout line is the
JSON result; the lines before it print every metric with its unit, the
oracle's findings and the run's metadata. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter, process_time

STARTED = perf_counter()

#: Platform set-ups per run; setup_s reports their median.
SETUPS = 5
#: Seconds the host-speed reference chunk takes on the reference host.
#: The end-to-end times are scaled to it (see hostspeed.py).
REFERENCE_NOMINAL_S = 0.020
#: Wall seconds between reference samples inside a round.
REFERENCE_EVERY_S = 1.0
#: Rounds the traced run repeats untraced, for the determinism check
#: and the tracing overhead; also the rounds after which peak RSS is
#: read, so that it does not grow with how many rounds a run fits.
COMPARE_ROUNDS = 3
#: sim_service_s averages the jobs of this many first rounds: one whole
#: resubmit_storm cycle (workloads.STORM_FRESH_EVERY), and the same
#: count however many rounds the host fits into a run, so the metric
#: depends on the seed and the program alone.
SERVICE_ROUNDS = 4
#: Latency percentile reported as latency_tail_ms, per workload: high,
#: with at least 10 samples beyond it at a 25-second run, and inside a
#: band of similar requests rather than between two (grade_fresh: the
#: second-costliest of the 27 programs in a round).
TAIL_PERCENTILE = {"grade_fresh": 94, "dev_loop": 99, "resubmit_storm": 95}
#: Simulated seconds a session lives before the client logs in again
#: (sessions expire after 8 hours).
RELOGIN_S = 7 * 3600.0
#: Per-request tolerance between a request's wall time and the sum of
#: its spans' self times, and the share of requests allowed outside it
#: (a garbage-collection pause in a wrapper's prologue lands between
#: spans). The residual summed over all requests must stay within the
#: same share of their summed wall time.
SELF_TIME_TOLERANCE_S = 50e-6
SELF_TIME_TOLERANCE_SHARE = 0.02
SELF_TIME_OUTLIERS = 0.01
#: Wrapped bindings (see tracing.install) every traced run must reach.
#: Each entry is a tuple of binding prefixes, met when any binding that
#: starts with one of them was called: the lowering entry point depends
#: on the kernel engine, and which dataset generators run on the labs.
#: A binding that callers no longer look up records no call and fails
#: the run.
MUST_REACH = [(b,) for b in (
    "repro.web.app.WebGpuApp.handle", "repro.core.platform.WebGPU.save_code",
    "repro.core.platform_v2.WebGPU2._run_job",
    "repro.db.engine.Database.insert", "repro.db.engine.Database.get",
    "repro.db.engine.Database.find", "repro.db.engine.Database.find_one",
    "repro.core.platform_v2.WebGPU2.pump",
    "repro.broker.broker.MessageBroker.publish",
    "repro.broker.containers.ContainerPool.acquire",
    "repro.cluster.result_cache.GradingResultCache.fetch",
    "repro.cluster.result_cache.GradingResultCache.complete",
    "repro.cluster.worker.GpuWorker.process",
    "repro.sandbox.sandbox.SandboxExecutor.execute",
    "repro.cluster.worker.compile_source", "repro.labs.base.compile_source",
    "repro.minicuda.compiler.preprocess", "repro.minicuda.parser.tokenize",
    "repro.minicuda.compiler.parse", "repro.minicuda.compiler.analyze",
    "repro.cluster.worker.execute_lab_source",
    "repro.minicuda.compiler.CompiledProgram.run_main",
    "repro.minicuda.interpreter.Interpreter.launch_kernel",
    "repro.gpusim.host.GpuRuntime.launch",
    "repro.labs.base.compare_solution")] + [
    ("repro.minicuda.codegen.compile_kernel",
     "repro.minicuda.srcgen.compile_kernel",
     "repro.minicuda.simd.compile_kernel"),
    ("wb.dataset_gen[",)]
#: Bindings only some workloads reach: grading on the submit path, and
#: the MPI lab, which resubmit_storm does not send.
MUST_REACH_ALSO = {
    "grade_fresh": [("repro.core.platform.WebGPU.submit_for_grading",),
                    ("repro.core.grading.Grader.grade",),
                    ("repro.labs.base.run_mpi",)],
    "dev_loop": [("repro.labs.base.run_mpi",)],
    "resubmit_storm": [("repro.core.platform.WebGPU.submit_for_grading",),
                       ("repro.core.grading.Grader.grade",)],
}
#: The pass tag of a fresh token (see ``workloads.Fresh``).
PASS_TAG = re.compile(r"(?<=bench_fresh_)\d+_\w\w_")

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_rps": "1/s", "cpu_ms_per_request": "ms",
    "ok_share": "share", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_service_s": "s",
}
PER_LAYER_UNITS = {
    "web.self_ms": "ms", "core.self_ms": "ms", "core.grade_ms": "ms",
    "db.calls_per_request": "count", "db.ms_per_request": "ms",
    "broker.self_ms": "ms", "broker.container_acquire_ms": "ms",
    "cluster.worker_self_ms": "ms", "cache.self_ms": "ms",
    "cluster.result_cache_hit_ratio": "ratio",
    "cache.compile_hit_ratio": "ratio", "cache.kernel_hit_ratio": "ratio",
    "cache.cas_bytes": "bytes",
    "sandbox.executes_per_job": "count", "sandbox.self_ms": "ms",
    "sandbox.timeout_wall_ratio": "ratio",
    "minicuda.compiles_per_job": "count", "minicuda.compile_self_ms": "ms",
    "minicuda.preprocess_ms": "ms", "minicuda.lex_ms": "ms",
    "minicuda.parse_ms": "ms", "minicuda.semantic_ms": "ms",
    "minicuda.tokens_per_s": "1/s", "minicuda.launches_per_job": "count",
    "minicuda.lowering_ms": "ms", "minicuda.launch_ms": "ms",
    "minicuda.host_ms": "ms",
    "gpusim.sim_instructions_per_job": "count",
    "gpusim.host_ns_per_sim_instruction": "ns", "gpusim.run_ms": "ms",
    "labs.execute_ms": "ms", "labs.self_ms": "ms",
    "wb.dataset_gen_ms": "ms", "wb.compare_ms": "ms", "mpisim.run_ms": "ms",
    "trace.overhead_share": "share",
}
#: Span name -> the self-time metric it is charged to. These metrics
#: form the ledger: summed, they give the mean timed-request latency.
SELF_TIME_METRIC = {
    "web": "web.self_ms", "core": "core.self_ms",
    "core.grade": "core.grade_ms", "db": "db.ms_per_request",
    "broker": "broker.self_ms",
    "broker.container_acquire": "broker.container_acquire_ms",
    "cache": "cache.self_ms", "cluster.worker": "cluster.worker_self_ms",
    "sandbox": "sandbox.self_ms", "minicuda.compile":
    "minicuda.compile_self_ms", "minicuda.preprocess":
    "minicuda.preprocess_ms", "minicuda.lex": "minicuda.lex_ms",
    "minicuda.parse": "minicuda.parse_ms",
    "minicuda.semantic": "minicuda.semantic_ms",
    "labs.execute": "labs.self_ms", "minicuda.host": "minicuda.host_ms",
    "minicuda.launch": "minicuda.launch_ms",
    "minicuda.lowering": "minicuda.lowering_ms",
    "gpusim.run": "gpusim.run_ms", "wb.compare": "wb.compare_ms",
    "mpisim.run": "mpisim.run_ms", "wb.dataset_gen": "wb.dataset_gen_ms",
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grade_fresh", "dev_loop",
                                 "resubmit_storm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


# -- the platform under test -------------------------------------------------


class Env:
    """One platform, course, cohort of logged-in students and app."""

    def __init__(self, seed: int, tag: str, warm: bool = True):
        from repro.cluster import ManualClock, PlatformCaches, WorkerConfig
        from repro.core.course import CourseOffering
        from repro.core.platform_v2 import WebGPU2
        from repro.labs.catalog import get_lab
        from repro.web import WebGpuApp
        import workloads as wl

        self.clock = ManualClock()
        self.caches = PlatformCaches(clock=self.clock)
        self.platform = WebGPU2(
            clock=self.clock, num_workers=2, caches=self.caches,
            worker_config=WorkerConfig(
                tags=frozenset({"cuda", "opencl", "mpi", "openacc"}),
                num_gpus=2))
        course = self.platform.create_course(
            CourseOffering(code="PERF", year=2016),
            [lab.slug for lab in wl.LABS])
        quick = dataclasses.replace(get_lab("image-equalization"),
                                    slug=wl.QUICK_LAB,
                                    run_limit_s=wl.QUICK_RUN_LIMIT_S)
        self.platform.deploy_lab(quick)
        self.platform.install_lab(course.offering.key, wl.QUICK_LAB)
        self.app = WebGpuApp(self.platform, course.offering.key)
        self.tokens: dict[int, str] = {}
        self.login_at: dict[int, float] = {}
        for s in range(wl.STUDENTS):
            user = self.platform.users.register(self.email(s), f"S{s}", "pw")
            course.enroll(user.user_id)
            self.login(s)
        #: payload of every job a worker driver acknowledged
        self.job_events: list[dict] = []
        self.platform.metrics.primary.subscribe(self._on_metric)
        if warm:
            self._warm_up(seed, tag)

    @staticmethod
    def email(student: int) -> str:
        return f"student{student}@perf.example.edu"

    def login(self, student: int) -> None:
        from repro.web import Request
        response = self.app.handle(Request("POST", "/login", form={
            "email": self.email(student), "password": "pw"}))
        if not response.ok:
            raise RuntimeError(f"login failed: {response.body}")
        self.tokens[student] = response.body
        self.login_at[student] = self.clock.now()

    def _on_metric(self, record) -> None:
        if (record.table == "worker_metrics" and record.op == "insert"
                and record.values.get("event") == "job"):
            self.job_events.append(record.values["payload"])

    def _warm_up(self, seed: int, tag: str) -> None:
        """One compile and one run of every lab's solution, so lazy
        imports and first-use set-up are paid before measuring. It also
        counts the kernel-cache lookups that miss per never-seen kernel
        (one per kernel for the closure and codegen engines; the simd
        engine's fallback ladder looks up a codegen key as well)."""
        from repro.minicuda.codegen import KERNEL_CACHE
        from repro.web import Request
        from oracle import kernels_lowered
        import workloads as wl
        fresh = wl.Fresh(seed, tag)
        misses_before = KERNEL_CACHE.stats.misses
        kernels = 0
        for i, lab in enumerate(wl.LABS):
            s = i % wl.STUDENTS
            source = fresh(lab.solution)
            kernels += kernels_lowered("run", "solution", source)
            for method, action, form in (
                    ("POST", "code", {"source": source}),
                    ("POST", "compile", {}),
                    ("POST", "run", {"dataset": "0"})):
                self.clock.advance(10.0)
                response = self.app.handle(Request(
                    method, f"/lab/{lab.slug}/{action}", form=form,
                    session_token=self.tokens[s]))
                if not response.ok or response.body.startswith(
                        ("error", "incorrect")):
                    raise RuntimeError(f"warm-up {lab.slug}/{action} "
                                       f"failed: {response.body[:200]}")
        self.kernel_misses_per_kernel = (
            KERNEL_CACHE.stats.misses - misses_before) / kernels

    def cache_counts(self) -> dict[str, int]:
        from repro.minicuda.codegen import KERNEL_CACHE
        counts = {}
        for name, stats in (("compile", self.caches.compile.stats),
                            ("results", self.caches.results.stats),
                            ("kernel", KERNEL_CACHE.stats)):
            counts[f"{name}.hits"] = stats.hits
            counts[f"{name}.misses"] = stats.misses
        return counts


# -- one pass of the closed loop ----------------------------------------------


@dataclasses.dataclass
class Pass:
    """What one pass of the closed loop sent, got back and measured."""

    latencies: list[float] = dataclasses.field(default_factory=list)
    by_class: dict[str, list[float]] = dataclasses.field(
        default_factory=lambda: defaultdict(list))
    timed_ids: list[int] = dataclasses.field(default_factory=list)
    walls: dict[int, float] = dataclasses.field(default_factory=dict)
    classes: Counter = dataclasses.field(default_factory=Counter)
    timed_classes: Counter = dataclasses.field(default_factory=Counter)
    failures: Counter = dataclasses.field(default_factory=Counter)
    verdicts: list[tuple[str, str, str]] = dataclasses.field(
        default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    service: list[float] = dataclasses.field(default_factory=list)
    sequence_digest: str = ""
    cache_delta: dict[str, int] = dataclasses.field(default_factory=dict)
    result_digest: str = ""
    peak_rss_mb: float = 0.0
    #: per round: host slowness, the median reference time around and
    #: inside the round over REFERENCE_NOMINAL_S
    round_slowness: list[float] = dataclasses.field(default_factory=list)
    #: per round: (wall s, cpu s, timed requests)
    round_costs: list[tuple[float, float, int]] = dataclasses.field(
        default_factory=list)
    #: per round: what the pass had produced when the round ended
    #: (sequence digest, result digest, verdicts, jobs)
    round_marks: list[tuple[str, str, int, int]] = dataclasses.field(
        default_factory=list)
    expected_result_hits: int = 0
    expected_compile_misses: int = 0
    #: distinct kernels the never-seen programs of the pass lower
    expected_kernels: int = 0


def drive(env: Env, rounds, seconds: float | None, speed, tracer=None,
          max_rounds: int | None = None, compare_rounds: int = 0) -> Pass:
    """Send whole rounds until the time budget (or round count) is
    used up, sampling the host's speed around and inside each round.
    For the first ``compare_rounds`` rounds, the digest of the
    result-cache payloads added so far is kept per round."""
    from repro.web import Request
    from oracle import classify, expected, kernels_lowered

    out = Pass()
    sequence = hashlib.sha256()
    seen_jobs: set[tuple[str, str, str]] = set()
    executed_programs: set[str] = set()
    lowered_programs: set[str] = set()
    current: dict[tuple[int, str], str] = {}
    cache_before = env.cache_counts()
    cas_before = set(env.caches.results.cas.addresses)
    events_before = len(env.job_events)
    request_id = 0

    def send(req) -> None:
        nonlocal request_id
        request = Request(req.method, req.path, form=dict(req.form),
                          session_token=env.tokens[req.student])
        if tracer is not None:
            tracer.request = request_id
        start = perf_counter()
        try:
            response = env.app.handle(request)
            error = None
        except Exception as exc:  # an escaped exception is a failed request
            response = None
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        out.walls[request_id] = wall
        out.attempted += 1
        out.classes[req.cls] += 1
        if req.timed:
            out.latencies.append(wall)
            out.by_class[req.cls].append(wall)
            out.timed_ids.append(request_id)
            out.timed_classes[req.cls] += 1
        request_id += 1
        name = req.label or f"{req.cls}:{req.path}"
        if error is not None:
            failure = error
        elif not response.ok:
            failure = f"HTTP {response.status}"
        else:
            failure = None
            if req.expect is not None:
                verdict = classify(req.cls, response.body)
                out.verdicts.append((req.label, req.cls, verdict))
                if verdict not in expected(req.cls, req.expect):
                    failure = f"verdict {verdict}"
        if failure is not None:
            out.failed += 1
            out.failures[f"{name}: {failure}"] += 1

    def result_digest() -> str:
        added = sorted(set(env.caches.results.cas.addresses) - cas_before)
        return hashlib.sha256("\n".join(added).encode()).hexdigest()[:16]

    deadline = perf_counter() + (seconds or 0.0)
    last_sample = speed.sample()
    sampled_at = perf_counter()
    for round_ in rounds:
        if max_rounds is not None:
            if out.rounds >= max_rounds:
                break
        elif perf_counter() >= deadline:
            break
        out.rounds += 1
        round_wall, round_cpu = perf_counter(), process_time()
        round_samples = [last_sample]
        sampling = 0.0
        timed_before = len(out.latencies)
        for req in (req for step in round_ for req in step):
            if perf_counter() - sampled_at >= REFERENCE_EVERY_S:
                sampled_at = perf_counter()
                round_samples.append(speed.sample())
                sampling += perf_counter() - sampled_at
            env.clock.advance(10.0 if req.expect is not None else 1.0)
            if env.clock.now() - env.login_at[req.student] > RELOGIN_S:
                if tracer is not None:
                    tracer.request = request_id
                start = perf_counter()
                env.login(req.student)
                out.walls[request_id] = perf_counter() - start
                request_id += 1
                out.attempted += 1
                out.classes["login"] += 1
            # the pass tag inside fresh tokens differs between passes
            sequence.update(PASS_TAG.sub("", f"{req.method} {req.path} "
                                             f"{req.form}\n").encode())
            slug = req.path.split("/")[2] if req.path.startswith(
                "/lab/") else ""
            if req.cls == "save":
                current[(req.student, slug)] = req.form["source"]
            elif req.expect is not None:
                source = current[(req.student, slug)]
                key = (source, slug, req.cls)
                if key in seen_jobs:
                    out.expected_result_hits += 1
                else:
                    seen_jobs.add(key)
                    # a fresh program's first line is its token; its
                    # comment and whitespace variants keep the token
                    token = source.split("\n", 1)[0]
                    if "unterminated-comment" not in req.label:
                        executed_programs.add(token)
                    if req.cls != "compile" and token not in lowered_programs:
                        lowered_programs.add(token)
                        out.expected_kernels += kernels_lowered(
                            req.cls, req.expect, source)
            send(req)
        out.round_costs.append((perf_counter() - round_wall - sampling,
                                process_time() - round_cpu - sampling,
                                len(out.latencies) - timed_before))
        last_sample = speed.sample()
        sampled_at = perf_counter()
        round_samples.append(last_sample)
        out.round_slowness.append(statistics.median(round_samples)
                                  / REFERENCE_NOMINAL_S)
        if out.rounds <= COMPARE_ROUNDS:
            out.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.round_marks.append((
            sequence.hexdigest()[:16],
            result_digest() if out.rounds <= compare_rounds else "",
            len(out.verdicts), len(env.job_events) - events_before))
    if tracer is not None:
        tracer.request = -1
    out.sequence_digest = sequence.hexdigest()[:16]
    out.expected_compile_misses = len(executed_programs)
    after = env.cache_counts()
    out.cache_delta = {k: after[k] - cache_before[k] for k in after}
    out.result_digest = result_digest()
    out.service = [float(e["service_s"])
                   for e in env.job_events[events_before:]]
    return out


# -- checks ---------------------------------------------------------------------


def freshness_guard(workload: str, run: Pass, env: Env) -> list[str]:
    """Cache behaviour the workload is designed for; returns problems.
    Each cache's count is predicted from the requests sent, so a cache
    that starts to hit across never-seen programs shows as a miss count
    below the prediction."""
    from repro.minicuda.interpreter import resolve_engine
    problems = []
    delta = run.cache_delta
    if delta["results.hits"] != run.expected_result_hits:
        problems.append(
            f"result cache hits {delta['results.hits']} != "
            f"{run.expected_result_hits} identical resubmissions")
    if delta["compile.misses"] != run.expected_compile_misses:
        problems.append(
            f"compile cache misses {delta['compile.misses']} != "
            f"{run.expected_compile_misses} distinct programs executed")
    per_kernel = env.kernel_misses_per_kernel
    if per_kernel != int(per_kernel) or (
            per_kernel < 1 and resolve_engine(None) != "ast"):
        # only the tree-walking ast engine lowers nothing
        problems.append(f"warm-up: {per_kernel:g} kernel-cache misses per "
                        "never-seen kernel, not a whole number of at least "
                        "1")
    elif delta["kernel.misses"] != run.expected_kernels * per_kernel:
        problems.append(
            f"kernel cache misses {delta['kernel.misses']} != "
            f"{run.expected_kernels} kernels lowered by distinct programs "
            f"x {per_kernel:.0f} per kernel")
    if workload == "grade_fresh" and run.expected_result_hits:
        problems.append("grade_fresh sent a program twice")
    if workload == "resubmit_storm":
        # the generator's assumed share (workloads.STORM_RESUBMITS)
        share = run.expected_result_hits / max(1, sum(
            run.timed_classes[c] for c in ("run", "submit")))
        if not 0.7 <= share <= 0.8:
            problems.append(f"resubmission share {share:.3f} outside "
                            "the 0.7-0.8 the generator is built to send")
    return problems


def reach_check(tracer, workload: str) -> list[str]:
    """Every binding the workload must reach recorded a call."""
    problems = []
    for prefixes in MUST_REACH + MUST_REACH_ALSO[workload]:
        matched = [b for b in tracer.wrapped if b.startswith(prefixes)]
        if not matched:
            problems.append(f"tracing: {' or '.join(prefixes)} is not "
                            "wrapped")
        elif not any(tracer.calls[b] for b in matched):
            problems.append(f"tracing: {' or '.join(prefixes)} recorded no "
                            "call")
    return problems


def self_time_check(tracer, run: Pass) -> tuple[list[str], float]:
    """Per request, the spans' self times must sum to its wall time.
    The root span is the wrapped ``handle``, so this holds whenever it
    is wrapped and the ledger loses no time between spans; that callers
    reach the wrapped bindings is ``reach_check``'s job."""
    own = tracer.self_times()
    per_request: dict[int, float] = defaultdict(float)
    for index, request in enumerate(tracer.requests):
        per_request[request] += own[index]
    outside = 0
    worst = total_residual = 0.0
    for request, wall in run.walls.items():
        residual = wall - per_request.get(request, 0.0)
        total_residual += residual
        worst = max(worst, abs(residual))
        if abs(residual) > (SELF_TIME_TOLERANCE_S
                            + SELF_TIME_TOLERANCE_SHARE * wall):
            outside += 1
    problems = []
    total_wall = sum(run.walls.values())
    if (outside > SELF_TIME_OUTLIERS * len(run.walls)
            or abs(total_residual) > SELF_TIME_TOLERANCE_SHARE * total_wall):
        problems.append(f"self times miss the wall time on {outside} of "
                        f"{len(run.walls)} requests; total residual "
                        f"{total_residual * 1e3:.3f} ms of "
                        f"{total_wall * 1e3:.1f} ms")
    return problems, worst


# -- metrics ---------------------------------------------------------------------


def scaled_latencies(run: Pass, rounds: int | None = None) -> list[float]:
    """Timed-request latencies of the first ``rounds`` rounds (all by
    default), each divided by its round's host slowness."""
    scaled: list[float] = []
    first = 0
    for (_wall, _cpu, n), slow in list(zip(run.round_costs,
                                           run.round_slowness))[:rounds]:
        scaled += [x / slow for x in run.latencies[first:first + n]]
        first += n
    return scaled


def end_to_end(workload: str, run: Pass, setup_s: float) -> dict:
    """The end-to-end metrics. Times are scaled by each round's host
    slowness, so they read as on a host where the reference chunk takes
    REFERENCE_NOMINAL_S."""
    scaled = scaled_latencies(run)
    return {
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": percentile(scaled,
                                      TAIL_PERCENTILE[workload]) * 1e3,
        "throughput_rps": statistics.median(
            n / wall * slow for (wall, _cpu, n), slow
            in zip(run.round_costs, run.round_slowness)),
        "cpu_ms_per_request": statistics.median(
            cpu * 1e3 / n / slow for (_wall, cpu, n), slow
            in zip(run.round_costs, run.round_slowness)),
        "ok_share": 1.0 - run.failed / run.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_rss_mb,
        "sim_service_s": statistics.fmean(run.service[:run.round_marks[
            min(run.rounds, SERVICE_ROUNDS) - 1][3]]),
    }


def per_layer(tracer, run: Pass, overhead: float, env: Env) -> dict:
    own = tracer.self_times()
    timed = set(run.timed_ids)
    n = len(run.timed_ids)
    names, parents = tracer.names, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    self_ms: dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    lex_tokens = 0
    timeout_wall = timeout_limit = 0.0
    instructions = 0.0
    for i, name in enumerate(names):
        if tracer.requests[i] not in timed:
            continue
        self_ms[name] += own[i] * 1e3
        count[name] += 1
        duration = ends[i] - starts[i]
        inclusive[name] += duration
        value = tracer.values.get(i)
        if name == "minicuda.lex":
            lex_tokens += value or 0
        elif name == "sandbox" and value is not None:
            timeout_wall += duration
            timeout_limit += value
        elif name == "gpusim.run":
            instructions += value or 0
        elif (name == "minicuda.compile" and parents[i] >= 0
              and names[parents[i]] == "labs.execute"):
            inclusive["labs.execute"] -= duration
    thread_instructions = [amount for request, _c, amount
                           in tracer.thread_counts if request in timed]
    jobs = max(1, count["cluster.worker"])
    delta = run.cache_delta

    def ratio(cache: str) -> float:
        hits = delta[f"{cache}.hits"]
        return hits / max(1, hits + delta[f"{cache}.misses"])

    metrics = {metric: self_ms[span] / n
               for span, metric in SELF_TIME_METRIC.items()}
    metrics.update({
        "db.calls_per_request": count["db"] / n,
        "cluster.result_cache_hit_ratio": ratio("results"),
        "cache.compile_hit_ratio": ratio("compile"),
        "cache.kernel_hit_ratio": ratio("kernel"),
        "cache.cas_bytes": float(env.caches.results.cas.total_bytes),
        "sandbox.executes_per_job": count["sandbox"] / jobs,
        "sandbox.timeout_wall_ratio": (timeout_wall / timeout_limit
                                       if timeout_limit else 0.0),
        "minicuda.compiles_per_job": count["minicuda.compile"] / jobs,
        "minicuda.tokens_per_s": (lex_tokens / inclusive["minicuda.lex"]
                                  if inclusive["minicuda.lex"] else 0.0),
        "minicuda.launches_per_job": (count["gpusim.run"]
                                      + len(thread_instructions)) / jobs,
        "gpusim.sim_instructions_per_job": (
            instructions + sum(thread_instructions)) / jobs,
        "gpusim.host_ns_per_sim_instruction": (
            self_ms["gpusim.run"] * 1e6 / instructions
            if instructions else 0.0),
        "labs.execute_ms": inclusive["labs.execute"] * 1e3 / n,
        "trace.overhead_share": overhead,
    })
    return metrics


def compiles_by_kind(tracer) -> dict[str, str]:
    """Front-end compiles per worker job, by how many datasets the job
    ran (today: 3 for a one-dataset run, 1 + 2N for an N-dataset
    grade)."""
    names, parents = tracer.names, tracer.parents
    job_of: dict[int, int] = {}
    compiles: Counter = Counter()
    sandboxes: Counter = Counter()
    for i, name in enumerate(names):
        if name == "cluster.worker":
            job_of[i] = i
        elif parents[i] in job_of:
            job_of[i] = job_of[parents[i]]
        else:
            continue
        if name == "minicuda.compile":
            compiles[job_of[i]] += 1
        elif name == "sandbox":
            sandboxes[job_of[i]] += 1
    kinds: dict[int, list[int]] = defaultdict(list)
    for job in (i for i, j in job_of.items() if i == j):
        kinds[sandboxes[job] - 1].append(compiles[job])
    return {f"{n} dataset(s)": f"{statistics.fmean(v):.2f} over "
                               f"{len(v)} job(s)"
            for n, v in sorted(kinds.items())}


def defect_probe(seed: int) -> str:
    """The known nested-expression defect, on a throwaway platform:
    one deeply nested input followed by three ordinary runs."""
    from repro.web import Request
    import workloads as wl
    env = Env(seed, "dp", warm=False)
    fresh = wl.Fresh(seed, "dp")
    solution = wl.program_pool()["solution:vector-add"].source
    sources = [wl.nested_source(wl.DEFECT_NEST_DEPTH)] + [solution] * 3
    failures = []
    for s, source in enumerate(sources):
        env.clock.advance(10.0)
        env.app.handle(Request("POST", "/lab/vector-add/code",
                               form={"source": fresh(source)},
                               session_token=env.tokens[s]))
        try:
            response = env.app.handle(Request(
                "POST", "/lab/vector-add/run", form={"dataset": "0"},
                session_token=env.tokens[s]))
            if not response.ok:
                failures.append(f"HTTP {response.status}")
        except Exception as exc:  # the defect: an escaped exception
            failures.append(type(exc).__name__)
    if not failures:
        return ("fixed: a nested-expression input of depth "
                f"{wl.DEFECT_NEST_DEPTH} no longer fails a request")
    return (f"present: depth-{wl.DEFECT_NEST_DEPTH} nested expression, "
            f"{len(failures)} of {len(sources)} requests failed "
            f"({', '.join(failures)}) — the exception escapes handle() and "
            "the leased job is redelivered into later requests")


def metadata(args, run: Pass) -> dict:
    import numpy
    from repro.minicuda.interpreter import resolve_engine
    from repro.minicuda.parser import resolve_backend
    head = ".git/HEAD"
    rev = "not a git checkout"
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        rev = ref
        if ref.startswith("ref: ") and os.path.exists(".git/" + ref[5:]):
            with open(".git/" + ref[5:]) as f:
                rev = f.read().strip()
    digest = hashlib.sha256()
    for base, _dirs, files in sorted(os.walk("src")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_rev": rev, "src_digest": digest.hexdigest()[:16],
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "kernel_engine": resolve_engine(None),
        "parser": resolve_backend(None), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": run.rounds, "requests": dict(sorted(run.classes.items())),
        "timed_requests": dict(sorted(run.timed_classes.items())),
        "sequence_digest": run.sequence_digest,
        "result_digest": run.result_digest,
    }


def main() -> int:
    args = parse_args()
    for var in ("WEBGPU_KERNEL_ENGINE", "WEBGPU_PARSER"):
        os.environ.pop(var, None)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import hostspeed
    import oracle
    import repro.web  # noqa: F401  (the import cost belongs to set-up)
    import_s = perf_counter() - STARTED
    oracle.check_table()
    with hostspeed.HostSpeed() as speed:
        return bench(args, import_s, speed)


def bench(args, import_s: float, speed) -> int:
    """Set up, drive the workload, check it and print the result."""
    import tracing
    import workloads as wl

    # each set-up is scaled by the host slowness sampled around it
    before = speed.sample()
    import_s /= before / REFERENCE_NOMINAL_S
    setups, raw_setups = [], []
    for k in range(SETUPS):
        start = perf_counter()
        env = Env(args.seed, f"w{k}")
        raw_setups.append(perf_counter() - start)
        after = speed.sample()
        setups.append(raw_setups[-1] / (statistics.fmean((before, after))
                                        / REFERENCE_NOMINAL_S))
        before = after
    setup_s = import_s + statistics.median(setups)
    make_rounds = wl.WORKLOADS[args.workload]

    problems: list[str] = []
    if args.trace:
        # the untraced comparison runs first, on its own platform, so
        # the traced pass's spans do not slow it (garbage collection)
        untraced = drive(Env(args.seed, "wu"), make_rounds(args.seed, "mu"),
                         None, speed, max_rounds=COMPARE_ROUNDS,
                         compare_rounds=COMPARE_ROUNDS)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            run = drive(env, make_rounds(args.seed, "mt"), args.seconds,
                        speed, tracer=tracer, compare_rounds=COMPARE_ROUNDS)
        finally:
            tracer.restore()
        k = min(run.rounds, COMPARE_ROUNDS)
        traced_mark = run.round_marks[k - 1]
        untraced_mark = untraced.round_marks[k - 1]
        for what, index, a, b in (
                ("request sequence", 0, None, None),
                ("result/KernelStats digest", 1, None, None),
                ("verdicts", 2, run.verdicts, untraced.verdicts),
                ("sim service seconds", 3, run.service, untraced.service)):
            if a is None:
                same = traced_mark[index] == untraced_mark[index]
            else:
                same = (a[:traced_mark[index]]
                        == b[:untraced_mark[index]])
            if not same:
                problems.append(f"determinism: {what} differ between the "
                                f"traced and untraced passes of the first "
                                f"{k} round(s)")
        overhead = (statistics.fmean(scaled_latencies(run, k))
                    / statistics.fmean(scaled_latencies(untraced, k)) - 1.0)
        bad, worst = self_time_check(tracer, run)
        problems += bad + reach_check(tracer, args.workload)
        metrics = per_layer(tracer, run, overhead, env)
        units = PER_LAYER_UNITS
        os.makedirs(".perfbench_out", exist_ok=True)
        span_file = (f".perfbench_out/spans-{args.workload}-"
                     f"seed{args.seed}.jsonl.gz")
        tracer.write(span_file)
        print(f"spans: {len(tracer.names)} written to {span_file}; "
              f"worst self-time residual of a request {worst * 1e6:.1f} us")
        for kind, text in compiles_by_kind(tracer).items():
            print(f"minicuda compiles per job, {kind}: {text}")
    else:
        run = drive(env, make_rounds(args.seed, "mm"), args.seconds, speed)
        metrics = end_to_end(args.workload, run, setup_s)
        units = END_TO_END_UNITS
        tail = TAIL_PERCENTILE[args.workload]
        beyond = len(run.latencies) - math.ceil(
            tail / 100.0 * len(run.latencies))
        print(f"latency_tail_ms is p{tail} of {len(run.latencies)} timed "
              f"requests ({beyond} beyond it"
              f"{'; too few for a steady tail' if beyond < 10 else ''})")
        print(f"failed_share {run.failed / run.attempted:.6f} "
              f"({run.failed} of {run.attempted} requests)")
        print(f"setup_s = imports {import_s:.3f} s + median of "
              f"{SETUPS} set-ups {[round(s, 3) for s in setups]} "
              f"(unscaled {[round(s, 3) for s in raw_setups]})")
        print(f"host slowness per round (reference chunk / "
              f"{REFERENCE_NOMINAL_S * 1e3:.0f} ms): "
              f"{[round(x, 3) for x in run.round_slowness]}; unscaled "
              f"p50 {statistics.median(run.latencies) * 1e3:.3f} ms, "
              f"rounds/s {run.rounds / sum(w for w, _c, _n in run.round_costs):.3f}")
    for cls, walls in sorted(run.by_class.items()):
        print(f"{cls:8s} {len(walls):6d} timed, median "
              f"{statistics.median(walls) * 1e3:.3f} ms, total "
              f"{sum(walls):.3f} s")
    problems += freshness_guard(args.workload, run, env)
    print(f"cache deltas: {run.cache_delta}; expected result hits "
          f"{run.expected_result_hits}, expected compile misses "
          f"{run.expected_compile_misses}, expected kernel misses "
          f"{run.expected_kernels} x {env.kernel_misses_per_kernel:g}")
    for failure, n in sorted(run.failures.items()):
        print(f"FAILED x{n}: {failure}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"known defect, nested expression: {defect_probe(args.seed)}")
    print("meta: " + json.dumps(metadata(args, run), sort_keys=True))
    for name in units:
        print(f"{name:38s} {metrics[name]:16.6f} {units[name]}")
    correct = not problems and run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
