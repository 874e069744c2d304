"""The GPU worker node (paper Sections III-C and III-D).

"Upon a user program submission, the web-server selects a single worker
node and sends user code along with configurations specified by the
lab. The worker node then compiles, executes, and evaluates the code
using the datasets provided by the instructor."

Each dataset evaluation runs the full sandbox pipeline: blacklist scan,
time-limited compile, seccomp-gated execution confined to a fresh temp
directory. Results (or error messages) go back to the web-server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.job import DatasetOutcome, Job, JobKind, JobResult, JobStatus
from repro.cluster.node import Clock, ManualClock, Node
from repro.gpusim.device import DeviceSpec, KEPLER_K20
from repro.labs.base import LabDefinition, execute_lab_source
from repro.minicuda import CompileError, compile_source
from repro.profiler import LineProfile, check_line_budgets
from repro.sandbox import (
    BlacklistScanner,
    SandboxConfig,
    SandboxExecutor,
    SeccompPolicy,
)
from repro.sandbox.sandbox import CompileFailure, ExecutionOutcome, SandboxEnv
from repro.telemetry import NULL_SPAN, Telemetry, requirement_tag

#: Fixed overhead per job for scheduling/IO on the worker, seconds.
JOB_OVERHEAD_S = 0.15
#: Interpreter step budget per wall-clock second of run limit.
STEPS_PER_LIMIT_SECOND = 400_000


@dataclass(frozen=True)
class WorkerConfig:
    """Deployment parameters of one worker."""

    tags: frozenset[str] = frozenset({"cuda"})
    gpu_spec: DeviceSpec = KEPLER_K20
    num_gpus: int = 1
    health_interval_s: float = 10.0
    policy: SeccompPolicy = field(default_factory=SeccompPolicy.baseline)
    scanner: BlacklistScanner = field(default_factory=BlacklistScanner)
    #: kernel execution engine ("simd"/"codegen"/"ast");
    #: None → env var/default
    kernel_engine: str | None = None
    #: run every dataset evaluation under the per-source-line kernel
    #: profiler; attempt results then carry the LineProfile ledger
    line_profile: bool = False


class GpuWorker(Node):
    """A worker node: accepts jobs, evaluates them in the sandbox."""

    kind = "worker"

    def __init__(self, config: WorkerConfig | None = None,
                 clock: Clock | None = None, zone: str = "us-east-1a",
                 name: str = "", compile_cache: Any = None,
                 result_cache: Any = None,
                 telemetry: Telemetry | None = None,
                 profile_cas: Any = None):
        super().__init__(zone=zone, name=name)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.config = config or WorkerConfig()
        self.clock = clock or ManualClock()
        self.jobs_processed = 0
        self.busy_seconds = 0.0
        self.outcome_counts: dict[str, int] = {}
        self.last_heartbeat = self.clock.now()
        self.drop_health_checks = False  # fault injection
        self.crash_mid_job = False       # armed: die after taking a job
        self.wedge_mid_job = False       # armed: wedge holding a job
        self.wedged = False              # stuck: alive but not polling
        self.active_jobs = 0
        #: optional repro.minicuda.CompileCache shared across the fleet
        self.compile_cache = compile_cache
        #: optional repro.cluster.result_cache.GradingResultCache
        self.result_cache = result_cache
        self.cache_hits = 0
        #: optional repro.cache.cas.ContentAddressedStore for serialized
        #: line-profile ledgers (dedup by content: identical programs
        #: produce identical ledgers, stored once fleet-wide)
        self.profile_cas = profile_cas
        #: (program fingerprint, lab slug, dataset index) -> CAS address
        self._profile_index: dict[tuple[str, str, int], str] = {}
        self.profile_cache_hits = 0

    # -- capability matching (v2 uses this for pull; v1 for placement) -----

    def can_run(self, job: Job) -> bool:
        needs = set(job.requirements)
        if "multi-gpu" in needs and self.config.num_gpus < 2:
            return False
        needs.discard("multi-gpu")
        return needs <= set(self.config.tags)

    # -- health ----------------------------------------------------------------

    def heartbeat(self) -> float | None:
        """Emit a health check (returns the timestamp, or None if the
        fault injector is suppressing them)."""
        if not self.alive or self.drop_health_checks:
            return None
        self.last_heartbeat = self.clock.now()
        return self.last_heartbeat

    # -- job processing -----------------------------------------------------------

    def process(self, job: Job, started_at: float | None = None) -> JobResult:
        """Run one job to completion (synchronous, simulated time).

        ``started_at`` lets the caller offset the job's simulated start
        (the v2 driver passes poll time + container acquisition so the
        worker's spans nest after the container span); it defaults to
        the clock.
        """
        started = self.clock.now() if started_at is None else started_at
        if self.crash_mid_job:
            # fault injection: the process dies after taking the job
            # but before producing a result
            self.crash_mid_job = False
            self.crash()
        if not self.alive:
            return JobResult(job_id=job.job_id, status=JobStatus.FAILED,
                             worker_name=self.name, started_at=started,
                             finished_at=started,
                             error=f"worker {self.name} is down")
        self.active_jobs += 1
        self.jobs_processed += 1
        tracer = self.telemetry.tracer
        span = NULL_SPAN
        if tracer.enabled:
            span = tracer.start_span("process", parent=job.trace,
                                     time=started, job_id=job.job_id,
                                     worker=self.name, lab=job.lab.slug,
                                     kind=job.kind.value)
        try:
            result = self._evaluate_cached(job, started, span)
        finally:
            self.active_jobs -= 1
        span.end(time=max(started, result.finished_at),
                 status=result.status.value)
        self.busy_seconds += result.service_seconds
        for d in result.datasets:
            self.outcome_counts[d.outcome] = (
                self.outcome_counts.get(d.outcome, 0) + 1)
        return result

    def _evaluate_cached(self, job: Job, started: float,
                         span: Any = NULL_SPAN) -> JobResult:
        """Consult the grading result cache before the sandbox: a
        resubmission of unchanged code against unchanged datasets is
        answered from cache without entering the sandbox at all."""
        if self.result_cache is None:
            return self._evaluate(job, started, span)
        cached = self.result_cache.fetch(job, worker_name=self.name,
                                         now=started)
        if cached is not None:
            self.cache_hits += 1
            span.event("cache.hit", time=started, cache="grading_results")
            return cached
        span.event("cache.miss", time=started, cache="grading_results")
        result = self._evaluate(job, started, span)
        self.result_cache.complete(job, result)
        return result

    def _evaluate(self, job: Job, started: float,
                  span: Any = NULL_SPAN) -> JobResult:
        lab = job.lab
        sandbox = SandboxExecutor(SandboxConfig(
            policy=self.config.policy,
            compile_limit_s=lab.compile_limit_s,
            run_limit_s=lab.run_limit_s,
            scanner=self.config.scanner,
        ), telemetry=self.telemetry)
        result = JobResult(job_id=job.job_id, status=JobStatus.COMPLETED,
                           worker_name=self.name, started_at=started)
        elapsed = JOB_OVERHEAD_S
        tag = requirement_tag(job)
        tracer = self.telemetry.tracer

        if job.kind is JobKind.COMPILE_ONLY:
            indices: list[int] = []
        elif job.kind is JobKind.FULL_GRADING:
            indices = list(range(len(lab.dataset_sizes)))
        else:
            indices = [min(job.dataset_index, len(lab.dataset_sizes) - 1)]

        # compile-only check first so pure compile jobs still sandbox-scan
        compile_start = started + elapsed
        compile_probe = sandbox.execute(
            job.source, self._compile_fn(lab), lambda artifact, env: None)
        result.compile_ok = compile_probe.ok
        result.compile_message = compile_probe.stderr
        result.compile_seconds = compile_probe.compile_seconds
        elapsed += compile_probe.compile_seconds
        self.telemetry.record_stage("compile", compile_probe.compile_seconds,
                                    tag=tag, trace=job.trace)
        if tracer.enabled:
            # end at started + elapsed (not compile_start + seconds):
            # same value, but the same summation order as finished_at,
            # so nesting survives float non-associativity
            tracer.start_span(
                "compile", parent=span, time=compile_start,
                job_id=job.job_id, ok=compile_probe.ok).end(
                    time=started + elapsed)
        if not compile_probe.ok:
            result.finished_at = started + elapsed
            return result

        for index in indices:
            data = lab.dataset(index)
            max_steps = int(lab.run_limit_s * STEPS_PER_LIMIT_SECOND)
            exec_start = started + elapsed
            run = sandbox.execute(
                job.source, self._compile_fn(lab),
                self._run_fn(lab, data, max_steps))
            elapsed += run.compile_seconds + run.run_seconds
            self.telemetry.record_stage(
                "exec", run.compile_seconds + run.run_seconds, tag=tag,
                trace=job.trace)
            if tracer.enabled:
                tracer.start_span(
                    "exec", parent=span, time=exec_start,
                    job_id=job.job_id, dataset_index=index,
                    outcome=run.outcome.value).end(
                        time=started + elapsed)
            if run.ok:
                execution = run.value
                outcome = DatasetOutcome(
                    dataset_index=index,
                    outcome=ExecutionOutcome.OK.value,
                    correct=execution.passed,
                    report=execution.compare.report(),
                    stdout=tuple(execution.stdout),
                    kernel_seconds=execution.kernel_seconds,
                    profile=self._profile_summary(execution))
                self._attach_line_profile(job, index, execution, outcome)
                result.datasets.append(outcome)
            else:
                result.datasets.append(DatasetOutcome(
                    dataset_index=index, outcome=run.outcome.value,
                    correct=False, report=run.stderr))
        result.finished_at = started + elapsed
        return result

    def _attach_line_profile(self, job: Job, index: int, execution: Any,
                             outcome: DatasetOutcome) -> None:
        """Attach the per-line ledger to the attempt result, assert the
        lab's line budgets against it, and persist it in the profile
        CAS keyed by the program's preprocessed-source fingerprint
        (identical resubmissions share one blob)."""
        lp = getattr(execution, "line_profile", None)
        if lp is None:
            return
        outcome.line_profile = lp
        if job.lab.line_budgets:
            outcome.budget_violations = tuple(check_line_budgets(
                job.lab.line_budgets, lp, job.source))
        if self.profile_cas is None or not execution.fingerprint:
            return
        key = (execution.fingerprint, job.lab.slug, index)
        address = self._profile_index.get(key)
        if address is not None and self.profile_cas.contains(address):
            self.profile_cache_hits += 1
        else:
            address = self.profile_cas.put(lp.to_json().encode())
            self._profile_index[key] = address
        outcome.profile_address = address

    def cached_profile(self, fingerprint: str, lab_slug: str,
                       dataset_index: int) -> "LineProfile | None":
        """Recall a previously stored ledger from the profile CAS, or
        None when this (program, lab, dataset) was never profiled."""
        if self.profile_cas is None:
            return None
        address = self._profile_index.get(
            (fingerprint, lab_slug, dataset_index))
        if address is None or not self.profile_cas.contains(address):
            return None
        return LineProfile.from_json(self.profile_cas.get(address).decode())

    @staticmethod
    def _profile_summary(execution: Any) -> dict[str, float]:
        """Aggregate kernel counters into the per-attempt profile the
        platform shows next to each attempt (and that automated
        feedback reasons over)."""
        stats = execution.kernel_stats
        if not stats:
            return {}
        loads = sum(s.global_load_transactions for s in stats)
        reqs = sum(s.global_load_requests for s in stats)
        return {
            "kernels": float(len(stats)),
            "instructions": float(sum(s.instructions for s in stats)),
            "load_transactions": float(loads),
            "load_efficiency": (
                min(1.0, sum(s.bytes_read for s in stats)
                    / (loads * 128.0)) if loads else 1.0),
            "load_requests": float(reqs),
            "shared_accesses": float(sum(s.shared_accesses for s in stats)),
            "bank_conflicts": float(sum(s.bank_conflicts for s in stats)),
            "atomic_ops": float(sum(s.atomic_ops for s in stats)),
            "max_atomic_contention": float(max(
                (s.max_atomic_contention for s in stats), default=0)),
            "barriers": float(sum(s.barriers for s in stats)),
        }

    def _compile_fn(self, lab: LabDefinition):
        def compile_fn(source: str, limiter: Any):
            try:
                program = compile_source(source, cache=self.compile_cache,
                                         telemetry=self.telemetry)
            except CompileError as exc:
                limiter.charge(0.2)  # front-end bails early
                raise CompileFailure(str(exc)) from None
            # a CompileCache hit charges zero synthetic nvcc cost
            limiter.charge(program.estimated_compile_seconds)
            return program

        return compile_fn

    def _run_fn(self, lab: LabDefinition, data: Any, max_steps: int):
        from repro.minicuda.interpreter import KernelHang
        from repro.sandbox.limits import TimeLimitExceeded

        def run_fn(artifact: Any, env: SandboxEnv):
            try:
                execution = execute_lab_source(
                    lab, artifact.source, data, spec=self.config.gpu_spec,
                    max_steps=max_steps,
                    stdout_hook=lambda _line: None,
                    syscall_hook=env.gate.invoke,
                    engine=self.config.kernel_engine,
                    telemetry=self.telemetry,
                    profile=self.config.line_profile,
                    compile_cache=self.compile_cache)
            except KernelHang:
                # an exhausted step budget is the watchdog firing
                raise TimeLimitExceeded("run", lab.run_limit_s,
                                        lab.run_limit_s) from None
            env.run_limiter.charge(execution.device_seconds + 0.01)
            return execution

        return run_fn
