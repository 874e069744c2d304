"""Lab definitions and the language-aware execution harness."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.gpusim import Device, DeviceSpec, GpuRuntime, KEPLER_K20
from repro.minicuda import (
    CompileError, CompiledProgram, HostEnv, compile_source)
from repro.mpisim import run_mpi
from repro.profiler import LineBudget, merge_stats_profiles
from repro.wb.comparison import CompareResult, compare_solution
from repro.wb.datasets import GeneratedData, generators


class EvaluationMode(enum.Enum):
    """How a lab's output is judged."""

    SOLUTION = "solution"          # wbSolution vs expected dataset
    STDOUT_MARKERS = "stdout"      # program output must contain markers
    KERNEL_ONLY = "kernel_only"    # harness launches one kernel directly
    MPI = "mpi"                    # multi-rank wbSolution at rank 0


@dataclass(frozen=True)
class Rubric:
    """Point allocation (paper Section IV-E item 5)."""

    dataset_points: int = 80
    compile_points: int = 10
    question_points: int = 10

    @property
    def total(self) -> int:
        return self.dataset_points + self.compile_points + self.question_points


@dataclass(frozen=True)
class LabDefinition:
    """Everything an instructor deploys for one lab (Section IV-E)."""

    slug: str
    title: str
    description: str                     # markdown
    skeleton: str                        # starter code shown in editor
    solution: str                        # reference solution (not shown)
    generator: str                       # key into wb.datasets.generators
    dataset_sizes: tuple[int, ...]       # one dataset per size
    language: str = "cuda"               # cuda | opencl | cuda-mpi
    mode: EvaluationMode = EvaluationMode.SOLUTION
    courses: frozenset[str] = frozenset()
    requirements: frozenset[str] = frozenset()   # worker tags (mpi, ...)
    rubric: Rubric = Rubric()
    questions: tuple[str, ...] = ()
    stdout_markers: tuple[str, ...] = ()
    kernel_name: str = ""               # for KERNEL_ONLY labs
    compile_limit_s: float = 30.0
    run_limit_s: float = 60.0
    deadline: float | None = None        # platform sets per offering
    #: Per-line budget rules asserted against the line profiler's
    #: ledger when grading runs with profiling on (e.g. "no global
    #: loads on the inner-loop line"). Empty → nothing asserted.
    line_budgets: tuple[LineBudget, ...] = ()

    def datasets(self, base_seed: int = 1234) -> list[GeneratedData]:
        """Generate this lab's graded datasets deterministically."""
        gen = generators[self.generator]
        return [gen(base_seed + i, size)
                for i, size in enumerate(self.dataset_sizes)]

    def dataset(self, index: int, base_seed: int = 1234) -> GeneratedData:
        gen = generators[self.generator]
        return gen(base_seed + index, self.dataset_sizes[index])


@dataclass
class LabExecution:
    """Result of running lab source against one dataset."""

    compare: CompareResult
    stdout: list[str] = field(default_factory=list)
    kernel_seconds: float = 0.0
    device_seconds: float = 0.0
    exit_code: int = 0
    kernel_stats: list[Any] = field(default_factory=list)
    #: Merged per-line ledger across every profiled launch (None when
    #: the run was not profiled).
    line_profile: Any = None
    #: Preprocessed-source fingerprint — the CAS key for the profile.
    fingerprint: str = ""

    @property
    def passed(self) -> bool:
        return self.exit_code == 0 and self.compare.correct


def execute_lab_source(lab: LabDefinition, source: str, data: GeneratedData,
                       spec: DeviceSpec = KEPLER_K20,
                       max_steps: int = 50_000_000,
                       stdout_hook: Any = None,
                       syscall_hook: Any = None,
                       engine: str | None = None,
                       telemetry: Any = None,
                       profile: bool = False,
                       compile_cache: Any = None) -> LabExecution:
    """Compile + run ``source`` for ``lab`` against one dataset.

    This is the worker's inner evaluation step, shared with the offline
    harness and the grader. Compile errors propagate as
    :class:`repro.minicuda.CompileError`; runtime faults propagate as
    their interpreter/simulator exceptions (the sandbox layer catches
    and classifies them). ``engine`` selects the kernel execution
    engine (``"simd"``/``"codegen"``/``"ast"``; None → env var /
    default ``"simd"``).
    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is handed to
    the :class:`GpuRuntime` so per-kernel wall time and KernelStats
    land in the metrics registry; None keeps the launch path untimed.
    ``profile`` turns on the per-source-line kernel profiler: the
    result's ``line_profile`` holds the merged ledger across every
    launch and ``fingerprint`` the CAS key for caching it.
    ``compile_cache`` (a :class:`repro.minicuda.CompileCache`) serves
    the compile: the worker passes its own, so a source its sandbox
    compile step just checked is not run through the front end again.
    No synthetic compile cost is charged here either way.
    """
    program = compile_source(source, cache=compile_cache)
    if lab.mode is EvaluationMode.KERNEL_ONLY:
        return _execute_kernel_only(lab, program, data, spec, max_steps,
                                    engine, telemetry, profile)
    if lab.mode is EvaluationMode.MPI:
        return _execute_mpi(lab, program, data, spec, max_steps,
                            stdout_hook, syscall_hook, engine, telemetry,
                            profile)
    return _execute_full_program(lab, program, data, spec, max_steps,
                                 stdout_hook, syscall_hook, engine,
                                 telemetry, profile)


def _execute_full_program(lab: LabDefinition, program: CompiledProgram,
                          data: GeneratedData, spec: DeviceSpec,
                          max_steps: int, stdout_hook: Any = None,
                          syscall_hook: Any = None,
                          engine: str | None = None,
                          telemetry: Any = None,
                          profile: bool = False) -> LabExecution:
    runtime = GpuRuntime(Device(spec), telemetry=telemetry)
    env = HostEnv(datasets=dict(data.inputs), stdout_hook=stdout_hook,
                  syscall_hook=syscall_hook)
    result = program.run_main(runtime=runtime, host_env=env,
                              max_steps=max_steps, engine=engine,
                              profile=profile)
    if lab.mode is EvaluationMode.STDOUT_MARKERS:
        text = "\n".join(env.stdout + env.log)
        missing = [m for m in lab.stdout_markers if m not in text]
        compare = CompareResult(
            correct=not missing, total=len(lab.stdout_markers),
            mismatched=len(missing),
            message=("Missing expected output: " + ", ".join(missing)
                     if missing else ""))
    else:
        compare = compare_solution(
            data.expected, env.solution.data if env.solution else None)
    stats_list = [s for _, s in env.kernel_launches]
    return LabExecution(
        compare=compare, stdout=env.stdout + env.log,
        kernel_seconds=sum(s.elapsed_seconds for _, s in env.kernel_launches),
        device_seconds=runtime.device_time,
        exit_code=result.exit_code,
        kernel_stats=stats_list,
        line_profile=merge_stats_profiles(stats_list),
        fingerprint=program.info.fingerprint or "")


def _execute_kernel_only(lab: LabDefinition, program: CompiledProgram,
                         data: GeneratedData, spec: DeviceSpec,
                         max_steps: int,
                         engine: str | None = None,
                         telemetry: Any = None,
                         profile: bool = False) -> LabExecution:
    """OpenCL-style labs: the student writes only the kernel; the
    harness owns the host side (create buffers, launch, read back)."""
    runtime = GpuRuntime(Device(spec), telemetry=telemetry)
    if lab.kernel_name not in program.kernel_names:
        raise CompileError(
            f"expected a kernel named {lab.kernel_name!r}; found "
            f"{list(program.kernel_names)}")
    inputs = [data.inputs[k] for k in sorted(data.inputs)]
    n = int(data.expected.size)
    buffers = [runtime.malloc_like(arr) for arr in inputs]
    out = runtime.malloc(n, data.expected.dtype)
    block = 128
    grid = (max(*(int(a.size) for a in inputs), n) + block - 1) // block
    args: list[Any] = [b.ptr() for b in buffers] + [out.ptr(), n]
    stats = program.launch(runtime, lab.kernel_name, grid, block, *args,
                           max_steps=max_steps, engine=engine,
                           profile=profile)
    actual = runtime.memcpy_dtoh(out)
    compare = compare_solution(data.expected, actual)
    return LabExecution(compare=compare, stdout=[],
                        kernel_seconds=stats.elapsed_seconds,
                        device_seconds=runtime.device_time,
                        exit_code=0, kernel_stats=[stats],
                        line_profile=merge_stats_profiles([stats]),
                        fingerprint=program.info.fingerprint or "")


def _execute_mpi(lab: LabDefinition, program: CompiledProgram,
                 data: GeneratedData,
                 spec: DeviceSpec, max_steps: int, stdout_hook: Any = None,
                 syscall_hook: Any = None,
                 engine: str | None = None,
                 telemetry: Any = None,
                 profile: bool = False) -> LabExecution:
    """Multi-GPU MPI labs: one rank per (simulated) GPU."""
    ranks = int(data.params.get("ranks", 4))
    envs: list[HostEnv] = [HostEnv(datasets=dict(data.inputs),
                                   stdout_hook=stdout_hook,
                                   syscall_hook=syscall_hook)
                           for _ in range(ranks)]
    runtimes = [GpuRuntime(Device(spec, device_id=r), telemetry=telemetry)
                for r in range(ranks)]

    def rank_main(endpoint: Any) -> int:
        env = envs[endpoint.rank]
        env.mpi = endpoint
        result = program.run_main(runtime=runtimes[endpoint.rank],
                                  host_env=env, max_steps=max_steps,
                                  engine=engine, profile=profile)
        return result.exit_code

    exit_codes = run_mpi(ranks, rank_main)
    root_env = envs[0]
    compare = compare_solution(
        data.expected, root_env.solution.data if root_env.solution else None)
    stdout: list[str] = []
    for r, env in enumerate(envs):
        stdout.extend(f"[rank {r}] {line}" for line in env.stdout + env.log)
    stats_list = [s for env in envs for _, s in env.kernel_launches]
    return LabExecution(
        compare=compare, stdout=stdout,
        kernel_seconds=sum(s.elapsed_seconds
                           for env in envs
                           for _, s in env.kernel_launches),
        device_seconds=max(rt.device_time for rt in runtimes),
        exit_code=max(int(c or 0) for c in exit_codes),
        kernel_stats=stats_list,
        line_profile=merge_stats_profiles(stats_list),
        fingerprint=program.info.fingerprint or "")
