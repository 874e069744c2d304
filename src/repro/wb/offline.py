"""Offline development harness (paper Section IV-C).

Students who have their own toolchain can build against libwb and test
with generator-produced data before submitting through WebGPU. This
module is that path for the simulated stack: compile and run a lab
program locally, with no platform, sandbox, or grading involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim import Device, DeviceSpec, GpuRuntime, KEPLER_K20
from repro.minicuda import HostEnv, compile_source
from repro.wb.comparison import CompareResult, compare_solution
from repro.wb.datasets import GeneratedData


@dataclass
class OfflineResult:
    """Everything a local run produces."""

    compare: CompareResult
    stdout: list[str] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    kernel_seconds: float = 0.0
    exit_code: int = 0

    @property
    def passed(self) -> bool:
        return self.exit_code == 0 and self.compare.correct


def run_offline(source: str, data: GeneratedData,
                spec: DeviceSpec = KEPLER_K20,
                max_steps: int = 50_000_000,
                engine: str | None = None) -> OfflineResult:
    """Compile and run ``source`` against one generated dataset.

    Raises :class:`repro.minicuda.CompileError` on compile errors and
    lets runtime faults propagate — offline development shows the raw
    toolchain behaviour, unlike the worker which wraps everything.
    ``engine`` selects the kernel execution engine
    (simd/codegen/ast).
    """
    program = compile_source(source)
    runtime = GpuRuntime(Device(spec))
    env = HostEnv(datasets=dict(data.inputs))
    result = program.run_main(runtime=runtime, host_env=env,
                              max_steps=max_steps, engine=engine)
    compare = compare_solution(
        data.expected, env.solution.data if env.solution else None)
    kernel_seconds = sum(s.elapsed_seconds for _, s in env.kernel_launches)
    return OfflineResult(compare=compare, stdout=env.stdout, log=env.log,
                         kernel_seconds=kernel_seconds,
                         exit_code=result.exit_code)
