"""Compiler facade: source text -> checked, runnable program."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from repro.cache import CacheStats, EvictionPolicy, LRUPolicy, MemoTable
from repro.cache.keys import hash_text
from repro.gpusim.host import GpuRuntime
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.hostapi import ExitProgram, HostEnv
from repro.minicuda.interpreter import Interpreter
from repro.minicuda.parser import DEFAULT_TYPEDEFS, parse
from repro.minicuda.preprocessor import preprocess
from repro.minicuda.semantic import ProgramInfo, analyze

#: Extra handle types beyond the parser defaults.
EXTRA_TYPEDEFS = frozenset({"cudaDeviceProp", "MPI_Status"})
#: Every typedef name the compiler's parse accepts as a type.
TYPEDEF_NAMES = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS

#: Synthetic nvcc cost model: fixed front-end cost plus per-byte cost.
COMPILE_BASE_SECONDS = 0.8
COMPILE_SECONDS_PER_CHAR = 2e-5


@dataclass
class HostRunResult:
    """Outcome of running a program's ``main``."""

    exit_code: int
    host_env: HostEnv
    interpreter: Interpreter


class CompiledProgram:
    """A parsed + semantically-checked translation unit."""

    def __init__(self, source: str, preprocessed: str, info: ProgramInfo,
                 cache_hit: bool = False):
        self.source = source
        self.preprocessed = preprocessed
        self.info = info
        #: True when the front end was skipped (served from CompileCache).
        self.cache_hit = cache_hit

    @property
    def kernel_names(self) -> tuple[str, ...]:
        return tuple(self.info.kernels)

    @property
    def full_compile_seconds(self) -> float:
        """The cost model ignoring any cache (what a miss would pay)."""
        return COMPILE_BASE_SECONDS + len(self.source) * COMPILE_SECONDS_PER_CHAR

    @property
    def estimated_compile_seconds(self) -> float:
        """Synthetic wall-clock cost of the 'nvcc' invocation.

        A cache hit skipped lexing/parsing/semantic analysis, so it
        charges zero synthetic nvcc cost.
        """
        return 0.0 if self.cache_hit else self.full_compile_seconds

    def run_main(self, runtime: GpuRuntime | None = None,
                 host_env: HostEnv | None = None,
                 max_steps: int = 50_000_000,
                 engine: str | None = None,
                 profile: bool = False) -> HostRunResult:
        """Execute ``main`` (the usual lab entry point).

        ``engine`` picks the kernel execution engine (``"simd"``,
        ``"codegen"`` or ``"ast"``); None defers to
        ``WEBGPU_KERNEL_ENGINE`` / default. ``profile`` enables the
        per-source-line kernel profiler: each launch's ``KernelStats``
        carries a :class:`repro.profiler.LineProfile` ledger.
        """
        if not self.info.has_main:
            raise CompileError("program has no main() function")
        runtime = runtime or GpuRuntime()
        host_env = host_env or HostEnv()
        interp = Interpreter(self.info, runtime, host_env,
                             max_steps=max_steps, engine=engine,
                             profile=profile)
        main = self.info.host_functions["main"]
        args: tuple[Any, ...] = ()
        if len(main.params) >= 2:
            from repro.minicuda.values import NULL
            args = (len(host_env.argv), NULL)
        try:
            code = interp.run_host_function("main", args)
        except ExitProgram as exc:
            code = exc.code
        return HostRunResult(exit_code=int(code or 0), host_env=host_env,
                             interpreter=interp)

    def launch(self, runtime: GpuRuntime, kernel: str, grid: Any, block: Any,
               *args: Any, host_env: HostEnv | None = None,
               max_steps: int = 50_000_000, engine: str | None = None,
               profile: bool = False) -> Any:
        """Directly launch a single kernel (kernel-only labs: OpenCL)."""
        interp = Interpreter(self.info, runtime, host_env,
                             max_steps=max_steps, engine=engine,
                             profile=profile)
        return interp.launch_kernel(kernel, grid, block, tuple(args))


def compile_source(source: str,
                   headers: Mapping[str, str] | None = None,
                   defines: Mapping[str, str] | None = None,
                   cache: "CompileCache | None" = None,
                   telemetry: Any = None) -> CompiledProgram:
    """Preprocess, parse, and check a CUDA-C source file.

    Raises :class:`CompileError` carrying every diagnostic on failure,
    mirroring how WebGPU's worker relays nvcc output to the student.
    When a :class:`CompileCache` is supplied, the front end (lexing,
    parsing, semantic analysis) only runs for sources whose
    preprocessed form has not been seen before, and a byte-identical
    repeat of a recent call skips preprocessing too.
    """
    if cache is not None:
        return cache.compile(source, headers=headers, defines=defines,
                             telemetry=telemetry)
    preprocessed = preprocess(source, headers=headers, predefined=defines)
    return _check(source, preprocessed, hash_text(preprocessed), telemetry)


def _check(source: str, preprocessed: str, fingerprint: str,
           telemetry: Any) -> CompiledProgram:
    """The cacheable front end: lex, parse and analyze preprocessed
    text into a checked program."""
    unit = parse(preprocessed, typedef_names=TYPEDEF_NAMES,
                 telemetry=telemetry)
    info = analyze(unit)
    info.fingerprint = fingerprint
    return CompiledProgram(source=source, preprocessed=preprocessed,
                           info=info)


def _frozen(mapping: Mapping[str, str] | None) -> tuple:
    return tuple(sorted(mapping.items())) if mapping else ()


class CompileCache:
    """Memoizes front-end results by preprocessed-source hash.

    The preprocessed text *is* the cache key (``#include``/``#define``
    changes produce new keys), and a hit skips lexing, parsing, and
    semantic analysis entirely; the resulting :class:`CompiledProgram`
    charges zero synthetic nvcc cost. Compile *errors* are memoized
    too: a storm of resubmissions of the same broken file diagnoses
    once.

    In front of that sits a bounded exact-text index, ``(source,
    headers, defines)`` → key, so a byte-identical repeat (a grading
    job compiles its source once per dataset, and a run job usually
    follows a compile of the same autosave) skips the preprocessor
    too. An index entry is trusted only while its memo entry is live;
    otherwise the call preprocesses again, so eviction never serves a
    stale program. The index adds no hits or misses of its own: every
    call still makes exactly one memo lookup.

    The table is single-flight (:class:`repro.cache.MemoTable`), so
    N workers compiling the same source pay for one compile.
    """

    def __init__(self, max_entries: int = 512,
                 policy: EvictionPolicy | None = None,
                 stats: CacheStats | None = None,
                 clock: Any = None):
        self.stats = stats if stats is not None else CacheStats()
        self.memo = MemoTable(
            policy=policy if policy is not None else LRUPolicy(max_entries),
            stats=self.stats, clock=clock, memoize_errors=True,
            weigh=lambda value: (len(value.preprocessed)
                                 if isinstance(value, CompiledProgram)
                                 else len(str(value))))
        self._exact: OrderedDict[tuple, str] = OrderedDict()
        self._exact_limit = max_entries

    @property
    def compile_count(self) -> int:
        """How many times the front end actually ran."""
        return self.memo.compute_count

    def key_for(self, preprocessed: str) -> str:
        return hash_text(preprocessed)

    def compile(self, source: str,
                headers: Mapping[str, str] | None = None,
                defines: Mapping[str, str] | None = None,
                telemetry: Any = None) -> CompiledProgram:
        exact = (source, _frozen(headers), _frozen(defines))
        key = self._exact.get(exact)
        if key is not None and self.memo.peek(key) is not None:
            self._exact.move_to_end(exact)
            preprocessed = ""  # not needed: the lookup below is a hit
        else:
            preprocessed = preprocess(source, headers=headers,
                                      predefined=defines)
            key = self.key_for(preprocessed)
            self._exact[exact] = key
            self._exact.move_to_end(exact)
            if len(self._exact) > self._exact_limit:
                self._exact.popitem(last=False)

        program, hit = self.memo.get_or_compute(
            key, lambda: _check(source, preprocessed, key, telemetry))
        if not hit:
            return program
        # fresh wrapper: callers may submit whitespace-variant sources
        # that preprocess identically, and the hit must charge zero
        self.stats.seconds_saved += program.full_compile_seconds
        return CompiledProgram(source=source,
                               preprocessed=program.preprocessed,
                               info=program.info, cache_hit=True)

    def snapshot(self) -> dict[str, float]:
        return self.stats.snapshot()
