"""In-memory span tracing around the calls into each layer.

The traced run replaces public functions and methods with wrappers
that record one span per call: name, start, end, parent span and
request id. The names patched are the ones callers actually look up at
call time: ``compile_source`` is imported separately into
``repro.cluster.worker`` and ``repro.labs.base``, so both bindings are
wrapped; a class method is wrapped on its class.

Each wrapper also counts its calls under the binding it replaced
(``repro.cluster.worker.compile_source``), so a run can tell which
bindings its requests reached.

A span's self time is its duration minus the time its child spans
cover. Calls made on other threads (the MPI ranks of ``repro.mpisim``)
are not spanned, since one stack cannot describe them; their time stays
in the ``mpisim.run`` span that started the threads, and only their
counts (kernel launches, simulated instructions) are recorded.
"""

from __future__ import annotations

import gzip
import json
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Spans of one traced pass, plus the patches that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        #: per-span value recorded by an ``on_result`` hook
        self.values: dict[int, Any] = {}
        #: (request, counter, amount) recorded on other threads
        self.thread_counts: list[tuple[int, str, float]] = []
        #: binding -> calls through its wrapper, on any thread
        self.calls: Counter = Counter()
        #: every binding wrapped, in the order wrapped
        self.wrapped: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self._main = threading.get_ident()

    # -- patching -----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Callable[[Any, tuple], Any] | None = None,
             thread_count: Callable[[Any], tuple[str, float]] | None = None,
             ) -> None:
        """Replace ``owner.attr`` (a module or class attribute, or a dict
        entry) with a spanning wrapper; :meth:`restore` undoes it."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else owner.__dict__[attr]
        if is_dict:
            binding = f"{name}[{attr}]"
        elif isinstance(owner, type):
            binding = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        else:
            binding = f"{owner.__name__}.{attr}"
        self.wrapped.append(binding)
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack
        calls = self.calls
        main = self._main

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[binding] += 1
            if threading.get_ident() != main:
                result = original(*args, **kwargs)
                if thread_count is not None:
                    counter, amount = thread_count(result)
                    self.thread_counts.append((self.request, counter, amount))
                return result
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                self.values[index] = on_result(result, args)
            return result

        if is_dict:
            owner[attr] = traced
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, traced)
            self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path: str) -> None:
        """All spans as gzip'd JSON lines: name, start, end, parent,
        request (times in seconds from the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps([
                    name, round(self.starts[i] - origin, 7),
                    round(self.ends[i] - origin, 7), self.parents[i],
                    self.requests[i]]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    import repro.cluster.worker as worker_mod
    import repro.labs.base as labs_base
    import repro.minicuda.codegen as codegen
    import repro.minicuda.compiler as compiler
    import repro.minicuda.parser as parser_mod
    import repro.minicuda.simd as simd
    import repro.minicuda.srcgen as srcgen
    from repro.broker.broker import MessageBroker
    from repro.broker.containers import ContainerPool
    from repro.cluster.result_cache import GradingResultCache
    from repro.cluster.worker import GpuWorker
    from repro.core.grading import Grader
    from repro.core.platform import WebGPU
    from repro.core.platform_v2 import WebGPU2
    from repro.db import Database
    from repro.gpusim.host import GpuRuntime
    from repro.minicuda.compiler import CompiledProgram
    from repro.minicuda.interpreter import Interpreter
    from repro.sandbox.sandbox import ExecutionOutcome, SandboxExecutor
    from repro.web.app import WebGpuApp
    from repro.wb.datasets import generators

    wrap = tracer.wrap
    wrap(WebGpuApp, "handle", "web")
    for method in ("save_code", "submit_for_grading"):
        wrap(WebGPU, method, "core")
    wrap(WebGPU2, "_run_job", "core")
    wrap(Grader, "grade", "core.grade")
    for method in ("insert", "update", "delete", "get", "find", "find_one",
                   "count"):
        wrap(Database, method, "db")
    wrap(WebGPU2, "pump", "broker")
    wrap(MessageBroker, "publish", "broker")
    wrap(ContainerPool, "acquire", "broker.container_acquire")
    for method in ("fetch", "complete"):
        wrap(GradingResultCache, method, "cache")
    wrap(GpuWorker, "process", "cluster.worker")

    def timeout_limit(result: Any, args: tuple) -> Any:
        if result.outcome is ExecutionOutcome.RUN_TIMEOUT:
            return args[0].config.run_limit_s
        return None

    wrap(SandboxExecutor, "execute", "sandbox", on_result=timeout_limit)
    wrap(worker_mod, "compile_source", "minicuda.compile")
    wrap(labs_base, "compile_source", "minicuda.compile")
    wrap(compiler, "preprocess", "minicuda.preprocess")
    wrap(parser_mod, "tokenize", "minicuda.lex",
         on_result=lambda tokens, _args: len(tokens))
    wrap(compiler, "parse", "minicuda.parse")
    wrap(compiler, "analyze", "minicuda.semantic")
    wrap(worker_mod, "execute_lab_source", "labs.execute")
    wrap(CompiledProgram, "run_main", "minicuda.host")
    wrap(Interpreter, "launch_kernel", "minicuda.launch")
    for backend in (codegen, srcgen, simd):
        wrap(backend, "compile_kernel", "minicuda.lowering")
    wrap(GpuRuntime, "launch", "gpusim.run",
         on_result=lambda stats, _args: stats.instructions,
         thread_count=lambda stats: ("instructions",
                                     float(stats.instructions)))
    wrap(labs_base, "compare_solution", "wb.compare")
    wrap(labs_base, "run_mpi", "mpisim.run")
    for key in list(generators):
        wrap(generators, key, "wb.dataset_gen")
