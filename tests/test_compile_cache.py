"""CompileCache: the exact-text index in front of the preprocessed-key
memo, and the run path sharing the worker's cache."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache import LRUPolicy
from repro.cluster import GpuWorker, Job, ManualClock, WorkerConfig
from repro.cluster.job import JobKind
from repro.cluster.worker import JOB_OVERHEAD_S
from repro.labs import get_lab
from repro.labs.base import execute_lab_source
from repro.minicuda import CompileCache, CompileError, compile_source
from repro.minicuda import compiler as compiler_mod

VECADD = get_lab("vector-add")
MACRO_SRC = "#define N 4\nint f() { return N; }\n"
#: preprocesses to the same text as MACRO_SRC
SPACED_SRC = "#define  N   4\nint f() { return N; }\n"
INCLUDE_SRC = '#include "size.h"\nint f() { return N; }\n'


@pytest.fixture
def preprocess_calls(monkeypatch):
    calls = []
    real = compiler_mod.preprocess

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(compiler_mod, "preprocess", counting)
    return calls


def test_byte_identical_repeat_skips_preprocessing(preprocess_calls):
    cache = CompileCache()
    first = cache.compile(VECADD.solution)
    again = cache.compile(VECADD.solution)
    assert len(preprocess_calls) == 1
    assert again.cache_hit and not first.cache_hit
    assert again.info is first.info
    assert again.preprocessed == first.preprocessed
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)
    assert cache.compile_count == 1


def test_whitespace_variant_preprocesses_then_hits(preprocess_calls):
    cache = CompileCache()
    cache.compile(MACRO_SRC)
    variant = cache.compile(SPACED_SRC)
    assert len(preprocess_calls) == 2
    assert variant.cache_hit
    assert variant.source == SPACED_SRC
    assert cache.compile_count == 1


def test_different_defines_or_headers_miss(preprocess_calls):
    cache = CompileCache()
    src = "int f() { return N; }\n"
    a = cache.compile(src, defines={"N": "4"})
    b = cache.compile(src, defines={"N": "8"})
    assert not (a.cache_hit or b.cache_hit)
    assert a.info.fingerprint != b.info.fingerprint
    base = cache.compile(MACRO_SRC)
    c = cache.compile(INCLUDE_SRC, headers={"size.h": "#define N 4\n"})
    d = cache.compile(INCLUDE_SRC, headers={"size.h": "#define N 8\n"})
    # the include expands to MACRO_SRC's text: a memo hit on its key
    assert c.cache_hit and c.info is base.info
    assert not d.cache_hit
    assert cache.stats.misses == 4
    assert len(preprocess_calls) == 5
    # mapping order is not part of the exact key
    cache.compile(src, defines={"N": "4", "M": "1"})
    cache.compile(src, defines={"M": "1", "N": "4"})
    assert len(preprocess_calls) == 6


def test_evicted_memo_entry_is_recomputed_not_served(preprocess_calls):
    # the index outlives the one-entry memo
    cache = CompileCache(max_entries=8, policy=LRUPolicy(1))
    a = cache.compile(MACRO_SRC)
    cache.compile(VECADD.solution)  # evicts MACRO_SRC's program
    again = cache.compile(MACRO_SRC)
    assert len(preprocess_calls) == 3
    assert not again.cache_hit
    assert again.info is not a.info
    assert cache.compile_count == 3
    assert cache.stats.misses == 3


def test_invalidated_entry_is_recomputed(preprocess_calls):
    cache = CompileCache()
    first = cache.compile(MACRO_SRC)
    cache.memo.invalidate(first.info.fingerprint)
    again = cache.compile(MACRO_SRC)
    assert not again.cache_hit and again.info is not first.info
    assert len(preprocess_calls) == 2


def test_index_is_bounded():
    cache = CompileCache(max_entries=4)
    for n in range(10):
        cache.compile(f"int f() {{ return {n}; }}\n")
    assert len(cache._exact) == 4


def test_compile_errors_stay_memoized(preprocess_calls):
    cache = CompileCache()
    broken = VECADD.solution.replace("int i =", "int i")
    with pytest.raises(CompileError) as first:
        cache.compile(broken)
    with pytest.raises(CompileError) as again:
        cache.compile(broken)
    assert str(again.value) == str(first.value)
    assert cache.compile_count == 1
    assert len(preprocess_calls) == 1
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)


def test_misses_equal_distinct_programs():
    cache = CompileCache()
    sources = [VECADD.solution, MACRO_SRC, VECADD.solution,
               SPACED_SRC, "int g() { return 1; }\n", MACRO_SRC,
               VECADD.solution]
    for source in sources:
        cache.compile(source)
    distinct = {compile_source(s).preprocessed for s in sources}
    assert cache.stats.misses == len(distinct) == 3
    assert cache.stats.hits == len(sources) - 3
    assert cache.compile_count == 3


def _grade(compile_cache):
    worker = GpuWorker(WorkerConfig(), clock=ManualClock(),
                       compile_cache=compile_cache)
    return worker.process(Job(lab=VECADD, source=VECADD.solution,
                              kind=JobKind.FULL_GRADING))


def test_simulated_charges_unchanged_with_and_without_cache():
    full = compile_source(VECADD.solution).full_compile_seconds
    runs = sum(execute_lab_source(VECADD, VECADD.solution,
                                  VECADD.dataset(i)).device_seconds + 0.01
               for i in range(len(VECADD.dataset_sizes)))
    n = len(VECADD.dataset_sizes)
    plain = _grade(None)
    cached = _grade(CompileCache())
    assert plain.all_correct and cached.all_correct
    # the compile step charges one full compile either way
    assert plain.compile_seconds == cached.compile_seconds == full
    # every dataset recompiles: full cost without a cache, 0 on a hit
    assert plain.service_seconds == pytest.approx(
        JOB_OVERHEAD_S + full * (1 + n) + runs, abs=1e-12)
    assert cached.service_seconds == pytest.approx(
        JOB_OVERHEAD_S + full + runs, abs=1e-12)


def test_worker_run_path_uses_the_worker_cache(preprocess_calls):
    cache = CompileCache()
    result = _grade(cache)
    assert result.all_correct
    # one front-end pass and one preprocess for the whole grading job
    assert cache.compile_count == 1
    assert len(preprocess_calls) == 1
    n = len(VECADD.dataset_sizes)
    # compile step + per-dataset sandbox compile + per-dataset run path
    assert (cache.stats.misses, cache.stats.hits) == (1, 2 * n)


def _stats(execution):
    """KernelStats with atomic addresses reduced to their counts: the
    addresses embed per-process allocation ids."""
    return [replace(s, atomic_addresses=sorted(s.atomic_addresses.values()))
            for s in execution.kernel_stats]


@pytest.mark.parametrize("engine", ["ast", "codegen", "simd"])
@pytest.mark.parametrize("slug", ["tiled-matmul", "reduction-scan",
                                  "input-binning", "opencl-vecadd",
                                  "mpi-stencil"])
def test_shared_program_runs_identically_twice(slug, engine):
    lab = get_lab(slug)
    cache = CompileCache()
    data = lab.dataset(0)
    first = execute_lab_source(lab, lab.solution, data, engine=engine,
                               compile_cache=cache)
    second = execute_lab_source(lab, lab.solution, data, engine=engine,
                                compile_cache=cache)
    assert cache.compile_count == 1
    assert first.passed and second.passed
    assert second.stdout == first.stdout
    assert _stats(second) == _stats(first)
    assert second.device_seconds == first.device_seconds
    fresh = execute_lab_source(lab, lab.solution, data, engine=engine)
    assert _stats(fresh) == _stats(first)
