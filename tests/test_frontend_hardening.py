"""Hostile inputs end in a classified outcome, not an escaped exception:
nesting deeper than the front end can follow, and declared or requested
sizes beyond the device's, the thread's or the host's limits."""

from __future__ import annotations

import time

import pytest

from repro.cluster import GpuWorker, Job, ManualClock, WorkerConfig
from repro.cluster.job import JobKind
from repro.core import WebGPU2
from repro.core.course import CourseOffering
from repro.gpusim import LaunchConfigError, OutOfMemoryError
from repro.labs import get_lab
from repro.labs.base import execute_lab_source
from repro.minicuda import CompileCache, CompileError, compile_source
from repro.minicuda.diagnostics import NESTING_TOO_DEEP
from repro.minicuda.hostapi import HostApiError
from repro.minicuda.preprocessor import preprocess

VECADD = get_lab("vector-add")
ENGINES = ["ast", "codegen", "simd"]


def nested(depth: int) -> str:
    """vector-add whose index expression nests ``depth`` parentheses."""
    expr = "(" * depth + "blockIdx.x" + ")" * depth
    return VECADD.solution.replace(
        "int i = blockIdx.x", f"int i = {expr} * 0 + blockIdx.x", 1)


def with_kernel_prefix(decl: str) -> str:
    return VECADD.solution.replace(
        "int i = blockIdx.x", f"{decl}\n  int i = blockIdx.x", 1)


# -- nesting depth -------------------------------------------------------------

@pytest.mark.parametrize("depth", [200, 3000])
def test_deep_nesting_is_a_positioned_compile_error(depth):
    with pytest.raises(CompileError) as info:
        compile_source(nested(depth))
    diag = info.value.diagnostics[0]
    assert diag.message == NESTING_TOO_DEEP
    # positioned inside the parenthesis run (preprocessed coordinates)
    text = preprocess(nested(depth))
    line_start = text.rindex("\n", 0, text.index("int i =")) + 1
    first_paren = text.index("(", line_start) - line_start + 1
    assert diag.pos.line == text.count("\n", 0, line_start) + 1
    assert first_paren < diag.pos.column < first_paren + depth


def test_moderate_nesting_still_compiles_and_runs():
    assert execute_lab_source(VECADD, nested(20), VECADD.dataset(0)).passed


@pytest.mark.parametrize("depth", [200, 3000])
def test_deep_nesting_ends_as_compile_error_in_worker(depth):
    cache = CompileCache()
    worker = GpuWorker(WorkerConfig(), clock=ManualClock(),
                       compile_cache=cache)
    for kind in (JobKind.RUN_DATASET, JobKind.FULL_GRADING):
        result = worker.process(Job(lab=VECADD, source=nested(depth),
                                    kind=kind))
        assert result.compile_ok is False
        assert result.datasets == []
        assert NESTING_TOO_DEEP in result.compile_message
    # memoized like any other compile error: diagnosed once
    assert cache.compile_count == 1
    assert cache.stats.hits == 1
    assert worker.outcome_counts == {}


def test_deep_nesting_is_not_redelivered_on_the_broker_path():
    clock = ManualClock()
    platform = WebGPU2(clock=clock, num_workers=2)
    course = platform.create_course(
        CourseOffering(code="HPP", year=2015), ["vector-add"])
    student = platform.users.register("s@x.com", "S", "pw")
    course.enroll(student.user_id)
    platform.save_code("HPP-2015", student, "vector-add", nested(200))
    clock.advance(30)
    attempt = platform.run_attempt("HPP-2015", student, "vector-add")
    assert attempt.compile_ok is False
    assert NESTING_TOO_DEEP in attempt.report
    assert attempt.redeliveries == 0
    assert platform.dashboard.delivery_summary()["redelivered"] == 0
    assert platform.broker.dead_letters() == []
    # the next ordinary request is unaffected
    platform.save_code("HPP-2015", student, "vector-add", VECADD.solution)
    clock.advance(30)
    assert platform.run_attempt("HPP-2015", student, "vector-add").correct


@pytest.mark.parametrize("engine", ENGINES)
def test_long_operator_chain_runs_on_every_engine(engine):
    # generated Python for this nests past CPython's parenthesis limit,
    # so the source-generating engines fall back instead of failing
    chain = " + ".join(["blockIdx.x"] * 220)
    source = VECADD.solution.replace(
        "int i = blockIdx.x", f"int i = ({chain}) * 0 + blockIdx.x", 1)
    assert execute_lab_source(VECADD, source, VECADD.dataset(0),
                              engine=engine).passed


# -- declared sizes ------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shift", [22, 28])
def test_oversized_shared_array_faults_before_allocating(engine, shift):
    source = with_kernel_prefix(
        f"__shared__ float s[1<<{shift}];\n  s[0] = 1.0f;")
    start = time.perf_counter()
    with pytest.raises(LaunchConfigError) as info:
        execute_lab_source(VECADD, source, VECADD.dataset(0), engine=engine)
    assert time.perf_counter() - start < 2.0
    assert str(info.value) == (
        f"shared memory exceeded: {4 << shift} > 49152 bytes "
        "(allocating 's')")


@pytest.mark.parametrize("engine", ENGINES)
def test_oversized_cudamalloc_is_out_of_memory(engine):
    source = VECADD.solution.replace(
        "cudaMalloc((void **)&deviceInput1, inputLength * sizeof(float));",
        "cudaMalloc((void **)&deviceInput1, 1L<<40);", 1)
    with pytest.raises(OutOfMemoryError) as info:
        execute_lab_source(VECADD, source, VECADD.dataset(0), engine=engine)
    assert str(info.value) == (
        "cudaMalloc of 1099511627776 bytes failed: 0 of 5368709120 in use")


def test_oversized_sizes_are_classified_runtime_errors_in_worker():
    worker = GpuWorker(WorkerConfig(), clock=ManualClock())
    shared = with_kernel_prefix("__shared__ float s[1<<28];\n  s[0] = 1.0f;")
    result = worker.process(Job(lab=VECADD, source=shared))
    assert result.compile_ok
    (outcome,) = result.datasets
    assert outcome.outcome == "runtime_error"
    assert "shared memory exceeded" in outcome.report


def test_oversized_local_array_is_a_positioned_compile_error():
    source = with_kernel_prefix("float big[1073741824];\n  big[0] = 1.0f;")
    with pytest.raises(CompileError) as info:
        compile_source(source)
    (diag,) = info.value.diagnostics
    assert diag.message == (
        "local array 'big' uses too much local data "
        "(4294967296 bytes > 524288 bytes per thread)")
    text = preprocess(source)
    assert diag.pos.line == text.count("\n", 0, text.index("float big")) + 1


@pytest.mark.parametrize("call,fn", [("malloc(1099511627776)", "malloc"),
                                     ("calloc(1048576, 1048576)", "calloc")])
def test_oversized_host_allocation_fails_before_allocating(call, fn):
    source = VECADD.solution.replace(
        "  args = wbArg_read(argc, argv);",
        f"  char *p = (char *){call};\n  args = wbArg_read(argc, argv);", 1)
    with pytest.raises(HostApiError) as info:
        execute_lab_source(VECADD, source, VECADD.dataset(0))
    assert str(info.value).endswith(
        f"{fn} of 1099511627776 bytes exceeds the 1073741824-byte host "
        "allocation limit")
    worker = GpuWorker(WorkerConfig(), clock=ManualClock())
    (outcome,) = worker.process(Job(lab=VECADD, source=source)).datasets
    assert outcome.outcome == "runtime_error"
    assert f"{fn} of 1099511627776 bytes" in outcome.report
