"""The default kernel-engine ladder: simd → codegen → ast.

``resolve_engine`` defaults to ``simd``; a kernel the simd tier
declines runs on the scalar ``codegen`` tier, and one that declines too
runs on the tree-walker. The census below pins which tier every kernel
in the course corpus lands on, so widening (or narrowing) the simd tier
changes a visible list instead of silently changing what runs.
"""

from __future__ import annotations

from pathlib import Path

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileError, compile_source, resolve_engine
from repro.minicuda import simd, srcgen

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "cuda"

#: (corpus source, kernel) pairs the simd tier declines today.
SCALAR_FALLBACKS = {
    ("convolution-2d:solution", "convolution2D"),
    ("mutation:divergent-syncthreads", "matrixMultiplyShared"),
    ("example:histogram.cu", "saturate"),
    ("example:stencil.cu", "stencil1d"),
}


def corpus() -> list[tuple[str, str]]:
    """Lab skeletons and solutions, mutation variants, and the
    ``examples/cuda`` programs, as (tag, source) pairs."""
    sources = []
    for lab in ALL_LABS + EXTRA_LABS:
        sources.append((f"{lab.slug}:skeleton", lab.skeleton))
        sources.append((f"{lab.slug}:solution", lab.solution))
    for mutation in MUTATIONS:
        sources.append((f"mutation:{mutation.name}", buggy_source(mutation)))
    for path in sorted(EXAMPLES.glob("*.cu")):
        sources.append((f"example:{path.name}", path.read_text()))
    return sources


def test_default_engine_is_simd(monkeypatch):
    monkeypatch.delenv("WEBGPU_KERNEL_ENGINE", raising=False)
    assert resolve_engine(None) == "simd"


def test_corpus_kernel_census():
    tiers = {}
    for tag, source in corpus():
        try:
            program = compile_source(source)
        except CompileError:
            continue  # mutations that break the build never launch
        for name in program.info.kernels:
            tiers[(tag, name)] = simd.compile_kernel(program.info, name)
    assert len(tiers) >= 50
    assert not [key for key, k in tiers.items() if k is None], \
        "a corpus kernel reached the tree-walker"
    fallbacks = {key for key, k in tiers.items()
                 if not isinstance(k, simd.CompiledSimdKernel)}
    assert fallbacks == SCALAR_FALLBACKS
    for key in fallbacks:
        assert isinstance(tiers[key], srcgen.CompiledSrcKernel), key
