"""Parser backends: generated packrat parser vs hand-written descent.

The compile front end parses every submission that misses the
CompileCache, so parse throughput is on the deadline-storm path. This
benchmark tokenizes the golden corpus (``examples/cuda/*.cu`` plus
every lab solution) once, then parses it repeatedly under both
backends — ``legacy`` (the original recursive-descent parser, kept as
the differential oracle) and ``pegen`` (the parser generated from
``minicuda.gram``) — requiring byte-identical AST reprs and recording
warm-path throughput in ``BENCH_parser.json``. The lexer's token
throughput over the same preprocessed corpus is recorded alongside
(no floor), with the git revision and CPU count of the run.

Acceptance: the generated parser's token throughput must be at least
the legacy warm path (ratio >= 1.0; the ``WEBGPU_BENCH_FAST=1`` CI
smoke sizing tolerates 0.8 to tame single-rep noise).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

from conftest import print_table

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.minicuda.compiler import EXTRA_TYPEDEFS
from repro.minicuda.lexer import tokenize
from repro.minicuda.parser import BACKENDS, DEFAULT_TYPEDEFS, Parser
from repro.minicuda.parser_gen import MiniCudaParser
from repro.minicuda.preprocessor import Preprocessor

FAST = bool(os.environ.get("WEBGPU_BENCH_FAST"))
REPS = 3 if FAST else 12
RATIO_FLOOR = 0.8 if FAST else 1.0

TYPEDEFS = frozenset(DEFAULT_TYPEDEFS) | EXTRA_TYPEDEFS
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples" / "cuda"

_PARSERS = {"legacy": Parser, "pegen": MiniCudaParser}


def _texts() -> list[tuple[str, str]]:
    """The golden corpus, preprocessed."""
    sources = [(p.name, p.read_text()) for p in sorted(EXAMPLES_DIR.glob("*.cu"))]
    sources += [(f"{lab.slug}:solution", lab.solution)
                for lab in ALL_LABS + EXTRA_LABS]
    return [(name, Preprocessor().process(text)) for name, text in sources]


def _lex_all(texts: list[tuple[str, str]]) -> float:
    """Best wall seconds to tokenize every text once."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _, text in texts:
            tokenize(text)
        best = min(best, time.perf_counter() - t0)
    return best


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
            cwd=EXAMPLES_DIR).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _parse_all(parser_cls, corpus) -> tuple[float, int, int, list[str]]:
    """One warm pass: (best wall s, memo hits, memo misses, reprs)."""
    best = float("inf")
    hits = misses = 0
    reprs: list[str] = []
    for _ in range(REPS):
        reprs = []
        hits = misses = 0
        t0 = time.perf_counter()
        for _, tokens in corpus:
            parser = parser_cls(tokens, TYPEDEFS)
            reprs.append(repr(parser.parse_translation_unit()))
            hits += getattr(parser, "memo_hits", 0)
            misses += getattr(parser, "memo_misses", 0)
        best = min(best, time.perf_counter() - t0)
    return best, hits, misses, reprs


def test_parser_throughput():
    texts = _texts()
    corpus = [(name, tokenize(text)) for name, text in texts]
    total_tokens = sum(len(tokens) for _, tokens in corpus)
    lex_seconds = _lex_all(texts)

    results = {}
    reprs_by_backend = {}
    for backend in BACKENDS:
        _parse_all(_PARSERS[backend], corpus)  # warm-up rep
        wall, hits, misses, reprs = _parse_all(_PARSERS[backend], corpus)
        results[backend] = {
            "seconds": wall,
            "tokens_per_second": total_tokens / wall,
            "memo_hits": hits,
            "memo_misses": misses,
        }
        reprs_by_backend[backend] = reprs

    assert reprs_by_backend["pegen"] == reprs_by_backend["legacy"], \
        "backends disagree on the golden corpus"

    ratio = (results["pegen"]["tokens_per_second"]
             / results["legacy"]["tokens_per_second"])
    memo = results["pegen"]
    rows = [{
        "backend": backend,
        "wall_ms": f"{entry['seconds'] * 1e3:.1f}",
        "ktok_per_s": f"{entry['tokens_per_second'] / 1e3:.0f}",
        "memo_hits": entry["memo_hits"],
        "memo_misses": entry["memo_misses"],
    } for backend, entry in results.items()]
    rows.append({"backend": "lexer", "wall_ms": f"{lex_seconds * 1e3:.1f}",
                 "ktok_per_s": f"{total_tokens / lex_seconds / 1e3:.0f}",
                 "memo_hits": "-", "memo_misses": "-"})
    print_table("Parser backends over the golden corpus "
                f"({len(corpus)} files, {total_tokens} tokens)", rows)

    record = {
        "fast_mode": FAST,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "files": len(corpus),
        "tokens": total_tokens,
        "lexer": {"seconds": lex_seconds,
                  "tokens_per_second": total_tokens / lex_seconds},
        "backends": results,
        "pegen_over_legacy": ratio,
        "memo_hit_rate": (memo["memo_hits"]
                          / max(1, memo["memo_hits"] + memo["memo_misses"])),
        "asts_identical": True,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_parser.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    assert memo["memo_hits"] > 0, "packrat memo never hit on the corpus"
    assert ratio >= RATIO_FLOOR, (
        f"generated parser at {ratio:.2f}x of legacy warm throughput "
        f"(floor {RATIO_FLOOR}x)")


if __name__ == "__main__":
    test_parser_throughput()
