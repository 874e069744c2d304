"""Frozen lexer output: token streams and diagnostics must not move.

Both parser backends share the lexer, so the parser-parity suite
cannot catch a lexer change. This snapshot pins the exact stream
``(kind, text, line, column, value)`` for the golden corpus (the
``examples/cuda`` kernels, every lab skeleton and solution, and every
``labs.mutations`` variant), both raw and preprocessed, as one digest
per source, plus full expected streams or error texts for a set of
edge inputs.

Regenerate (only for an intended change in lexing) with::

    PYTHONPATH=src python tests/test_lexer_snapshot.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.labs import ALL_LABS, EXTRA_LABS
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda.diagnostics import CompileError
from repro.minicuda.lexer import tokenize
from repro.minicuda.preprocessor import preprocess

SNAPSHOT = Path(__file__).parent / "data" / "lexer_snapshot.json"
EXAMPLES = sorted((Path(__file__).parent.parent / "examples" / "cuda")
                  .glob("*.cu"))

#: Edge inputs whose full stream (or error text) is pinned.
EDGE_INPUTS = [
    "",
    "\n\n",
    "int x;\r\nfloat y;\r\n",
    '"a\\\nb" x',
    "'\\\n' y",
    "'\n' z",
    '"tab\\tq\\"uote\\\\" "\\x" "\\0"',
    "'\\'' '\\\\' '\\0' 'A' ' '",
    "'''",
    "'\\'x",
    "#pragma acc parallel loop\nfor",
    "  #  pragma   omp   x  \nint",
    "# 1 \"file.cu\"\nint x;",
    "#\n#\n",
    "a # b\nc",
    "#pragmatic x\ny",
    "void f(int n, ...);",
    "k<<<g, b>>>(x); a << b >> c; a <<= 1; b >>= 2;",
    "a>>>=b",
    "0xFFu 0x1fUL 10ul 7L 0777 0x 0XaBc",
    "2. .5 1e5 3f 1.5e+3f 2.0F 1e-3 7e 1..2 a.b 4.f",
    "x->y ++i --j a&&b a||b a!=b a==b a<=b a>=b",
    "+= -= *= /= %= &= |= ^= ? : ; , ~ ! ^",
    "([{}])",
    "\tint\t\tx;\n\t  y",
    "__global__ __shared__ dim3 size_t NULL true notakeyword _x9",
    "int \u0663;",
    "int x;\n  @",
    "a \f b",
    "caf\u00e9",
    "int\u00a0x",
    '"oops',
    '"line\nbreak"',
    '"trailing\\',
    "'ab'",
    "''",
    "'",
    "x = 'a",
]


def stream(source: str) -> list[list]:
    """One source's token stream as JSON-ready rows."""
    return [[t.kind.value, t.text, t.pos.line, t.pos.column, t.value]
            for t in tokenize(source)]


def outcome(source: str) -> dict:
    """The full stream, or the error text when lexing fails."""
    try:
        return {"tokens": stream(source)}
    except CompileError as exc:
        return {"error": str(exc)}


def digest(source: str) -> str:
    """sha256 over the stream (or the error text)."""
    return hashlib.sha256(
        json.dumps(outcome(source), sort_keys=True).encode()).hexdigest()


def corpus() -> list[tuple[str, str]]:
    sources = [(p.name, p.read_text()) for p in EXAMPLES]
    for lab in ALL_LABS + EXTRA_LABS:
        sources.append((f"{lab.slug}:skeleton", lab.skeleton))
        sources.append((f"{lab.slug}:solution", lab.solution))
    for mutation in MUTATIONS:
        sources.append((f"mutation:{mutation.name}", buggy_source(mutation)))
    expanded = []
    for name, source in sources:
        expanded.append((f"{name}:raw", source))
        try:
            expanded.append((f"{name}:pp", preprocess(source)))
        except CompileError:
            pass
    return expanded


CORPUS = corpus()


def build_snapshot() -> dict:
    return {"digests": {name: digest(source) for name, source in CORPUS},
            "edges": [{"source": s, **outcome(s)} for s in EDGE_INPUTS]}


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("name,source", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_stream_digest(snapshot, name, source):
    assert digest(source) == snapshot["digests"][name]


def test_corpus_is_fully_pinned(snapshot):
    assert sorted(snapshot["digests"]) == sorted(n for n, _ in CORPUS)


@pytest.mark.parametrize("index", range(len(EDGE_INPUTS)),
                         ids=[repr(s)[:40] for s in EDGE_INPUTS])
def test_edge_input(snapshot, index):
    expected = snapshot["edges"][index]
    assert expected["source"] == EDGE_INPUTS[index]
    got = json.loads(json.dumps(outcome(EDGE_INPUTS[index])))
    assert {"source": EDGE_INPUTS[index], **got} == expected


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: test_lexer_snapshot.py --regen")
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(build_snapshot(), indent=1,
                                   ensure_ascii=True) + "\n")
    print(f"wrote {SNAPSHOT}")
