"""Source positions and compile-time diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class SourcePos(NamedTuple):
    """Line/column position in the (preprocessed) source, 1-based.

    A tuple-backed value type: the lexer builds one per token, and a
    tuple is several times cheaper to construct than a frozen
    dataclass. Equality is strict (a plain tuple never equals a
    SourcePos) and the hash is the field-tuple hash, as before.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


#: Diagnostic for source nested deeper than the front end's recursion
#: can follow (parentheses, operator chains, statement nesting). The
#: parser and the semantic checker raise it instead of letting a
#: RecursionError escape the compile step.
NESTING_TOO_DEEP = "nesting too deep"


@dataclass(frozen=True)
class Diagnostic:
    """One compiler message."""

    message: str
    pos: SourcePos = SourcePos()
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.pos}: {self.message}"


class CompileError(Exception):
    """Compilation failed; carries all accumulated diagnostics.

    The worker relays ``str(error)`` to the student, mirroring how
    WebGPU shows nvcc's error output in the code view.
    """

    def __init__(self, diagnostics: list[Diagnostic] | str,
                 pos: SourcePos | None = None):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics, pos or SourcePos())]
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))
