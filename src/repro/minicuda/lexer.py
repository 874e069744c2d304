"""Tokenizer for the CUDA-C subset.

One master regular expression with a named group per token class
scans the preprocessed source in a single pass: whitespace runs are
one match, punctuation is an alternation ordered longest-first, and
line/column come from newline counts of the matches that contain
newlines.
"""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple

from repro.minicuda.diagnostics import CompileError, SourcePos


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    PRAGMA = "pragma"   # a surviving "#pragma ..." line (OpenACC)
    EOF = "eof"


KEYWORDS = frozenset({
    "void", "int", "float", "double", "char", "bool", "long", "short",
    "unsigned", "signed", "const", "static", "struct", "size_t",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "switch", "case", "default",
    "sizeof", "true", "false", "NULL",
    "__global__", "__device__", "__host__", "__shared__", "__constant__",
    "__restrict__", "extern",
    # OpenCL spellings
    "__kernel", "__local", "__global",
    # types provided by the runtime
    "dim3",
})

# Longest first so that e.g. ">>=" is not read as ">" ">" "=".
# Note: "<<<" / ">>>" (kernel launch) are produced by the parser from
# shift tokens, because ">>>" is ambiguous with nested templates in real
# C++ but unambiguous here: we emit them directly as 3-char puncts.
PUNCTUATION = (
    "<<<", ">>>",
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            '"': '"', "'": "'"}

#: The token classes, tried in order at each position. Numbers come
#: before punctuation so ".5" is a float, not "." "5"; a float is
#: tried before an int so "2." is not "2" ".". ``bad`` matches any
#: character the others reject and turns it into a diagnostic.
_TOKEN_RE = re.compile("|".join((
    r"(?P<nl>[ \t\r]*\n[ \t\r\n]*)",
    r"(?P<ws>[ \t\r]+)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<float>(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
    r"|\d+[eE][-+]?\d+)[fF]?|\d+[fF])",
    r"(?P<int>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)",
    "(?P<punct>" + "|".join(map(re.escape, sorted(
        PUNCTUATION, key=len, reverse=True))) + ")",
    r'(?P<string>"(?:[^"\\\n]|\\[\s\S])*")',
    r"(?P<char>'(?:\\[\s\S]|[\s\S])')",
    r"(?P<hash>#[^\n]*)",
    r"(?P<bad>[\s\S])",
)))
_ESCAPE_RE = re.compile(r"\\([\s\S])")


class Token(NamedTuple):
    """One token: a tuple-backed value type (cheap to build, immutable).

    Equality is strict (a plain tuple never equals a Token) and the
    hash is the field-tuple hash.
    """

    kind: TokenKind
    text: str
    pos: SourcePos
    value: Any = None  # parsed literal value for INT/FLOAT/STRING/CHAR

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in texts

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.pos}"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match.group(1), match.group(1))


def tokenize(source: str) -> list[Token]:
    """Tokenize preprocessed source into a list ending with EOF."""
    new = tuple.__new__
    tok, pos_t = Token, SourcePos
    ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
    keywords = KEYWORDS
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "ws":
            continue
        if group == "nl":
            text = m.group()
            line += text.count("\n")
            line_start = m.start() + text.rfind("\n") + 1
            continue
        text = m.group()
        start = m.start()
        pos = new(pos_t, (line, start - line_start + 1))
        if group == "ident":
            append(new(tok, (keyword if text in keywords else ident,
                             text, pos, None)))
        elif group == "punct":
            append(new(tok, (punct, text, pos, None)))
        elif group == "int":
            digits = text.rstrip("uUlL")
            value = int(digits, 16) if digits[:2] in ("0x", "0X") \
                else int(digits)
            append(new(tok, (TokenKind.INT, text, pos, value)))
        elif group == "float":
            append(new(tok, (TokenKind.FLOAT, text, pos,
                             float(text.rstrip("fF")))))
        elif group == "string" or group == "char":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(_unescape, body)
            if group == "string":
                append(new(tok, (TokenKind.STRING, text, pos, body)))
            else:
                append(new(tok, (TokenKind.CHAR, text, pos, ord(body))))
            if "\n" in text:  # an escaped (or, in a char, bare) newline
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
        elif group == "hash":
            # surviving "#pragma" lines become PRAGMA tokens so the
            # parser can attach OpenACC directives to loops; other
            # stray hash lines are skipped
            stripped = text.lstrip("#").strip()
            if stripped.startswith("pragma"):
                append(new(tok, (TokenKind.PRAGMA, text, pos,
                                 stripped[len("pragma"):].strip())))
        elif text == '"':
            raise CompileError("unterminated string literal", pos)
        elif text == "'":
            raise CompileError("malformed character literal", pos)
        else:
            raise CompileError(f"unexpected character {text!r}", pos)
    append(new(tok, (TokenKind.EOF, "", new(
        pos_t, (line, len(source) - line_start + 1)), None)))
    return tokens
