"""The lowering core shared by the compiled kernel engines.

The ``codegen`` engine (:mod:`repro.minicuda.srcgen`) and the ``simd``
engine (:mod:`repro.minicuda.simd`) both lower a kernel's *checked* AST
once per program and fall back per kernel: simd → codegen → the
tree-walking ``ast`` oracle. This module holds what both tiers share:

* :data:`KERNEL_CACHE` — the cross-program memo of compiled kernels and
  of unsupported-construct verdicts, under :func:`memo_key` keys;
* :class:`UnsupportedConstruct` — raised at compile time to decline a
  kernel, so the caller drops to the next tier;
* the step-budget message, the OpenCL index builtins, and the baked
  scalar coercers that mirror :func:`repro.minicuda.values.coerce`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cache import LRUPolicy, MemoTable
from repro.minicuda import ast_nodes as ast
from repro.minicuda.values import _INT_BASES, f32


class UnsupportedConstruct(Exception):
    """The compiler cannot lower this AST; use the next engine tier."""


_HANG_MSG = "execution step budget exhausted (possible infinite loop)"

_OPENCL_INDEX_FNS = frozenset({
    "get_global_id", "get_local_id", "get_group_id",
    "get_local_size", "get_num_groups", "get_global_size",
})


# -- baked coercers (mirror values.coerce branch for branch) ---------------

_NUMS = (bool, int, float)


def _coerce_int(v: Any) -> Any:
    return int(v) if isinstance(v, _NUMS) else v


def _coerce_f32(v: Any) -> Any:
    return f32(v) if isinstance(v, _NUMS) else v


def _coerce_f64(v: Any) -> Any:
    return float(v) if isinstance(v, _NUMS) else v


def _coerce_bool(v: Any) -> Any:
    return bool(v) if isinstance(v, _NUMS) else v


def _make_coercer(ctype: ast.CType | None) -> Callable[[Any], Any] | None:
    """A specialized equivalent of ``coerce(value, ctype)`` (None means
    identity — pointers, arrays, and unknown bases pass through)."""
    if ctype is None or ctype.is_pointer or ctype.is_array:
        return None
    base = ctype.base
    if base in _INT_BASES:
        return _coerce_int
    if base == "float":
        return _coerce_f32
    if base == "double":
        return _coerce_f64
    if base == "bool":
        return _coerce_bool
    return None


def _flatten_init_exprs(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Call) and expr.name == "__init_list__":
        out: list[ast.Expr] = []
        for item in expr.args:
            out.extend(_flatten_init_exprs(item))
        return out
    return [expr]


# -- memoized program → kernel compilation ---------------------------------

#: Cross-program memo table: (engine, lowering version, program
#: fingerprint, kernel name) → compiled kernel (or None for memoized
#: unsupported-construct verdicts). Shared by the codegen and simd
#: engines under distinct :func:`memo_key` prefixes.
KERNEL_CACHE = MemoTable(policy=LRUPolicy(1024))


def memo_key(engine: str, version: int, fingerprint: str,
             name: str) -> str:
    """Cross-program kernel memo key, namespaced by engine + lowering
    version so verdicts from one engine generation never leak into
    another (regression: the key used to be
    ``kernelcode:{fingerprint}:{name}``, which pinned pre-upgrade
    unsupported verdicts forever)."""
    return f"kernelcode:{engine}:v{version}:{fingerprint}:{name}"
