"""Import path kept for scripts written against the old module layout.

The ``codegen`` engine lives in :mod:`repro.minicuda.srcgen` and the
kernel memo it shares with ``simd`` in :mod:`repro.minicuda.lowering`.
Nothing in the package imports this module. It re-exports the two names
``perfbench/run.py`` and ``perfbench/tracing.py`` look up here.
"""

from repro.minicuda.lowering import KERNEL_CACHE
from repro.minicuda.srcgen import compile_kernel

__all__ = ["KERNEL_CACHE", "compile_kernel"]
