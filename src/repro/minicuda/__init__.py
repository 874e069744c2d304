"""minicuda: a from-scratch compiler for a CUDA-C subset.

The paper's workers invoke ``nvcc`` (or the OpenCL/OpenACC toolchains)
on student source. This package substitutes a complete, self-contained
toolchain for a C dialect large enough to express every lab in the
course (Table II):

* :mod:`repro.minicuda.preprocessor` — comments, ``#define`` object- and
  function-like macros, ``#include``, ``#ifdef`` conditionals;
* :mod:`repro.minicuda.lexer` — tokens with line/column positions;
* :mod:`repro.minicuda.parser` — recursive descent into a typed AST,
  including CUDA's ``kernel<<<grid, block>>>(...)`` launch syntax,
  ``__global__ / __device__ / __shared__ / __constant__`` qualifiers and
  OpenCL's ``__kernel / __global`` spellings;
* :mod:`repro.minicuda.semantic` — symbol resolution, kernel signature
  collection, lvalue and arity checking with source positions;
* :mod:`repro.minicuda.interpreter` — a tree-walking interpreter.
  Device kernels execute as per-thread generators against
  :class:`repro.gpusim.ThreadContext` (so ``__syncthreads()`` maps onto
  the scheduler's lockstep barrier and every memory access is profiled);
  host code runs against a CUDA-runtime + libwb host API
  (:mod:`repro.minicuda.hostapi`);
* :mod:`repro.minicuda.simd` — the ``simd`` engine (the default):
  lowers each eligible kernel to warp-wide numpy array programs with
  masked lane predication;
* :mod:`repro.minicuda.srcgen` — the ``codegen`` engine: lowers each
  checked kernel to generated Python source, run once per thread. It
  takes every kernel the simd tier declines, and the tree-walker (the
  ``ast`` engine and reference oracle) takes what it declines in turn;
* :mod:`repro.minicuda.lowering` — what both compiled tiers share: the
  kernel memo table keyed on the program fingerprint and a versioned
  engine tag, the unsupported-construct verdict, and scalar coercers.

The facade is :func:`repro.minicuda.compiler.compile_source`.
"""

from repro.minicuda.diagnostics import CompileError, Diagnostic, SourcePos
from repro.minicuda.preprocessor import Preprocessor, preprocess
from repro.minicuda.lexer import Token, TokenKind, tokenize
from repro.minicuda.parser import Parser, parse
from repro.minicuda.semantic import analyze
from repro.minicuda.compiler import CompileCache, CompiledProgram, compile_source
from repro.minicuda.hostapi import HostEnv, SolutionRecorded, WbTimer
from repro.minicuda.interpreter import ENGINES, resolve_engine

__all__ = [
    "CompileCache",
    "CompileError",
    "CompiledProgram",
    "Diagnostic",
    "ENGINES",
    "HostEnv",
    "Parser",
    "Preprocessor",
    "SolutionRecorded",
    "SourcePos",
    "Token",
    "TokenKind",
    "WbTimer",
    "analyze",
    "compile_source",
    "parse",
    "preprocess",
    "resolve_engine",
    "tokenize",
]
