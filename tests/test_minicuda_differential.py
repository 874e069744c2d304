"""Differential testing: random C expressions through the full
compiler+interpreter vs a direct C-semantics evaluator.

Hypothesis builds random expression trees; we render them to C source,
compile and run it, and compare against evaluating the same tree with
the reference semantics (trunc-toward-zero division, C modulo, shifts,
bitwise ops, short-circuit logicals). Any disagreement is a parser
precedence bug, an interpreter bug, or both.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, GpuRuntime
from repro.minicuda import HostEnv, compile_source
from repro.minicuda.interpreter import _c_div, _c_mod


# -- expression trees -------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int

    def render(self) -> str:
        return str(self.value)

    def evaluate(self) -> int:
        return self.value


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"

    def render(self) -> str:
        # the space matters: "--1" would lex as the decrement operator,
        # exactly as in real C
        return f"({self.op} {self.operand.render()})"

    def evaluate(self) -> int:
        value = self.operand.evaluate()
        if self.op == "-":
            return -value
        if self.op == "~":
            return ~value
        if self.op == "!":
            return int(value == 0)
        raise AssertionError(self.op)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def evaluate(self) -> int:
        a = self.left.evaluate()
        if self.op == "&&":
            return int(a != 0 and self.right.evaluate() != 0)
        if self.op == "||":
            return int(a != 0 or self.right.evaluate() != 0)
        b = self.right.evaluate()
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return _c_div(a, b if b != 0 else 1)
        if self.op == "%":
            return _c_mod(a, b if b != 0 else 1)
        if self.op == "<<":
            return a << (abs(b) % 8)
        if self.op == ">>":
            return a >> (abs(b) % 8)
        if self.op == "&":
            return a & b
        if self.op == "|":
            return a | b
        if self.op == "^":
            return a ^ b
        if self.op == "<":
            return int(a < b)
        if self.op == "<=":
            return int(a <= b)
        if self.op == ">":
            return int(a > b)
        if self.op == ">=":
            return int(a >= b)
        if self.op == "==":
            return int(a == b)
        if self.op == "!=":
            return int(a != b)
        if self.op == "?":  # pragma: no cover - handled by Ternary
            raise AssertionError
        raise AssertionError(self.op)

    def render_safe(self) -> str:
        """Division/modulo guarded against zero; shifts bounded."""
        raise NotImplementedError


@dataclass(frozen=True)
class Ternary:
    cond: "Node"
    then: "Node"
    otherwise: "Node"

    def render(self) -> str:
        return (f"({self.cond.render()} ? {self.then.render()} "
                f": {self.otherwise.render()})")

    def evaluate(self) -> int:
        if self.cond.evaluate() != 0:
            return self.then.evaluate()
        return self.otherwise.evaluate()


Node = Lit | Unary | Binary | Ternary

_SAFE_BINOPS = ("+", "-", "*", "&", "|", "^", "<", "<=", ">", ">=",
                "==", "!=", "&&", "||")


def _wrap_divisor(node: Node) -> Node:
    """Ensure a divisor is never zero: (x | 1) is always odd."""
    return Binary("|", node, Lit(1))


def _wrap_shift(node: Node) -> Node:
    """Bound a shift amount into [0, 8)."""
    return Binary("%", Binary("&", node, Lit(0x7FFF)), Lit(8))


def expressions(max_depth: int = 4) -> st.SearchStrategy[Node]:
    literals = st.integers(min_value=-50, max_value=50).map(Lit)

    def extend(children: st.SearchStrategy[Node]) -> st.SearchStrategy[Node]:
        unary = st.builds(Unary, st.sampled_from(("-", "~", "!")), children)
        safe_binary = st.builds(Binary, st.sampled_from(_SAFE_BINOPS),
                                children, children)
        division = st.builds(
            lambda op, a, b: Binary(op, a, _wrap_divisor(b)),
            st.sampled_from(("/", "%")), children, children)
        shifts = st.builds(
            lambda op, a, b: Binary(op, Binary("&", a, Lit(0xFFFF)),
                                    _wrap_shift(b)),
            st.sampled_from(("<<", ">>")), children, children)
        ternary = st.builds(Ternary, children, children, children)
        return st.one_of(safe_binary, unary, division, shifts, ternary)

    return st.recursive(literals, extend, max_leaves=12)


def run_expression(node: Node) -> int:
    source = f"""
int main() {{
  int result = {node.render()};
  if (result == {node.evaluate()}) {{
    return 1;
  }}
  return 0;
}}
"""
    program = compile_source(source)
    return program.run_main(host_env=HostEnv()).exit_code


def run_expression_in_kernel(node: Node, engine: str):
    """Check the expression on-device; returns (1-if-match, KernelStats).

    The comparison happens inside the kernel (interpreter integers are
    unbounded, the int32 output buffer is not)."""
    source = f"""
__global__ void eval(int *out) {{
  int ok = ({node.render()}) == ({node.evaluate()});
  out[0] = ok;
}}
int main() {{ return 0; }}
"""
    program = compile_source(source)
    rt = GpuRuntime(Device())
    out = rt.malloc(1, "int")
    stats = program.launch(rt, "eval", 1, 1, out.ptr(), engine=engine)
    return int(rt.memcpy_dtoh(out)[0]), stats


class TestDifferential:
    @given(expressions())
    @settings(max_examples=120, deadline=None)
    def test_interpreter_matches_c_semantics(self, node):
        assert run_expression(node) == 1, node.render()

    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_device(self, node):
        """Every kernel engine must produce the same value AND
        bit-identical profiling counters for any expression."""
        ok_ast, stats_ast = run_expression_in_kernel(node, "ast")
        for engine in ("codegen", "simd"):
            ok_eng, stats_eng = run_expression_in_kernel(node, engine)
            assert ok_ast == 1, node.render()
            assert ok_eng == 1, (engine, node.render())
            assert stats_ast.instructions == stats_eng.instructions, \
                (engine, node.render())

    @given(expressions(), st.integers(0, 63), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_under_divergence(self, node, cut, flip):
        """Warp-divergent kernels: lanes take different branches of a
        boundary-guarded if/else, with a random expression evaluated
        in one arm. The simd engine runs both arms under lane masks;
        outputs AND every per-lane instruction charge must match the
        tree-walking oracle bit for bit."""
        op = "<" if flip else ">="
        source = f"""
__global__ void diverge(int *out, int n) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {{
    if (i {op} {cut}) {{
      out[i] = ({node.render()}) + i;
    }} else {{
      out[i] = i * 2 - 1;
    }}
  }}
}}
int main() {{ return 0; }}
"""
        program = compile_source(source)
        n = 60  # deliberately off the 64-thread grid: tail lanes masked
        results = {}
        for engine in ("ast", "codegen", "simd"):
            rt = GpuRuntime(Device())
            out = rt.malloc(n, "int")
            stats = program.launch(rt, "diverge", 2, 32, out.ptr(), n,
                                   engine=engine)
            results[engine] = (list(rt.memcpy_dtoh(out)), stats)
        vals_ast, stats_ast = results["ast"]
        for engine in ("codegen", "simd"):
            vals_eng, stats_eng = results[engine]
            assert vals_eng == vals_ast, (engine, node.render())
            assert stats_eng.instructions == stats_ast.instructions, \
                (engine, node.render())
            assert stats_eng.global_store_requests == \
                stats_ast.global_store_requests, engine

    @given(expressions(max_depth=3), st.integers(0, 63), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_line_ledgers_agree_across_engines(self, node, cut, flip):
        """The per-line profiler ledger is part of the engine-parity
        contract: profiled runs must produce bit-identical
        :class:`LineProfile` ledgers on every engine — including the
        divergence counts only mixed warps accrue, and the loop-line
        pinning of condition/step charges."""
        op = "<" if flip else ">="
        source = f"""
__global__ void diverge(int *out, int n) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = 0;
  for (int k = 0; k < 3; k++) {{
    acc += out[(i + k) % n];
  }}
  if (i < n) {{
    if (i {op} {cut}) {{
      out[i] = ({node.render()}) + acc;
    }} else {{
      out[i] = acc * 2 - 1;
    }}
  }}
}}
int main() {{ return 0; }}
"""
        program = compile_source(source)
        n = 60  # off the 64-thread grid: tail lanes masked
        ledgers = {}
        for engine in ("ast", "codegen", "simd"):
            rt = GpuRuntime(Device())
            out = rt.malloc(n, "int")
            stats = program.launch(rt, "diverge", 2, 32, out.ptr(), n,
                                   engine=engine, profile=True)
            assert stats.line_profile is not None, engine
            ledgers[engine] = stats.line_profile
        reference = ledgers["ast"]
        assert reference.total_instructions > 0
        for engine in ("codegen", "simd"):
            assert ledgers[engine] == reference, (engine, node.render())

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_division_pairs(self, a, b):
        node = Binary("/", Lit(a), _wrap_divisor(Lit(b)))
        assert run_expression(node) == 1

    @given(st.lists(st.sampled_from("+-*"), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=2, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_left_associative_chains(self, ops, values):
        # a op b op c ... without parentheses: exercises precedence
        n = min(len(ops), len(values) - 1)
        text = str(values[0])
        expected = values[0]
        for op, value in zip(ops[:n], values[1:n + 1]):
            text += f" {op} {value}"
        expected = eval(text)  # +,-,* agree between C and Python
        source = f"""
int main() {{
  int r = {text};
  return r == ({expected}) ? 1 : 0;
}}
"""
        program = compile_source(source)
        assert program.run_main(host_env=HostEnv()).exit_code == 1
