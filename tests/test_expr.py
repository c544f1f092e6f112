import itertools
import math
import operator
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcalc import expr
from gcalc.expr import ExprError, ExprNameError, ExprSyntaxError, parse


class TestParseEval:
    def test_sum_of_squares(self):
        e = parse("x1^2 + x2^2", ["x1", "x2"])
        assert e.eval({"x1": 1.0, "x2": 2.0}) == 5.0

    def test_cubic(self):
        e = parse("-x1 - x1^3", ["x1"])
        assert e.eval({"x1": 2.0}) == -10.0

    def test_lyapunov_fixture_expression(self):
        # hand evaluation: 2*1*(-1) + 0.5*(4*1*0.5 + 2*1) = -2 + 2 = 0
        e = parse("2*x1*(-1) + 0.5*(4*x1*0.5 + 2*1)", ["x1"])
        assert e.eval({"x1": 1.0}) == 0.0

    def test_precedence(self):
        v = {"x": 0.0}
        assert parse("2^3^2", ["x"]).eval(v) == 512.0  # right-associative
        assert parse("-2^2", ["x"]).eval(v) == -4.0    # unary binds below ^
        assert parse("2^-3", ["x"]).eval(v) == 0.125
        assert parse("6 - 2 - 1", ["x"]).eval(v) == 3.0
        assert parse("12/3/2", ["x"]).eval(v) == 2.0
        assert parse("1 + 2*3", ["x"]).eval(v) == 7.0

    def test_functions(self):
        e = parse("max(x, 0) + min(x, 0) + pos(x) - neg(x)", ["x"])
        assert e.eval({"x": -3.0}) == pytest.approx(-6.0)
        assert parse("sqrt(abs(x))", ["x"]).eval({"x": -9.0}) == 3.0
        assert parse("exp(log(x))", ["x"]).eval({"x": 2.5}) == pytest.approx(2.5)

    def test_vectorised_eval(self):
        e = parse("x^2 + 1", ["x"])
        out = e.eval({"x": np.array([1.0, 2.0, 3.0])})
        assert np.allclose(out, [2.0, 5.0, 10.0])

    def test_constants_folded(self):
        e = parse("a*x + b", ["x"], constants={"a": 2.0, "b": -1.0})
        assert e.eval({"x": 3.0}) == 5.0
        assert e.free_variables == {"x"}

    def test_scientific_literals(self):
        assert parse("1e-3 + 2.5E2", []).eval({}) == pytest.approx(250.001)


class TestErrors:
    def test_unknown_identifier_names_it(self):
        with pytest.raises(ExprNameError) as exc:
            parse("x1 + zz", ["x1"])
        assert exc.value.name == "zz"
        assert exc.value.pos == 5

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + * 2", ["x"])
        assert exc.value.pos == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + 2", ["x"])

    def test_function_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse("min(1)", [])
        with pytest.raises(ExprSyntaxError):
            parse("sin(1, 2)", [])

    def test_missing_binding(self):
        e = parse("x + y", ["x", "y"])
        with pytest.raises(ExprError):
            e.eval({"x": 1.0})

    def test_nan_propagates_without_raising(self):
        e = parse("log(x)", ["x"])
        assert np.isnan(e.eval({"x": -1.0}))
        assert np.isinf(parse("1/x", ["x"]).eval({"x": 0.0}))


def _random_poly(rng, variables, depth=0):
    choice = rng.integers(0, 6 if depth < 3 else 2)
    if choice == 0:
        return f"{rng.uniform(-3, 3):.3f}"
    if choice == 1:
        return str(rng.choice(variables))
    a = _random_poly(rng, variables, depth + 1)
    b = _random_poly(rng, variables, depth + 1)
    if choice == 2:
        return f"({a} + {b})"
    if choice == 3:
        return f"({a} - {b})"
    if choice == 4:
        return f"({a} * {b})"
    return f"({a})^{rng.integers(0, 4)}"


def _central_difference(e, var, point, h):
    hi = {**point, var: point[var] + h}
    lo = {**point, var: point[var] - h}
    return float((e.eval(hi) - e.eval(lo)) / (2.0 * h))


class TestTable:
    VARS = ("t", "x1", "x2")

    def test_nested_shape_and_passthrough(self):
        e = parse("x1 * t", self.VARS)
        tab = expr.table([[e, "x2"], ["1", 2]], (2, 2), self.VARS)
        assert tab[0][0] is e
        assert tab[0][1] == parse("x2", self.VARS) and tab[1][1] == parse("2", self.VARS)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = expr.fill(tab, expr.bind(0.5, x), (3,))
        assert out.shape == (3, 2, 2)
        assert np.array_equal(out[:, 0, 0], 0.5 * x[:, 0]) and np.array_equal(out[:, 1, 1], [2.0] * 3)

    @pytest.mark.parametrize("entries,dims,message", [
        (["x1"], (2,), "needs 2 entries, got 1"),
        (["x1", "x2", "t"], (2,), "needs 2 entries, got 3"),
        ([["x1", "x2"], ["t"]], (2, 2), "needs 2 entries, got 1"),
        ([["x1"], ["x2"]], (2, 2), "needs 2 entries, got 1"),
        ("x1", (1,), "needs 1 entries, got one expression"),
        ([[]], (1, 1), "needs 1 entries, got 0"),
    ], ids=["short", "long", "ragged_row", "narrow", "bare_expression", "empty_row"])
    def test_shape_errors(self, entries, dims, message):
        with pytest.raises(ValueError, match=f"grad {message}"):
            expr.table(entries, dims, self.VARS, what="grad")

    def test_leaf_parse_errors_keep_their_type(self):
        with pytest.raises(ExprNameError):
            expr.table(["x1", "y"], (2,), self.VARS)

    def test_evaluate_broadcasts_a_view(self):
        out = expr.evaluate(parse("2", self.VARS), expr.bind(0.0, np.zeros((4, 2))), (4,))
        assert out.shape == (4,) and not out.flags.writeable


class TestSymbolicAgainstFD:
    def test_polynomial_gradients_match(self):
        rng = np.random.default_rng(7)
        variables = ["x1", "x2"]
        checked = 0
        while checked < 200:
            src = _random_poly(rng, variables)
            e = parse(src, variables)
            var = str(rng.choice(variables))
            point = {"x1": rng.uniform(-1.5, 1.5), "x2": rng.uniform(-1.5, 1.5)}
            sym = expr.differentiate_symbolic(e, var).eval(point)
            if not np.isfinite(sym) or abs(sym) > 1e3:
                continue
            fd = _central_difference(e, var, point, 1e-6)
            assert fd == pytest.approx(sym, rel=1e-5, abs=1e-4), src
            checked += 1

    @pytest.mark.parametrize("src", [
        "sin(x1*x2)", "cos(x1 - t)", "exp(x1*x2)", "log(1 + x1^2)", "tanh(2*x1)",
        "sqrt(5 + x1*x2)", "abs(x1 - x2)", "pos(x1) * x2", "neg(x1) * -x2",
        "max(x1, x2^2)", "min(x1*x2, t)", "x1 / (1 + x2^2)", "(1 + x1^2)^2.5",
        "abs(x1)^1.5", "(1 + x1^2)^(x1 - t*x2)", "x2*(2 + sin(x1))^t",
    ])
    def test_chain_rule_matches_central_difference(self, src):
        # first and second derivatives against central differences of the
        # expression and of its symbolic derivative, at random points
        variables = ["t", "x1", "x2"]
        e = parse(src, variables)
        rng = np.random.default_rng(11)
        for _ in range(20):
            point = dict(zip(variables, rng.uniform(-2.0, 2.0, size=3)))
            for a in variables:
                da = expr.differentiate_symbolic(e, a)
                assert da.eval(point) == pytest.approx(
                    _central_difference(e, a, point, 1e-6), rel=1e-6, abs=1e-6), (src, a)
                for b in variables:
                    dab = expr.differentiate_symbolic(da, b)
                    assert dab.eval(point) == pytest.approx(
                        _central_difference(da, b, point, 1e-6), rel=1e-5, abs=1e-5), (src, a, b)

    @pytest.mark.parametrize("src", ["abs(x)", "pos(x)", "neg(x)", "max(x, 0)", "min(0, x)",
                                     "abs(x)^1.5 + x"])
    def test_kinks_differentiate_to_nan_only_at_the_kink(self, src):
        d = expr.differentiate_symbolic(parse(src, ["x"]), "x")
        x = np.array([-1.5, -1e-9, 0.0, 1e-9, 2.0])
        out = d.eval({"x": x})
        assert np.isnan(out[2]) and np.all(np.isfinite(np.delete(out, 2)))


@st.composite
def trees(draw, depth=0):
    kind = draw(st.integers(0, 6 if depth < 3 else 1))
    if kind == 0:
        value = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        return expr.Num(abs(value))  # negative literals print as unary minus
    if kind == 1:
        return expr.Var(draw(st.sampled_from(["t", "x1", "x2", "b1"])))
    if kind == 2:
        return expr.Neg(draw(trees(depth=depth + 1)))
    if kind == 3:
        return expr.Call(draw(st.sampled_from(["sin", "exp", "pos", "sqrt"])), (draw(trees(depth=depth + 1)),))
    if kind == 4:
        return expr.Call(draw(st.sampled_from(["min", "max"])),
                         (draw(trees(depth=depth + 1)), draw(trees(depth=depth + 1))))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return expr.Bin(op, draw(trees(depth=depth + 1)), draw(trees(depth=depth + 1)))


class TestRoundTrip:
    @given(trees())
    @settings(max_examples=300, deadline=None)
    def test_parse_print_parse_identity(self, tree):
        variables = ["t", "x1", "x2", "b1"]
        e = expr.Expression(tree, variables)
        reparsed = parse(e.to_source(), variables)
        assert reparsed.root == tree

    def test_source_stable(self):
        src = "-(x1 + 2) * max(x2, 0)^2"
        e = parse(src, ["x1", "x2"])
        assert parse(e.to_source(), ["x1", "x2"]) == e


def _ref_eval(node, env):
    """Reference: the tree walk that evaluated expressions before they were
    compiled, one isinstance dispatch per node and call.  + - * on two
    Python floats go through ``operator``: CPython 3.11 specializes a
    warmed-up ``a + b`` into an inline float add whose NaN + NaN can take
    the other operand's sign, so the bytecode operators would make NaN
    signs depend on how often this function has run."""
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Var):
        return np.asarray(env[node.name], dtype=float)
    if isinstance(node, expr.Neg):
        return -_ref_eval(node.operand, env)
    if isinstance(node, expr.Bin):
        a = _ref_eval(node.left, env)
        b = _ref_eval(node.right, env)
        if node.op == "+":
            return operator.add(a, b)
        if node.op == "-":
            return operator.sub(a, b)
        if node.op == "*":
            return operator.mul(a, b)
        if node.op == "/":
            return np.divide(a, b)
        # the documented power rule: an exponent over numbers alone that
        # equals 2, 3 or 4 is a product of the base
        if not expr._free_vars(node.right) and b in (2.0, 3.0, 4.0):
            return a * a if b == 2.0 else a * a * a if b == 3.0 else (a * a) * (a * a)
        return np.power(a, b)
    args = [_ref_eval(a, env) for a in node.args]
    fn = expr._UNARY_FUNCS.get(node.func) or expr._BINARY_FUNCS[node.func]
    return fn(*args)


def _ref_fill(exprs, dims, env, shape):
    """Reference: fill as it was, one Expression evaluation (and errstate)
    per entry through the tree walk."""
    out = np.empty(shape + dims)
    for idx in itertools.product(*map(range, dims)):
        e = exprs
        for i in idx:
            e = e[i]
        with np.errstate(all="ignore"):
            out[(..., *idx)] = _ref_eval(e.root, env)
    return out


def _bits(a):
    """Type, shape and bit pattern of a float result."""
    arr = np.asarray(a, dtype=float)
    return type(a), arr.shape, arr.view(np.uint64).tolist()


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 2.5, -3.0, 1e-300, 1e300]
# 1.2 and -1.3 have cubes (and 1.2 a fourth power) that np.power and the
# product rule round differently, so the bitwise tests see which one ran
ENV = {
    "t": 0.75,
    "x1": np.array(SPECIAL + [1.2]),
    "x2": np.array([-2.0, 0.0, -0.0, 3.0, math.nan, math.inf, -1e-300, 0.5, -0.5, 7.0, -1e300,
                    -1.3]),
}


@st.composite
def any_trees(draw, depth=0):
    """Trees over every node kind, every function and every operator, with
    signed zeros, infinities, NaN and the small integer powers 2, 3 and 4
    among the literals."""
    kind = draw(st.integers(0, 5 if depth < 4 else 1))
    if kind == 0:
        return expr.Num(draw(st.sampled_from(SPECIAL + [2.0, 3.0, 4.0]) | st.floats(-10, 10)))
    if kind == 1:
        return expr.Var(draw(st.sampled_from(["t", "x1", "x2"])))
    if kind == 2:
        return expr.Neg(draw(any_trees(depth=depth + 1)))
    if kind == 3:
        func = draw(st.sampled_from(sorted(expr._UNARY_FUNCS)))
        return expr.Call(func, (draw(any_trees(depth=depth + 1)),))
    if kind == 4:
        return expr.Call(draw(st.sampled_from(sorted(expr._BINARY_FUNCS))),
                         (draw(any_trees(depth=depth + 1)), draw(any_trees(depth=depth + 1))))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    left = draw(any_trees(depth=depth + 1))
    if op == "^" and draw(st.booleans()):
        # half the powers take a small integer exponent, the product rule's case
        return expr.Bin(op, left, expr.Num(draw(st.sampled_from([2.0, 3.0, 4.0]))))
    return expr.Bin(op, left, draw(any_trees(depth=depth + 1)))


class TestCompiledAgainstTreeWalk:
    VARS = ("t", "x1", "x2")

    @given(any_trees())
    @settings(max_examples=400, deadline=None)
    def test_random_trees_bitwise(self, tree):
        e = expr.Expression(tree, self.VARS)
        with np.errstate(all="ignore"):
            want = _ref_eval(tree, ENV)
        assert _bits(e.eval(ENV)) == _bits(want)

    @given(st.lists(st.lists(any_trees(), min_size=2, max_size=2), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_random_tables_fill_bitwise(self, rows):
        tab = expr.table([[expr.Expression(r, self.VARS) for r in row] for row in rows],
                         (3, 2), self.VARS)
        shape = ENV["x1"].shape
        got = expr.fill(tab, ENV, shape)
        assert _bits(got) == _bits(_ref_fill(tab, (3, 2), ENV, shape))

    @pytest.mark.parametrize("src", [
        "0", "-0", "0 * x1", "-0 + x1", "1/0", "-1/0", "0/0", "x1/0", "0/x1", "x1/x2",
        "log(-1)", "log(0)", "log(x1)", "sqrt(-x1)", "inf - inf", "nan", "inf * 0",
        "x1^0.5", "(-8)^(1/3)", "x2^-1", "0^0", "neg(-0)", "pos(nan)", "min(nan, x1)",
        "max(-0, 0)", "exp(1e3) * 0", "tanh(inf) - 1", "2^0.5 + x1 - (3 - 1)*t",
        "x1^3", "x2^3", "x1^4 - x2^2", "(x1 + x2)^(1 + 2)",
    ])
    def test_special_constants_bitwise(self, src):
        e = parse(src, self.VARS, {"inf": math.inf, "nan": math.nan})
        with np.errstate(all="ignore"):
            want = _ref_eval(e.root, ENV)
        assert _bits(e.eval(ENV)) == _bits(want)

    def test_numbers_only_subtrees_fold(self):
        # the folded value is the very object the walk would produce
        e = parse("(2^0.5 - 1) * x1", self.VARS)
        (folded_run, folded), (_, whole) = expr._compile(e.root.left), expr._compile(e.root)
        assert folded and not whole
        assert folded_run(None) is folded_run(None)
        assert _bits(folded_run(None)) == _bits(_ref_eval(e.root.left, {}))

    @pytest.mark.parametrize("src,zero", [
        ("0", True), ("1 - 1", True), ("0/1", True), ("0*2", True), ("-1 + 1", True),
        ("-0", False), ("0*x1", False), ("0/0", False), ("1", False), ("t - t", False),
    ])
    def test_is_zero_means_numbers_that_are_positive_zero(self, src, zero):
        assert expr.table([src, "0"], (2,), self.VARS).is_zero is zero
        assert expr.table([["0"], [src]], (2, 1), self.VARS).is_zero is zero

    def test_fill_names_a_missing_binding(self):
        tab = expr.table(["x1", "y"], (2,), ("x1", "y"))
        with pytest.raises(ExprError, match=r"missing bindings for \['y'\]"):
            expr.fill(tab, {"x1": np.zeros(3)}, (3,))


def _draws():
    """Signed values whose exponents span e-308..e+301 (so cubes and fourth
    powers under- and overflow), with signed zeros, infinities, NaN,
    subnormals and 1e103, whose cube overflows."""
    rng = np.random.default_rng(12)
    wide = rng.uniform(1.0, 2.0, 20000) * 2.0 ** rng.integers(-1022, 1000, 20000)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
               2.2250738585072014e-308, 1e-103, 1e103, -1e103, 1e78, 1.2, -1.2]
    return np.concatenate([special, wide * rng.choice([-1.0, 1.0], wide.size)])


class TestPowerRule:
    """u^k with an exponent over numbers alone equal to 2, 3 or 4 compiles
    to products of u; every other exponent takes np.power."""

    VARS = ("t", "x1", "x2")
    X = _draws()

    def eval_bits(self, src, **env):
        return np.asarray(parse(src, self.VARS).eval({"x1": self.X, **env})).view(np.uint64)

    @pytest.mark.parametrize("src,k", [("x1^3", 3), ("x1^4", 4), ("x1^(4-1)", 3), ("x1^(2*2)", 4)])
    def test_cube_and_fourth_power_are_products(self, src, k):
        u = self.X
        with np.errstate(all="ignore"):
            want = u * u * u if k == 3 else (u * u) * (u * u)
            pw = np.power(u, float(k))
        assert np.array_equal(self.eval_bits(src), want.view(np.uint64))
        # the rule is taken, not np.power: they part in the last bit somewhere
        assert not np.array_equal(want.view(np.uint64), pw.view(np.uint64))

    def test_square_keeps_np_power_bits(self):
        with np.errstate(all="ignore"):
            want = np.power(self.X, 2.0)
        assert np.array_equal(self.eval_bits("x1^2"), want.view(np.uint64))

    @pytest.mark.parametrize("src,exponent", [("x1^3.5", 3.5), ("x1^-2", -2.0), ("x1^x2", 3.0)])
    def test_other_exponents_keep_np_power(self, src, exponent):
        with np.errstate(all="ignore"):
            want = np.power(self.X, exponent)
        got = self.eval_bits(src, x2=np.full(self.X.shape, exponent))
        assert np.array_equal(got, want.view(np.uint64))

    @pytest.mark.parametrize("base", [1.1, 1.2, -1.2, 1e103])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_folded_constant_equals_runtime_value(self, base, k):
        folded = parse(f"({base!r})^{k}", self.VARS)
        assert not folded.free_variables
        runtime = parse(f"x1^{k}", self.VARS).eval({"x1": np.array([base])})
        exponent = expr.Bin("-", expr.Num(k + 1.0), expr.Num(1.0))  # folds to k
        simplified = expr._simplify(expr.Bin("^", expr.Num(base), exponent))
        for value in (folded.eval({}), simplified.value):
            assert np.asarray([value]).view(np.uint64) == runtime.view(np.uint64)


class _OldTokenizer:
    """The character-by-character lexer that the token regex replaced, kept
    as the reference for it: (kind, text, pos) per next() call."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def next(self):
        self._skip_ws()
        if self.pos >= len(self.src):
            return ("end", "", self.pos)
        start = self.pos
        c = self.src[start]
        if c.isdigit() or (c == "." and start + 1 < len(self.src) and self.src[start + 1].isdigit()):
            i = start
            seen_dot = seen_exp = False
            while i < len(self.src):
                ch = self.src[i]
                if ch.isdigit():
                    i += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif ch in "eE" and not seen_exp and i > start:
                    if i + 1 < len(self.src) and (self.src[i + 1].isdigit() or self.src[i + 1] in "+-"):
                        seen_exp = True
                        i += 2 if self.src[i + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            self.pos = i
            return ("num", self.src[start:i], start)
        if c.isalpha() or c == "_":
            i = start
            while i < len(self.src) and (self.src[i].isalnum() or self.src[i] == "_"):
                i += 1
            self.pos = i
            return ("ident", self.src[start:i], start)
        self.pos += 1
        if c in "+-*/^":
            return ("op", c, start)
        if c == "(":
            return ("lparen", c, start)
        if c == ")":
            return ("rparen", c, start)
        if c == ",":
            return ("comma", c, start)
        raise ExprSyntaxError(f"unexpected character {c!r}", start)


def _old_tokens(source):
    tok = _OldTokenizer(source)
    while True:
        yield tok.next()


def _old_read_a_broken_exponent(source) -> bool:
    """Whether the old lexer reads a number whose exponent has no digits,
    such as '2e-', before the end or its first error."""
    try:
        for kind, text, _ in _old_tokens(source):
            if kind == "end":
                return False
            if kind == "num" and text[-1] in "+-":
                return True
    except ExprSyntaxError:
        return False


LEXER_VARS = ["x", "y", "t", "x1", "b1"]
LEXER_ALPHABET = string.digits + ".eE+-*/^()," + string.ascii_letters + " \t\n\u0663"
# runs of the alphabet that meet at the lexer's edge cases
LEXER_PIECES = ["2", "0.5", ".", "5.", ".25", "e", "E", "e-", "E+", "e3", "+", "-", "*", "/",
                "^", "(", ")", ",", " ", "\t", "x", "x1", "b1", "a", "sin", "max", "\u0663", "_"]


def _parse_outcome(source):
    """("tree", root, to_source) or ("error", class, message)."""
    try:
        e = parse(source, LEXER_VARS, {"a": 2.0})
    except ExprError as err:
        return "error", type(err), str(err)
    return "tree", e.root, e.to_source()


class TestLexerAgainstOld:
    @given(st.one_of(st.text(LEXER_ALPHABET, max_size=16),
                     st.lists(st.sampled_from(LEXER_PIECES), max_size=10).map("".join)))
    @example("2e-x")
    @example("x 2e-")
    @example("8E+ .")
    @example("1.e5 + .5E-3*x1^\u06632")
    @settings(max_examples=600, deadline=None)
    def test_same_tree_and_message_or_a_crash_made_an_error(self, source):
        """The regex lexer parses every input the old lexer parsed to the
        same tree, and raises the same error for every other one, except
        where the old lexer crashed (float() of '2e-') or read such a
        broken exponent before its error; there it raises an ExprError."""
        new = _parse_outcome(source)  # anything but an ExprError fails the test
        with mock.patch.object(expr, "_tokens", _old_tokens):
            try:
                old = _parse_outcome(source)
            except ValueError:  # a number float() cannot read
                old = ("crash",)
        if old[0] == "crash" or (old[0] == "error" and _old_read_a_broken_exponent(source)):
            assert new[0] == "error"
        else:
            assert new == old

    @pytest.mark.parametrize("source", ["2e-x", "2e-", "1E+", "3.e-*x", "2e-b1"])
    def test_an_exponent_needs_digits(self, source):
        with pytest.raises(ExprSyntaxError) as err:
            parse(source, ["x", "b1"])
        assert err.value.pos == source.lower().index("e")  # the number ended before it

    @pytest.mark.parametrize("source,value", [("2e-3", 2e-3), ("1.e5", 1e5), (".5E+2", 50.0),
                                              ("\u0663.5", 3.5), ("12.", 12.0)])
    def test_numbers(self, source, value):
        assert parse(source, []).root == expr.Num(value)

    def test_errors_arrive_in_parse_order(self):
        # the lexer is lazy: the parser's error at 'y' comes before the
        # stray character behind it
        with pytest.raises(ExprNameError):
            parse("y + $", ["x"])
        with pytest.raises(ExprSyntaxError, match="unexpected character '\\$'"):
            parse("x + $", ["x"])
