"""Arithmetic expression language for coefficients, Lyapunov candidates and payoffs.

Grammar (highest precedence first): ``^`` right-associative, unary minus,
``* /``, ``+ -``.  Atoms are numbers (decimal digits, whose exponent needs
digits too: ``2.5e-3``), declared variables, parenthesised expressions and
the function calls sin, cos, exp, log, tanh, abs, sqrt, pos (positive
part), neg (negative part), min, max.

Trees are immutable; evaluation broadcasts over numpy arrays bound to the
variables, and non-finite values propagate (callers decide how to report
them).  Each expression is compiled once, on first use, into nested
closures that apply the same numpy operations in the same order as a walk
of the tree, with every subtree over numbers alone folded to its value.
One rule departs from ``np.power``: ``u^k`` whose exponent is over numbers
alone and equals 2, 3 or 4 evaluates u once and computes ``u*u``,
``(u*u)*u`` or ``(u*u)*(u*u)``.  ``^2`` keeps np.power's bits; ``^3`` and
``^4`` may differ from np.power in the last bit (about one value in ten),
and are several times faster on arrays.  Every other exponent takes
np.power.  ``to_source`` prints a form whose re-parse reproduces the tree
node for node.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


class ExprError(ConfigError):
    """Base class for parse and evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class ExprNameError(ExprError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown identifier '{name}' (at offset {pos})")
        self.name = name
        self.pos = pos


_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "pos": lambda a: np.maximum(a, 0.0),
    "neg": lambda a: np.maximum(-a, 0.0),
}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide, "^": np.power}
# u^k as products of u, for an exponent over numbers alone equal to k (the
# power rule in the module docstring)
_POWERS = {2.0: lambda u: u * u, 3.0: lambda u: u * u * u, 4.0: lambda u: (u2 := u * u) * u2}
FUNCTIONS = sorted(_UNARY_FUNCS) + sorted(_BINARY_FUNCS)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


class Expression:
    """A parsed expression together with its declared variable set."""

    def __init__(self, root, variables):
        self.root = root
        self.variables = tuple(variables)
        self._free = frozenset(_free_vars(root))

    @property
    def free_variables(self) -> frozenset:
        return self._free

    def __call__(self, **env):
        return self.eval(env)

    def eval(self, env):
        """Evaluate with variables bound to scalars or broadcastable arrays."""
        missing = self._free.difference(env)
        if missing:
            raise ExprError(f"missing bindings for {sorted(missing)}")
        with np.errstate(all="ignore"):
            return self.compiled(env)

    @cached_property
    def compiled(self):
        """The tree as a function of env (see ``_compile``), built on first
        use; call it under ``np.errstate(all="ignore")``."""
        return _compile(self.root)[0]

    def to_source(self) -> str:
        return _print(self.root, 0)

    def __repr__(self):
        return f"Expression({self.to_source()!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self):
        return hash(self.to_source())


def _free_vars(node):
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return _free_vars(node.operand)
    if isinstance(node, Bin):
        return _free_vars(node.left) | _free_vars(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= _free_vars(a)
        return out
    raise TypeError(f"not an expression node: {node!r}")


def _compile(node):
    """(run, folded) for a tree: run(env) applies each node's numpy or
    Python operation to its operands' values, left operand first (a small
    integer power takes its product from ``_POWERS``), and a variable
    reads ``np.asarray(env[name], dtype=float)``.  A subtree over
    numbers alone is folded: its value is computed once, by the same
    operations, and run returns that object, so folded says run ignores
    env."""
    if isinstance(node, Num):
        value = node.value
        return (lambda env: value), True
    if isinstance(node, Var):
        name = node.name
        return (lambda env: np.asarray(env[name], dtype=float)), False
    if isinstance(node, Neg):
        a, folded = _compile(node.operand)
        run = lambda env: -a(env)  # noqa: E731
    elif isinstance(node, Bin):
        op = _OPERATORS[node.op]
        (a, fa), (b, fb) = _compile(node.left), _compile(node.right)
        folded = fa and fb
        power = _POWERS.get(b(None)) if node.op == "^" and fb else None
        if power is not None:
            run = lambda env: power(a(env))  # noqa: E731
        else:
            run = lambda env: op(a(env), b(env))  # noqa: E731
    elif isinstance(node, Call):
        fn = _UNARY_FUNCS.get(node.func) or _BINARY_FUNCS[node.func]
        parts = [_compile(arg) for arg in node.args]
        folded = all(f for _, f in parts)
        if len(parts) == 1:
            a = parts[0][0]
            run = lambda env: fn(a(env))  # noqa: E731
        else:
            (a, _), (b, _) = parts
            run = lambda env: fn(a(env), b(env))  # noqa: E731
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if not folded:
        return run, False
    with np.errstate(all="ignore"):
        value = run(None)
    return (lambda env: value), True


# Precedence levels used for printing; mirror the parser.
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _node_prec(node):
    if isinstance(node, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_UNARY
    return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[node.op]


def _print(node, parent_prec):
    if isinstance(node, Num):
        s = repr(node.value)
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        s = "-" + _print(node.operand, _PREC_UNARY)
        return f"({s})" if parent_prec > _PREC_UNARY else s
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print(a, 0) for a in node.args)})"
    p = _node_prec(node)
    if node.op == "^":
        # right-associative; the left operand must bind tighter than ^
        left = _print(node.left, _PREC_POW + 1)
        right = _print(node.right, _PREC_POW)
        s = f"{left}^{right}"
    else:
        left = _print(node.left, p)
        # left-associative: a same-precedence right operand keeps its parens
        right = _print(node.right, p + 1)
        s = f"{left} {node.op} {right}"
    return f"({s})" if parent_prec > p else s


# one token after any whitespace: a number (whose exponent needs digits),
# an identifier, an operator or punctuation, the end, or a stray character
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?) | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,) | (?P<end>\Z) | (?P<bad>.))""",
                    re.VERBOSE)


def _tokens(source: str):
    """Yield (kind, text, offset) per token, lazily, then the end token for
    ever; kind is num, ident, op, lparen, rparen, comma or end.  A stray
    character raises ExprSyntaxError when it is reached."""
    pos = 0
    while True:
        m = _TOKEN.match(source, pos)
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        yield kind, m[kind], m.start(kind)
        pos = m.end()


class _Parser:
    def __init__(self, source, variables, constants):
        self.tokens = _tokens(source)
        self.variables = set(variables)
        if not isinstance(constants, (dict, type(None))):
            raise ConfigError("constants must map names to numbers", "constants")
        self.constants = dict(constants or {})
        for name, value in self.constants.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"constant {name} must be a number, got {value!r}",
                                  f"constants/{name}")
        self.cur = next(self.tokens)

    def _advance(self):
        self.cur = next(self.tokens)

    def _expect(self, kind, what):
        if self.cur[0] != kind:
            raise ExprSyntaxError(f"expected {what}, found {self.cur[1]!r}", self.cur[2])
        tok = self.cur
        self._advance()
        return tok

    def parse(self):
        node = self.sum()
        if self.cur[0] != "end":
            raise ExprSyntaxError(f"unexpected token {self.cur[1]!r}", self.cur[2])
        return node

    def sum(self):
        node = self.product()
        while self.cur[0] == "op" and self.cur[1] in "+-":
            op = self.cur[1]
            self._advance()
            node = Bin(op, node, self.product())
        return node

    def product(self):
        node = self.unary()
        while self.cur[0] == "op" and self.cur[1] in "*/":
            op = self.cur[1]
            self._advance()
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.cur[0] == "op" and self.cur[1] == "-":
            self._advance()
            return Neg(self.unary())
        if self.cur[0] == "op" and self.cur[1] == "+":
            self._advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.cur[0] == "op" and self.cur[1] == "^":
            self._advance()
            # right-associative; exponent may carry a unary minus (2^-3)
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, text, pos = self.cur
        if kind == "num":
            self._advance()
            return Num(float(text))
        if kind == "lparen":
            self._advance()
            node = self.sum()
            self._expect("rparen", "')'")
            return node
        if kind == "ident":
            self._advance()
            if self.cur[0] == "lparen":
                if text not in _UNARY_FUNCS and text not in _BINARY_FUNCS:
                    raise ExprNameError(text, pos)
                self._advance()
                args = [self.sum()]
                while self.cur[0] == "comma":
                    self._advance()
                    args.append(self.sum())
                self._expect("rparen", "')'")
                want = 1 if text in _UNARY_FUNCS else 2
                if len(args) != want:
                    raise ExprSyntaxError(f"{text} takes {want} argument(s), got {len(args)}", pos)
                return Call(text, tuple(args))
            if text in self.variables:
                return Var(text)
            if text in self.constants:
                return Num(float(self.constants[text]))
            raise ExprNameError(text, pos)
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse(source: str, variables, constants=None) -> Expression:
    """Parse ``source`` over the declared variables.

    Identifiers found in ``constants``, a dict of numbers, are folded to
    numeric literals at parse time; anything else that is neither a
    variable nor a function raises ExprNameError with its byte offset.
    """
    root = _Parser(str(source), variables, constants).parse()
    return Expression(root, variables)


def differentiate_symbolic(e: Expression, var: str) -> Expression:
    """d e / d var.  Every node has a rule; the kinked functions abs, pos,
    neg, min and max differentiate to quotients that are NaN exactly at
    the kink, where e is not differentiable."""
    return Expression(_simplify(_diff(e.root, var)), e.variables)


# f'(u) for each unary function f, as a tree over the call node and u
_DERIVATIVES = {
    "sin": lambda node, u: Call("cos", (u,)),
    "cos": lambda node, u: Neg(Call("sin", (u,))),
    "exp": lambda node, u: node,
    "log": lambda node, u: Bin("/", Num(1.0), u),
    "tanh": lambda node, u: Bin("-", Num(1.0), Bin("^", node, Num(2.0))),
    "sqrt": lambda node, u: Bin("/", Num(0.5), node),
    "abs": lambda node, u: Bin("/", u, node),
    "pos": lambda node, u: Bin("/", node, u),
    "neg": lambda node, u: Bin("/", node, u),
}


def _diff(node, var):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.operand, var))
    if isinstance(node, Call):
        if node.func in _BINARY_FUNCS:
            # max(a, b) = b + pos(a - b) and min(a, b) = a - pos(a - b)
            a, b = node.args
            kink = Call("pos", (Bin("-", a, b),))
            return _diff(Bin("+", b, kink) if node.func == "max" else Bin("-", a, kink), var)
        (u,) = node.args
        return Bin("*", _DERIVATIVES[node.func](node, u), _diff(u, var))
    u, w = node.left, node.right
    du, dw = _diff(u, var), _diff(w, var)
    if node.op in "+-":
        return Bin(node.op, du, dw)
    if node.op == "*":
        return Bin("+", Bin("*", du, w), Bin("*", u, dw))
    if node.op == "/":
        return Bin("/", Bin("-", Bin("*", du, w), Bin("*", u, dw)), Bin("^", w, Num(2.0)))
    if var not in _free_vars(w):  # w u^(w-1) u'
        return Bin("*", Bin("*", w, Bin("^", u, Bin("-", w, Num(1.0)))), du)
    # u^w (w' log u + w u'/u)
    return Bin("*", node, Bin("+", Bin("*", dw, Call("log", (u,))), Bin("/", Bin("*", w, du), u)))


def _simplify(node):
    if isinstance(node, Neg):
        inner = _simplify(node.operand)
        if isinstance(inner, Num):
            return Num(-inner.value)
        return Neg(inner)
    if isinstance(node, Bin):
        a = _simplify(node.left)
        b = _simplify(node.right)
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(float(_compile(Bin(node.op, a, b))[0](None)))
        if node.op == "*":
            if (isinstance(a, Num) and a.value == 0.0) or (isinstance(b, Num) and b.value == 0.0):
                return Num(0.0)
            if isinstance(a, Num) and a.value == 1.0:
                return b
            if isinstance(b, Num) and b.value == 1.0:
                return a
        if node.op == "+":
            if isinstance(a, Num) and a.value == 0.0:
                return b
            if isinstance(b, Num) and b.value == 0.0:
                return a
        if node.op == "-" and isinstance(b, Num) and b.value == 0.0:
            return a
        if node.op == "/" and isinstance(a, Num) and a.value == 0.0:
            return Num(0.0)
        if node.op == "^" and isinstance(b, Num) and b.value == 1.0:
            return a
        return Bin(node.op, a, b)
    return node


def state_variables(n: int) -> list:
    """Variable names x1..xn."""
    return [f"x{i + 1}" for i in range(n)]


class Table(tuple):
    """Nested tuples of Expressions indexed by ``dims``, as ``table`` builds
    them; ``fill`` evaluates them through their compiled entries."""

    def __new__(cls, entries, dims):
        self = super().__new__(cls, entries)
        self.dims = tuple(dims)
        return self

    @cached_property
    def leaves(self) -> list:
        """(index into a shape + dims array, Expression), in index order."""
        out = []
        for idx in itertools.product(*map(range, self.dims)):
            e = self
            for i in idx:
                e = e[i]
            out.append(((..., *idx), e))
        return out

    @cached_property
    def entries(self) -> list:
        """(index, compiled entry) for every leaf."""
        return [(idx, e.compiled) for idx, e in self.leaves]

    @cached_property
    def free_variables(self) -> frozenset:
        return frozenset().union(*(e.free_variables for _, e in self.leaves))

    @cached_property
    def is_zero(self) -> bool:
        """Whether every entry is free of variables and evaluates to +0.0."""
        if self.free_variables:
            return False
        values = [float(e.eval({})) for _, e in self.leaves]
        return all(v == 0.0 and math.copysign(1.0, v) > 0.0 for v in values)


def table(entries, dims, variables, constants=None, what="table"):
    """A Table indexed by ``dims``, parsed from sources (Expressions pass
    through); every level must hold a list or tuple of exactly its dim.
    With no dims, the one Expression.  Errors are ConfigErrors whose field
    is ``what``."""
    if not dims:
        if isinstance(entries, Expression):
            return entries
        try:
            return parse(str(entries), variables, constants)
        except ExprError as e:
            e.field = what
            raise
    if not isinstance(entries, (list, tuple)):
        got = "one expression" if isinstance(entries, (str, Expression)) else repr(entries)
        raise ConfigError(f"{what} needs {dims[0]} entries, got {got}", what)
    if len(entries) != dims[0]:
        raise ConfigError(f"{what} needs {dims[0]} entries, got {len(entries)}", what)
    return Table((table(e, dims[1:], variables, constants, what) for e in entries), dims)


def bind(t, x):
    """The environment {t, x1..xn} of states x of shape (..., n)."""
    env = {"t": t}
    for i in range(x.shape[-1]):
        env[f"x{i + 1}"] = x[..., i]
    return env


def evaluate(e: Expression, env, shape):
    """``e`` at ``env`` as a float array broadcast (a view) to ``shape``."""
    return np.broadcast_to(np.asarray(e.eval(env), dtype=float), shape)


def fill(tab: Table, env, shape):
    """Evaluate a Table into an array of shape + tab.dims; each entry
    broadcasts to ``shape`` on assignment."""
    missing = tab.free_variables.difference(env)
    if missing:
        raise ExprError(f"missing bindings for {sorted(missing)}")
    out = np.empty(shape + tab.dims)
    with np.errstate(all="ignore"):
        for idx, run in tab.entries:
            out[idx] = run(env)
    return out
