"""Exact multivariate polynomials over the rationals in x1..xd."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._kernel_py import poly_add, poly_mul, poly_neg, poly_partial, poly_scale


class PolyError(ValueError):
    pass


def _as_rational(c) -> int | Fraction:
    """An exact coefficient: an `int` when integral, else a `Fraction`."""
    if isinstance(c, int):
        return int(c)  # a bool becomes a plain int
    if isinstance(c, str):
        c = Fraction(c)
    elif not isinstance(c, Fraction):
        raise PolyError(f"coefficients must be exact rationals, got {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Sparse polynomial: exponent tuples of length d -> nonzero coefficient,
    an `int` (when integral on entry) or a `Fraction`."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms=None):
        self.d = d
        self.terms = {}
        if terms is not None:
            for e, c in dict(terms).items():
                c = _as_rational(c)
                if c:
                    self.terms[tuple(e)] = c

    # constructors ----------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "Poly":
        return cls(d)

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        c = _as_rational(c)
        p = cls(d)
        if c:
            p.terms = {(0,) * d: c}
        return p

    @classmethod
    def var(cls, d: int, mu: int, power: int = 1) -> "Poly":
        """x^mu (1-based)."""
        if not 1 <= mu <= d:
            raise PolyError(f"variable index {mu} out of range 1..{d}")
        e = [0] * d
        e[mu - 1] = power
        return cls(d, {tuple(e): 1})

    @classmethod
    def _raw(cls, d: int, terms: dict) -> "Poly":
        p = cls(d)
        p.terms = terms
        return p

    # arithmetic ------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.d != other.d:
            raise PolyError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        self._check(other)
        return Poly._raw(self.d, poly_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.d, poly_neg(self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly._raw(self.d, poly_scale(self.terms, other))
        self._check(other)
        return Poly._raw(self.d, poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative powers not supported")
        # repeated multiplication: on a sparse base it costs fewer term
        # products than squaring, whose last square is the largest
        out = Poly.const(self.d, 1)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, mu: int) -> "Poly":
        """Exact partial derivative with respect to x^mu (1-based)."""
        if not 1 <= mu <= self.d:
            raise PolyError(f"variable index {mu} out of range 1..{self.d}")
        return Poly._raw(self.d, poly_partial(self.terms, mu - 1))

    # queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # rendering -------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"x{mu + 1}" + (f"^{k}" if k > 1 else "")
                for mu, k in enumerate(exp) if k)
            if mono:
                if c == 1:
                    t = mono
                elif c == -1:
                    t = f"-{mono}"
                else:
                    t = f"{c}*{mono}"
            else:
                t = str(c)
            bits.append(t)
        out = bits[0]
        for t in bits[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------
# polynomial expression parser: rationals, x1..xd, + - * ^ ( )
# ---------------------------------------------------------------------

class PolyParseError(PolyError):
    pass


# parentheses may nest this deep; the recursive-descent parser would
# otherwise run out of stack on hostile input
_MAX_NESTING = 100
# bounds on the work one power may request, checked before expanding
_MAX_EXPONENT = 1000
_MAX_POWER_TERMS = 10_000


def _digits(text: str, i: int):
    """The integer spelled by the ASCII digits from position i on (None if
    there are none) and the position after them."""
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        return None, j
    try:
        return int(text[i:j]), j
    except ValueError:  # more digits than int() converts
        raise PolyParseError(f"integer too long at position {i}") from None


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append((ch, i))
            i += 1
        elif ch == "x":
            index, j = _digits(text, i + 1)
            if index is None:
                raise PolyParseError(f"bad variable at position {i}")
            tokens.append((("var", index), i))
            i = j
        elif "0" <= ch <= "9":
            num, j = _digits(text, i)
            if j < n and text[j] == "/":
                den, j = _digits(text, j + 1)
                if den is None:
                    raise PolyParseError(f"bad rational at position {i}")
                if not den:
                    raise PolyParseError(f"zero denominator at position {i}")
                num = _as_rational(Fraction(num, den))
            tokens.append((("num", num), i))
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_poly(text: str, d: int) -> Poly:
    """Parse a polynomial expression like '3/2*x1^2 - x3'."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum():
        t = peek()
        neg = False
        if t in ("+", "-"):
            take()
            neg = t == "-"
        acc = parse_product()
        if neg:
            acc = -acc
        while peek() in ("+", "-"):
            op, _ = take()
            rhs = parse_product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_product():
        acc = parse_power()
        while peek() == "*":
            take()
            acc = acc * parse_power()
        return acc

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            t = peek()
            if not (isinstance(t, tuple) and t[0] == "num" and isinstance(t[1], int)):
                raise PolyParseError("exponent must be a non-negative integer")
            n, at = t[1], tokens[pos][1]
            take()
            if n > _MAX_EXPONENT:
                raise PolyParseError(f"exponent {n} exceeds {_MAX_EXPONENT} "
                                     f"at position {at}")
            # (k terms)^n has at most C(n + k - 1, n) terms
            k = len(base.terms)
            if k > 1 and comb(n + k - 1, n) > _MAX_POWER_TERMS:
                raise PolyParseError(f"power expands to more than {_MAX_POWER_TERMS} "
                                     f"terms at position {at}")
            base = base ** n
        return base

    def parse_atom():
        t = peek()
        if t == "(":
            take()
            inner = parse_sum()
            if peek() != ")":
                raise PolyParseError("missing closing parenthesis")
            take()
            return inner
        if isinstance(t, tuple) and t[0] == "num":
            take()
            return Poly.const(d, t[1])
        if isinstance(t, tuple) and t[0] == "var":
            take()
            if not 1 <= t[1] <= d:
                raise PolyParseError(f"variable x{t[1]} out of range 1..{d}")
            return Poly.var(d, t[1])
        raise PolyParseError(f"unexpected token at position "
                             f"{tokens[pos][1] if pos < len(tokens) else len(text)}")

    if not tokens:
        raise PolyParseError("empty polynomial expression")
    depth = 0
    for tok, at in tokens:
        depth += (tok == "(") - (tok == ")")
        if depth > _MAX_NESTING:
            raise PolyParseError(f"parentheses nested deeper than {_MAX_NESTING} "
                                 f"at position {at}")
    result = parse_sum()
    if pos != len(tokens):
        raise PolyParseError(f"trailing input at position {tokens[pos][1]}")
    return result
