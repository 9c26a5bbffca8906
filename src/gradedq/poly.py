"""Exact multivariate polynomials over the rationals in x1..xd.

A `Poly` keeps one denominator and integer numerators keyed by packed
exponents (see `_kernel_py`), so the kernel does integer arithmetic only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import or_

from ._kernel_py import (_EXP_LIMIT, FIELD, FIELD_MASK, _guard_bits, key_bytes,
                         poly_add, poly_mul, poly_partial, poly_scale)


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


# exponents are packed into one int, FIELD bits per variable; the top bit
# of each field is the guard bit, so an exponent stays below _EXP_LIMIT


class ExponentOverflowError(OverflowError):
    """A product's exponent reached the guard bit of its packed field.

    Not a `PolyError`: parsed input is bounded far below the field width,
    so reaching it is a defect, reported as an internal error."""


def _pack(d: int, exp) -> int:
    exp = tuple(exp)
    if len(exp) != d:
        raise PolyError(f"exponent {exp} has {len(exp)} entries, expected {d}")
    key = 0
    for mu, k in enumerate(exp):
        if not (isinstance(k, int) and 0 <= k < _EXP_LIMIT):
            raise PolyError(f"exponent {k!r} of x{mu + 1} is not an integer "
                            f"in 0..{_EXP_LIMIT - 1}")
        key |= k << (FIELD * mu)
    return key


def _unpack(d: int, key: int) -> tuple:
    return tuple((key >> (FIELD * mu)) & FIELD_MASK for mu in range(d))


class Poly:
    """Sparse polynomial in x1..xd with rational coefficients, stored
    fraction-free as (d, den, nums): the coefficient of a monomial is
    nums[packed exponent] / den.

    The form is canonical: den > 0, every stored numerator is a nonzero
    `int`, gcd(den, *nums) == 1, and the zero polynomial has den == 1.
    So `==` and `hash` compare plain ints and dicts.  `terms` is the
    read-only view {exponent tuple: `int` when integral, else `Fraction`}
    for rendering and other boundaries; arithmetic never builds it."""

    __slots__ = ("d", "den", "nums")

    def __init__(self, d: int, terms=None):
        self.d = d
        coeffs = {}
        if terms is not None:
            for e, c in dict(terms).items():
                c = _as_rational(c)
                if c:
                    coeffs[_pack(d, e)] = c
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the form is canonical as built
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.den = den
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, built on each access."""
        d, den = self.d, self.den
        if den == 1:
            return {_unpack(d, k): n for k, n in self.nums.items()}
        out = {}
        for k, n in self.nums.items():
            c = Fraction(n, den)
            out[_unpack(d, k)] = c.numerator if c.denominator == 1 else c
        return out

    # constructors ----------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "Poly":
        return _raw(d, 1, {})

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        c = _as_rational(c)
        return _raw(d, c.denominator, {0: c.numerator} if c else {})

    @classmethod
    def var(cls, d: int, mu: int, power: int = 1) -> "Poly":
        """x^mu (1-based)."""
        if not 1 <= mu <= d:
            raise PolyError(f"variable index {mu} out of range 1..{d}")
        e = [0] * d
        e[mu - 1] = power
        return cls(d, {tuple(e): 1})

    def _over(self, den: int) -> dict:
        """The numerators over den, a multiple of self.den."""
        if den == self.den:
            return self.nums
        return poly_scale(self.nums, den // self.den)

    def _max_exponents(self) -> list[int]:
        """The largest exponent of each variable; [] for zero."""
        return [max(col) for col in zip(*(_unpack(self.d, k) for k in self.nums))]

    # arithmetic ------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.d != other.d:
            raise PolyError(f"dimension mismatch: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        nums = self._over(den)
        if nums is self.nums:  # poly_add writes into its first argument
            nums = dict(nums)
        return _normal(self.d, den, poly_add(nums, other._over(den)))

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.d, self.den, poly_scale(self.nums, -1))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; an `int` or `Fraction` is promoted to a constant
        and multiplied like any other `Poly`."""
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        elif not isinstance(other, Poly):
            return NotImplemented  # a GradedElement or DiffForm scales by its __rmul__
        self._check(other)
        return _product(self.d, self.den * other.den, poly_mul(self.nums, other.nums))

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
        return _normal(self.d, self.den, poly_partial(self.nums, mu - 1))

    # queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        return (isinstance(other, Poly) and self.d == other.d
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        if self.nums.keys() <= {0}:  # a constant equals its int or Fraction
            return hash(Fraction(self.nums.get(0, 0), self.den))
        return hash((self.d, self.den,
                     frozenset((key_bytes(k), n) for k, n in self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # rendering -------------------------------------------------------
    def __str__(self):
        terms = self.terms
        return render_sum((str(terms[e]), render_product(
            (f"x{mu}", k) for mu, k in enumerate(e, 1) if k))
            for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True))

    def __repr__(self):
        return f"Poly({self})"


def render_product(factors) -> str:
    """The power product of (name, exponent) pairs, like 'x1^2*x3'; '' if
    there are none."""
    return "*".join(name + (f"^{e}" if e > 1 else "") for name, e in factors)


def render_sum(parts) -> str:
    """The signed sum of (coefficient text, basis text) pairs, in order.

    A coefficient of 1 or -1 is left out, a coefficient that is itself a
    sum is parenthesised, an empty basis is the constant term, printed
    bare, and an empty sum is '0'.  Polynomials, graded elements and forms
    all print through this one function."""
    terms = []
    for coeff, basis in parts:
        if not basis:
            terms.append(coeff)
        elif coeff in ("1", "-1"):
            terms.append(coeff[:-1] + basis)  # the sign alone
        elif "+" in coeff or " - " in coeff:
            terms.append(f"({coeff})*{basis}")
        else:
            terms.append(f"{coeff}*{basis}")
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}"
                              for t in terms[1:])


def _variables(nums: dict) -> list[int]:
    """The variables (1-based) that numerators keyed by packed exponents
    use, in increasing order."""
    used = reduce(or_, nums, 0)
    out = []
    mu = 1
    while used:
        if used & FIELD_MASK:
            out.append(mu)
        used >>= FIELD
        mu += 1
    return out


def _raw(d: int, den: int, nums: dict) -> Poly:
    """A Poly of numerators already in canonical form over den."""
    p = object.__new__(Poly)
    p.d = d
    p.den = den
    p.nums = nums
    return p


def _normal(d: int, den: int, nums: dict) -> Poly:
    """A Poly of numerators over den > 0, reduced to canonical form."""
    if den != 1:
        if not nums:
            den = 1
        else:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: n // g for k, n in nums.items()}
    return _raw(d, den, nums)


def _check_guard(keys, guard: int):
    """Raise if a packed key of a product carried into a guard bit."""
    if reduce(or_, keys, 0) & guard:
        raise ExponentOverflowError(
            f"an exponent reached {_EXP_LIMIT}, the packed field limit")


def _product(d: int, den: int, nums: dict) -> Poly:
    """`_normal` for the numerators of a product, after checking that no
    exponent carried into a guard bit."""
    _check_guard(nums, _guard_bits(d))
    return _normal(d, den, nums)


def products_sum(d: int, products) -> Poly:
    """The sum of weight * a * b / den over the (den, a, b, weight) in the
    list `products`: a and b numerator dicts on R^d, den > 0 and weight a
    nonzero int.  Every product accumulates in one numerator map over the
    lcm of the dens, so one `_product` makes the sum canonical."""
    den = lcm(*(p[0] for p in products))
    out: dict = {}
    for pden, a, b, weight in products:
        poly_mul(a, b, weight * (den // pden), out)
    return _product(d, den, out)


# ---------------------------------------------------------------------
# polynomial expression parser: rationals, x1..xd, + - * ^ ( )
# ---------------------------------------------------------------------

class PolyParseError(PolyError):
    pass


# parentheses may nest this deep; the recursive-descent parser would
# otherwise run out of stack on hostile input
_MAX_NESTING = 100
# bounds on the work one power or product may request and on the
# exponents it may reach, checked before expanding; MAX_EXPONENT also
# bounds the degree of random coefficients, so that products of a few
# factors stay far below the packed field limit
MAX_EXPONENT = 1000
_MAX_TERMS = 10_000
# bound on the bit length of any coefficient's numerator or denominator,
# so that nested powers such as ((9^999)^999)^999 are refused unexpanded
_MAX_COEFF_BITS = 10_000


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
            _, at = take()
            rhs = parse_power()
            if len(acc.nums) * len(rhs.nums) > _MAX_TERMS:
                raise PolyParseError(f"product expands to more than {_MAX_TERMS} "
                                     f"terms at position {at}")
            check_exponents([i + j for i, j in zip(acc._max_exponents(),
                                                   rhs._max_exponents())], at)
            # a coefficient is a sum of at most min(a, b) products
            check_bits(bits(acc) + bits(rhs)
                       + min(len(acc.nums), len(rhs.nums)).bit_length(), at)
            acc = acc * rhs
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
            if n > MAX_EXPONENT:
                raise PolyParseError(f"exponent {n} exceeds {MAX_EXPONENT} "
                                     f"at position {at}")
            # (k terms)^n has at most C(n + k - 1, n) terms
            k = len(base.nums)
            if k > 1 and comb(n + k - 1, n) > _MAX_TERMS:
                raise PolyParseError(f"power expands to more than {_MAX_TERMS} "
                                     f"terms at position {at}")
            check_exponents([e * n for e in base._max_exponents()], at)
            # a multinomial coefficient of (k terms)^n is at most k^n
            check_bits(n * (bits(base) + k.bit_length()), at)
            base = base ** n
        return base

    def check_exponents(exponents, at):
        for mu, e in enumerate(exponents, 1):
            if e > MAX_EXPONENT:
                raise PolyParseError(f"exponent {e} of x{mu} exceeds {MAX_EXPONENT} "
                                     f"at position {at}")

    def bits(poly):
        top = max((abs(c).bit_length() for c in poly.nums.values()), default=0)
        return max(top, poly.den.bit_length())

    def check_bits(estimate, at):
        if estimate > _MAX_COEFF_BITS:
            raise PolyParseError(f"coefficients may exceed {_MAX_COEFF_BITS} bits "
                                 f"at position {at}")

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
