"""Graded supercommutative function algebra on a chart.

Elements are finite sums of graded monomials with exact polynomial
coefficients, stored two-level and fraction-free like `Poly`: one
positive denominator `den` over `nums` = {super key: {packed x key: int
numerator}}.  The super key packs the super monomial (odd generators
one bit each, even generators one guarded field each; see `chart`), and
each inner map is the numerator dict of a `Poly` coefficient, so the
coefficient arithmetic stays on the kernel's `poly_mul`/`poly_add`.
The form is canonical: the gcd of den and every numerator is 1, no
inner map is empty, and zero has den 1, so `==` and `hash` compare ints
and dicts.  `_reduced` is the one routine that restores it by a gcd;
sums reach it through `_plus`, and products, scalings by an `int` or
`Fraction` among them, through `product_sum`.

Polys enter an element only through `_from_polys`, which checks their
dimension and drops zeros; the constructor takes {canonical monomial
tuple: Poly} (`ChartSpec.encode` rejects any other tuple) and goes
through it.  `terms` is the read-only view in that form (`Terms`),
which decodes a key or builds a `Poly` only where one is read, for
rendering and other boundaries; arithmetic never reads it.  Products
canonicalize through `product_sum` (Koszul signs from the odd bits,
annihilation of odd squares, merging).  All operations are
pure and return new values, except `generator`: it returns the chart's
shared element for that name, built once per chart, which is safe
because no operation changes an element's numerators (the bracket's
derivative memo on it is then built once per chart, too).  The x-free
monomials of degree n are counted, unranked and listed as tuples from
one count table per (chart, n), never stored.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .chart import ChartError, ChartSpec
from ._kernel_py import element_mul, key_bytes, poly_add, poly_scale
from .poly import (Poly, PolyError, _check_guard, _normal, render_product,
                   render_sum)

INHOMOGENEOUS = "inhomogeneous"


class GradedElement:
    """One denominator over {super key: numerator dict}; see the module
    docstring.

    `_derivs` is the bracket's memo of this element's derivatives, None
    until `symplectic` first derives it: [left, right, held, pairs, q], the
    left and right derivatives as {tag: term map} (a tag as in `chart`:
    the sid of a super generator, -mu for x^mu; a -mu entry, left only,
    holds this element's own numerator dicts for the terms whose
    coefficient uses x^mu, which the product derives), the odd letters
    the left map holds and the odd letters a right argument pairs with,
    as super-key bits, and q, None or (Theta element, (Theta, self)),
    which `algebroid` sets on a section it brackets.  It stays valid because no operation
    changes an element's numerators, and q is taken again under another
    Theta."""

    __slots__ = ("chart", "den", "nums", "_derivs")

    def __init__(self, chart: ChartSpec, terms=None):
        encode = chart.encode
        built = _from_polys(chart, {encode(m): p for m, p in (terms or {}).items()})
        self.chart, self.den, self.nums = chart, built.den, built.nums
        self._derivs = None

    @property
    def terms(self) -> "Terms":
        """The read-only view {canonical monomial tuple: Poly}."""
        return Terms(self)

    # constructors ----------------------------------------------------
    @classmethod
    def zero(cls, chart: ChartSpec) -> "GradedElement":
        return _element(chart, 1, {})

    @classmethod
    def from_poly(cls, chart: ChartSpec, poly: Poly) -> "GradedElement":
        return _from_polys(chart, {0: poly})

    @classmethod
    def generator(cls, chart: ChartSpec, name: str) -> "GradedElement":
        """The generator as an element; accepts x, psi, zeta, chi, p names.
        The chart builds it once and every call shares it."""
        found = chart._elements.get(name)
        if found is not None:
            return found
        tag = chart.tags.get(name)
        if tag is None:
            raise ChartError(f"unknown generator {name!r}")
        found = (cls.from_poly(chart, Poly.var(chart.d, -tag)) if tag < 0
                 else _element(chart, 1, {chart.unit[tag]: {0: 1}}))
        chart._elements[name] = found
        return found

    # arithmetic ------------------------------------------------------
    def _check(self, other: "GradedElement"):
        if self.chart != other.chart:
            raise ChartError(f"chart mismatch: {self.chart} vs {other.chart}")

    def _plus(self, other: "GradedElement", sign: int) -> "GradedElement":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        c1, c2 = den // self.den, den // other.den * sign
        # an inner map of self is written only after it is copied
        out = (dict(self.nums) if c1 == 1
               else {k: poly_scale(v, c1) for k, v in self.nums.items()})
        for k, v in other.nums.items():
            cur = out.get(k)
            if cur is None:
                out[k] = v if c2 == 1 else poly_scale(v, c2)
                continue
            if c1 == 1:
                cur = dict(cur)
            cur = poly_add(cur, v, 0, c2)
            if cur:
                out[k] = cur
            else:
                del out[k]
        return _reduced(self.chart, den, out)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self._plus(other, 1)

    def __neg__(self) -> "GradedElement":
        return self * -1

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other):
        """The product; an `int` or `Fraction` is promoted to a constant
        `Poly`, and a `Poly` to a degree-0 element, so every factor takes
        the one `product_sum` path."""
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart.d, other)
        if isinstance(other, Poly):
            other = GradedElement.from_poly(self.chart, other)
        elif isinstance(other, GradedElement):
            self._check(other)
        else:
            return NotImplemented
        return product_sum(self.chart, self.den * other.den,
                           [(self.nums, other.nums, 1, 0)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.__mul__(other)  # scalars and Polys are even
        return NotImplemented

    # degree bookkeeping ---------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def euler_degree(self):
        """Common total degree, 0 for zero, or INHOMOGENEOUS."""
        if not self.nums:
            return 0
        degs = set(map(self.chart.key_degree, self.nums))
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    # structure -------------------------------------------------------
    def monomials(self):
        """The monomial tuples, ordered by (degree, tuple)."""
        return _ordered(self.chart, map(self.chart.decode, self.nums))

    def __eq__(self, other):
        return (isinstance(other, GradedElement) and self.chart == other.chart
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(
            (key_bytes(k), frozenset((key_bytes(x), n) for x, n in v.items()))
            for k, v in self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # rendering -------------------------------------------------------
    def render_mono(self, mono) -> str:
        return render_product((self.chart.generator(sid).name, e)
                              for sid, e in mono) or "1"

    def __str__(self):
        terms = dict(self.terms)
        return render_sum((str(terms[m]), self.render_mono(m) if m else "")
                          for m in _ordered(self.chart, terms))

    def __repr__(self):
        return f"GradedElement({self})"


class Terms(Mapping):
    """An element's terms as {canonical monomial tuple: Poly}, read-only.

    Each lookup decodes a key or builds its `Poly`; the length is the
    number of monomials, read without decoding, so a caller that only
    counts terms (the benchmark's tracer does, on every traced return)
    pays nothing."""

    __slots__ = ("_element",)

    def __init__(self, element: GradedElement):
        self._element = element

    def __len__(self):
        return len(self._element.nums)

    def __iter__(self):
        return map(self._element.chart.decode, self._element.nums)

    def __getitem__(self, mono):
        e = self._element
        try:
            nums = e.nums[e.chart.encode(mono)]
        except (ChartError, KeyError):
            raise KeyError(mono) from None
        return _normal(e.chart.d, e.den, nums)


def _ordered(chart: ChartSpec, monos) -> list:
    degree = chart.mono_degree
    return sorted(monos, key=lambda m: (degree(m), m))


def _element(chart: ChartSpec, den: int, nums: dict) -> GradedElement:
    """An element of numerators already in canonical form over den."""
    e = object.__new__(GradedElement)
    e.chart = chart
    e.den = den
    e.nums = nums
    e._derivs = None
    return e


def _reduced(chart: ChartSpec, den: int, nums: dict) -> GradedElement:
    """An element of nonempty numerator maps over den > 0, reduced to
    canonical form by one gcd over all of them."""
    if not nums:
        return _element(chart, 1, nums)
    if den != 1:
        g = den
        for v in nums.values():
            g = gcd(g, *v.values())
            if g == 1:
                break
        if g != 1:
            den //= g
            nums = {k: {x: n // g for x, n in v.items()} for k, v in nums.items()}
    return _element(chart, den, nums)


def _from_polys(chart: ChartSpec, polys: dict) -> GradedElement:
    """The element sum of each Poly times its super key's monomial, over
    the lcm of the Polys' denominators (a zero Poly's is 1); canonical, as
    each Poly is.  A Poly on another R^d raises `PolyError`."""
    d = chart.d
    for p in polys.values():
        if p.d != d:
            raise PolyError(f"dimension mismatch: {p.d} vs {d}")
    den = lcm(*(p.den for p in polys.values()))
    return _element(chart, den, {k: p._over(den) for k, p in polys.items() if p})


def product_sum(chart: ChartSpec, den: int, pairs) -> GradedElement:
    """The sum of weight * f * g over the (f, g, weight, dx) in `pairs`: f
    and g are term maps {super key: numerators}, weight is a nonzero int,
    dx is 0 or reads one side as an x-partial (see `element_mul`), and
    every weighted product is over the one denominator den.  All products
    accumulate in one map of integer numerators; a monomial whose terms
    cancel is dropped, both guards are checked, and one gcd makes the
    result canonical."""
    out: dict = {}
    odd_mask = chart.odd_mask
    for f, g, weight, dx in pairs:
        element_mul(f, g, odd_mask, out, weight, dx)
    out = {k: v for k, v in out.items() if v}
    if out:
        _check_guard(out, chart.super_guard)
        _check_guard(chain.from_iterable(out.values()), chart.x_guard)
    return _reduced(chart, den, out)


def _count_table(chart: ChartSpec, n: int) -> list[list[int]]:
    """T[s][r]: the canonical monomials of degree r <= n in the generators
    s, s+1, ... only, an odd one at most once; built once per (chart, n)."""
    table = chart._counts.get(n)
    if table is None:
        row = [1] + [0] * n
        table = [row]
        for deg, odd in zip(reversed(chart.degrees), reversed(chart.parity)):
            after, row = row, row[:]
            for r in range(deg, n + 1):
                row[r] += (after if odd else row)[r - deg]
            table.append(row)
        table.reverse()
        chart._counts[n] = table
    return table


def monomial_count(chart: ChartSpec, n: int) -> int:
    """The number of x-free canonical monomials of total degree n."""
    return _count_table(chart, n)[0][n] if n >= 0 else 0


def monomial_at(chart: ChartSpec, n: int, i: int) -> tuple:
    """The i-th monomial of monomial_basis(chart, n), 0 <= i < its count,
    found in one pass over the count table without listing the basis."""
    table = _count_table(chart, n)
    degrees = chart.degrees
    mono = []
    s, r = 0, n
    while r:
        # the monomials whose first generator is s come before those of s+1
        while i >= table[s][r] - table[s + 1][r]:
            i -= table[s][r] - table[s + 1][r]
            s += 1
        deg, after = degrees[s], table[s + 1]
        e = 1
        while i >= after[r - deg * e]:
            i -= after[r - deg * e]
            e += 1
        mono.append((s, e))
        s, r = s + 1, r - deg * e
    return tuple(mono)


def monomial_basis(chart: ChartSpec, n: int) -> list[tuple]:
    """All x-free canonical monomials of degree n, in canonical (ascending)
    order: a walk over an explicit stack into the non-empty branches only."""
    if n < 0:
        return []
    table = _count_table(chart, n)
    degrees, parity = chart.degrees, chart.parity
    out: list[tuple] = []
    stack = [(0, n, ())]
    while stack:
        s, r, acc = stack.pop()
        if not r:
            out.append(acc)
            continue
        branches = []
        for sid in range(s, len(degrees)):
            if not table[sid][r]:
                break
            deg, after = degrees[sid], table[sid + 1]
            for e in range(1, (1 if parity[sid] else r // deg) + 1):
                if after[r - deg * e]:
                    branches.append((sid + 1, r - deg * e, acc + ((sid, e),)))
        stack += reversed(branches)  # popped in canonical order
    return out
