"""Graded supercommutative function algebra on a chart.

Elements are finite sums of canonical graded monomials with exact
polynomial coefficients.  The constructor takes a dict keyed by canonical
monomials and drops zero coefficients; products and sums canonicalize
(Koszul signs, annihilation of odd squares, merging).  All operations are
pure and return new values, except `generator`: it returns the chart's
shared element for that name, built once per chart, which is safe because
no operation changes an element's terms (the bracket's derivative memo on
it is then built once per chart, too).  The x-free monomials of degree n
are counted, unranked and listed from one count table per (chart, n),
never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .chart import ChartError, ChartSpec
from ._kernel_py import element_mul
from .poly import Poly, _product, render_product, render_sum

INHOMOGENEOUS = "inhomogeneous"


class GradedElement:
    """Map from canonical graded monomial to nonzero Poly coefficient.

    `_derivs` is the bracket's memo of this element's [left, right]
    derivatives, None until `symplectic._derivatives` fills it; it stays
    valid because no operation changes an element's terms."""

    __slots__ = ("chart", "terms", "_derivs")

    def __init__(self, chart: ChartSpec, terms=None):
        self.chart = chart
        self.terms = {m: p for m, p in terms.items() if p} if terms else {}
        self._derivs = None

    # constructors ----------------------------------------------------
    @classmethod
    def zero(cls, chart: ChartSpec) -> "GradedElement":
        return cls(chart)

    @classmethod
    def from_poly(cls, chart: ChartSpec, poly: Poly) -> "GradedElement":
        return cls(chart, {(): poly})

    @classmethod
    def generator(cls, chart: ChartSpec, name: str) -> "GradedElement":
        """The generator as an element; accepts x, psi, zeta, chi, p names.
        The chart builds it once and every call shares it."""
        found = chart._elements.get(name)
        if found is not None:
            return found
        if not name.startswith("x"):
            sid = chart.sid_of_name(name)
            found = cls(chart, {((sid, 1),): Poly.const(chart.d, 1)})
        else:
            mu = next((g.index for g in chart.xs if g.name == name), None)
            if mu is None:
                raise ChartError(f"unknown generator {name!r}")
            found = cls.from_poly(chart, Poly.var(chart.d, mu))
        chart._elements[name] = found
        return found

    # arithmetic ------------------------------------------------------
    def _check(self, other: "GradedElement"):
        if self.chart != other.chart:
            raise ChartError(f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for mono, poly in other.terms.items():
            cur = out.get(mono)
            s = poly if cur is None else cur + poly
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return GradedElement(self.chart, out)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.chart, {m: -p for m, p in self.terms.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return GradedElement(self.chart, {m: p * other for m, p in self.terms.items()})
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        da, fa = _numerators(self.terms)
        db, fb = _numerators(other.terms)
        return product_sum(self.chart, da * db, [(fa, fb, 1)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.__mul__(other)  # scalars and Polys are even
        return NotImplemented

    # degree bookkeeping ---------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def euler_degree(self):
        """Common total degree, 0 for zero, or INHOMOGENEOUS."""
        if not self.terms:
            return 0
        degs = {self.chart.mono_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return INHOMOGENEOUS

    # structure -------------------------------------------------------
    def monomials(self):
        degree = self.chart.mono_degree
        return sorted(self.terms, key=lambda m: (degree(m), m))

    def __eq__(self, other):
        return (isinstance(other, GradedElement)
                and self.chart == other.chart and self.terms == other.terms)

    def __hash__(self):
        return hash((self.chart, frozenset((m, p) for m, p in self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # rendering -------------------------------------------------------
    def render_mono(self, mono) -> str:
        return render_product((self.chart.generator(sid).name, e)
                              for sid, e in mono) or "1"

    def __str__(self):
        return render_sum((str(self.terms[m]), self.render_mono(m) if m else "")
                          for m in self.monomials())

    def __repr__(self):
        return f"GradedElement({self})"


def _numerators(terms: dict) -> tuple[int, dict]:
    """A common denominator of the Poly values and {mono: numerators over it}."""
    dens = {p.den for p in terms.values()}
    if dens == {1}:
        return 1, {m: p.nums for m, p in terms.items()}
    den = lcm(*dens)
    return den, {m: p._over(den) for m, p in terms.items()}


def product_sum(chart: ChartSpec, den: int, pairs) -> GradedElement:
    """The sum of weight * f * g over the (f, g, weight) in `pairs`: f and
    g are term maps {mono: numerators}, weight is a nonzero int, and every
    weighted product is over the one denominator den.  All products
    accumulate in one map of integer numerators, so each surviving
    monomial becomes a canonical Poly once, and a monomial whose terms
    cancel is dropped."""
    parity = chart.parity
    out: dict = {}
    for f, g, weight in pairs:
        element_mul(f, g, parity, out, weight)
    d = chart.d
    return GradedElement(chart, {m: _product(d, den, nums)
                                 for m, nums in out.items() if nums})


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
