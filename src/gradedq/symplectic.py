"""Degree-(-p) graded Poisson bracket and finite gauge symplectomorphisms.

The bracket is the constant-coefficient second-order contraction

    (f, g) = sum_{a,b} (d_r f / dz^a) * pi^{ab} * (d_l g / dz^b)

against the chart's Darboux pairing table pi, with a right graded
derivative on the left argument and a left graded derivative on the
right argument.  Graded symmetry, Leibniz and Jacobi follow from the
table's symmetry and are pinned by the test suite.

A bracket works in numerator space: a derivative is a term map {mono:
integer numerators} over its argument's common denominator, built by
scaling or x-deriving the numerators, with no gcd and no `Poly`, and
each derivative of g meets the one derivative of f it pairs with
(`ChartSpec.partner`).  `element.product_sum` multiplies every pair into
one integer accumulator and makes one canonical `Poly` per surviving
monomial.

An element is derived at most once per side.  The first bracket that
needs f's right (or left) derivatives builds them in one pass over f's
terms and keeps them on f (`GradedElement` slot `_derivs`); every later
bracket with f on that side reuses them.  The x-partials are the same
on both sides, so only the left pass builds them: a bracket (f, g) whose
g carries a momentum reads f's x-partials from f's left memo.  So Theta
in Q = (Theta, -), (Theta, A) in a suite trial and a section bracketed
several times are each derived once per side.
Elements are never changed after construction, and no bracket writes
the derivatives it reads, so a memo stays valid for its element's life.

`bracket_sum(chart, brackets)` is the sum of several signed brackets,
such as the commutator L_A(L_B C) - L_B(L_A C) of the Leibniz identity,
in one accumulator: the derivative pairs of every bracket are products
over the lcm of the brackets' denominators, each weighted by its sign
times lcm / its own denominator, so the sum makes one canonical `Poly`
per surviving monomial.  `poisson` stages its pairs through the same
helper and skips the lcm, so one bracket costs what it did alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .chart import ChartError, ChartSpec
from ._kernel_py import mono_partial, poly_partial, poly_scale
from .element import GradedElement, _numerators, product_sum

DEFAULT_ADJOINT_BUDGET = 16


class GaugeError(ValueError):
    pass


def _derivatives(f: GradedElement, from_right: bool) -> tuple[int, dict]:
    """(den, {tag: {mono: numerators over den}}): f's right (or left)
    derivatives, memoised on f.  One pass over f's terms builds the graded
    derivative in every super generator a monomial contains (one kernel
    walk per monomial) and, on the left only, the x-partial in every
    variable a coefficient uses; den is f's common denominator.  A
    derivative in one generator is injective on the terms it keeps, so
    no two terms land on the same key.  A numerator dict scaled by 1 is
    f's own, shared and never written."""
    memo = f._derivs
    if memo is None:
        memo = f._derivs = [None, None]
    found = memo[from_right]
    if found is not None:
        return found
    parity = f.chart.parity
    den, numerators = _numerators(f.terms)
    out: dict[tuple, dict] = {}
    for mono, poly in f.terms.items():
        nums = numerators[mono]
        for sid, coeff, reduced in mono_partial(mono, parity, from_right):
            out.setdefault(("s", sid), {})[reduced] = \
                nums if coeff == 1 else poly_scale(nums, coeff)
        if not from_right:
            for mu in poly.variables():
                out.setdefault(("x", mu), {})[mono] = poly_partial(nums, mu - 1)
    found = memo[from_right] = (den, out)
    return found


def _bracket_pairs(f: GradedElement, g: GradedElement, sign: int) -> tuple[int, list]:
    """(den, pairs): the derivative pairs (d_r f / dz^a, d_l g / dz^b,
    sign * pi^{ab}) of the bracket (f, g) times `sign`, for
    `product_sum`, and den the denominator of their products."""
    if f.chart is not g.chart and f.chart != g.chart:
        raise ChartError(f"chart mismatch: {f.chart} vs {g.chart}")
    den_g, dg = _derivatives(g, from_right=False)
    if not dg:
        return 1, []
    den_f, df = _derivatives(f, from_right=True)
    partner = f.chart.partner
    pairs = []
    # from g's side: g mostly depends on few generators, f (Theta) on all
    for b, gb in dg.items():
        a = partner[b][0]  # partner is an involution: partner[a][0] == b
        # x-partials are the same on both sides; only f's left memo has them
        fa = (_derivatives(f, from_right=False)[1] if a[0] == "x" else df).get(a)
        if fa is not None:
            pairs.append((fa, gb, sign * partner[a][1]))
    return den_f * den_g, pairs


def poisson(f: GradedElement, g: GradedElement, sign: int = 1) -> GradedElement:
    """Graded Poisson bracket (f, g) times `sign` (+1 or -1); degree
    |f|+|g|-p on homogeneous input."""
    den, pairs = _bracket_pairs(f, g, sign)
    return product_sum(f.chart, den, pairs)


def bracket_sum(chart: ChartSpec, brackets) -> GradedElement:
    """The sum of sign * (f, g) over the (f, g, sign) in `brackets`, in one
    accumulator over the lcm of the brackets' denominators."""
    staged = []
    for f, g, sign in brackets:
        if f.chart != chart:
            raise ChartError(f"chart mismatch: {f.chart} vs {chart}")
        staged.append(_bracket_pairs(f, g, sign))
    den = lcm(*(d for d, _ in staged))
    return product_sum(chart, den, [(fa, gb, w * (den // d))
                                    for d, pairs in staged
                                    for fa, gb, w in pairs])


def gauge_exp(R: GradedElement, f: GradedElement) -> GradedElement:
    """exp of the adjoint of a degree-p generator: sum_k ad^k(f)/k!.

    ad(f) = (f, R).  When R is independent of the p, chi (and zeta)
    generators each application strictly lowers the total momentum-type
    exponent, so the series truncates; the cap is then raised to one past
    f's momentum weight.  Otherwise iteration is capped at
    DEFAULT_ADJOINT_BUDGET steps and a non-terminating series is an
    input error.
    """
    chart = R.chart
    deg = R.euler_degree()
    if R.is_zero():
        return f
    if deg != chart.p:
        raise GaugeError(f"gauge generator must be homogeneous of degree p={chart.p}, "
                         f"got degree {deg}")
    budget = DEFAULT_ADJOINT_BUDGET
    if _momentum_weight(R) == 0:
        budget = max(budget, _momentum_weight(f) + 1)
    out = f
    term = f
    k = 0
    while True:
        k += 1
        term = poisson(term, R)
        if k > 1:
            term = term * Fraction(1, k)
        if term.is_zero():
            return out
        if k > budget:
            raise GaugeError(f"adjoint series did not terminate within {budget} steps")
        out = out + term


def _momentum_weight(f: GradedElement) -> int:
    momentum = f.chart.momentum
    return max((sum(e for sid, e in mono if momentum[sid]) for mono in f.terms),
               default=0)
