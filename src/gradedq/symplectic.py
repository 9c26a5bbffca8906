"""Degree-(-p) graded Poisson bracket and finite gauge symplectomorphisms.

The bracket is the constant-coefficient second-order contraction

    (f, g) = sum_{a,b} (d_r f / dz^a) * pi^{ab} * (d_l g / dz^b)

against the chart's Darboux pairing table pi, with a right graded
derivative on the left argument and a left graded derivative on the
right argument.  Graded symmetry, Leibniz and Jacobi follow from the
table's symmetry and are pinned by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .chart import ChartError, ChartSpec
from .element import GradedElement

DEFAULT_ADJOINT_BUDGET = 16


class GaugeError(ValueError):
    pass


def _partial(f: GradedElement, tag, from_right: bool) -> GradedElement:
    kind, idx = tag
    if kind == "x":
        return f.x_partial(idx)
    return f.super_partial(idx, from_right)


def poisson(f: GradedElement, g: GradedElement) -> GradedElement:
    """Graded Poisson bracket (f, g); degree |f|+|g|-p on homogeneous input."""
    if f.chart != g.chart:
        raise ChartError(f"chart mismatch: {f.chart} vs {g.chart}")
    chart = f.chart
    out = GradedElement.zero(chart)
    for (a, b), const in chart.pairs.items():
        fa = _partial(f, a, from_right=True)
        if fa.is_zero():
            continue
        gb = _partial(g, b, from_right=False)
        if gb.is_zero():
            continue
        out = out + (fa * gb).scale(const)
    return out


def gauge_exp(R: GradedElement, f: GradedElement,
              budget: int = DEFAULT_ADJOINT_BUDGET) -> GradedElement:
    """exp of the adjoint of a degree-p generator: sum_k ad^k(f)/k!.

    ad(f) = (f, R).  When R is independent of the p, chi (and zeta)
    generators each application strictly lowers the total momentum-type
    exponent, so the series truncates; otherwise iteration is capped at
    `budget` and a non-terminating series is an input error.
    """
    chart = R.chart
    deg = R.euler_degree()
    if R.is_zero():
        return f
    if deg != chart.p:
        raise GaugeError(f"gauge generator must be homogeneous of degree p={chart.p}, "
                         f"got degree {deg}")
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


def _momentum_families(chart: ChartSpec):
    fams = {"p", "chi"}
    if chart.kind == "m5":
        fams.add("zeta")
    return fams


def _momentum_weight(f: GradedElement) -> int:
    fams = _momentum_families(f.chart)
    best = 0
    for mono in f.terms:
        w = sum(e for sid, e in mono if f.chart.generator(sid).family in fams)
        best = max(best, w)
    return best
