"""Degree-(-p) graded Poisson bracket and finite gauge symplectomorphisms.

The bracket is the constant-coefficient second-order contraction

    (f, g) = sum_{a,b} (d_r f / dz^a) * pi^{ab} * (d_l g / dz^b)

against the chart's Darboux pairing table pi, with a right graded
derivative on the left argument and a left graded derivative on the
right argument.  Graded symmetry, Leibniz and Jacobi follow from the
table's symmetry and are pinned by the test suite.

A bracket works in numerator space, on the two-level form of
`element`: a derivative is a term map {super key: integer numerators}
over its argument's denominator.  A super derivative is a bit operation
on the key (an odd letter flips its bit, an even field loses one) with
the numerators shared or scaled, an x-partial derives the numerators,
and no gcd runs and no `Poly` is built.  Each derivative of g meets the
one derivative of f it pairs with (`ChartSpec.partner`), and
`element.product_sum` multiplies every pair into one integer
accumulator and makes the result canonical with one gcd.

An element is derived in each letter at most once per side, and as a
right argument only in the letters that pair.  A bracket (f, g) first
derives f on the right, in every letter, in one pass over f's terms,
and records the odd letters a right argument pairs with: the odd
partners of f's letters and, at odd p, the (odd) momenta of the
variables f's coefficients use.  It then derives g on the left in those
odd letters only, with every even letter and x-partial.  Each map is
kept on its element (`GradedElement` slot `_derivs`) and reused by every
later bracket with it on that side; one that needs more odd letters of
a left map widens it in place by a pass in the missing letters only.
The x-partials are the same on both sides, so only the left pass builds
them: a bracket (f, g) whose g carries a momentum reads f's x-partials
from f's left memo, in no odd letter, so a self-bracket such as (Theta,
Theta) never widens the map it walks.  So Theta in Q = (Theta, -) is
derived once per side, and as Theta holds no chi, no Q(z) is derived
in a psi.
Elements are never changed after construction, and no bracket writes
the derivatives it reads, so a memo stays valid for its element's life.

`bracket_sum(chart, brackets)` is the sum of several signed brackets,
such as the commutator L_A(L_B C) - L_B(L_A C) of the Leibniz identity,
in one accumulator: the derivative pairs of every bracket are products
over the lcm of the brackets' denominators, each weighted by its sign
times lcm / its own denominator, so the sum is made canonical once.
`poisson` stages its pairs through the same helper and skips the lcm,
so one bracket costs what it did alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .chart import ChartError, ChartSpec
from ._kernel_py import FIELD, FIELD_MASK, poly_partial, poly_scale
from .element import GradedElement, product_sum
from .poly import _variables

DEFAULT_ADJOINT_BUDGET = 16


class GaugeError(ValueError):
    pass


def _memo(f: GradedElement) -> list:
    """f's derivative memo [left, right, held, pairs] (see `GradedElement`),
    made empty on first use."""
    memo = f._derivs
    if memo is None:
        memo = f._derivs = [None, None, 0, 0]
    return memo


def _right(f: GradedElement) -> tuple[dict, int]:
    """(f's right derivatives, in every letter, and the odd letters a right
    argument pairs with): the odd partners of f's letters, and the momenta
    of the variables f's coefficients use when momenta are odd (odd p),
    since those pair with f's x-partials."""
    memo = _memo(f)
    if memo[1] is None:
        chart = f.chart
        right = memo[1] = _derive(f, True, chart.odd_mask, True)
        partner_bit = chart.partner_bit
        paired = 0
        for tag in right:
            paired |= partner_bit[tag]
        if chart.p % 2:
            for mu in _variables(chain.from_iterable(f.nums.values())):
                paired |= partner_bit[-mu]
        memo[3] = paired
    return memo[1], memo[3]


def _left(f: GradedElement, odd_letters: int) -> dict:
    """f's left derivatives, holding at least the odd letters in
    `odd_letters`: the first call derives them with every even letter and
    x-partial, and a later one that needs more odd letters adds only the
    missing ones."""
    memo = _memo(f)
    left = memo[0]
    if left is None:
        left = memo[0] = _derive(f, False, odd_letters, True)
        memo[2] = odd_letters
    elif odd_letters & ~memo[2]:
        left.update(_derive(f, False, odd_letters & ~memo[2], False))
        memo[2] |= odd_letters
    return left


def _derive(f: GradedElement, from_right: bool, odd_letters: int, first: bool) -> dict:
    """One pass over f's terms: {tag: {super key: numerators over f.den}},
    the graded derivative in each odd letter of `odd_letters` (super-key
    bits) a key contains, by bit operations, and, on a first pass, in
    every even letter and, on the left, every x-partial a coefficient
    uses.  An odd letter flips its bit, with the sign of the odd letters
    it crosses (those before it from the left, those after it from the
    right); an even field loses one, with its exponent as the
    coefficient.  A derivative in one generator is injective on the terms
    it keeps, so no two terms land on the same key.  A numerator dict
    scaled by 1 is f's own, shared and never written."""
    chart = f.chart
    odd_mask, odd_sids, even_sids = chart.odd_mask, chart.odd_sids, chart.even_sids
    n_odd = len(odd_sids)
    out: dict[int, dict] = {}
    for key, nums in f.nums.items():
        odd = key & odd_mask
        letters = odd & odd_letters
        while letters:
            low = letters & -letters
            bit = low.bit_length()
            crossed = odd >> bit if from_right else odd & (low - 1)
            out.setdefault(odd_sids[bit - 1], {})[key ^ low] = \
                poly_scale(nums, -1) if crossed.bit_count() & 1 else nums
            letters ^= low
        if not first:
            continue
        even, unit = key >> n_odd, 1 << n_odd
        for sid in even_sids:
            if not even:
                break
            e = even & FIELD_MASK
            if e:
                out.setdefault(sid, {})[key - unit] = \
                    nums if e == 1 else poly_scale(nums, e)
            even >>= FIELD
            unit <<= FIELD
        if not from_right:
            for mu in _variables(nums):
                out.setdefault(-mu, {})[key] = poly_partial(nums, mu - 1)
    return out


def _bracket_pairs(f: GradedElement, g: GradedElement, sign: int) -> tuple[int, list]:
    """(den, pairs): the derivative pairs (d_r f / dz^a, d_l g / dz^b,
    sign * pi^{ab}) of the bracket (f, g) times `sign`, for
    `product_sum`, and den the denominator of their products."""
    if f.chart is not g.chart and f.chart != g.chart:
        raise ChartError(f"chart mismatch: {f.chart} vs {g.chart}")
    df, paired = _right(f)
    dg = _left(g, paired)
    if not dg:
        return 1, []
    partner = f.chart.partner
    pairs = []
    # from g's side: g mostly depends on few generators, f (Theta) on all
    for b, gb in dg.items():
        a = partner[b][0]  # partner is an involution: partner[a][0] == b
        # x-partials are the same on both sides; only f's left memo has them,
        # read in no odd letter so that (f, f) never widens the map it walks
        fa = (_left(f, 0) if a < 0 else df).get(a)
        if fa is not None:
            pairs.append((fa, gb, sign * partner[a][1]))
    return f.den * g.den, pairs


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
    momentum, decode = f.chart.momentum, f.chart.decode
    return max((sum(e for sid, e in decode(k) if momentum[sid]) for k in f.nums),
               default=0)
