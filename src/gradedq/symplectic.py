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
the numerators shared or scaled.  An x-partial in x^mu is recorded
under tag -mu as the terms whose coefficient uses x^mu, with the
element's own numerators, and is taken inside the coefficient product
(`poly_mul`).  No partial and no `Poly` is built, and no gcd runs.  Each
derivative of g meets the one derivative of f it pairs with
(`ChartSpec.partner`), and `element.product_sum` multiplies every pair
into one integer accumulator, reading the side of a pair whose tag is
an x-partial as that partial, and makes the result canonical with one
gcd.

An element is derived in each letter at most once per side, and as a
right argument only in the letters that pair.  A bracket (f, g) first
derives f on the right, in every letter, in one pass over f's terms,
and records the odd letters a right argument pairs with: the odd
partners of f's letters and, at odd p, the (odd) momenta of the
variables f's coefficients use.  It then derives g on the left in those
odd letters only, with every even letter, and records its x-partials.
Each map is kept on its element (`GradedElement` slot `_derivs`) and
reused by every later bracket with it on that side; one that needs more
odd letters of a left map widens it in place by a pass in the missing
letters that a key of the element holds, and by no pass when none does.
The x-partials are the same on both sides, so only the left pass records
them: a bracket (f, g) whose g carries a momentum reads f's x-partials
from f's left memo, in no odd letter, so a self-bracket such as (Theta,
Theta) never widens the map it walks.  So Theta in Q = (Theta, -) is
derived once per side, and as Theta holds no chi, no Q(z) is derived
in a psi.
Elements are never changed after construction, and no bracket writes
the derivatives it reads, so a memo stays valid for its element's life.
The memo's last slot is not this module's: `algebroid` keeps a
section's (Theta, A) there, with the Theta element it was taken under,
so every derived bracket L_A - on one Theta takes (Theta, A) once.

`bracket_sum(chart, brackets, products)` is the sum of several weighted
brackets and element products, such as the commutator L_A(L_B C) -
L_B(L_A C) of the Leibniz identity or a whole Courant defect, in one
accumulator.  A weight is an `int` or a `Fraction`: its numerator
multiplies a term's pairs (a bracket's derivative pairs, or a product's
one pair of term maps) and its denominator multiplies the term's
denominator.  Every pair is then a product over the lcm of those
denominators, weighted by its numerator times lcm / its own
denominator, so the sum is the exact value, made canonical once.
`poisson` stages its pairs through the same helper and skips the lcm,
so one bracket costs what it did alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from operator import or_

from .chart import ChartError, ChartSpec
from ._kernel_py import FIELD, FIELD_MASK, poly_scale
from .element import GradedElement, product_sum
from .poly import _variables

DEFAULT_ADJOINT_BUDGET = 16


class GaugeError(ValueError):
    pass


def _memo(f: GradedElement) -> list:
    """f's derivative memo [left, right, held, pairs, q] (see
    `GradedElement`), made empty on first use."""
    memo = f._derivs
    if memo is None:
        memo = f._derivs = [None, None, 0, 0, None]
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
    records every x-partial, and a later one that needs more odd letters
    adds only the missing ones that some key of f holds, so it walks f's
    terms again only when one of them can contribute."""
    memo = _memo(f)
    left = memo[0]
    if left is None:
        left = memo[0] = _derive(f, False, odd_letters, True)
        memo[2] = odd_letters
    elif odd_letters & ~memo[2]:
        missing = odd_letters & ~memo[2] & reduce(or_, f.nums, 0)
        if missing:
            left.update(_derive(f, False, missing, False))
        memo[2] |= odd_letters
    return left


def _derive(f: GradedElement, from_right: bool, odd_letters: int, first: bool) -> dict:
    """One pass over f's terms: {tag: {super key: numerators over f.den}},
    the graded derivative in each odd letter of `odd_letters` (super-key
    bits) a key contains, by bit operations, and, on a first pass, in
    every even letter and, on the left, the x-partials: under tag -mu,
    the terms whose coefficient uses x^mu, which the product derives.
    An odd letter flips its bit, with the sign of the odd letters it
    crosses (those before it from the left, those after it from the
    right); an even field loses one, with its exponent as the
    coefficient.  A derivative in one generator is injective on the terms
    it keeps, so no two terms land on the same key.  A numerator dict
    scaled by 1, and every one under an x-partial tag, is f's own, shared
    and never written."""
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
                out.setdefault(-mu, {})[key] = nums
    return out


def _bracket_pairs(f: GradedElement, g: GradedElement, weight: int) -> tuple[int, list]:
    """(den, pairs): the derivative pairs (d_r f / dz^a, d_l g / dz^b,
    weight * pi^{ab}, dx) of the bracket (f, g) times the int `weight`,
    for `product_sum`, and den the denominator of their products; dx is
    0, or names the side whose tag is x^mu (-mu for f, mu for g), which
    `element_mul` reads as that x-partial."""
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
            # a tag -mu holds raw numerators, derived in x^mu inside the product
            dx = a if a < 0 else -b if b < 0 else 0
            pairs.append((fa, gb, weight * partner[a][1], dx))
    return f.den * g.den, pairs


def poisson(f: GradedElement, g: GradedElement, sign: int = 1) -> GradedElement:
    """Graded Poisson bracket (f, g) times `sign` (+1 or -1); degree
    |f|+|g|-p on homogeneous input."""
    den, pairs = _bracket_pairs(f, g, sign)
    return product_sum(f.chart, den, pairs)


def bracket_sum(chart: ChartSpec, brackets, products=()) -> GradedElement:
    """The sum of weight * (f, g) over the (f, g, weight) in `brackets`
    plus weight * f * g over the (f, g, weight) in `products`, in one
    accumulator over the lcm of every term's denominator, its weight's
    denominator included; a weight is a nonzero `int` or `Fraction`, so
    the sum is exact.  An element on another chart raises `ChartError`."""
    staged = []
    for f, g, weight in brackets:
        if f.chart != chart:
            raise ChartError(f"chart mismatch: {f.chart} vs {chart}")
        den, pairs = _bracket_pairs(f, g, weight.numerator)
        staged.append((den * weight.denominator, pairs))
    for f, g, weight in products:
        for e in (f, g):
            if e.chart != chart:
                raise ChartError(f"chart mismatch: {e.chart} vs {chart}")
        staged.append((f.den * g.den * weight.denominator,
                       [(f.nums, g.nums, weight.numerator, 0)]))
    den = lcm(*(d for d, _ in staged))
    return product_sum(chart, den, [(fa, gb, w * (den // d), dx)
                                    for d, pairs in staged
                                    for fa, gb, w, dx in pairs])


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
