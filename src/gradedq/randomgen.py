"""Seeded random data for the verification harness.

All randomness is injected from the caller as a random.Random instance;
the library operations themselves are deterministic.  Defaults
follow the harness policy: polynomial coefficients of total x-degree at
most 2 with integer numerators in [-3, 3].

Integers are drawn by `_below` from `rng.getrandbits` exactly as
`Random.randrange` draws them: the same values and the same generator
state after each draw, so every seeded suite and report is unchanged.
It skips `randint`'s argument checks, about 0.39 µs of a draw against
0.14 µs through `getrandbits` (CPython 3.11, x86-64), over some 380
draws per Courant suite of 4 trials.  `rng.sample` draws through that
same routine.
"""

from __future__ import annotations

import random

from .chart import ChartSpec
from .element import GradedElement, _element, _key_at, monomial_count
from .forms import DiffForm, Section
from ._kernel_py import FIELD
from .poly import _EXP_LIMIT, Poly, PolyError, _raw

MAX_COEFF_DEGREE = 2
COEFF_RANGE = 3


def _below(bits, n: int) -> int:
    """rng.randrange(n) for bits = rng.getrandbits: draw n.bit_length()
    bits until the result is below n, as `Random._randbelow_with_getrandbits`
    does (CPython 3.10 to 3.13).  n < 1 raises ValueError, as an empty
    range does; getrandbits(0) is always 0, so it would loop for ever."""
    if n < 1:
        raise ValueError(f"empty range: no integer in [0, {n})")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_poly(rng: random.Random, d: int, max_degree: int = MAX_COEFF_DEGREE,
                allow_zero: bool = False) -> Poly:
    """One or two terms of total degree at most max_degree, each drawn
    straight into its packed exponent key (see `_kernel_py`): no exponent
    can exceed max_degree, so one below the field limit never carries."""
    if max_degree >= _EXP_LIMIT:
        raise PolyError(f"max_degree {max_degree} reaches the packed exponent "
                        f"limit {_EXP_LIMIT}")
    bits = rng.getrandbits
    acc = {}
    for _ in range(1 + _below(bits, 2)):  # one or two terms
        key = 0
        for _ in range(_below(bits, max_degree + 1)):
            key += 1 << FIELD * _below(bits, d)
        acc[key] = acc.get(key, 0) + _below(bits, 2 * COEFF_RANGE + 1) - COEFF_RANGE
    nums = {k: c for k, c in acc.items() if c}
    if not nums and not allow_zero:
        nums = {1 << FIELD * _below(bits, d): 1}
    return _raw(d, 1, nums)


def random_form(rng: random.Random, d: int, rank: int,
                max_degree: int = MAX_COEFF_DEGREE, components: int = 2) -> DiffForm:
    out = DiffForm(d, rank)
    if rank > d:
        return out
    indices = list(range(1, d + 1))
    for _ in range(components):
        idx = tuple(sorted(rng.sample(indices, rank)))
        out.add_term(idx, random_poly(rng, d, max_degree))
    return out


def random_vector(rng: random.Random, d: int,
                  max_degree: int = MAX_COEFF_DEGREE) -> tuple:
    return tuple(random_poly(rng, d, max_degree, allow_zero=True) for _ in range(d))


def random_section(rng: random.Random, chart: ChartSpec,
                   max_degree: int = MAX_COEFF_DEGREE) -> Section:
    """v, then each form of the chart's section layout, in that order."""
    d = chart.d
    v = random_vector(rng, d, max_degree)
    return Section(v, *[random_form(rng, d, rank, max_degree)
                        for _, rank, _, _ in chart.section_forms])


def random_homogeneous(rng: random.Random, chart: ChartSpec, n: int,
                       max_degree: int = MAX_COEFF_DEGREE,
                       terms: int = 2) -> GradedElement:
    """Random homogeneous element of degree n (zero only if no monomials exist);
    rng.sample only indexes its population, so indices draw as the basis would."""
    count = monomial_count(chart, n)
    if not count:
        return GradedElement.zero(chart)
    picks = rng.sample(range(count), min(count, 1 + _below(rng.getrandbits, terms)))
    # distinct picks are distinct monomials, so their terms never merge;
    # every draw is over denominator 1
    return _element(chart, 1, {_key_at(chart, n, i):
                               random_poly(rng, chart.d, max_degree).nums
                               for i in picks})
