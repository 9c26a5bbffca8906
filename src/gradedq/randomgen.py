"""Seeded random data for the verification harness.

All randomness is injected from the caller as a random.Random instance;
the library operations themselves are deterministic.  Defaults
follow the harness policy: polynomial coefficients of total x-degree at
most 2 with integer numerators in [-3, 3].
"""

from __future__ import annotations

import random

from .chart import ChartSpec, lambda_rank
from .element import GradedElement, _element, monomial_at, monomial_count
from .forms import DiffForm, Section
from ._kernel_py import FIELD
from .poly import _EXP_LIMIT, Poly, PolyError, _raw

MAX_COEFF_DEGREE = 2
COEFF_RANGE = 3


def random_poly(rng: random.Random, d: int, max_degree: int = MAX_COEFF_DEGREE,
                allow_zero: bool = False) -> Poly:
    """One or two terms of total degree at most max_degree, each drawn
    straight into its packed exponent key (see `_kernel_py`): no exponent
    can exceed max_degree, so one below the field limit never carries."""
    if max_degree >= _EXP_LIMIT:
        raise PolyError(f"max_degree {max_degree} reaches the packed exponent "
                        f"limit {_EXP_LIMIT}")
    acc = {}
    for _ in range(rng.randint(1, 2)):  # one or two terms
        key = 0
        for _ in range(rng.randint(0, max_degree)):
            key += 1 << FIELD * rng.randrange(d)
        acc[key] = acc.get(key, 0) + rng.randint(-COEFF_RANGE, COEFF_RANGE)
    nums = {k: c for k, c in acc.items() if c}
    if not nums and not allow_zero:
        nums = {1 << FIELD * rng.randrange(d): 1}
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
    d = chart.d
    v = random_vector(rng, d, max_degree)
    lam = random_form(rng, d, lambda_rank(chart), max_degree)
    sigma = random_form(rng, d, 5, max_degree) if chart.kind == "m5" else None
    return Section(v, lam, sigma)


def random_homogeneous(rng: random.Random, chart: ChartSpec, n: int,
                       max_degree: int = MAX_COEFF_DEGREE,
                       terms: int = 2) -> GradedElement:
    """Random homogeneous element of degree n (zero only if no monomials exist);
    rng.sample only indexes its population, so indices draw as the basis would."""
    count = monomial_count(chart, n)
    if not count:
        return GradedElement.zero(chart)
    picks = rng.sample(range(count), min(count, rng.randint(1, terms)))
    # distinct picks are distinct monomials, so their terms never merge;
    # every draw is over denominator 1
    return _element(chart, 1, {chart.encode(monomial_at(chart, n, i)):
                               random_poly(rng, chart.d, max_degree).nums
                               for i in picks})
