"""Homological hamiltonians, Q = (Theta, -), and master-equation checks.

Twist data is embedded factorial-free: each sorted form component maps
to the identical sorted psi-monomial with coefficient 1, so the graded
differential and the exterior-calculus oracle agree coefficient by
coefficient.  The m5 hamiltonian embeds F7 and zeta*F4 with coefficient
1; with this chart's pairing table that normalization reproduces the
form-level identity dF7 + (1/2) F4 ^ F4 = 0 (the calibration is pinned
by a test).
"""

from __future__ import annotations

import random

from .chart import ChartSpec
from .element import GradedElement, _element, _from_polys
from .forms import DiffForm, FormError
from .reports import CheckReport, SuiteReport, witnesses_of
from .symplectic import poisson


class HamiltonianError(ValueError):
    pass


def embed_form(chart: ChartSpec, omega: DiffForm) -> GradedElement:
    """Sorted form components -> identical sorted psi-monomials, coefficient 1."""
    if omega.d != chart.d:
        raise FormError(f"form lives on R^{omega.d}, chart on R^{chart.d}")
    return _from_polys(chart, {_psi_key(chart, idx): poly
                               for idx, poly in omega.terms.items()})


def _psi_key(chart: ChartSpec, idx) -> int:
    """The super key of psi^{i1} ... psi^{ik}."""
    unit = chart.unit
    return sum(unit[chart.sid("psi", i)] for i in idx)


_KINETIC = ("kinetic",)  # the kinetic term's key in a chart's elements


def kinetic_term(chart: ChartSpec) -> GradedElement:
    """The anchor normal form sum_mu psi^mu p_mu, built once per chart and
    shared like a generator (see `ChartSpec`)."""
    found = chart._elements.get(_KINETIC)
    if found is None:
        unit = chart.unit
        found = chart._elements[_KINETIC] = _element(chart, 1, {
            unit[chart.sid("psi", mu)] + unit[chart.sid("p", mu)]: {0: 1}
            for mu in range(1, chart.d + 1)})
    return found


class Hamiltonian:
    """Degree-(p+1) element with its twist metadata.

    Q = (Theta, -) is one fixed operator: the first `q_apply` or
    `master_equation` derives Theta (the bracket memoises an element's
    derivatives on the element, see `symplectic`), and every later one on
    this hamiltonian derives only its other argument.
    """

    def __init__(self, chart: ChartSpec, element: GradedElement, twist: tuple):
        deg = element.euler_degree()
        if element.is_zero() or deg != chart.p + 1:
            raise HamiltonianError(
                f"hamiltonian must be homogeneous of degree p+1={chart.p + 1}, "
                f"got {deg}")
        self.chart = chart
        self.element = element
        self.twist = twist  # ("beta", DiffForm) | ("m5", F4, F7)


def theta_vinogradov(chart: ChartSpec, beta: DiffForm | None = None) -> Hamiltonian:
    """Theta = sum psi^mu p_mu + embed(beta), beta a (p+1)-form (or None)."""
    if chart.kind != "vinogradov":
        raise HamiltonianError(f"vinogradov hamiltonian needs a vinogradov chart, "
                               f"got {chart.kind}")
    if beta is None:
        beta = DiffForm.zero(chart.d, chart.p + 1)
    if beta.rank != chart.p + 1:
        raise HamiltonianError(f"twist form must have rank p+1={chart.p + 1}, "
                               f"got rank {beta.rank}")
    element = kinetic_term(chart) + embed_form(chart, beta)
    return Hamiltonian(chart, element, ("beta", beta))


def theta_m5(chart: ChartSpec, F4: DiffForm | None = None,
             F7: DiffForm | None = None) -> Hamiltonian:
    """Theta = sum psi^mu p_mu + embed(F7) + zeta*embed(F4)."""
    if chart.kind != "m5":
        raise HamiltonianError(f"m5 hamiltonian needs an m5 chart, got {chart.kind}")
    if F4 is None:
        F4 = DiffForm.zero(chart.d, 4)
    if F7 is None:
        F7 = DiffForm.zero(chart.d, 7)
    if F4.rank != 4:
        raise HamiltonianError(f"F4 must have rank 4, got {F4.rank}")
    if F7.rank != 7:
        raise HamiltonianError(f"F7 must have rank 7, got {F7.rank}")
    zeta = GradedElement.generator(chart, "zeta")
    element = (kinetic_term(chart) + embed_form(chart, F7)
               + zeta * embed_form(chart, F4))
    return Hamiltonian(chart, element, ("m5", F4, F7))


def master_equation(theta: Hamiltonian) -> tuple[GradedElement, bool]:
    """((Theta, Theta), is_zero); zero iff Q squares to zero."""
    bracket = poisson(theta.element, theta.element)
    return bracket, bracket.is_zero()


def q_apply(theta: Hamiltonian, f: GradedElement) -> GradedElement:
    """Q(f) = (Theta, f); raises degree by one on homogeneous input."""
    return poisson(theta.element, f)


def q_square_check(theta: Hamiltonian, samples: int = 8, seed: int = 0,
                   max_degree: int = 2) -> SuiteReport:
    """Q(Q(z)) on every chart generator plus seeded random low-degree elements.

    Passing coincides with the master equation holding; failures carry the
    leading offending monomials as witnesses.
    """
    from .randomgen import random_homogeneous
    chart = theta.chart
    suite = SuiteReport("q-square", seed=seed)
    probes = [(g.name, GradedElement.generator(chart, g.name))
              for g in chart.xs + chart.supers]
    rng = random.Random(seed)
    for k in range(samples):
        n = rng.randint(0, chart.p + 1)
        probes.append((f"random[{k}] (degree {n})",
                       random_homogeneous(rng, chart, n, max_degree)))
    for name, z in probes:
        qq = q_apply(theta, q_apply(theta, z))
        suite.checks.append(CheckReport(
            check=f"Q^2 on {name}", passed=qq.is_zero(),
            witnesses=[] if qq.is_zero() else witnesses_of(qq)))
    return suite
