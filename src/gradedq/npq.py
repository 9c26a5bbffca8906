"""Homological hamiltonians, Q = (Theta, -), and master-equation checks.

Twist data is embedded factorial-free by the chart's twist layout
(`ChartSpec.twist_forms`): each sorted form component maps to the
identical sorted psi-monomial, times the layout's factor, so
the graded differential and the exterior-calculus oracle agree
coefficient by coefficient.  On m5, zeta*F4 + F7 with coefficient 1
reproduces, with this chart's pairing table, dF7 + (1/2) F4 ^ F4 = 0
(the calibration is pinned by a test).
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


def embed_form(chart: ChartSpec, omega: DiffForm,
               factor: str | None = None) -> GradedElement:
    """Sorted form components -> identical sorted psi-monomials, times the
    generator `factor` if given, coefficient 1."""
    if omega.d != chart.d:
        raise FormError(f"form lives on R^{omega.d}, chart on R^{chart.d}")
    return _from_polys(chart, form_terms(chart, omega, factor, 1))


def form_terms(chart: ChartSpec, form: DiffForm, factor: str | None,
               sign: int) -> dict:
    """{super key: Poly} of sign * c psi^I * factor for each term c dx^I of
    `form`: one entry of a chart's section or twist layout."""
    unit = chart.unit
    base = unit[chart.sid_of_name(factor)] if factor else 0
    return {sum(unit[chart.sid("psi", i)] for i in idx) + base:
            poly if sign == 1 else poly * sign
            for idx, poly in form.terms.items()}


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


def theta(chart: ChartSpec, tag: str, forms) -> Hamiltonian:
    """Theta = sum psi^mu p_mu plus each twist form of the chart's layout,
    embedded by `embed_form`; `forms` has one form or None (zero) per
    layout entry, in layout order, and the twist is (tag, *forms)."""
    element, filled = kinetic_term(chart), []
    for (name, rank, factor), form in zip(chart.twist_forms, forms, strict=True):
        if form is None:
            form = DiffForm.zero(chart.d, rank)
        if form.rank != rank:
            raise HamiltonianError(f"{name} must have rank {rank}, got {form.rank}")
        element = element + embed_form(chart, form, factor)
        filled.append(form)
    return Hamiltonian(chart, element, (tag, *filled))


def theta_vinogradov(chart: ChartSpec, beta: DiffForm | None = None) -> Hamiltonian:
    """Theta = sum psi^mu p_mu + embed(beta), beta a (p+1)-form (or None)."""
    if chart.kind != "vinogradov":
        raise HamiltonianError(f"vinogradov hamiltonian needs a vinogradov chart, "
                               f"got {chart.kind}")
    return theta(chart, "beta", (beta,))


def theta_m5(chart: ChartSpec, F4: DiffForm | None = None,
             F7: DiffForm | None = None) -> Hamiltonian:
    """Theta = sum psi^mu p_mu + zeta*embed(F4) + embed(F7)."""
    if chart.kind != "m5":
        raise HamiltonianError(f"m5 hamiltonian needs an m5 chart, got {chart.kind}")
    return theta(chart, "m5", (F4, F7))


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
