"""Generalised-tangent-bundle sections, derived Dorfman brackets, and
axiom verification suites.

Sections are degree-(p-1) functions, laid out by the chart's
`section_forms`.  The derived bracket is the double Poisson contraction
((Theta, A), B) times a chart-level sign: +1 for even p, -1 for odd p.
That sign, together with the sign of the m5 layout's sigma row, is the
convention knob that makes the untwisted derived bracket reproduce the
classical Dorfman/Vinogradov formulas verbatim; both are pinned by the
oracle cross-check tests.

Each Courant check but axiom 2 computes its defect as one signed sum
(`symplectic.bracket_sum`) of brackets and element products, summed in
one accumulator over the lcm of their denominators, axiom 5's weight
1/2 included, so the defect is exact and is made canonical once.  The
elements a sum takes as bracket arguments (B f, (B, C), (A, A)) are
still built, and every element `pairing` or `dorfman` would check is
checked once per trial.

The Leibniz defect L_A(L_B C) - L_{L_A B} C - L_B(L_A C) is one such sum
of its three outer brackets, so L_{L_A B} C is never built on its own.
A section's (Theta, A) is kept in its derivative memo with the Theta it
was taken under (`_q`), so `dorfman`, `anchor` and the suites bracket
(Theta, A) once per section and Theta: the defect's inner L_B C goes
through `dorfman`, and its outer (Theta, B) term reads what that kept.

Axiom 2 is the Courant suite's one classical check, which the
benchmark's call-site pins still expect: rho(L_A B) is read off L_A B
by `decode_section`, which takes each term's slot from the psi bits of
its super key, and compared with `vec_lie_bracket` of the two sections'
vector fields; both sides are canonical `Poly`s, so the defect is
encoded as an element only when they differ, and is the zero element
otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chart import ChartError, ChartSpec, lambda_rank  # noqa: F401  (re-exported)
from .element import GradedElement, _from_polys
from .forms import DiffForm, Section, SectionError, vec_lie_bracket
from .npq import Hamiltonian, embed_form, form_terms, q_apply
from ._kernel_py import poly_scale
from .poly import Poly, _normal
from .randomgen import random_poly, random_section
from .reports import CheckReport, SuiteReport, witnesses_of
from . import symplectic


def derived_sign(chart: ChartSpec) -> int:
    return 1 if chart.p % 2 == 0 else -1


# ---------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------

def encode_section(chart: ChartSpec, s: Section) -> GradedElement:
    """Degree-(p-1) element: v -> chi-terms, and each form of the chart's
    section layout (see `ChartSpec`) -> its psi-terms."""
    if s.d != chart.d:
        raise SectionError(f"section on R^{s.d}, chart on R^{chart.d}")
    forms = (s.lam, s.sigma)
    for (name, rank, _, _), form in zip(chart.section_forms, forms):
        if form is None:
            raise SectionError(f"{chart.kind} sections need a {name} component")
        if form.rank != rank:
            raise SectionError(f"{name} must have rank {rank}, got {form.rank}")
    if any(form is not None for form in forms[len(chart.section_forms):]):
        raise SectionError("sigma component only exists on the m5 chart")
    # the slots are disjoint monomial sets, so one term map unites them
    unit = chart.unit
    terms = {unit[chart.sid("chi", mu)]: s.v[mu - 1] for mu in range(1, chart.d + 1)}
    for (_, _, factor, sign), form in zip(chart.section_forms, forms):
        terms.update(form_terms(chart, form, factor, sign))
    return _from_polys(chart, terms)


def decode_section(chart: ChartSpec, A: GradedElement) -> Section:
    """Exact inverse of encode_section on degree-(p-1) elements.  Every
    monomial of that degree is a section-basis term, and its slot is read
    off its key, where psi^mu owns bit mu-1: a key with no psi bit is a
    chi_mu, and one with k psi bits a term of the layout's rank-k form
    (times its factor, which is no psi).  Each coefficient is A's
    numerators, times the form's sign, made canonical over A.den."""
    p = chart.p
    deg = A.euler_degree()
    if not A.is_zero() and deg != p - 1:
        raise SectionError(f"sections are homogeneous of degree p-1={p - 1}, "
                           f"got degree {deg}")
    d, den = chart.d, A.den
    psi_mask = (1 << d) - 1
    v = [Poly.zero(d)] * d
    by_rank = {rank: (DiffForm(d, rank), sign)
               for _, rank, _, sign in chart.section_forms}
    for key, nums in A.nums.items():
        psi = key & psi_mask
        if not psi:
            (sid, _), = chart.decode(key)
            v[chart.generator(sid).index - 1] = _normal(d, den, nums)
            continue
        idx = []
        while psi:
            low = psi & -psi
            idx.append(low.bit_length())
            psi ^= low
        form, sign = by_rank[len(idx)]
        form.add_term(tuple(idx), _normal(d, den, nums if sign == 1
                                          else poly_scale(nums, sign)))
    return Section(tuple(v), *(form for form, _ in by_rank.values()))


# ---------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------

def _check_section_degree(chart: ChartSpec, A: GradedElement, name: str):
    if A.chart != chart:
        raise ChartError(f"chart mismatch on {name}: {A.chart} vs {chart}")
    if not A.is_zero() and A.euler_degree() != chart.p - 1:
        raise SectionError(f"{name} must be homogeneous of degree p-1="
                           f"{chart.p - 1}, got {A.euler_degree()}")


def _derived(QA: GradedElement, B: GradedElement) -> GradedElement:
    """((Theta, A), B) with the chart's derived sign, given QA = (Theta, A)."""
    return symplectic.poisson(QA, B, derived_sign(QA.chart))


def _q(theta: Hamiltonian, A: GradedElement) -> GradedElement:
    """(Theta, A), kept in A's derivative memo (see `GradedElement`) with
    the Theta element it was taken under, and taken again under another:
    every L_A - on one Theta brackets (Theta, A) once."""
    memo = symplectic._memo(A)
    q = memo[4]
    if q is None or q[0] is not theta.element:
        q = memo[4] = (theta.element, q_apply(theta, A))
    return q[1]


def dorfman(theta: Hamiltonian, A: GradedElement, B: GradedElement) -> GradedElement:
    """Derived Dorfman bracket L_A B on degree-(p-1) elements."""
    chart = theta.chart
    _check_section_degree(chart, A, "A")
    _check_section_degree(chart, B, "B")
    return _derived(_q(theta, A), B)


def anchor(theta: Hamiltonian, A: GradedElement, f: Poly) -> Poly:
    """rho(A).f = v^mu d_mu f; twists never contribute at degree 0."""
    chart = theta.chart
    _check_section_degree(chart, A, "A")
    if f.d != chart.d:
        raise SectionError(f"function on R^{f.d}, chart on R^{chart.d}")
    fe = GradedElement.from_poly(chart, f)
    return _scalar_of(_derived(_q(theta, A), fe))


def pairing(A: GradedElement, B: GradedElement) -> GradedElement:
    """(A, B) via the Poisson bracket; the O(d,d) metric eta for p=2."""
    _check_section_degree(A.chart, A, "A")
    _check_section_degree(A.chart, B, "B")
    return symplectic.poisson(A, B)


# ---------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------

def _scalar_of(e: GradedElement) -> Poly:
    """The coefficient of a degree-0 element, whose one super key is 0."""
    return _normal(e.chart.d, e.den, e.nums.get(0, {}))


def _leibniz_defect(theta: Hamiltonian, QA, B, C, LAB, LAC) -> GradedElement:
    """L_A(L_B C) - L_{L_A B} C - L_B(L_A C), given QA = (Theta, A), L_A B
    and L_A C, as one signed sum of its three outer brackets in one
    accumulator; `dorfman` builds the inner L_B C and keeps (Theta, B) in
    B's memo, where the sum reads it, and no L_{L_A B} C is built."""
    chart = theta.chart
    sign = derived_sign(chart)
    _check_section_degree(chart, LAB, "L_A B")
    return symplectic.bracket_sum(chart, (
        (QA, dorfman(theta, B, C), sign), (_q(theta, B), LAC, -sign),
        (q_apply(theta, LAB), C, -sign)))


def _suite(name: str, checks: tuple[str, ...], fails: dict, trials: int,
           seed: int) -> SuiteReport:
    """One report per check; `fails` maps a check to its first failing
    (trial, defect)."""
    suite = SuiteReport(name, seed=seed, trials=trials)
    for check in checks:
        report = CheckReport(check, passed=check not in fails,
                             trials=trials, seed=seed)
        if check in fails:
            t, diff = fails[check]
            report.witnesses = [f"trial {t}"] + witnesses_of(diff)
        suite.checks.append(report)
    return suite


def _trial(theta: Hamiltonian, rng: random.Random, max_degree: int):
    """One seeded trial: the random sections (sA, sB, sC), drawn in that
    order, their encodings (A, B, C), and (QA, L_A B, L_A C)."""
    chart = theta.chart
    sections = tuple(random_section(rng, chart, max_degree) for _ in range(3))
    A, B, C = (encode_section(chart, s) for s in sections)
    QA = _q(theta, A)
    return sections, (A, B, C), (QA, _derived(QA, B), _derived(QA, C))


def verify_leibniz(theta: Hamiltonian, trials: int = 100, seed: int = 0,
                   max_degree: int = 2) -> SuiteReport:
    """L_A(L_B C) = L_{L_A B} C + L_B(L_A C) on seeded random triples."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    fails: dict[str, tuple] = {}
    for t in range(trials):
        _, (_, B, C), (QA, LAB, LAC) = _trial(theta, rng, max_degree)
        diff = _leibniz_defect(theta, QA, B, C, LAB, LAC)
        if not diff.is_zero():
            fails.setdefault("leibniz identity", (t, diff))
    return _suite("leibniz", ("leibniz identity",), fails, trials, seed)


# Axiom 5 and the chain complex keep their classical names, so reports stay
# byte-identical: on p = 2, Q(eta) = psi^mu d_mu eta = rho*(d eta) with
# sign +, since (p_mu, x^mu) = +1, and rho* is the psi-embedding.
_COURANT_CHECKS = ("axiom 1 (anchored Leibniz)", "axiom 2 (anchor morphism)",
                   "axiom 3 (metric invariance)", "axiom 4 (Leibniz identity)",
                   "axiom 5 (rho* of d eta(A,A))", "chain complex (rho o rho* = 0)")


def verify_courant(theta: Hamiltonian, trials: int = 100, seed: int = 0,
                   max_degree: int = 2) -> SuiteReport:
    """All five Courant axioms plus rho o rho* = 0, on a p=2 chart; all but
    axiom 2 through Q, the pairing and rho(A)g = ((Theta, A), g)."""
    chart = theta.chart
    if chart.p != 2 or chart.kind != "vinogradov":
        raise ChartError("the Courant suite runs on p=2 vinogradov charts")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    fails: dict[str, tuple] = {}

    sign = derived_sign(chart)
    for t in range(trials):
        (sA, sB, _), (A, B, C), (QA, LAB, LAC) = _trial(theta, rng, max_degree)
        f = random_poly(rng, chart.d, max_degree)
        fe = GradedElement.from_poly(chart, f)
        defects = []

        # 1. anchored Leibniz: L_A(f B) = f L_A B + (rho(A).f) B; rho(A).f
        # is anchor()'s bracket on A's kept QA, left an element for the product
        defects.append(symplectic.bracket_sum(
            chart, [(QA, B * fe, sign)],
            [(LAB, fe, -1), (B, _derived(QA, fe), -1)]))

        # 2. anchor morphism: rho(L_A B) = [rho(A), rho(B)]
        vL = decode_section(chart, LAB).v
        vR = vec_lie_bracket(sA.v, sB.v, chart.d)
        defects.append(GradedElement.zero(chart) if vL == vR else encode_section(
            chart, Section(tuple(a - b for a, b in zip(vL, vR)),
                           DiffForm.zero(chart.d, 1))))

        # 3. metric invariance: rho(A).(B,C) = (L_A B, C) + (B, L_A C); the
        # sum takes the last two pairings unchecked, so L_A C, which no
        # other call checks, is checked here (L_A B is, by axiom 4's defect)
        _check_section_degree(chart, LAC, "L_A C")
        defects.append(symplectic.bracket_sum(
            chart, [(QA, pairing(B, C), sign), (LAB, C, -1), (B, LAC, -1)]))

        # 4. Leibniz identity
        defects.append(_leibniz_defect(theta, QA, B, C, LAB, LAC))

        # 5. L_A A = 1/2 Q((A, A)), with Q = (Theta, -)
        defects.append(symplectic.bracket_sum(
            chart, [(QA, A, sign), (theta.element, pairing(A, A), Fraction(-1, 2))]))

        # chain complex: rho(rho*(lam1)) = 0
        lam1 = DiffForm(chart.d, 1)
        lam1.add_term((rng.randint(1, chart.d),), random_poly(rng, chart.d, max_degree))
        defects.append(GradedElement.from_poly(
            chart, anchor(theta, embed_form(chart, lam1), f)))

        for check, diff in zip(_COURANT_CHECKS, defects):
            if not diff.is_zero():
                fails.setdefault(check, (t, diff))
    return _suite("courant", _COURANT_CHECKS, fails, trials, seed)
