"""Sections, derived Dorfman brackets, anchors, ranks, axiom suites."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (ChartError, DiffForm, GradedElement, Poly, Section,
                     SectionError, anchor, classical_dorfman, decode_section,
                     dorfman, embed_form, encode_section, ext_d, gauge_exp,
                     interior, kinetic_term, make_chart, master_equation,
                     monomial_basis, monomial_count, pairing, q_apply,
                     q_square_check, theta_m5, theta_vinogradov, verify_courant,
                     verify_leibniz)
from gradedq import algebroid, npq, symplectic
from gradedq.randomgen import random_poly, random_section
from test_kernel import rederived

P2 = make_chart("vinogradov", 3, 2)
P3 = make_chart("vinogradov", 4, 3)
M5 = make_chart("m5", 6)


def untwisted(chart):
    return theta_m5(chart) if chart.kind == "m5" else theta_vinogradov(chart)


# ---------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------

@pytest.mark.parametrize("chart", [P2, P3, M5], ids=repr)
class TestEncodeDecode:
    def test_roundtrip(self, chart):
        rng = random.Random(51)
        for _ in range(20):
            s = random_section(rng, chart)
            e = encode_section(chart, s)
            assert e.euler_degree() in (chart.p - 1, 0)
            assert decode_section(chart, e) == s

    def test_rejects_wrong_degree(self, chart):
        theta = untwisted(chart)
        with pytest.raises(SectionError):
            decode_section(chart, theta.element)

    def test_rejects_inhomogeneous(self, chart):
        mixed = GradedElement.generator(chart, "psi1") \
            + GradedElement.generator(chart, "p1")
        with pytest.raises(SectionError):
            decode_section(chart, mixed)


def _rational_section(rng, chart):
    """A random section with every coefficient scaled by a random
    rational, so that the element's denominator is rarely 1."""
    def scaled(p):
        return p * Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def form(f):
        return None if f is None else DiffForm(f.d, f.rank, {
            idx: scaled(p) for idx, p in f.terms.items()})

    s = random_section(rng, chart)
    return Section(tuple(map(scaled, s.v)), form(s.lam), form(s.sigma))


SLOT_CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
               make_chart("vinogradov", 5, 4), make_chart("m5", 6),
               make_chart("m5", 7)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SLOT_CHARTS), st.integers(0, 2 ** 32))
def test_decode_inverts_encode_on_rational_sections(chart, seed):
    rng = random.Random(seed)
    for _ in range(3):
        s = _rational_section(rng, chart)
        assert decode_section(chart, encode_section(chart, s)) == s


@pytest.mark.parametrize("chart, names, degree_message", [
    (P2, ["p1"], "got degree 2"),
    (P3, ["x1", "p2"], "got degree 3"),
    (P3, ["psi1"], "got degree 1"),
    (M5, ["psi1", "psi2", "psi3"], "got degree 3"),
    (P2, ["chi1", "psi2"], "got degree 2"),
    (M5, ["chi1", "psi2"], "got degree 6"),
    (M5, ["psi1", "psi2"], "got degree 2"),
], ids=["p", "x-p", "psi-rank", "psi-rank-m5", "chi-psi", "chi-psi-m5",
        "psi-psi-no-zeta"])
def test_stray_monomials_keep_their_message(chart, names, degree_message):
    """Each monomial outside the section basis has a degree other than
    p-1, so the degree check names it."""
    stray = GradedElement.generator(chart, names[0])
    for name in names[1:]:
        stray = stray * GradedElement.generator(chart, name)
    with pytest.raises(SectionError) as info:
        decode_section(chart, stray)
    assert str(info.value) == (f"sections are homogeneous of degree "
                               f"p-1={chart.p - 1}, {degree_message}")


CLOSURE_CHARTS = ([make_chart("vinogradov", d, p)
                   for d in range(1, 8) for p in range(2, 13)]
                  + [make_chart("m5", d) for d in range(1, 11)])


@pytest.mark.parametrize("chart", CLOSURE_CHARTS, ids=repr)
def test_every_degree_p_minus_1_monomial_is_a_section_term(chart):
    """psi^mu owns bit mu-1, and the monomials of degree p-1, each with its
    own coefficient, decode to a section that encodes back to them."""
    for mu in range(1, chart.d + 1):
        assert chart.unit[chart.sid("psi", mu)] == 1 << (mu - 1)
    basis = monomial_basis(chart, chart.p - 1)
    e = GradedElement(chart, {mono: Poly.const(chart.d, k + 1)
                              for k, mono in enumerate(basis)})
    assert len(e.nums) == len(basis)
    assert encode_section(chart, decode_section(chart, e)) == e


def test_m5_lambda_and_sigma_slots():
    lam = DiffForm.basis(6, (1, 2), Poly.var(6, 3))
    sigma = DiffForm.basis(6, (1, 2, 3, 4, 5))
    zv = tuple(Poly.zero(6) for _ in range(6))
    s = Section(zv, lam, sigma)
    e = encode_section(M5, s)
    fams = {tuple(M5.generator(sid).family for sid, _ in mono) for mono in e.terms}
    assert fams == {("psi", "psi", "zeta"), ("psi",) * 5}
    assert decode_section(M5, e) == s


def _zero_v(d):
    return tuple(Poly.zero(d) for _ in range(d))


@pytest.mark.parametrize("chart, section, message", [
    (P2, Section(_zero_v(4), DiffForm(4, 1)), "section on R^4, chart on R^3"),
    (P2, Section(_zero_v(3), DiffForm(3, 2)), "lambda must have rank 1, got 2"),
    (M5, Section(_zero_v(6), DiffForm(6, 2)), "m5 sections need a sigma component"),
    (M5, Section(_zero_v(6), DiffForm(6, 2), DiffForm(6, 4)),
     "sigma must have rank 5, got 4"),
    (P2, Section(_zero_v(3), DiffForm(3, 1), DiffForm(3, 5)),
     "sigma component only exists on the m5 chart"),
], ids=["wrong-d", "lambda-rank", "m5-no-sigma", "sigma-rank", "sigma-on-vinogradov"])
def test_encode_section_rejects(chart, section, message):
    with pytest.raises(SectionError) as err:
        encode_section(chart, section)
    assert str(err.value) == message


# ---------------------------------------------------------------------
# derived bracket vs classical oracle
# ---------------------------------------------------------------------

@pytest.mark.parametrize("chart", [P2, P3, M5], ids=repr)
def test_derived_equals_classical(chart):
    rng = random.Random(52)
    theta = untwisted(chart)
    for _ in range(30):
        sA, sB = random_section(rng, chart), random_section(rng, chart)
        A, B = encode_section(chart, sA), encode_section(chart, sB)
        got = decode_section(chart, dorfman(theta, A, B))
        assert got == classical_dorfman(chart.kind, sA, sB)


def test_p2_lie_bracket_example():
    # A = (d1, 0), B = (x1 d2, 0) -> (d2, 0)
    d = P2.d
    sA = Section((Poly.const(d, 1), Poly.zero(d), Poly.zero(d)), DiffForm.zero(d, 1))
    sB = Section((Poly.zero(d), Poly.var(d, 1), Poly.zero(d)), DiffForm.zero(d, 1))
    out = decode_section(P2, dorfman(untwisted(P2),
                                     encode_section(P2, sA), encode_section(P2, sB)))
    assert out.v == (Poly.zero(d), Poly.const(d, 1), Poly.zero(d))
    assert out.lam.is_zero()


def test_m5_lambda_prime_d_lambda_appears():
    lam = DiffForm.basis(6, (1, 2), Poly.var(6, 3))
    lamp = DiffForm.basis(6, (4, 5))
    zv = tuple(Poly.zero(6) for _ in range(6))
    z5 = DiffForm.zero(6, 5)
    sA, sB = Section(zv, lam, z5), Section(zv, lamp, z5)
    got = decode_section(M5, dorfman(untwisted(M5), encode_section(M5, sA),
                                     encode_section(M5, sB)))
    from gradedq import wedge
    assert got.sigma == -wedge(lamp, ext_d(lam))
    assert not got.sigma.is_zero()


def test_dorfman_is_not_antisymmetric_but_has_symmetric_part():
    # L_A A need not vanish; its failure of antisymmetry is exact d of the
    # pairing, and on p = 2 that rho*(d eta) is 1/2 Q(eta(A, A)), also twisted
    rng = random.Random(53)
    half = Fraction(1, 2)
    beta = DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2) + Poly.var(3, 1) ** 2)
    for theta in (untwisted(P2), theta_vinogradov(P2, beta)):
        for _ in range(10):
            sA = random_section(rng, P2)
            A = encode_section(P2, sA)
            LAA = dorfman(theta, A, A)
            eta_AA = pairing(A, A)
            scalar = eta_AA.terms.get((), Poly.zero(P2.d))
            rhs = embed_form(P2, ext_d(DiffForm.from_poly(P2.d, scalar))) * half
            assert LAA == rhs
            assert q_apply(theta, eta_AA) * half == rhs


# ---------------------------------------------------------------------
# anchor and pairing
# ---------------------------------------------------------------------

def _anchor_thetas():
    """Untwisted hamiltonians on P2, P3 and M5; closed and non-closed
    twists beta on p = 2 and p = 3 charts; (F4, F7) twists on m5 charts."""
    x = [Poly.var(5, mu) for mu in range(1, 6)]
    yield untwisted(P2)
    yield untwisted(P3)
    yield untwisted(M5)
    for chart, beta, closed in (
            (P2, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 1) + 2), True),
            (make_chart("vinogradov", 4, 2),
             DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4) ** 2), False),
            (P3, DiffForm.basis(4, (1, 2, 3, 4), Poly.var(4, 1) * Poly.var(4, 3)),
             True),
            (make_chart("vinogradov", 5, 3),
             DiffForm.basis(5, (1, 2, 3, 4), x[4] - x[0] * x[1])
             + DiffForm.basis(5, (2, 3, 4, 5), x[0]), False)):
        assert ext_d(beta).is_zero() == closed
        yield theta_vinogradov(chart, beta)
    yield theta_m5(M5, DiffForm.basis(6, (1, 2, 3, 4), Poly.var(6, 5)))
    yield theta_m5(make_chart("m5", 7),
                   DiffForm.basis(7, (2, 3, 5, 6), Poly.var(7, 1) + 1),
                   DiffForm.basis(7, tuple(range(1, 8)), Poly.var(7, 4)))


def test_anchor_is_vector_action():
    # twists never contribute at degree 0, closed or not
    rng = random.Random(54)
    for theta in _anchor_thetas():
        chart = theta.chart
        for _ in range(10):
            s = random_section(rng, chart)
            f = random_poly(rng, chart.d)
            A = encode_section(chart, s)
            expect = Poly.zero(chart.d)
            for mu in range(1, chart.d + 1):
                expect = expect + s.v[mu - 1] * f.partial(mu)
            assert anchor(theta, A, f) == expect
            # a section over a denominator keeps it in rho(A).f
            assert anchor(theta, A * Fraction(1, 3), f) == expect * Fraction(1, 3)


def test_p2_pairing_is_odd_metric():
    rng = random.Random(55)
    for _ in range(10):
        sA, sB = random_section(rng, P2), random_section(rng, P2)
        A, B = encode_section(P2, sA), encode_section(P2, sB)
        got = pairing(A, B)
        expect = interior(sA.v, sB.lam) + interior(sB.v, sA.lam)
        assert got.terms.get((), Poly.zero(P2.d)) == expect.terms.get((), Poly.zero(P2.d))


# ---------------------------------------------------------------------
# module ranks
# ---------------------------------------------------------------------

class TestModuleRanks:
    def test_p2_rank_is_2d(self):
        for d in (1, 2, 3, 4, 6):
            chart = make_chart("vinogradov", d, 2)
            assert monomial_count(chart, chart.p - 1) == 2 * d

    def test_p3_degree2_rank_10(self):
        assert monomial_count(P3, 2) == 10

    def test_m5_degree5_rank_27(self):
        assert monomial_count(make_chart("m5", 6), 5) == 27

    def test_rank_matches_basis(self):
        for chart in (P2, P3, M5):
            for n in range(chart.p):
                assert monomial_count(chart, n) == len(monomial_basis(chart, n))


# ---------------------------------------------------------------------
# axiom suites
# ---------------------------------------------------------------------

class TestLeibnizSuite:
    def test_passes_untwisted(self):
        for chart in (P2, P3):
            suite = verify_leibniz(untwisted(chart), trials=15, seed=1)
            assert suite.passed

    def test_passes_m5_untwisted(self):
        suite = verify_leibniz(untwisted(M5), trials=5, seed=1)
        assert suite.passed

    def test_passes_closed_twist(self):
        beta = DiffForm.basis(3, (1, 2, 3))
        suite = verify_leibniz(theta_vinogradov(P2, beta), trials=15, seed=2)
        assert suite.passed

    def test_fails_with_witness_on_open_twist(self):
        chart = make_chart("vinogradov", 4, 2)
        beta = DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4))
        suite = verify_leibniz(theta_vinogradov(chart, beta), trials=15, seed=3)
        assert not suite.passed
        assert suite.checks[0].witnesses


class TestCourantSuite:
    def test_passes_untwisted(self):
        suite = verify_courant(untwisted(P2), trials=15, seed=4)
        assert suite.passed
        assert len(suite.checks) == 6

    def test_passes_closed_twist(self):
        beta = DiffForm.basis(3, (1, 2, 3), Poly.var(3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            suite = verify_courant(theta_vinogradov(P2, beta), trials=15, seed=5)
        assert suite.passed

    def test_negative_control(self):
        chart = make_chart("vinogradov", 4, 2)
        beta = DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4))
        suite = verify_courant(theta_vinogradov(chart, beta), trials=10, seed=6)
        failed = {c.check for c in suite.checks if not c.passed}
        assert "axiom 4 (Leibniz identity)" in failed
        assert any(c.witnesses for c in suite.checks if not c.passed)

    def test_rejected_off_p2(self):
        with pytest.raises(ChartError):
            verify_courant(untwisted(P3), trials=1, seed=0)


@pytest.mark.parametrize("suite", [verify_courant, verify_leibniz],
                         ids=["courant", "leibniz"])
def test_zero_trials_raise_before_drawing(monkeypatch, suite):
    """A suite that ran no trial has no evidence for a PASS."""
    def no_draw(*args):
        raise AssertionError("a section was drawn")
    monkeypatch.setattr("gradedq.algebroid.random_section", no_draw)
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            suite(untwisted(P2), trials=trials)


@pytest.mark.parametrize("suite, per_trial", [
    # (Theta, A), (Theta, B), L_A B and L_A C once per trial; axiom 3
    # brackets (Theta, A) with (B, C), and axiom 5 takes Q of (A, A)
    (verify_courant, 20),
    (verify_leibniz, 9),
], ids=["courant", "leibniz"])
def test_poisson_brackets_per_trial(monkeypatch, suite, per_trial):
    calls = 0
    stage = symplectic._bracket_pairs

    def counting(*args):
        nonlocal calls
        calls += 1
        return stage(*args)

    # every bracket, alone in poisson or one of a bracket_sum, stages its
    # derivative pairs here
    monkeypatch.setattr(symplectic, "_bracket_pairs", counting)
    beta = DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))
    trials = 3
    assert suite(theta_vinogradov(P2, beta), trials=trials, seed=7).passed
    assert calls == per_trial * trials


@pytest.mark.parametrize("suite, theta", [
    (verify_courant, theta_vinogradov(P2, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2)))),
    (verify_leibniz, untwisted(M5)),
], ids=["courant", "leibniz-m5"])
def test_brackets_leave_the_memo_as_derived(monkeypatch, suite, theta):
    """Every argument of a trial's brackets keeps its coefficients, its
    memoised derivatives equal a fresh derivation of a copy in the same
    letters, and a kept (Theta, A) equals `poisson(theta.element, copy)`."""
    args = {}
    stage = symplectic._bracket_pairs

    def recording(f, g, sign):
        for e in (f, g):
            if id(e) not in args:  # p * 1 copies the numerators
                args[id(e)] = (e, GradedElement(e.chart, {m: p * 1 for m, p
                                                         in e.terms.items()}))
        return stage(f, g, sign)

    monkeypatch.setattr(symplectic, "_bracket_pairs", recording)
    assert suite(theta, trials=1, seed=5).passed
    monkeypatch.undo()  # rederived brackets again, for a kept (Theta, A)
    for e, copy in args.values():
        assert e.terms == copy.terms
        # every argument here was derived on a side
        assert e._derivs is not None
        assert e._derivs == rederived(copy, e._derivs)
    assert all(e._derivs[4][0] is theta.element for e, _ in args.values()
               if e._derivs[4] is not None)
    # A and B at least (Courant's chain complex also anchors rho*(lam1))
    assert sum(e._derivs[4] is not None for e, _ in args.values()) >= 2


def _twists():
    x4 = [Poly.var(4, mu) for mu in range(1, 5)]
    x6 = Poly.var(6, 5)
    return [
        # closed: top-degree twists on v(3,2) and v(4,3), (x1 + 2) dx1234 on m5(6)
        (theta_vinogradov(P2, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))), False),
        (theta_vinogradov(P3, DiffForm.basis(4, (1, 2, 3, 4),
                                             (1 + x4[0] - x4[2] * Fraction(1, 2)) ** 2)),
         False),
        (theta_m5(M5, DiffForm.basis(6, (1, 2, 3, 4), Poly.var(6, 1) + 2)), False),
        # not closed, so the Leibniz defect is nonzero on some triple
        (theta_vinogradov(make_chart("vinogradov", 4, 2),
                          DiffForm.basis(4, (1, 2, 3), x4[3] * Fraction(1, 2) + 1)), True),
        (theta_m5(M5, DiffForm.basis(6, (1, 2, 3, 4), x6 * Fraction(2, 3))), True),
    ]


@pytest.mark.parametrize("theta, open_twist", _twists(),
                         ids=["v32", "v43", "m5-closed", "v42-open", "m5-open"])
def test_fused_leibniz_defect_is_the_commutator_minus_the_third_term(theta,
                                                                    open_twist):
    """The defect summed in one accumulator equals, exactly, the commutator
    L_A(L_B C) - L_B(L_A C) as one sum minus L_{L_A B} C built on its own,
    each taken on fresh copies of the sections."""
    chart = theta.chart
    sign = algebroid.derived_sign(chart)
    rng = random.Random(2024)
    nonzero = 0
    for _ in range(6):
        sections, (A, B, C), (QA, LAB, LAC) = algebroid._trial(theta, rng, 2)
        fused = algebroid._leibniz_defect(theta, QA, B, C, LAB, LAC)
        A, B, C = (encode_section(chart, sec) for sec in sections)
        QA, QB = q_apply(theta, A), q_apply(theta, B)
        LAB, LAC = symplectic.poisson(QA, B, sign), symplectic.poisson(QA, C, sign)
        commutator = symplectic.bracket_sum(chart, (
            (QA, symplectic.poisson(QB, C, sign), sign), (QB, LAC, -sign)))
        assert fused == commutator - dorfman(theta, LAB, C)
        nonzero += not fused.is_zero()
    assert bool(nonzero) == open_twist


def test_sections_keep_their_q_per_hamiltonian(monkeypatch):
    """Three L_A brackets and one anchor of A take (Theta, A) once; under a
    second hamiltonian on the chart, A's (Theta, A) is taken again, and
    every result equals one from a fresh `q_apply`."""
    taken = []
    stage = symplectic._bracket_pairs

    def recording(f, g, sign):
        taken.append((f, g))
        return stage(f, g, sign)

    monkeypatch.setattr(symplectic, "_bracket_pairs", recording)
    rng = random.Random(8)
    A, B, C = (encode_section(P2, random_section(rng, P2)) for _ in range(3))
    f = random_poly(rng, 3, 2)
    sign = algebroid.derived_sign(P2)
    thetas = [theta_vinogradov(P2, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))),
              theta_vinogradov(P2, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 1) - 3))]
    for theta in thetas + thetas[:1]:
        before = len(taken)
        got = [dorfman(theta, A, X) for X in (B, C, A)] + [anchor(theta, A, f)]
        assert [g for f_, g in taken[before:] if f_ is theta.element] == [A]
        QA = q_apply(theta, GradedElement(P2, dict(A.terms)))
        fe = GradedElement.from_poly(P2, f)
        assert got == [symplectic.poisson(QA, X, sign) for X in (B, C, A)] \
            + [algebroid._scalar_of(symplectic.poisson(QA, fe, sign))]
        assert A._derivs[4][0] is theta.element


@pytest.mark.parametrize("kind", ["vinogradov", "m5"])
def test_suites_leave_the_chart_elements_intact(kind):
    """Every suite run on one chart shares its generators and kinetic term;
    afterwards each keeps the terms it was built with, and each memo equals
    a fresh derivation of a copy in the same letters."""
    gen = GradedElement.generator
    if kind == "vinogradov":
        chart = make_chart("vinogradov", 3, 2)
        theta = theta_vinogradov(chart, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2)))
        assert verify_courant(theta, trials=2, seed=3).passed
        R = gen(chart, "x3") * gen(chart, "psi1") * gen(chart, "psi2")
    else:
        chart = make_chart("m5", 6)
        theta = theta_m5(chart, DiffForm.basis(6, (1, 2, 3, 4), Poly.var(6, 1)))
        R = gen(chart, "x4") * gen(chart, "zeta") * embed_form(
            chart, DiffForm.basis(6, (1, 2, 3)))
    assert master_equation(theta)[1]
    assert q_square_check(theta, samples=4, seed=3).passed
    assert verify_leibniz(theta, trials=2, seed=3).passed
    assert gauge_exp(R, theta.element) != theta.element
    names = [g.name for g in chart.xs + chart.supers]
    assert set(chart._elements) == set(names) | {npq._KINETIC}
    other = make_chart(kind, chart.d, chart.p)  # an equal, new chart
    for key, e in chart._elements.items():
        built = kinetic_term(other) if key == npq._KINETIC else gen(other, key)
        assert e.terms == built.terms
        if key != npq._KINETIC:
            assert e._derivs[0] is not None  # every probe was derived on the left
        if e._derivs is not None:
            assert e._derivs == rederived(built, e._derivs)


def test_right_passes_build_no_x_partials(monkeypatch):
    """x-partials are the same on both sides, so only an element's left
    pass builds them: after a Courant trial, a Leibniz trial and a gauge
    transformation, no right memo holds one."""
    derived = {}
    derive = symplectic._derive

    def recording(f, *args):
        derived[id(f)] = f
        return derive(f, *args)

    monkeypatch.setattr(symplectic, "_derive", recording)
    beta = DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))
    assert verify_courant(theta_vinogradov(P2, beta), trials=1, seed=5).passed
    x = [Poly.var(4, mu) for mu in range(1, 5)]
    hflux = DiffForm.basis(4, (1, 2, 3, 4),
                           (1 + x[0] + 2 * x[1] - x[2] + Fraction(1, 2) * x[3]) ** 3)
    theta = theta_vinogradov(P3, hflux)
    assert verify_leibniz(theta, trials=1, seed=5).passed
    rho = DiffForm.basis(4, (1, 2, 4), x[0] * x[2] + x[3])
    assert gauge_exp(embed_form(P3, rho), theta.element) \
        == theta_vinogradov(P3, hflux + ext_d(rho)).element
    left = [e._derivs[0] for e in derived.values() if e._derivs[0]]
    right = [e._derivs[1] for e in derived.values() if e._derivs[1]]
    assert right and any(tag < 0 for memo in left for tag in memo)
    assert [tag for memo in right for tag in memo if tag < 0] == []


def test_no_letter_is_derived_twice(monkeypatch):
    """Across a Courant trial and an m5 Leibniz trial, each element is
    derived at most once per side in each letter: a left map that needs
    more letters is widened by the missing ones only."""
    derived, passes = [], []
    derive = symplectic._derive

    def recording(f, from_right, odd, first):
        out = derive(f, from_right, odd, first)
        passes.append((f, from_right))  # keeps f alive, so no id is reused
        derived.extend((id(f), from_right, tag) for tag in out)
        return out

    monkeypatch.setattr(symplectic, "_derive", recording)
    beta = DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))
    assert verify_courant(theta_vinogradov(P2, beta), trials=1, seed=5).passed
    assert verify_leibniz(untwisted(make_chart("m5", 6)), trials=1, seed=5).passed
    assert len(derived) == len(set(derived))
    # the trials widen left maps: some element is derived by a second pass
    sides = [(id(f), side) for f, side in passes]
    assert len(set(sides)) < len(sides)
