"""Homological hamiltonians: master equation, Q^2, twists, gauge covariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (DiffForm, GradedElement, HamiltonianError, Poly,
                     embed_form, ext_d, gauge_exp, kinetic_term, make_chart,
                     master_equation, npq, q_apply, q_square_check, parse_poly,
                     symplectic, theta_m5, theta_vinogradov, wedge)
from gradedq.randomgen import random_form, random_homogeneous


def gen(chart, name):
    return GradedElement.generator(chart, name)


def fresh(f):
    """A copy of f with no memoised derivatives."""
    return GradedElement(f.chart, dict(f.terms))


def extract_form(chart, f, rank):
    """Inverse of embed_form on pure psi-elements of the given rank."""
    omega = DiffForm(chart.d, rank)
    for mono, poly in f.terms.items():
        gens = [(chart.generator(sid), e) for sid, e in mono]
        assert [(g.family, e) for g, e in gens] == [("psi", 1)] * rank
        omega.add_term(tuple(g.index for g, _ in gens), poly)
    return omega


class TestEmbedding:
    def test_embed_extract_roundtrip(self):
        rng = random.Random(41)
        chart = make_chart("vinogradov", 4, 3)
        for _ in range(20):
            r = rng.randint(0, 4)
            omega = random_form(rng, 4, r)
            assert extract_form(chart, embed_form(chart, omega), r) == omega

    def test_embed_coefficients_are_one(self):
        chart = make_chart("vinogradov", 3, 2)
        omega = DiffForm.basis(3, (1, 3), Poly.var(3, 2))
        e = embed_form(chart, omega)
        mono = ((chart.sid("psi", 1), 1), (chart.sid("psi", 3), 1))
        assert e.terms == {mono: Poly.var(3, 2)}

    def test_kinetic_term_shape(self):
        chart = make_chart("vinogradov", 2, 2)
        kin = kinetic_term(chart)
        assert kin.euler_degree() == chart.p + 1
        assert kin == gen(chart, "psi1") * gen(chart, "p1") \
            + gen(chart, "psi2") * gen(chart, "p2")

    def test_kinetic_term_shared_per_chart(self):
        chart = make_chart("vinogradov", 2, 2)
        kin = kinetic_term(chart)
        assert kinetic_term(chart) is kin
        theta = theta_vinogradov(chart)
        assert theta.element == kin and theta.element is not kin
        other = make_chart("vinogradov", 2, 2)  # an equal, new chart
        assert kinetic_term(other) == kin and kinetic_term(other) is not kin


class TestHamiltonianConstruction:
    def test_degree_validation(self):
        chart = make_chart("vinogradov", 3, 2)
        theta = theta_vinogradov(chart, DiffForm.basis(3, (1, 2, 3)))
        assert theta.element.euler_degree() == 3
        with pytest.raises(HamiltonianError) as err:
            theta_vinogradov(chart, DiffForm.basis(3, (1, 2)))
        assert str(err.value) == "beta must have rank 3, got 2"

    def test_chart_kind_validation(self):
        with pytest.raises(HamiltonianError) as err:
            theta_vinogradov(make_chart("m5", 3))
        assert str(err.value) == "vinogradov hamiltonian needs a vinogradov chart, got m5"
        with pytest.raises(HamiltonianError) as err:
            theta_m5(make_chart("vinogradov", 3, 2))
        assert str(err.value) == "m5 hamiltonian needs an m5 chart, got vinogradov"

    def test_m5_rank_validation(self):
        chart = make_chart("m5", 8)
        with pytest.raises(HamiltonianError) as err:
            theta_m5(chart, F4=DiffForm.zero(8, 3))
        assert str(err.value) == "F4 must have rank 4, got 3"
        with pytest.raises(HamiltonianError) as err:
            theta_m5(chart, F7=DiffForm.zero(8, 6))
        assert str(err.value) == "F7 must have rank 7, got 6"

    def test_f7_trivial_below_rank(self):
        # a 7-form on 6 variables embeds to zero
        chart = make_chart("m5", 6)
        theta = theta_m5(chart, F7=DiffForm.zero(6, 7))
        zeta4 = (gen(chart, "zeta") * embed_form(chart, DiffForm.zero(6, 4)))
        assert theta.element == kinetic_term(chart) + zeta4


class TestQAction:
    def test_q_is_psi_d_on_functions(self):
        chart = make_chart("vinogradov", 3, 2)
        theta = theta_vinogradov(chart)
        assert q_apply(theta, gen(chart, "x1")) == gen(chart, "psi1")
        f = gen(chart, "x1") * gen(chart, "x2")
        expect = gen(chart, "psi1") * gen(chart, "x2") + gen(chart, "psi2") * gen(chart, "x1")
        assert q_apply(theta, f) == expect

    def test_q_raises_degree_by_one(self):
        rng = random.Random(42)
        chart = make_chart("vinogradov", 4, 3)
        theta = theta_vinogradov(chart, DiffForm.basis(4, (1, 2, 3, 4), Poly.var(4, 1)))
        for _ in range(10):
            f = random_homogeneous(rng, chart, rng.randint(0, 3))
            out = q_apply(theta, f)
            if not out.is_zero():
                assert out.euler_degree() == f.euler_degree() + 1

    def test_cross_engine_differential(self):
        # Q on a psi-embedded form equals the embedded exterior derivative
        rng = random.Random(43)
        for chart in (make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3)):
            theta = theta_vinogradov(chart)
            for _ in range(20):
                omega = random_form(rng, chart.d, rng.randint(0, chart.d - 1))
                lhs = q_apply(theta, embed_form(chart, omega))
                assert lhs == embed_form(chart, ext_d(omega))


class TestMasterEquation:
    def test_untwisted_closes(self):
        for chart in (make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
                      make_chart("m5", 6)):
            theta = (theta_m5(chart) if chart.kind == "m5"
                     else theta_vinogradov(chart))
            _, ok = master_equation(theta)
            assert ok

    def test_iff_beta_closed(self):
        rng = random.Random(44)
        seen_closed = seen_open = 0
        for _ in range(30):
            p = rng.choice([2, 3])
            d = rng.randint(p + 1, 4)
            chart = make_chart("vinogradov", d, p)
            beta = random_form(rng, d, p + 1)
            theta = theta_vinogradov(chart, beta)
            _, ok = master_equation(theta)
            assert ok == ext_d(beta).is_zero()
            seen_closed += ok
            seen_open += not ok
        assert seen_closed and seen_open

    def test_exact_twists_close(self):
        rng = random.Random(45)
        for p in (2, 3):
            d = p + 2
            chart = make_chart("vinogradov", d, p)
            beta = ext_d(random_form(rng, d, p))
            _, ok = master_equation(theta_vinogradov(chart, beta))
            assert ok

    def test_m5_bianchi_witness(self):
        chart = make_chart("m5", 8)
        F4 = DiffForm.basis(8, (1, 2, 3, 4)) + DiffForm.basis(8, (5, 6, 7, 8))
        F7 = DiffForm.basis(8, (2, 3, 4, 5, 6, 7, 8), Poly.var(8, 1) * (-1))
        assert (ext_d(F7) + wedge(F4, F4) * Fraction(1, 2)).is_zero()
        _, ok = master_equation(theta_m5(chart, F4, F7))
        assert ok
        # dropping the 7-form twist breaks the Bianchi identity
        _, ok0 = master_equation(theta_m5(chart, F4, DiffForm.zero(8, 7)))
        assert not ok0
        # halving the coefficient breaks it too
        Fhalf = F7 * Fraction(1, 2)
        assert not (ext_d(Fhalf) + wedge(F4, F4) * Fraction(1, 2)).is_zero()
        _, okh = master_equation(theta_m5(chart, F4, Fhalf))
        assert not okh

    def test_m5_iff_sweep(self):
        from gradedq import poincare_primitive
        rng = random.Random(46)
        chart = make_chart("m5", 8)
        seen_pass = seen_fail = 0
        for k in range(10):
            if k % 2 == 0:
                # exact F4, F7 = primitive of -1/2 F4^F4: Bianchi holds
                F4 = ext_d(random_form(rng, 8, 3, components=1))
                src = wedge(F4, F4) * Fraction(-1, 2)
                F7 = (poincare_primitive(src) if not src.is_zero()
                      else DiffForm.zero(8, 7))
            else:
                # non-closed F4 with a polynomial coefficient
                mu = rng.randint(5, 8)
                F4 = DiffForm.basis(8, (1, 2, 3, 4), Poly.var(8, mu))
                F7 = random_form(rng, 8, 7, components=1)
            expected = (ext_d(F4).is_zero()
                        and (ext_d(F7) + wedge(F4, F4) * Fraction(1, 2)).is_zero())
            _, ok = master_equation(theta_m5(chart, F4, F7))
            assert ok == expected
            seen_pass += expected
            seen_fail += not expected
        assert seen_pass and seen_fail


class TestQSquare:
    def test_matches_master_equation(self):
        rng = random.Random(47)
        for _ in range(10):
            p = rng.choice([2, 3])
            d = rng.randint(p + 1, 4)
            chart = make_chart("vinogradov", d, p)
            theta = theta_vinogradov(chart, random_form(rng, d, p + 1))
            suite = q_square_check(theta, samples=4, seed=rng.randint(0, 99))
            _, ok = master_equation(theta)
            assert suite.passed == ok

    def test_failure_carries_witness(self):
        chart = make_chart("vinogradov", 4, 2)
        beta = DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4))
        suite = q_square_check(theta_vinogradov(chart, beta), samples=2, seed=0)
        assert not suite.passed
        assert any(c.witnesses for c in suite.checks if not c.passed)

    def test_reports_on_a_shared_chart_match_fresh_charts(self):
        # the probes persist on the chart, derivative memos included, so a
        # Bianchi-failing and then a passing Theta on one chart must report
        # exactly what each reports on a chart of its own
        def thetas(chart):
            F4 = DiffForm.basis(8, (1, 2, 3, 4)) + DiffForm.basis(8, (5, 6, 7, 8))
            F7 = DiffForm.basis(8, (2, 3, 4, 5, 6, 7, 8), Poly.var(8, 1) * (-1))
            return (theta_m5(chart, DiffForm.basis(8, (1, 2, 3, 4), Poly.var(8, 5))),
                    theta_m5(chart, F4, F7))

        shared = make_chart("m5", 8)
        on_shared = [q_square_check(theta, samples=4, seed=7).to_dict()
                     for theta in thetas(shared)]
        on_fresh = [q_square_check(thetas(make_chart("m5", 8))[i], samples=4,
                                   seed=7).to_dict() for i in (0, 1)]
        assert [r["status"] for r in on_shared] == ["FAIL", "PASS"]
        assert on_shared == on_fresh


def _m5_closed():
    F4 = DiffForm.basis(8, (1, 2, 3, 4)) + DiffForm.basis(8, (5, 6, 7, 8))
    F7 = DiffForm.basis(8, (2, 3, 4, 5, 6, 7, 8), Poly.var(8, 1) * (-1))
    return theta_m5(make_chart("m5", 8), F4, F7)


# A top-degree twist is always closed, so the non-closed vinogradov twists
# live one dimension up: v(4, 2) next to v(3, 2), v(5, 3) next to v(4, 3).
THETAS = {
    "v(3,2) closed": theta_vinogradov(make_chart("vinogradov", 3, 2),
                                      DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2))),
    "v(4,2) non-closed": theta_vinogradov(make_chart("vinogradov", 4, 2),
                                          DiffForm.basis(4, (1, 2, 3), Poly.var(4, 4))),
    "v(4,3) closed": theta_vinogradov(
        make_chart("vinogradov", 4, 3),
        DiffForm.basis(4, (1, 2, 3, 4), parse_poly("(1 + x1 + 2*x2 - x3)^2", 4))),
    "v(5,3) non-closed": theta_vinogradov(make_chart("vinogradov", 5, 3),
                                          DiffForm.basis(5, (1, 2, 3, 4), Poly.var(5, 5))),
    "m5(8) closed": _m5_closed(),
    "m5(8) non-closed": theta_m5(make_chart("m5", 8),
                                 DiffForm.basis(8, (1, 2, 3, 4), Poly.var(8, 5))),
}


class TestThetaDerivatives:
    """Q = (Theta, -) with Theta's derivatives built once per hamiltonian
    agrees with the bracket that derives Theta afresh."""

    @pytest.mark.parametrize("name", THETAS)
    def test_master_equation_bracket(self, name):
        theta = THETAS[name]
        bracket, ok = master_equation(theta)
        assert bracket == symplectic.poisson(fresh(theta.element), fresh(theta.element))
        assert ok == name.endswith(" closed")

    @pytest.mark.parametrize("name", THETAS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), degree=st.integers(0, 4))
    def test_q_apply_matches_uncached_bracket(self, name, seed, degree):
        theta = THETAS[name]
        rng = random.Random(seed)
        f = random_homogeneous(rng, theta.chart, degree)
        f = f + random_homogeneous(rng, theta.chart, degree) * Poly.var(theta.chart.d, 1)
        assert q_apply(theta, f) == symplectic.poisson(fresh(theta.element), fresh(f))

    def test_theta_derived_once_per_letter(self, monkeypatch):
        # every (side, letter) of Theta is derived by one pass: the right
        # pass of the first Q, and on the left the pass that first reads
        # its x-partials plus the widening that (Theta, Theta) needs
        derived = []
        derive = symplectic._derive

        def recording(f, from_right, odd, first):
            out = derive(f, from_right, odd, first)
            derived.extend((f, from_right, tag) for tag in out)
            return out

        monkeypatch.setattr(symplectic, "_derive", recording)
        for name in ("v(4,2) non-closed", "v(5,3) non-closed", "m5(8) closed"):
            theta = THETAS[name]
            new = npq.Hamiltonian(theta.chart, fresh(theta.element), theta.twist)
            suite = q_square_check(new, samples=8, seed=3)
            bracket, ok = master_equation(new)
            assert suite.passed == ok
            letters = [(side, tag) for f, side, tag in derived if f is new.element]
            assert len(letters) == len(set(letters))
            assert new.element._derivs[0] is not None
            assert new.element._derivs[1] is not None

    def test_m5_probes_are_not_derived_in_psi(self):
        # Theta holds no chi, so Q = (Theta, -) never reads a psi-derivative
        # of its argument, and no probe is derived in a psi on the left
        theta = theta_m5(make_chart("m5", 8),
                         DiffForm.basis(8, (1, 2, 3, 4), Poly.var(8, 5)))
        chart = theta.chart
        assert not q_square_check(theta, samples=8, seed=3).passed
        psi = {chart.sid("psi", mu) for mu in range(1, chart.d + 1)}
        probes = [gen(chart, g.name) for g in chart.xs + chart.supers]
        assert all(z._derivs is not None for z in probes)
        assert [tag for z in probes for tag in z._derivs[0] if tag in psi] == []


class TestGaugeCovariance:
    def test_theta_shifts_by_d_rho(self):
        rng = random.Random(48)
        for p in (2, 3):
            d = p + 2
            chart = make_chart("vinogradov", d, p)
            for _ in range(8):
                beta = random_form(rng, d, p + 1)
                rho = random_form(rng, d, p)
                theta = theta_vinogradov(chart, beta)
                moved = gauge_exp(embed_form(chart, rho), theta.element)
                target = theta_vinogradov(chart, beta + ext_d(rho)).element
                assert moved == target
