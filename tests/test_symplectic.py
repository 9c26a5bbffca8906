"""Poisson bracket conformance, graded algebra laws, gauge symplectomorphisms."""

import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (DiffForm, GaugeError, GradedElement, Poly, encode_section,
                     gauge_exp, kinetic_term, make_chart, master_equation,
                     monomial_basis, parse_config, poisson, q_apply,
                     theta_vinogradov)
from gradedq.randomgen import random_homogeneous, random_section
from test_kernel import reference_partial as strike_letter

DATA = pathlib.Path(__file__).parent / "data"
CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
          make_chart("m5", 6)]


def sign(k: int) -> int:
    return -1 if k % 2 else 1


def gen(chart, name):
    return GradedElement.generator(chart, name)


def delta(chart, mu, nu):
    return GradedElement.from_poly(chart, Poly.const(chart.d, 1 if mu == nu else 0))


# ---------------------------------------------------------------------
# generator pairing table
# ---------------------------------------------------------------------

@pytest.mark.parametrize("chart", CHARTS, ids=repr)
class TestPairingTable:
    def test_psi_chi(self, chart):
        for mu in range(1, chart.d + 1):
            for nu in range(1, chart.d + 1):
                psi, chi = gen(chart, f"psi{mu}"), gen(chart, f"chi{nu}")
                assert poisson(psi, chi) == delta(chart, mu, nu)
                assert poisson(chi, psi) == delta(chart, mu, nu) * sign(chart.p)

    def test_x_p(self, chart):
        for mu in range(1, chart.d + 1):
            for nu in range(1, chart.d + 1):
                x, p = gen(chart, f"x{mu}"), gen(chart, f"p{nu}")
                assert poisson(p, x) == delta(chart, mu, nu)
                assert poisson(x, p) == -delta(chart, mu, nu)

    def test_all_other_generator_pairs_vanish(self, chart):
        names = [g.name for g in chart.xs] + [g.name for g in chart.supers]
        nonzero = {("psi", "chi"), ("chi", "psi"), ("x", "p"), ("p", "x"),
                   ("zeta", "zeta")}
        for a in names:
            for b in names:
                fa = "zeta" if a == "zeta" else a.rstrip("0123456789")
                fb = "zeta" if b == "zeta" else b.rstrip("0123456789")
                ia = 0 if a == "zeta" else int(a[len(fa):])
                ib = 0 if b == "zeta" else int(b[len(fb):])
                br = poisson(gen(chart, a), gen(chart, b))
                if (fa, fb) in nonzero and ia == ib:
                    assert not br.is_zero()
                else:
                    assert br.is_zero(), (a, b)

    def test_zeta_self_pairing(self, chart):
        if chart.kind != "m5":
            pytest.skip("zeta exists on the m5 chart only")
        zeta = gen(chart, "zeta")
        assert poisson(zeta, zeta) == GradedElement.from_poly(chart, Poly.const(chart.d, 1))


# ---------------------------------------------------------------------
# graded Poisson laws on random homogeneous triples
# ---------------------------------------------------------------------

@pytest.mark.parametrize("chart", CHARTS, ids=repr)
class TestPoissonLaws:
    TRIALS = 40

    def triples(self, chart, seed):
        rng = random.Random(seed)
        for _ in range(self.TRIALS):
            degs = [rng.randint(0, chart.p + 1) for _ in range(3)]
            yield degs, [random_homogeneous(rng, chart, n) for n in degs]

    def test_degree_shift(self, chart):
        rng = random.Random(1)
        for _ in range(20):
            nf, ng = rng.randint(0, chart.p + 1), rng.randint(0, chart.p + 1)
            f = random_homogeneous(rng, chart, nf)
            g = random_homogeneous(rng, chart, ng)
            br = poisson(f, g)
            if not br.is_zero():
                assert br.euler_degree() == nf + ng - chart.p

    def test_graded_symmetry(self, chart):
        for (nf, ng, _), (f, g, _) in self.triples(chart, 2):
            shifted = (nf - chart.p) * (ng - chart.p)
            assert poisson(f, g) == poisson(g, f) * -sign(shifted)

    def test_graded_leibniz(self, chart):
        for (nf, ng, _), (f, g, h) in self.triples(chart, 3):
            lhs = poisson(f, g * h)
            rhs = poisson(f, g) * h + g * poisson(f, h) * sign((nf - chart.p) * ng)
            assert lhs == rhs

    def test_graded_jacobi(self, chart):
        for (nf, ng, _), (f, g, h) in self.triples(chart, 4):
            lhs = poisson(f, poisson(g, h))
            rhs = poisson(poisson(f, g), h) \
                + poisson(g, poisson(f, h)) * sign((nf - chart.p) * (ng - chart.p))
            assert lhs == rhs


# ---------------------------------------------------------------------
# the bracket against the per-pairing-entry formula
# ---------------------------------------------------------------------

def reference_partial(f, tag, from_right):
    """The derivative of f in one tagged generator (a sid, or -mu for
    x^mu), term by term; a monomial by striking one letter, so the
    reference shares no derivative code with `poisson`."""
    chart = f.chart
    terms = {}
    for mono, poly in f.terms.items():
        if tag < 0:
            i = -tag - 1
            terms[mono] = Poly(chart.d, {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i]
                                         for exp, c in poly.terms.items() if exp[i]})
        else:
            coeff, reduced = strike_letter(mono, tag, chart.parity, from_right)
            if coeff:
                terms[reduced] = poly * coeff
    return GradedElement(chart, terms)


def reference_poisson(f, g):
    """sum over the pairing table of (d_r f / dz^a) * pi^ab * (d_l g / dz^b)."""
    out = GradedElement.zero(f.chart)
    for a, (b, const) in f.chart.partner.items():
        out = out + (reference_partial(f, a, True)
                     * reference_partial(g, b, False)) * const
    return out


REFERENCE_CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
                    make_chart("vinogradov", 2, 5), make_chart("m5", 6)]


@st.composite
def elements(draw, chart):
    """Zero, a constant, one generator, or a random sum of monomials of one
    degree (homogeneous) or of up to three degrees (inhomogeneous), with
    rational coefficients in x."""
    kind = draw(st.sampled_from(["zero", "constant", "generator",
                                 "homogeneous", "inhomogeneous"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "zero":
        return GradedElement.zero(chart)
    if kind == "constant":
        return GradedElement.from_poly(chart, Poly.const(chart.d, rng.randint(-3, 3)))
    if kind == "generator":
        names = [g.name for g in chart.xs + chart.supers]
        return GradedElement.generator(chart, rng.choice(names))
    degrees = [n for n in range(chart.p + 2) if monomial_basis(chart, n)]
    out = GradedElement.zero(chart)
    for n in rng.sample(degrees, 1 if kind == "homogeneous" else rng.randint(2, 3)):
        part = random_homogeneous(rng, chart, n, terms=3)
        out = out + part * Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
    return out


@pytest.mark.parametrize("chart", REFERENCE_CHARTS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_poisson_matches_reference(chart, data):
    f = data.draw(elements(chart), label="f")
    g = data.draw(elements(chart), label="g")
    assert poisson(f, g) == reference_poisson(f, g)


def fresh(f):
    """A copy of f with no memoised derivatives."""
    return GradedElement(f.chart, dict(f.terms))


@st.composite
def theta_like(draw, chart):
    """A chi-free element like the Theta this code builds: the kinetic
    term, a drawn element with its chi-terms dropped, and x1 psi1, so its
    coefficients use x."""
    chi = {chart.sid("chi", mu) for mu in range(1, chart.d + 1)}
    e = draw(elements(chart))
    return (kinetic_term(chart) + gen(chart, "x1") * gen(chart, "psi1")
            + GradedElement(chart, {m: p for m, p in e.terms.items()
                                    if not any(sid in chi for sid, _ in m)}))


@pytest.mark.parametrize("chart", REFERENCE_CHARTS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_narrowed_and_widened_memos_match_reference(chart, data):
    """A right argument is derived on the left only in the odd letters its
    left argument pairs with; a later bracket that needs more widens that
    map, and a self-bracket reads its x-partials without widening the map
    it walks.  Every bracket matches the reference on fresh copies."""
    f = data.draw(theta_like(chart), label="f")
    g = fresh(data.draw(elements(chart), label="g"))  # a generator is shared
    h = data.draw(elements(chart), label="h")
    # a bracket that needs every letter: its letters pair with every odd
    # one, and at odd p its x^mu with every (odd) momentum
    full = sum((gen(chart, n.name) for n in chart.xs + chart.supers),
               GradedElement.zero(chart))
    psi = sum(chart.unit[chart.sid("psi", mu)] for mu in range(1, chart.d + 1))

    def check(*brackets):
        for a, b in brackets:
            assert poisson(a, b) == reference_poisson(fresh(a), fresh(b))

    check((f, g))
    # f holds no chi, so no psi of g pairs with it
    assert g._derivs[2] == f._derivs[3] and not f._derivs[3] & psi
    check((f, gen(chart, "p1")), (f, f))
    assert f._derivs[2] == f._derivs[3]
    check((g, g), (full, g), (full, full), (g, f))
    assert full._derivs[3] == chart.odd_mask == g._derivs[2]
    check((full + h, h), (h, full + h), (h, h))


def canonical_coefficients(e):
    """Every coefficient in `Poly` canonical form: a positive denominator
    sharing no factor with the numerators, none of them zero."""
    return all(p.den > 0 and gcd(p.den, *p.nums.values()) == 1
               and all(type(n) is int and n for n in p.nums.values())
               for p in e.terms.values())


@pytest.mark.parametrize("chart", [make_chart("vinogradov", 3, 2),
                                   make_chart("vinogradov", 4, 3),
                                   make_chart("m5", 8)], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                   st.integers(1, 6)))
def test_poisson_coefficients_are_canonical(chart, data, c):
    f = data.draw(elements(chart), label="f") * c
    g = data.draw(elements(chart), label="g")
    # (f, f) and (f + g, f + g) cancel term by term on graded-symmetric input
    for a, b in ((f, g), (f, f), (f + g, f + g)):
        bracket = poisson(a, b)
        assert canonical_coefficients(bracket)
        assert bracket == reference_poisson(a, b)


def test_bracket_with_polynomial_coefficients():
    # the orientation that makes Q act as psi^mu d/dx^mu
    chart = make_chart("vinogradov", 3, 2)
    x1, x2 = gen(chart, "x1"), gen(chart, "x2")
    p1 = gen(chart, "p1")
    assert poisson(x1 * x2, p1) == -x2
    assert poisson(p1, x1 * x2) == x2


class TestXPartialsFromTheLeftMemo:
    """A bracket (f, g) whose g carries a momentum reads f's x-partials
    from f's left memo, the only pass that builds them."""

    @pytest.mark.parametrize("name", ["golden_fail.json", "m5.json"])
    def test_master_equation(self, name):
        theta = parse_config((DATA / name).read_text()).theta
        bracket, _ = master_equation(theta)
        assert bracket == reference_poisson(theta.element, theta.element)

    def test_element_derived_on_the_right_first(self):
        chart = make_chart("vinogradov", 3, 2)
        theta = theta_vinogradov(chart, DiffForm.basis(3, (1, 2, 3), Poly.var(3, 2)))
        rng = random.Random(4)
        A, B = (encode_section(chart, random_section(rng, chart, 2)) for _ in range(2))
        QA = q_apply(theta, A)
        poisson(QA, B)  # a section carries no momentum
        assert QA._derivs[0] is None and QA._derivs[1] is not None
        p1 = gen(chart, "p1")
        assert poisson(QA, p1) == reference_poisson(QA, p1)
        # read in no odd letter: even letters and x-partials only
        assert QA._derivs[0] is not None and QA._derivs[2] == 0


# ---------------------------------------------------------------------
# gauge symplectomorphisms
# ---------------------------------------------------------------------

class TestGaugeExp:
    def test_identity_on_zero_generator(self):
        chart = make_chart("vinogradov", 3, 2)
        f = gen(chart, "p1")
        assert gauge_exp(GradedElement.zero(chart), f) == f

    def test_shifts_momentum_by_twist(self):
        # R = x1 psi1 psi2 adds a (d rho)-type term to p-linear elements
        chart = make_chart("vinogradov", 3, 2)
        R = gen(chart, "x1") * gen(chart, "psi1") * gen(chart, "psi2")
        f = gen(chart, "p1")
        out = gauge_exp(R, f)
        assert out == f + poisson(f, R)

    def test_wrong_degree_rejected(self):
        chart = make_chart("vinogradov", 3, 2)
        with pytest.raises(GaugeError):
            gauge_exp(gen(chart, "psi1"), gen(chart, "p1"))

    def test_preserves_brackets(self):
        rng = random.Random(9)
        for chart in (make_chart("vinogradov", 3, 2), make_chart("vinogradov", 3, 3)):
            from gradedq.npq import embed_form
            from gradedq.randomgen import random_form
            for _ in range(8):
                R = embed_form(chart, random_form(rng, chart.d, chart.p))
                f = random_homogeneous(rng, chart, rng.randint(0, chart.p))
                g = random_homogeneous(rng, chart, rng.randint(0, chart.p))
                lhs = gauge_exp(R, poisson(f, g))
                rhs = poisson(gauge_exp(R, f), gauge_exp(R, g))
                assert lhs == rhs

    def test_non_terminating_series_is_an_error(self):
        # R depending on momenta does not truncate on x-polynomials
        chart = make_chart("vinogradov", 1, 2)
        R = gen(chart, "x1") * gen(chart, "x1") * gen(chart, "p1")
        f = gen(chart, "x1")
        with pytest.raises(GaugeError):
            gauge_exp(R, f)

    def test_series_results_are_int_when_integral(self):
        # the series divides by 2! and 3!, but (x1 - x2)^3 has integral
        # coefficients: the view must hold them as int, not as Fraction
        chart = make_chart("vinogradov", 2, 2)
        R = gen(chart, "x2") * gen(chart, "p1")
        out = gauge_exp(R, gen(chart, "x1") * gen(chart, "x1") * gen(chart, "x1"))
        values = [c for poly in out.terms.values() for c in poly.terms.values()]
        assert sorted(values) == [-3, -1, 1, 3]
        assert all(type(c) is int for c in values)

    def test_series_denominators_are_exact(self):
        def exact(element):
            # int or Fraction only: no float, and no bool posing as an int
            return all(type(c) in (int, Fraction)
                       for poly in element.terms.values() for c in poly.terms.values())

        chart = make_chart("vinogradov", 1, 2)
        # R = x1^2 p1 truncates on p1 after the quadratic term? it does not;
        # use a psi-chi generator with nilpotent adjoint instead
        R = gen(chart, "x1") * gen(chart, "psi1") * gen(chart, "chi1")
        f = gen(chart, "p1")
        out = gauge_exp(R, f)
        assert exact(out)
        assert out == f + gen(chart, "psi1") * gen(chart, "chi1")

        # R = x2 p1 generates x1 -> x1 - x2; on x1^3 the series runs to k = 3
        # and divides by 2! and 3! on the way
        chart = make_chart("vinogradov", 2, 2)
        R = gen(chart, "x2") * gen(chart, "p1")
        x1_minus_x2 = gen(chart, "x1") - gen(chart, "x2")
        out = gauge_exp(R, gen(chart, "x1") * gen(chart, "x1") * gen(chart, "x1"))
        assert exact(out)
        assert out == x1_minus_x2 * x1_minus_x2 * x1_minus_x2
        assert str(out) == "x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3"
