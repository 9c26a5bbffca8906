"""Charts, polynomials, and the graded supercommutative algebra."""

import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedq import (ChartError, DiffForm, GradedElement, Poly, PolyError,
                     PolyParseError, make_chart, monomial_basis, parse_poly)
from gradedq import element
from gradedq.element import INHOMOGENEOUS, monomial_at, monomial_count
from gradedq.randomgen import random_homogeneous, random_poly


def sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------

class TestChart:
    def test_vinogradov_degrees(self):
        chart = make_chart("vinogradov", 3, 2)
        fams = {(g.family, g.degree) for g in chart.supers}
        assert fams == {("psi", 1), ("chi", 1), ("p", 2)}
        assert all(g.degree == 0 for g in chart.xs)

    def test_vinogradov_p3_degrees(self):
        chart = make_chart("vinogradov", 4, 3)
        assert {(g.family, g.degree) for g in chart.supers} == \
            {("psi", 1), ("chi", 2), ("p", 3)}

    def test_m5_degrees(self):
        chart = make_chart("m5", 6)
        got = {(g.family, g.degree) for g in chart.supers}
        assert got == {("psi", 1), ("zeta", 3), ("chi", 5), ("p", 6)}
        assert chart.p == 6

    def test_canonical_order(self):
        chart = make_chart("m5", 2)
        names = [g.name for g in chart.supers]
        assert names == ["psi1", "psi2", "zeta", "chi1", "chi2", "p1", "p2"]

    def test_parity_follows_degree(self):
        for chart in (make_chart("vinogradov", 2, 2), make_chart("vinogradov", 2, 3),
                      make_chart("m5", 2)):
            for g in chart.supers:
                assert g.parity == g.degree % 2

    def test_bad_charts(self):
        for args, message in [
                (("vinogradov", 0, 2), "base dimension d must be >= 1, got 0"),
                (("vinogradov", 3, 1), "symplectic degree p must be >= 2, got 1"),
                (("m5", 3, 5), "m5 chart has fixed symplectic degree p=6"),
                (("weil", 3, 2), "unknown chart kind 'weil'"),
                (("vinogradov", 3), "vinogradov chart needs a symplectic degree p")]:
            with pytest.raises(ChartError) as exc:
                make_chart(*args)
            assert str(exc.value) == message

    # each chart's data as literals: the momentum flags (gauge_exp's series
    # budget reads them), repr, and the full pairing table {tag: (partner
    # tag, constant)}, with tag -mu for x^mu and the sid for a super generator
    @pytest.mark.parametrize("args, text, momentum, partner", [
        (("vinogradov", 2, 2), "ChartSpec(vinogradov, d=2, p=2)",
         (False, False, True, True, True, True),
         {-2: (5, -1), -1: (4, -1), 0: (2, 1), 1: (3, 1), 2: (0, 1), 3: (1, 1),
          4: (-1, 1), 5: (-2, 1)}),
        (("vinogradov", 2, 3), "ChartSpec(vinogradov, d=2, p=3)",
         (False, False, True, True, True, True),
         {-2: (5, -1), -1: (4, -1), 0: (2, 1), 1: (3, 1), 2: (0, -1), 3: (1, -1),
          4: (-1, 1), 5: (-2, 1)}),
        (("m5", 2), "ChartSpec(m5, d=2)",
         (False, False, True, True, True, True, True),
         {-2: (6, -1), -1: (5, -1), 0: (3, 1), 1: (4, 1), 2: (2, 1), 3: (0, 1),
          4: (1, 1), 5: (-1, 1), 6: (-2, 1)}),
    ], ids=["v22", "v23", "m5_2"])
    def test_chart_data_literals(self, args, text, momentum, partner):
        chart = make_chart(*args)
        assert repr(chart) == text
        assert chart.momentum == momentum
        assert chart.partner == partner

    def test_pairing_table_entries(self):
        chart = make_chart("vinogradov", 2, 3)
        p1, psi2, chi2 = (chart.sid(f, i) for f, i in
                          (("p", 1), ("psi", 2), ("chi", 2)))
        # a tag is the sid of a super generator and -mu for x^mu
        assert chart.partner[p1] == (-1, 1)
        assert chart.partner[-1] == (p1, -1)
        assert chart.partner[psi2] == (chi2, 1)
        # graded symmetry of the degree-(-p) bracket at odd p
        assert chart.partner[chi2] == (psi2, -1)

    def test_m5_zeta_self_pairing(self):
        chart = make_chart("m5", 2)
        sz = chart.sid("zeta", 0)
        assert chart.partner[sz] == (sz, 1)
        assert chart.partner_bit[sz] == chart.unit[sz]

    @pytest.mark.parametrize("chart", [make_chart("vinogradov", 3, p) for p in (2, 3, 5)]
                             + [make_chart("m5", 3)], ids=repr)
    def test_partner_is_the_pairing_table_as_an_involution(self, chart):
        tags = [-mu for mu in range(1, chart.d + 1)] + list(range(len(chart.supers)))
        assert sorted(chart.partner) == sorted(tags)
        for a, (b, const) in chart.partner.items():
            assert chart.partner[b][0] == a
            # (a, b) = (-1)^(|a| |b| + 1) (b, a) for a degree-(-p) bracket
            deg_a, deg_b = (0 if t < 0 else chart.degrees[t] for t in (a, b))
            assert chart.partner[b][1] == const * (-1) ** (deg_a * deg_b + 1)
            # the key bit of an odd partner; x and the even generators have none
            assert chart.partner_bit[a] == (chart.unit[b] if deg_b % 2 else 0)

    # the charts of test_symplectic.REFERENCE_CHARTS
    @pytest.mark.parametrize("chart", [make_chart("vinogradov", 3, 2),
                                       make_chart("vinogradov", 4, 3),
                                       make_chart("vinogradov", 2, 5),
                                       make_chart("m5", 6)], ids=repr)
    def test_key_degree_matches_the_decoded_monomial(self, chart):
        rng = random.Random(chart.d * 10 + chart.p)
        for _ in range(200):
            key = 0
            for sid in rng.sample(range(len(chart.supers)), rng.randint(0, 6)):
                key += chart.unit[sid] * (1 if chart.parity[sid] else rng.randint(1, 40))
            assert chart.key_degree(key) == chart.mono_degree(chart.decode(key))


# ---------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------

def polys(d=3, max_terms=4):
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda t: Poly(d, {e: c for e, c in t.items() if c}))


@st.composite
def mixed_polys(draw):
    """(d, Poly) for d up to 12, so that variable names reach two digits,
    with a mix of int and Fraction coefficients; may be zero or constant."""
    d = draw(st.integers(1, 12))
    coeff = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    return d, Poly(d, draw(st.dictionaries(exps, coeff, max_size=4)))


class TestPoly:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(3) == a
        assert a * Poly.const(3, 1) == a
        assert (a - a).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_partial_is_a_derivation(self, a, b):
        for mu in (1, 2, 3):
            lhs = (a * b).partial(mu)
            rhs = a.partial(mu) * b + a * b.partial(mu)
            assert lhs == rhs

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_var_matches_the_tuple_built_poly(self, d):
        for mu in range(1, d + 1):
            for power in range(4):
                exp = tuple(power if nu == mu else 0 for nu in range(1, d + 1))
                assert Poly.var(d, mu, power) == Poly(d, {exp: 1})
        for mu, power, error in [
                (1, -1, "exponent -1 of x1 is not an integer in 0..32767"),
                (d, 2 ** 15, f"exponent 32768 of x{d} is not an integer in 0..32767"),
                (1, 1.5, "exponent 1.5 of x1 is not an integer in 0..32767"),
                (0, 1, f"variable index 0 out of range 1..{d}"),
                (d + 1, 1, f"variable index {d + 1} out of range 1..{d}")]:
            with pytest.raises(PolyError) as exc:
                Poly.var(d, mu, power)
            assert str(exc.value) == error

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(
        st.tuples(*[st.integers(0, 2 ** 15 - 1)] * d), st.integers(-9, 9), max_size=5))))
    @example((3, {}))
    @example((2, {(0, 0): 4}))
    def test_max_exponents_matches_the_exponent_tuples(self, case):
        d, terms = case
        p = Poly(d, terms)
        assert p._max_exponents() == [max(col) for col in zip(*p.terms)]

    def test_power(self):
        x1, x2 = Poly.var(3, 1), Poly.var(3, 2)
        assert (x1 + x2) ** 2 == x1 * x1 + 2 * x1 * x2 + x2 * x2
        assert (x1 + x2) ** 0 == Poly.const(3, 1)

    def test_parse_basic(self):
        p = parse_poly("3/2*x1^2 - x3", 3)
        assert p == Poly.var(3, 1, 2) * Fraction(3, 2) - Poly.var(3, 3)

    def test_parse_parens_and_unary(self):
        assert parse_poly("-(x1 + x2)^2", 2) == -((Poly.var(2, 1) + Poly.var(2, 2)) ** 2)

    @settings(max_examples=150, deadline=None)
    @given(mixed_polys())
    @example((12, Poly(12)))
    @example((1, Poly.const(1, Fraction(-7, 3))))
    @example((12, Poly(12, {(0,) * 9 + (1, 0, 2): -1, (0,) * 11 + (1,): Fraction(5, 4),
                            (0,) * 12: 3})))
    def test_parse_render_roundtrip(self, case):
        d, p = case
        assert parse_poly(str(p), d) == p

    def test_parse_errors(self):
        for bad in ("x0", "x4", "1 +", "x1^", "(x1", "x1 x2 @", ""):
            with pytest.raises(PolyParseError):
                parse_poly(bad, 3)

    def test_parse_exponent_is_an_integer_literal(self):
        # "4/2" is one rational literal; as an exponent it is refused, not
        # reduced to 2, and a ratio is written as a coefficient
        for bad in ("x1^4/2", "x1^0/5", "2^4/2", "x1^2/1", "x1^-1", "x1^x2"):
            with pytest.raises(PolyParseError) as exc:
                parse_poly(bad, 2)
            assert str(exc.value) == "exponent must be a non-negative integer"
        assert parse_poly("x1^4*1/2", 2) == Poly.var(2, 1, 4) * Fraction(1, 2)
        assert parse_poly("2^4 + 4/2", 2) == Poly.const(2, 18)

    def test_parse_zero_denominator(self):
        for bad in ("1/0", "x1 + 3/00"):
            with pytest.raises(PolyParseError, match="zero denominator"):
                parse_poly(bad, 1)

    def test_parse_nesting_limit(self):
        assert parse_poly("(" * 100 + "x1" + ")" * 100, 1) == Poly.var(1, 1)
        for depth in (101, 3000):
            with pytest.raises(PolyParseError, match="nested deeper than 100"):
                parse_poly("(" * depth + "x1" + ")" * depth, 1)

    def test_parse_power_bounds(self):
        assert parse_poly("x1^1000", 1) == Poly.var(1, 1, 1000)
        with pytest.raises(PolyParseError, match="exponent 1001 exceeds 1000 at position 3"):
            parse_poly("x1^1001", 1)
        # (k terms)^n may have C(n + k - 1, n) terms: C(141, 2) = 9870 passes,
        # C(142, 2) = 10011 does not, and (1+x1+x2)^400 is refused unexpanded
        sum_of = lambda k: "(" + "+".join(f"x1^{i}" for i in range(k)) + ")"
        assert len(parse_poly(sum_of(140) + "^2", 1).terms) == 279
        with pytest.raises(PolyParseError, match="more than 10000 terms"):
            parse_poly(sum_of(141) + "^2", 1)
        with pytest.raises(PolyParseError,
                           match="more than 10000 terms at position 10"):
            parse_poly("(1+x1+x2)^400", 3)
        # a product is bounded by its term pairs before it is multiplied:
        # 101 * 99 pairs pass, 101 * 100 do not
        assert len(parse_poly(sum_of(101) + "*" + sum_of(99), 1).terms) == 199
        with pytest.raises(PolyParseError,
                           match="product expands to more than 10000 terms at position 13"):
            parse_poly("(1+x1+x2)^100*(1+x1+x2)^100", 3)
        with pytest.raises(PolyParseError, match="more than 10000 terms"):
            parse_poly(sum_of(101) + "*" + sum_of(100), 1)
        # no exponent of the result may exceed 1000, in a power or a product
        assert parse_poly("x1^500*x1^500*x2", 2) == Poly.var(2, 1, 1000) * Poly.var(2, 2)
        assert parse_poly("(x1^10*x2)^100", 2) == Poly.var(2, 1, 1000) * Poly.var(2, 2, 100)
        with pytest.raises(PolyParseError,
                           match="exponent 1000000 of x1 exceeds 1000 at position 10"):
            parse_poly("(x1^1000)^1000", 1)
        with pytest.raises(PolyParseError,
                           match="exponent 1001 of x2 exceeds 1000 at position 7"):
            parse_poly("x2^1000*x2", 2)
        with pytest.raises(PolyParseError, match="exponent 1010 of x1 exceeds 1000"):
            parse_poly("(x1^101 + 1)^10", 1)
        assert parse_poly("0^0", 1) == Poly.const(1, 1)
        assert parse_poly("(x1 - x1)^1000", 1) == Poly.zero(1)

    def test_parse_coefficient_bits_bound(self):
        # C(300, 150) has 296 bits, and the estimate 300 * (1 + 2) passes
        assert parse_poly("(1 + x1)^300", 1).terms[(150,)] > 2 ** 295
        # nested powers and products of powers are refused unexpanded
        with pytest.raises(PolyParseError,
                           match="coefficients may exceed 10000 bits at position 9"):
            parse_poly("((9^999)^999)^999", 1)
        with pytest.raises(PolyParseError, match="exceed 10000 bits at position 10"):
            parse_poly("(2^999)^6 * (2^999)^6", 1)
        assert parse_poly("(2^999)^6 * 2^999", 1) == Poly.const(1, 2 ** 6993)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(max_size=30),
                     st.text(alphabet="x0123456789/+-*^() ", max_size=30)),
           st.integers(1, 3))
    def test_parse_arbitrary_text(self, text, d):
        # anything but a Poly or a PolyParseError is a parser bug
        try:
            out = parse_poly(text, d)
        except PolyParseError:
            return
        assert isinstance(out, Poly) and out.d == d


# ---------------------------------------------------------------------
# graded elements
# ---------------------------------------------------------------------

class TestGradedElement:
    def setup_method(self):
        self.chart = make_chart("vinogradov", 3, 2)
        self.m5 = make_chart("m5", 3)

    def gen(self, chart, name):
        return GradedElement.generator(chart, name)

    @pytest.mark.parametrize("name", ["x", "xy", "x0", "x4", "x01", "q1"])
    def test_unknown_generator_names(self, name):
        self.gen(self.chart, "x1")
        cached = dict(self.chart._elements)
        with pytest.raises(ChartError, match="unknown generator"):
            self.gen(self.chart, name)
        assert self.chart._elements == cached  # a failed lookup caches nothing

    def test_generators_are_shared_per_chart(self):
        names = ["x1", "x3", "psi2", "chi1", "p3"]
        for name in names:
            assert self.gen(self.chart, name) is self.gen(self.chart, name)
        assert list(self.chart._elements) == names
        zeta = self.gen(self.m5, "zeta")
        assert self.gen(self.m5, "zeta") is zeta and zeta.chart is self.m5
        other = make_chart("vinogradov", 3, 2)  # an equal, new chart
        assert other._elements == {}
        psi2 = self.gen(other, "psi2")
        assert psi2 == self.gen(self.chart, "psi2")
        assert psi2 is not self.gen(self.chart, "psi2") and psi2.chart is other
        assert list(other._elements) == ["psi2"]

    def test_odd_squares_vanish(self):
        psi1 = self.gen(self.chart, "psi1")
        zeta = self.gen(self.m5, "zeta")
        assert (psi1 * psi1).is_zero()
        assert (zeta * zeta).is_zero()

    def test_odd_anticommute_even_commute(self):
        psi1, psi2 = self.gen(self.chart, "psi1"), self.gen(self.chart, "psi2")
        chi1 = self.gen(self.chart, "chi1")
        p1, p2 = self.gen(self.chart, "p1"), self.gen(self.chart, "p2")
        assert psi1 * psi2 == -(psi2 * psi1)
        assert psi1 * chi1 == -(chi1 * psi1)
        assert p1 * p2 == p2 * p1
        assert p1 * psi1 == psi1 * p1

    def test_koszul_sign_three_letters(self):
        # psi2*psi1*psi3 has one inversion relative to canonical order
        psi1, psi2, psi3 = (self.gen(self.chart, f"psi{i}") for i in (1, 2, 3))
        assert psi2 * psi1 * psi3 == -(psi1 * psi2 * psi3)

    def test_normalize_merges_and_cancels(self):
        psi1, psi2 = self.gen(self.chart, "psi1"), self.gen(self.chart, "psi2")
        assert (psi1 * psi2 + psi2 * psi1).is_zero()
        assert psi1 * psi2 + psi1 * psi2 == psi1 * psi2 * 2

    def test_supercommutativity_random(self):
        rng = random.Random(11)
        for chart in (self.chart, make_chart("vinogradov", 2, 3), self.m5):
            for _ in range(30):
                nf, ng = rng.randint(0, chart.p), rng.randint(0, chart.p)
                f = random_homogeneous(rng, chart, nf)
                g = random_homogeneous(rng, chart, ng)
                assert f * g == g * f * sign(nf * ng)

    def test_associativity_random(self):
        rng = random.Random(12)
        for _ in range(30):
            f = random_homogeneous(rng, self.m5, rng.randint(0, 4))
            g = random_homogeneous(rng, self.m5, rng.randint(0, 4))
            h = random_homogeneous(rng, self.m5, rng.randint(0, 4))
            assert (f * g) * h == f * (g * h)

    def test_euler_degree(self):
        psi1 = self.gen(self.chart, "psi1")
        p1 = self.gen(self.chart, "p1")
        assert psi1.euler_degree() == 1
        assert p1.euler_degree() == 2
        assert (psi1 * p1).euler_degree() == 3
        assert GradedElement.zero(self.chart).euler_degree() == 0
        assert (psi1 + p1).euler_degree() == INHOMOGENEOUS

    def test_x_coefficients_are_degree_zero(self):
        x1 = self.gen(self.chart, "x1")
        psi1 = self.gen(self.chart, "psi1")
        assert (x1 * x1 * psi1).euler_degree() == 1

    def test_rendering(self):
        x1 = self.gen(self.chart, "x1")
        psi1, psi2 = self.gen(self.chart, "psi1"), self.gen(self.chart, "psi2")
        e = x1 * psi1 * psi2 * Fraction(-3, 2)
        assert str(e) == "-3/2*x1*psi1*psi2"


def test_poly_times_element_or_form_is_reflected():
    # a Poly leaves an operand it does not know to that operand's own operator
    chart = make_chart("vinogradov", 2, 2)
    x = Poly.var(2, 1) + Fraction(1, 3)
    e = GradedElement.generator(chart, "psi1") + GradedElement.generator(chart, "p2")
    form = DiffForm.basis(2, (1,), Poly.var(2, 2))
    assert x * e == e * x
    assert str(x * e) == "(x1 + 1/3)*psi1 + (x1 + 1/3)*p2"
    assert x * form == form * x
    assert str(x * form) == "(x1*x2 + 1/3*x2)*dx1"
    for a, b in ((x, e), (e, x), (x, form), (form, x), (e, form)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    with pytest.raises(TypeError):
        e * form


# ---------------------------------------------------------------------
# printing: forms and graded elements, one case per branch of the
# signed-sum format
# ---------------------------------------------------------------------

V32 = make_chart("vinogradov", 3, 2)


def form(rank, *terms):
    return DiffForm(3, rank, {idx: parse_poly(c, 3) for idx, c in terms})


def element_of(*terms):
    out = GradedElement.zero(V32)
    for names, c in terms:
        e = GradedElement.from_poly(V32, parse_poly(c, 3))
        for name in names:
            e = e * GradedElement.generator(V32, name)
        out = out + e
    return out


@pytest.mark.parametrize("value, text", [
    pytest.param(form(2), "0", id="form-zero"),
    pytest.param(form(0, ((), "x1 - 2")), "x1 - 2", id="form-constant"),
    pytest.param(form(2, ((1, 2), "1"), ((1, 3), "-1")), "dx12 - dx13", id="form-unit"),
    pytest.param(form(1, ((1,), "x2 + 1/2"), ((3,), "x1 - x2")),
                 "(x2 + 1/2)*dx1 + (x1 - x2)*dx3", id="form-compound"),
    pytest.param(form(2, ((2, 1), "3/2*x2"), ((1, 3), "2")), "-3/2*x2*dx12 + 2*dx13",
                 id="form-negative-lead"),
    pytest.param(element_of(), "0", id="element-zero"),
    pytest.param(element_of(((), "x2 + 1"), (("psi1",), "1")), "x2 + 1 + psi1",
                 id="element-constant"),
    pytest.param(element_of((("psi1",), "1"), (("chi2",), "-1"), (("p1", "p1"), "1")),
                 "psi1 - chi2 + p1^2", id="element-unit"),
    pytest.param(element_of((("psi1", "psi2"), "x1 - x3"), (("p3",), "x1^2 + 1")),
                 "(x1 - x3)*psi1*psi2 + (x1^2 + 1)*p3", id="element-compound"),
    pytest.param(element_of((("psi2", "psi1"), "2*x1"), (("p2",), "1/3")),
                 "-2*x1*psi1*psi2 + 1/3*p2", id="element-negative-lead"),
])
def test_printed_notation(value, text):
    assert str(value) == text


def test_form_indices_are_separated_from_d_10():
    # run together, (1, 112) and (11, 12) would both print as dx1112
    assert str(DiffForm.basis(128, (1, 112))) == "dx1_112"
    assert str(DiffForm.basis(128, (11, 12))) == "dx11_12"
    assert str(DiffForm.basis(10, (1, 2, 10))) == "dx1_2_10"
    assert str(DiffForm(12, 2, {(1, 12): Poly.var(12, 3), (2, 3): Poly.const(12, -1)})) \
        == "x3*dx1_12 - dx2_3"
    assert str(DiffForm.basis(9, (1, 2, 9))) == "dx129"


REFERENCE_CHARTS = [*(make_chart("vinogradov", d, p) for d in (1, 2, 3, 4) for p in (2, 3, 4)),
                    make_chart("m5", 6), make_chart("m5", 8)]


class TestMonomialBasis:
    def test_degree_counts_p2(self):
        for d in (1, 2, 3, 5):
            chart = make_chart("vinogradov", d, 2)
            assert len(monomial_basis(chart, 1)) == 2 * d

    def test_degree_two_p3(self):
        # degree 2 on the p=3 chart: chi_mu and psi^mu psi^nu
        chart = make_chart("vinogradov", 4, 3)
        assert len(monomial_basis(chart, 2)) == 4 + 6

    def test_m5_degree_five(self):
        chart = make_chart("m5", 6)
        # chi (6) + zeta psi psi (15) + psi^5 (6)
        assert len(monomial_basis(chart, 5)) == 27

    def test_zero_degree(self):
        chart = make_chart("vinogradov", 3, 2)
        assert monomial_basis(chart, 0) == [()]

    @pytest.mark.parametrize("chart", [
        make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
        make_chart("vinogradov", 2, 5), make_chart("m5", 6), make_chart("m5", 8)],
        ids=repr)
    def test_matches_products_of_generators(self, chart):
        # layer k: one generator times a monomial of layer k - deg; an odd
        # generator the monomial already holds gives zero
        layers = [{()}]
        for k in range(1, chart.p + 2):
            layer = set()
            for sid, deg in enumerate(chart.degrees):
                for mono in layers[k - deg] if deg <= k else ():
                    exps = dict(mono)
                    if not (chart.parity[sid] and sid in exps):
                        exps[sid] = exps.get(sid, 0) + 1
                        layer.add(tuple(sorted(exps.items())))
            layers.append(layer)
        for n, layer in enumerate(layers):
            assert monomial_basis(chart, n) == sorted(layer)

    @pytest.mark.parametrize("chart", REFERENCE_CHARTS, ids=repr)
    def test_matches_recursive_reference(self, chart):
        for n in range(-1, chart.p + 3):
            assert monomial_basis(chart, n) == _recursive_basis(chart, n)

    @pytest.mark.parametrize("chart", REFERENCE_CHARTS, ids=repr)
    def test_unranks_the_recursive_reference(self, chart):
        for n in range(chart.p + 3):
            reference = _recursive_basis(chart, n)
            assert [monomial_at(chart, n, i) for i in range(len(reference))] == reference

    @pytest.mark.parametrize("chart", [
        *(make_chart("vinogradov", d, p) for d in (1, 2, 3, 4) for p in (2, 3, 4)),
        make_chart("vinogradov", 2, 5), make_chart("m5", 6), make_chart("m5", 8)],
        ids=repr)
    def test_sizes_count_the_basis(self, chart):
        assert [monomial_count(chart, n) for n in range(-1, chart.p + 2)] == \
            [len(monomial_basis(chart, n)) for n in range(-1, chart.p + 2)]

    @pytest.mark.parametrize("kind, d, p, largest", [
        ("m5", 8, 6, 366), ("m5", 16, 6, 15_436), ("m5", 64, 6, 621_984_688),
        ("vinogradov", 128, 2, 2_796_288)])
    def test_sizes_of_large_charts(self, kind, d, p, largest):
        # counted, never built: the m5(64) basis would not fit in memory
        chart = make_chart(kind, d, p)
        assert max(monomial_count(chart, n) for n in range(p + 2)) == largest

    def test_unranks_a_basis_too_large_to_list(self):
        chart = make_chart("m5", 64)
        count = monomial_count(chart, 7)
        assert monomial_at(chart, 7, 0) == ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1),
                                            (5, 1), (6, 1))
        assert monomial_at(chart, 7, count - 1) == ((chart.sid("psi", 64), 1),
                                                    (chart.sid("p", 64), 1))

    def test_thousand_generators(self):
        # one stack frame per generator would pass the recursion limit
        chart = make_chart("vinogradov", 1000, 2)
        start = time.perf_counter()
        basis = monomial_basis(chart, 1)
        assert time.perf_counter() - start < 0.5
        assert len(basis) == 2000
        assert basis[0] == ((0, 1),) and basis[-1] == ((1999, 1),)

    def test_built_once_per_chart_and_degree(self):
        chart = make_chart("vinogradov", 3, 2)
        first = monomial_basis(chart, 2)
        first.clear()  # a fresh list on every call
        table = chart._counts[2]
        assert monomial_basis(chart, 2) == _recursive_basis(chart, 2)
        assert monomial_count(chart, 2) == 18
        assert monomial_at(chart, 2, 17) == _recursive_basis(chart, 2)[17]
        monomial_count(chart, 1)
        assert chart._counts[2] is table and sorted(chart._counts) == [1, 2]
        other = make_chart("vinogradov", 3, 2)  # an equal, new chart
        monomial_at(other, 2, 0)
        assert other._counts[2] is not table and sorted(other._counts) == [2]

    @settings(max_examples=150, deadline=None)
    @given(chart=st.one_of(st.builds(make_chart, st.just("vinogradov"),
                                     st.integers(1, 6), st.integers(2, 6)),
                           st.just(make_chart("m5", 8))),
           seed=st.integers(0, 2**32), n=st.integers(-1, 8), terms=st.integers(1, 5))
    def test_random_homogeneous_draws_as_from_the_listed_basis(self, chart, seed,
                                                                 n, terms):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        drawn = random_homogeneous(rng, chart, n, terms=terms)
        assert drawn == _random_homogeneous_from_basis(ref_rng, chart, n, terms=terms)
        assert rng.getstate() == ref_rng.getstate()


def _random_homogeneous_from_basis(rng, chart, n, max_degree=2, terms=2):
    """random_homogeneous as it was written before it drew by index: a
    sample of the listed basis, kept as the reference draw."""
    basis = _recursive_basis(chart, n)
    if not basis:
        return GradedElement.zero(chart)
    picks = rng.sample(basis, min(len(basis), rng.randint(1, terms)))
    out = GradedElement.zero(chart)
    for mono in picks:
        out = out + GradedElement(chart, {mono: random_poly(rng, chart.d, max_degree)})
    return out


def _recursive_basis(chart, n):
    """monomial_basis as it was written before it became a loop: one
    recursion level per generator, kept as the reference ordering."""
    out = []
    degrees = chart.degrees
    parity = chart.parity
    K = len(degrees)
    least = list(accumulate(reversed(degrees), min))[::-1]

    def rec(sid, rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if sid >= K or least[sid] > rem:
            return
        rec(sid + 1, rem, acc)
        deg = degrees[sid]
        top = 1 if parity[sid] else rem // deg
        for e in range(1, top + 1):
            acc.append((sid, e))
            rec(sid + 1, rem - deg * e, acc)
            acc.pop()

    rec(0, n, [])
    return sorted(out)


# ---------------------------------------------------------------------
# random polynomials
# ---------------------------------------------------------------------

def _random_poly_from_tuples(rng, d, max_degree=2, allow_zero=False):
    """random_poly as it was written before it drew packed keys: exponent
    tuples through the validating constructor, kept as the reference draw."""
    acc = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * d
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(d)] += 1
        c = rng.randint(-3, 3)
        key = tuple(exp)
        acc[key] = acc.get(key, 0) + c
    poly = Poly(d, {e: c for e, c in acc.items() if c})
    if poly.is_zero() and not allow_zero:
        mu = rng.randrange(d)
        exp = [0] * d
        exp[mu] = 1
        poly = Poly(d, {tuple(exp): 1})
    return poly


class TestRandomPoly:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), d=st.integers(1, 10),
           max_degree=st.integers(0, 4), allow_zero=st.booleans())
    def test_packed_draw_matches_the_tuple_draw(self, seed, d, max_degree, allow_zero):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        drawn = random_poly(rng, d, max_degree, allow_zero)
        ref = _random_poly_from_tuples(ref_rng, d, max_degree, allow_zero)
        assert drawn == ref
        # the same numerators in the same order, over the same denominator
        assert (drawn.d, drawn.den, list(drawn.nums.items())) \
            == (ref.d, ref.den, list(ref.nums.items()))
        assert rng.getstate() == ref_rng.getstate()
        assert allow_zero or drawn

    def test_degree_at_the_field_limit_raises_before_drawing(self):
        rng = random.Random(0)
        state = rng.getstate()
        for max_degree in (2**15, 2**15 + 1, 2**20):
            with pytest.raises(PolyError, match="packed exponent limit"):
                random_poly(rng, 3, max_degree)
            assert rng.getstate() == state
        # one below the limit is a legal degree bound
        assert random_poly(random.Random(0), 3, 2**15 - 1)


def test_packed_keys_past_bit_61_hash_apart():
    # x5's key is 2^64 and x1^8's is 8; as ints both hash to 8
    x5, x1_8 = Poly.var(8, 5), Poly.var(8, 1, 8)
    assert x5 != x1_8 and hash(x5) != hash(x1_8)
    chart = make_chart("vinogradov", 8, 2)
    e5, e1_8 = (GradedElement.from_poly(chart, p) for p in (x5, x1_8))
    assert e5 != e1_8 and hash(e5) != hash(e1_8)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("c", [0, 3, -2, Fraction(3, 4)])
def test_constant_poly_hashes_as_its_value(d, c):
    # == treats an int or Fraction as a constant, so hash must agree
    p = Poly.const(d, c)
    assert p == c and hash(p) == hash(c)
    assert c in {p} and p in {c}
