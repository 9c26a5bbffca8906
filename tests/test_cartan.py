"""Exterior-calculus oracle: d, wedge, interior, Lie derivative, homotopy."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (DiffForm, FormError, Poly, Section, classical_dorfman,
                     ext_d, homotopy, interior, lie_deriv, poincare_primitive,
                     sort_indices, vec_lie_bracket, wedge)
from gradedq.randomgen import random_form, random_poly, random_vector
from test_kernel import canonical


def sign(k: int) -> int:
    return -1 if k % 2 else 1


class TestSortIndices:
    def test_identity_and_swap(self):
        assert sort_indices((1, 2, 3)) == (1, (1, 2, 3))
        assert sort_indices((2, 1, 3)) == (-1, (1, 2, 3))
        assert sort_indices((3, 1, 2)) == (1, (1, 2, 3))

    def test_repeats_vanish(self):
        assert sort_indices((1, 1)) == (0, None)
        assert sort_indices((2, 3, 2)) == (0, None)


class TestDiffForm:
    def test_antisymmetric_construction(self):
        f = DiffForm(3, 2)
        f.add_term((2, 1), Poly.const(3, 1))
        assert f.terms == {(1, 2): Poly.const(3, -1)}

    def test_rank_exceeding_dimension_is_zero(self):
        f = DiffForm(2, 3)
        with pytest.raises(FormError):
            f.add_term((1, 2, 3), Poly.const(2, 1))
        assert f.is_zero()

    def test_rank_mismatch(self):
        f = DiffForm(3, 2)
        with pytest.raises(FormError):
            f.add_term((1,), Poly.const(3, 1))


class TestExteriorCalculus:
    TRIALS = 60

    def test_d_squared_zero(self):
        rng = random.Random(21)
        for _ in range(self.TRIALS):
            d = rng.randint(1, 8)
            r = rng.randint(0, min(d, 7))
            omega = random_form(rng, d, r)
            assert ext_d(ext_d(omega)).is_zero()

    def test_d_on_function(self):
        # d(x1 x2) = x2 dx1 + x1 dx2
        f = DiffForm.from_poly(2, Poly.var(2, 1) * Poly.var(2, 2))
        df = ext_d(f)
        assert df.terms == {(1,): Poly.var(2, 2), (2,): Poly.var(2, 1)}

    def test_wedge_sign_rule(self):
        rng = random.Random(22)
        for _ in range(self.TRIALS):
            d = rng.randint(2, 6)
            r, s = rng.randint(0, 3), rng.randint(0, 3)
            omega, tau = random_form(rng, d, r), random_form(rng, d, s)
            assert wedge(omega, tau) == wedge(tau, omega) * sign(r * s)

    def test_wedge_associative_and_leibniz(self):
        rng = random.Random(23)
        for _ in range(20):
            d = rng.randint(2, 5)
            a = random_form(rng, d, rng.randint(0, 2))
            b = random_form(rng, d, rng.randint(0, 2))
            c = random_form(rng, d, rng.randint(0, 2))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            lhs = ext_d(wedge(a, b))
            rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * sign(a.rank)
            assert lhs == rhs

    def test_interior_is_an_antiderivation(self):
        rng = random.Random(24)
        for _ in range(20):
            d = rng.randint(2, 5)
            v = random_vector(rng, d)
            a = random_form(rng, d, rng.randint(1, 3))
            b = random_form(rng, d, rng.randint(1, 2))
            lhs = interior(v, wedge(a, b))
            rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * sign(a.rank)
            assert lhs == rhs
            # rank-0 factors pass through
            f = random_poly(rng, d)
            assert interior(v, a * f) == interior(v, a) * f

    def test_interior_squares_to_zero(self):
        rng = random.Random(25)
        for _ in range(20):
            d = rng.randint(2, 5)
            v = random_vector(rng, d)
            omega = random_form(rng, d, rng.randint(2, min(d, 4)))
            assert interior(v, interior(v, omega)).is_zero()

    def test_lie_derivative_commutes_with_d(self):
        rng = random.Random(26)
        for _ in range(20):
            d = rng.randint(2, 4)
            v = random_vector(rng, d)
            omega = random_form(rng, d, rng.randint(0, 2))
            assert lie_deriv(v, ext_d(omega)) == ext_d(lie_deriv(v, omega))

    def test_lie_bracket_representation(self):
        # [L_v, L_w] = L_[v,w]
        rng = random.Random(27)
        for _ in range(10):
            d = rng.randint(2, 3)
            v, w = random_vector(rng, d), random_vector(rng, d)
            omega = random_form(rng, d, rng.randint(0, 2))
            lhs = lie_deriv(v, lie_deriv(w, omega)) - lie_deriv(w, lie_deriv(v, omega))
            assert lhs == lie_deriv(vec_lie_bracket(v, w, d), omega)

    def test_vec_lie_bracket_example(self):
        # [d1, x1 d2] = d2
        d = 2
        v = (Poly.const(d, 1), Poly.zero(d))
        w = (Poly.zero(d), Poly.var(d, 1))
        assert vec_lie_bracket(v, w, d) == (Poly.zero(d), Poly.const(d, 1))


class TestHomotopy:
    def test_dk_plus_kd_is_identity(self):
        rng = random.Random(31)
        for _ in range(60):
            d = rng.randint(1, 6)
            r = rng.randint(1, min(d, 5))
            omega = random_form(rng, d, r)
            back = ext_d(homotopy(omega)) + homotopy(ext_d(omega))
            assert back == omega

    def test_primitive_of_volume_form(self):
        omega = DiffForm.basis(2, (1, 2))
        kappa = poincare_primitive(omega)
        half = Fraction(1, 2)
        expected = DiffForm(2, 1)
        expected.add_term((2,), Poly.var(2, 1) * half)
        expected.add_term((1,), Poly.var(2, 2) * (-half))
        assert kappa == expected
        assert ext_d(kappa) == omega

    def test_primitive_of_random_exact_forms(self):
        rng = random.Random(32)
        for _ in range(30):
            d = rng.randint(2, 5)
            r = rng.randint(0, min(d - 1, 3))
            omega = ext_d(random_form(rng, d, r))
            if omega.is_zero():
                continue
            assert ext_d(poincare_primitive(omega)) == omega

    def test_non_closed_form_rejected(self):
        omega = DiffForm.basis(2, (1,), Poly.var(2, 2))
        with pytest.raises(FormError):
            poincare_primitive(omega)

    def test_rank_zero_rejected(self):
        with pytest.raises(FormError):
            poincare_primitive(DiffForm.from_poly(2, Poly.var(2, 1)))


class TestClassicalDorfman:
    def test_vector_part_is_lie_bracket(self):
        d = 2
        A = Section((Poly.const(d, 1), Poly.zero(d)), DiffForm.zero(d, 1))
        B = Section((Poly.zero(d), Poly.var(d, 1)), DiffForm.zero(d, 1))
        out = classical_dorfman("vinogradov", A, B)
        assert out.v == (Poly.zero(d), Poly.const(d, 1))
        assert out.lam.is_zero()

    def test_form_part(self):
        # L_A B with A = (d1, 0), B = (0, x1 dx2): Lie_v lam' = dx2
        d = 2
        A = Section((Poly.const(d, 1), Poly.zero(d)), DiffForm.zero(d, 1))
        B = Section((Poly.zero(d), Poly.zero(d)),
                    DiffForm.basis(d, (2,), Poly.var(d, 1)))
        out = classical_dorfman("vinogradov", A, B)
        assert out.lam == DiffForm.basis(d, (2,))

    def test_m5_lambda_prime_d_lambda_term(self):
        # A = (0, lam, 0), B = (0, lam', 0) with nonzero -lam' ^ d lam
        d = 6
        lam = DiffForm.basis(d, (1, 2), Poly.var(d, 3))
        lamp = DiffForm.basis(d, (4, 5))
        zero5 = DiffForm.zero(d, 5)
        zv = tuple(Poly.zero(d) for _ in range(d))
        out = classical_dorfman("m5", Section(zv, lam, zero5), Section(zv, lamp, zero5))
        assert out.sigma == -wedge(lamp, ext_d(lam))
        assert not out.sigma.is_zero()

    def test_shape_mismatch(self):
        d = 2
        A = Section((Poly.zero(d),) * d, DiffForm.zero(d, 1))
        B = Section((Poly.zero(d),) * d, DiffForm.zero(d, 1),
                    DiffForm.zero(d, 5))
        with pytest.raises(FormError):
            classical_dorfman("vinogradov", A, B)


def cycle_sign(t) -> int:
    """The sign of the permutation that sorts t (distinct entries), from
    the lengths of its cycles."""
    perm = sorted(range(len(t)), key=t.__getitem__)
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@st.composite
def index_tuples(draw):
    """(d, indices): a strictly increasing, a shuffled or a repeating
    index tuple in 1..d."""
    d = draw(st.integers(1, 7))
    distinct = draw(st.sets(st.integers(1, d), max_size=d))
    kind = draw(st.sampled_from(["sorted", "shuffled", "repeated"]))
    if kind == "sorted":
        return d, tuple(sorted(distinct))
    if kind == "shuffled":
        return d, tuple(draw(st.permutations(sorted(distinct))))
    return d, tuple(draw(st.lists(st.integers(1, d), min_size=2, max_size=d + 2)
                         .filter(lambda t: len(set(t)) < len(t))))


@settings(max_examples=200, deadline=None)
@given(index_tuples(), st.integers(-3, 3), st.booleans())
def test_add_term_stores_what_sort_indices_says(case, c, twice):
    d, indices = case
    poly = Poly.var(d, 1) * Fraction(c, 2) + 1
    f = DiffForm(d, len(indices))
    f.add_term(list(indices), poly)
    if twice:
        f.add_term(indices, poly)
    sign, idx = sort_indices(indices)
    assert f.terms == ({} if sign == 0 else {idx: poly * (sign * (1 + twice))})
    assert all(type(k) is tuple for k in f.terms)


def textbook_lie_bracket(v, w, d):
    """[v, w]^mu from Poly +, * and partial."""
    out = []
    for mu in range(1, d + 1):
        acc = Poly.zero(d)
        for nu in range(1, d + 1):
            acc = acc + v[nu - 1] * w[mu - 1].partial(nu) \
                      - w[nu - 1] * v[mu - 1].partial(nu)
        out.append(acc)
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32))
def test_vec_lie_bracket_matches_the_textbook_formula(d, seed):
    rng = random.Random(seed)

    def field():
        return tuple(random_poly(rng, d, 2, allow_zero=True)
                     * Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                     for _ in range(d))

    v, w = field(), field()
    got = vec_lie_bracket(v, w, d)
    assert got == textbook_lie_bracket(v, w, d)
    assert vec_lie_bracket(w, v, d) == tuple(-c for c in got)
    assert all(canonical(c) for c in got)


def test_sort_indices_matches_permutation_sign():
    for n in range(6):
        for t in itertools.product(range(1, 5), repeat=n):
            if len(set(t)) < n:
                assert sort_indices(t) == (0, None), t
            else:
                assert sort_indices(t) == (cycle_sign(t), tuple(sorted(t))), t
