"""Exact generalised metrics and the O(d,d) action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (Background, GenMetric, MatrixError, act, b_shift,
                     block_swap, build_gen_metric, eta_matrix, extract,
                     gl_embed, odd_check)
from gradedq.genmetric import (as_matrix, mat_identity, mat_inv, mat_mul,
                               mat_mul_eta, mat_neg, mat_t, mat_zero)


def rational_background(rng: random.Random, d: int) -> Background:
    """Random symmetric positive-ish g (diagonally dominant) and antisym b."""
    g = [[Fraction(0)] * d for _ in range(d)]
    b = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            b[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            b[j][i] = -b[i][j]
    for i in range(d):
        g[i][i] = Fraction(rng.randint(1, 4)) + sum(abs(x) for x in g[i])
    return Background(g, b)


def random_odd(rng: random.Random, d: int):
    """A random O(d,d) element from the b-shift / GL(d) / swap generators."""
    out = mat_identity(2 * d)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            bp = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1, d):
                    bp[i][j] = Fraction(rng.randint(-2, 2))
                    bp[j][i] = -bp[i][j]
            gen = b_shift(bp)
        elif kind == 1:
            A = [[Fraction(rng.randint(0, 1)) for _ in range(d)] for _ in range(d)]
            for i in range(d):
                A[i][i] = Fraction(rng.choice([1, 2, -1]))
                for j in range(i):
                    A[i][j] = Fraction(0)
            gen = gl_embed(A)
        else:
            gen = block_swap(d)
        out = mat_mul(out, gen)
    return out


class TestMatrixHelpers:
    def test_inverse(self):
        rng = random.Random(61)
        for _ in range(20):
            d = rng.randint(1, 5)
            m = rational_background(rng, d).g
            assert mat_mul(m, mat_inv(m)) == mat_identity(d)

    def test_singular_rejected(self):
        with pytest.raises(MatrixError):
            mat_inv(as_matrix([[1, 2], [2, 4]]))

    def test_eta_self_inverse(self):
        for d in (1, 2, 4):
            eta = eta_matrix(d)
            assert mat_mul(eta, eta) == mat_identity(2 * d)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.fractions(max_denominator=7).filter(lambda c: abs(c) < 50),
                 min_size=2 * d, max_size=2 * d),
        min_size=1, max_size=2 * d + 1))))
    def test_eta_block_swap_is_the_product(self, case):
        d, rows = case
        a = as_matrix(rows)
        assert mat_mul_eta(a) == mat_mul(a, eta_matrix(d))
        # an odd column count matches no eta, as in the product
        with pytest.raises(MatrixError, match="dimensions do not match"):
            mat_mul_eta(tuple(row[1:] for row in a))


class TestBackground:
    def test_validation(self):
        with pytest.raises(MatrixError):
            Background([[1, 2], [0, 1]], mat_zero(2))  # g not symmetric
        with pytest.raises(MatrixError):
            Background(mat_identity(2), [[0, 1], [1, 0]])  # b not antisym
        with pytest.raises(MatrixError):
            Background([[1, 1], [1, 1]], mat_zero(2))  # singular g


class TestBuildExtract:
    def test_flat_diagonal_example(self):
        # d=1, g=(2), b=0: H = diag(2, 1/2)
        H = build_gen_metric(Background([[2]], [[0]]))
        assert H.H == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))

    def test_identity_background(self):
        H = build_gen_metric(Background(mat_identity(3), mat_zero(3)))
        assert H.H == mat_identity(6)

    def test_block_formula_d2(self):
        g = as_matrix([[1, 0], [0, 2]])
        b = as_matrix([["0", "1/2"], ["-1/2", "0"]])
        bg = Background(g, b)
        H = build_gen_metric(bg)
        ginv = mat_inv(g)
        ul = tuple(tuple(x - y for x, y in zip(r1, r2))
                   for r1, r2 in zip(g, mat_mul(mat_mul(b, ginv), b)))
        assert tuple(row[:2] for row in H.H[:2]) == ul
        assert tuple(row[2:] for row in H.H[2:]) == ginv

    def test_invariants_and_roundtrip(self):
        rng = random.Random(62)
        for _ in range(40):
            d = rng.randint(1, 4)
            bg = rational_background(rng, d)
            H = build_gen_metric(bg)
            eta = eta_matrix(d)
            assert H.H == mat_t(H.H)
            assert mat_mul(mat_mul(H.H, eta), H.H) == eta
            back = extract(H)
            assert back.g == bg.g and back.b == bg.b

    def test_genmetric_validation(self):
        with pytest.raises(MatrixError):
            GenMetric([[1, 0], [0, 0]])  # not eta-orthogonal
        with pytest.raises(MatrixError):
            GenMetric([[1, 1], [0, 1]])  # not symmetric


class TestAction:
    def test_odd_membership(self):
        rng = random.Random(63)
        for _ in range(20):
            d = rng.randint(1, 3)
            O = random_odd(rng, d)
            assert odd_check(O)
        assert not odd_check(mat_identity(3))  # odd dimension
        assert not odd_check([[2, 0], [0, 1]])

    def test_act_preserves_invariants(self):
        rng = random.Random(64)
        for _ in range(25):
            d = rng.randint(1, 3)
            H = build_gen_metric(rational_background(rng, d))
            Hp = act(random_odd(rng, d), H)
            eta = eta_matrix(d)
            assert Hp.H == mat_t(Hp.H)
            assert mat_mul(mat_mul(Hp.H, eta), Hp.H) == eta

    def test_non_odd_rejected(self):
        H = build_gen_metric(Background([[1]], [[0]]))
        with pytest.raises(MatrixError):
            act([[2, 0], [0, 1]], H)

    def test_b_shift_shifts_b(self):
        rng = random.Random(65)
        for _ in range(20):
            d = rng.randint(2, 4)
            bg = rational_background(rng, d)
            bp = rational_background(rng, d).b
            H = build_gen_metric(bg)
            shifted = extract(act(b_shift(bp), H))
            assert shifted.g == bg.g
            assert shifted.b == tuple(tuple(x + y for x, y in zip(r1, r2))
                                      for r1, r2 in zip(bg.b, bp))

    def test_gl_embed_transforms_background(self):
        # diag(A, A^-t) sends g to A^t g A and b to A^t b A
        rng = random.Random(66)
        for _ in range(15):
            d = rng.randint(1, 3)
            bg = rational_background(rng, d)
            A = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                A[i][i] = Fraction(rng.choice([1, 2, -1]))
                for j in range(i + 1, d):
                    A[i][j] = Fraction(rng.randint(-1, 1))
            out = extract(act(gl_embed(A), build_gen_metric(bg)))
            assert out.g == mat_mul(mat_mul(mat_t(A), bg.g), A)
            assert out.b == mat_mul(mat_mul(mat_t(A), bg.b), A)

    def test_block_swap_inverts_diagonal_metric(self):
        # d=1, g=(2): the swap produces the background g=(1/2)
        H = build_gen_metric(Background([[2]], [[0]]))
        out = extract(act(block_swap(1), H))
        assert out.g == ((Fraction(1, 2),),)
        assert out.b == ((Fraction(0),),)

    def test_b_shift_requires_antisymmetric(self):
        with pytest.raises(MatrixError):
            b_shift([[0, 1], [1, 0]])
