"""The coefficient kernel: polynomial and graded-monomial primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import Poly, PolyError, _kernel_py, parse_poly

# up to 33 generators: the m5 chart at d=8
MAX_GENERATORS = 33


@st.composite
def parity_and_monos(draw, count):
    """A parity table and `count` canonical monomials over it."""
    n = draw(st.just(MAX_GENERATORS) | st.integers(1, MAX_GENERATORS))
    parity = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    monos = []
    for _ in range(count):
        gens = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=8))
        monos.append(tuple(sorted(
            (g, 1 if parity[g] else draw(st.integers(1, 5))) for g in gens)))
    return parity, monos


def word_of(mono):
    """The generator word of a monomial, one letter per unit of exponent."""
    return [g for g, e in mono for _ in range(e)]


def mono_of(word):
    return tuple((g, word.count(g)) for g in sorted(set(word)))


def reference_mul(m1, m2, parity):
    """Bubble-sort the concatenated word, counting odd-odd transpositions."""
    word = word_of(m1) + word_of(m2)
    odd = [g for g in word if parity[g]]
    if len(odd) != len(set(odd)):
        return 0, None
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                swaps += parity[word[k]] * parity[word[k + 1]]
                word[k], word[k + 1] = word[k + 1], word[k]
    return (-1) ** swaps, mono_of(word)


def reference_partial(mono, gid, parity, from_right):
    """Strike one letter gid from the word; an odd letter's sign counts the
    odd letters the derivation crosses to reach it."""
    word = word_of(mono)
    if gid not in word:
        return 0, None
    k = word.index(gid)
    rest = word[:k] + word[k + 1:]
    if not parity[gid]:
        return word.count(gid), mono_of(rest)
    crossed = word[k + 1:] if from_right else word[:k]
    return (-1) ** sum(parity[g] for g in crossed), mono_of(rest)


class TestPythonKernel:
    def test_poly_add_cancels(self):
        a = {(1, 0): Fraction(2)}
        b = {(1, 0): Fraction(-2), (0, 1): Fraction(1)}
        assert _kernel_py.poly_add(a, b) == {(0, 1): Fraction(1)}

    def test_mono_mul_odd_square_is_zero(self):
        parity = (1, 1)
        assert _kernel_py.mono_mul(((0, 1),), ((0, 1),), parity) == (0, None)

    def test_mono_mul_koszul_sign(self):
        parity = (1, 1)
        sign, mono = _kernel_py.mono_mul(((1, 1),), ((0, 1),), parity)
        assert (sign, mono) == (-1, ((0, 1), (1, 1)))

    def test_mono_partial_signs(self):
        parity = (1, 1, 1)
        m = ((0, 1), (1, 1), (2, 1))
        # left derivative of the middle letter crosses one odd letter
        assert _kernel_py.mono_partial(m, 1, parity, False) == (-1, ((0, 1), (2, 1)))
        # right derivative crosses the one to its right
        assert _kernel_py.mono_partial(m, 1, parity, True) == (-1, ((0, 1), (2, 1)))
        assert _kernel_py.mono_partial(m, 0, parity, False) == (1, ((1, 1), (2, 1)))

    def test_even_partial_brings_down_exponent(self):
        parity = (0,)
        assert _kernel_py.mono_partial(((0, 3),), 0, parity, False) == (3, ((0, 2),))


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(parity_and_monos(2))
    def test_mono_mul_matches_bubble_sort(self, case):
        parity, (m1, m2) = case
        assert _kernel_py.mono_mul(m1, m2, parity) == reference_mul(m1, m2, parity)

    @settings(max_examples=300, deadline=None)
    @given(parity_and_monos(1), st.integers(0, MAX_GENERATORS - 1), st.booleans())
    def test_mono_partial_matches_letter_strike(self, case, gid, from_right):
        parity, (m,) = case
        gid %= len(parity)
        assert _kernel_py.mono_partial(m, gid, parity, from_right) == \
            reference_partial(m, gid, parity, from_right)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * d),
                        st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                  st.integers(1, 5)), max_size=8),
        st.integers(0, d - 1))))
    def test_poly_partial_term_by_term(self, case):
        a, mu = case
        expected = {}
        for exp, c in a.items():
            if exp[mu]:
                e = list(exp)
                e[mu] -= 1
                key = tuple(e)
                expected[key] = expected.get(key, 0) + c * exp[mu]
        assert _kernel_py.poly_partial(a, mu) == expected


# coefficients as the engine stores them: int when integral, else Fraction;
# integral Fractions also reach the kernel as products such as 2 * (1/2)
coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))).filter(bool)


def polys(d):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), coefficients,
                           max_size=6)


def as_fractions(a):
    return {exp: Fraction(c) for exp, c in a.items()}


def stored_exactly(a):
    return all(type(c) in (int, Fraction) and c != 0 for c in a.values())


class TestMixedCoefficients:
    """int and Fraction coefficients give the same results as all-Fraction ones."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(polys(d), polys(d))))
    def test_add_and_mul(self, case):
        a, b = case
        for op in (_kernel_py.poly_add, _kernel_py.poly_mul):
            out = op(a, b)
            assert out == op(as_fractions(a), as_fractions(b))
            assert stored_exactly(out)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(polys),
           st.sampled_from([1, -1, 0, Fraction(1), Fraction(-1)]) | coefficients)
    def test_scale(self, a, c):
        out = _kernel_py.poly_scale(a, c)
        assert out == _kernel_py.poly_scale(as_fractions(a), Fraction(c))
        assert out == {exp: c * v for exp, v in a.items() if c}
        assert stored_exactly(out)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(polys(d),
                                                         st.integers(0, d - 1))))
    def test_partial(self, case):
        a, mu = case
        out = _kernel_py.poly_partial(a, mu)
        assert out == _kernel_py.poly_partial(as_fractions(a), mu)
        assert stored_exactly(out)

    def test_integral_coefficients_are_stored_as_int(self):
        e = (1, 0, 2)
        assert type(Poly(3, {e: Fraction(4, 2)}).terms[e]) is int
        assert type(Poly(3, {e: True}).terms[e]) is int
        assert [type(c) for c in Poly.var(3, 2).terms.values()] == [int]
        assert {exp: type(c) for exp, c in parse_poly("3*x1 - 2", 3).terms.items()} \
            == {(1, 0, 0): int, (0, 0, 0): int}
        assert type(parse_poly("3/2*x1", 3).terms[(1, 0, 0)]) is Fraction

    def test_float_is_rejected(self):
        with pytest.raises(PolyError):
            Poly(3, {(1, 0, 0): 0.5})
        with pytest.raises(PolyError):
            Poly(3, {(1, 0, 0): 1.0})
