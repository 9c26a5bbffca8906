"""The coefficient kernel: polynomial and graded-monomial primitives.

`Poly` keeps integer numerators over one denominator, keyed by packed
exponents, and a graded element keeps one denominator over {super key:
numerators}, with super monomials packed as bitmask keys.  The `ref_*`
functions and `tuple_mul`/`tuple_partial` below are the earlier kernels,
on exponent tuples, (generator, exponent) tuples and `int`/`Fraction`
coefficients, kept here only as references the packed, fraction-free
arithmetic must agree with.
"""

import ast
import copy
import inspect
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedq import (ChartError, GradedElement, Poly, PolyError, _kernel_py,
                     make_chart, parse_poly)
from gradedq.chart import super_layout
from gradedq.element import _key_at, _reduced, monomial_at, monomial_count, product_sum
from gradedq.poly import ExponentOverflowError, _pack, _unpack
from gradedq.randomgen import random_homogeneous
from gradedq.symplectic import _derive, _left, _right, bracket_sum, poisson

# up to 33 generators: the m5 chart at d=8
MAX_GENERATORS = 33


# ---------------------------------------------------------------------
# the reference: exponent tuples -> int or Fraction
# ---------------------------------------------------------------------

def ref_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp)
        if s is None:
            out[exp] = c
        else:
            s = s + c
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def ref_scale(a, c):
    if c == 1:
        return dict(a)
    if not c:
        return {}
    return {exp: c * v for exp, v in a.items()}


def ref_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(i + j for i, j in zip(ea, eb))
            c = ca * cb
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s = s + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
    return out


def ref_partial(a, mu):
    return {exp[:mu] + (exp[mu] - 1,) + exp[mu + 1:]: c * exp[mu]
            for exp, c in a.items() if exp[mu]}


def ref_str(a):
    """The rendering of the earlier `Poly.__str__`."""
    if not a:
        return "0"
    bits = []
    for exp in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        c = a[exp]
        mono = "*".join(f"x{mu + 1}" + (f"^{k}" if k > 1 else "")
                        for mu, k in enumerate(exp) if k)
        if mono:
            t = mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}"
        else:
            t = str(c)
        bits.append(t)
    out = bits[0]
    for t in bits[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def canonical(p):
    """The stored form is canonical: integer numerators, none zero, over a
    positive denominator sharing no factor with them; no guard bit set."""
    guard = sum(1 << (16 * mu + 15) for mu in range(p.d))
    assert type(p.den) is int and p.den > 0
    assert all(type(k) is int and k >= 0 and not k & guard and k >> (16 * p.d) == 0
               for k in p.nums)
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    return True


def exact_view(terms):
    """`int` when integral, else `Fraction`; never an integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in terms.values()) and all(terms.values())


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


def tuple_mul(m1, m2, parity):
    """Multiply canonical (generator, exponent) tuples in one merge.
    Returns (sign, mono); sign 0 means zero.  An odd letter of m2 crosses
    every odd letter of m1 not yet placed."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd1 = sum(parity[g] for g, _ in m1)  # odd letters of m1 not yet placed
    swaps = 0
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            out.append(m1[i])
            odd1 -= parity[g1]
            i += 1
        elif g2 < g1:
            out.append(m2[j])
            if parity[g2]:
                swaps += odd1
            j += 1
        elif parity[g1]:
            return 0, None
        else:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return (-1 if swaps & 1 else 1), tuple(out)


def tuple_partial(m, parity, from_right):
    """[(generator, integer coefficient, reduced monomial)]: the graded
    derivative of a tuple monomial in each of its generators, in order, in
    one walk; an odd letter's sign flips at every odd letter."""
    odd = sum(parity[g] for g, _ in m) - 1 if from_right else 0
    sign = -1 if odd & 1 else 1
    out = []
    for pos, (g, e) in enumerate(m):
        if parity[g]:
            out.append((g, sign, m[:pos] + m[pos + 1:]))
            sign = -sign
        elif e > 1:
            out.append((g, e, m[:pos] + ((g, e - 1),) + m[pos + 1:]))
        else:
            out.append((g, e, m[:pos] + m[pos + 1:]))
    return out


def packed(d, a):
    return {_pack(d, e): c for e, c in a.items()}


def layout(parity):
    """(odd mask, unit per generator) of the super keys for `parity`."""
    odd, _, unit = super_layout(parity)
    return (1 << len(odd)) - 1, unit


def key_of(unit, mono):
    return sum(e * unit[g] for g, e in mono)


def packed_terms(d, terms, unit):
    """{super key: packed numerators} of {tuple monomial: {exponent: int}}."""
    return {key_of(unit, m): packed(d, p) for m, p in terms.items()}


def nonzero(terms):
    return {m: p for m, p in terms.items() if p}


def reference_element_mul(f, g, parity, sign):
    """sign * f * g on term maps {mono: {exponent tuple: int}}, one
    monomial pair at a time through the reference products."""
    out = {}
    for m1, p1 in f.items():
        for m2, p2 in g.items():
            s, mono = reference_mul(m1, m2, parity)
            if s:
                out[mono] = ref_add(out.get(mono, {}), ref_scale(ref_mul(p1, p2), s * sign))
    return nonzero(out)


class TestPythonKernel:
    def test_poly_add_cancels(self):
        x1, x2 = _pack(2, (1, 0)), _pack(2, (0, 1))
        a, b = {x1: 2}, {x1: -2, x2: 1}
        assert _kernel_py.poly_add(a, b) is a
        assert a == {x2: 1} and b == {x1: -2, x2: 1}

    def test_poly_mul_adds_packed_keys(self):
        a = {_pack(3, (1, 0, 2)): 3, 0: -1}
        b = {_pack(3, (0, 4, 1)): 2}
        assert _kernel_py.poly_mul(a, b) == {_pack(3, (1, 4, 3)): 6,
                                              _pack(3, (0, 4, 1)): -2}

    def test_super_layout(self):
        # odd bits low, in generator order; then one 16-bit field per even one
        assert super_layout((1, 0, 1, 0)) == ((0, 2), (1, 3), (1, 4, 2, 1 << 18))

    def test_packed_odd_square_is_zero(self):
        mask, unit = layout((1, 1))
        out = {}
        _kernel_py.element_mul({unit[0]: {0: 1}}, {unit[0]: {0: 1}}, mask, out, 1)
        assert out == {}

    def test_packed_koszul_sign(self):
        # psi2 * (psi1 y^1) = -psi1 y psi2: psi2 crosses psi1, never y
        mask, unit = layout((1, 0, 1))
        out = {}
        _kernel_py.element_mul({unit[2]: {0: 1}}, {unit[0] + unit[1]: {0: 3}}, mask, out, 1)
        assert out == {unit[0] + unit[1] + unit[2]: {0: -3}}

    def test_packed_derivative_signs(self):
        chart = make_chart("vinogradov", 4, 3)  # psi odd, chi even, p odd
        psi1, chi1, p1 = (chart.sid_of_name(n) for n in ("psi1", "chi1", "p1"))
        f = GradedElement(chart, {((psi1, 1), (chi1, 2), (p1, 1)): Poly.const(4, 1)})

        def walk(from_right):
            out = _derive(f, from_right, chart.odd_mask, True)
            return {tag: {chart.decode(k): nums[0] for k, nums in d.items()}
                    for tag, d in out.items()}
        # from the left an odd letter crosses the odd letters before it
        assert walk(False) == {psi1: {((chi1, 2), (p1, 1)): 1},
                               chi1: {((psi1, 1), (chi1, 1), (p1, 1)): 2},
                               p1: {((psi1, 1), (chi1, 2)): -1}}
        # from the right, the odd letters after it
        assert walk(True) == {psi1: {((chi1, 2), (p1, 1)): -1},
                              chi1: {((psi1, 1), (chi1, 1), (p1, 1)): 2},
                              p1: {((psi1, 1), (chi1, 2)): 1}}

    def test_even_partial_brings_down_exponent(self):
        chart = make_chart("vinogradov", 2, 2)  # p even
        p1 = chart.sid_of_name("p1")
        for e, rest in ((3, ((p1, 2),)), (1, ())):
            for from_right in (False, True):
                f = GradedElement(chart, {((p1, e),): Poly.const(2, 1)})
                # an even letter is derived on a first pass in no odd letter
                assert _derive(f, from_right, 0, True) == \
                    {p1: {chart.encode(rest): {0: e}}}
        const = GradedElement.from_poly(chart, Poly.const(2, 5))
        assert _left(const, chart.odd_mask) == {}

    def test_kernel_imports_no_fractions(self):
        tree = ast.parse(inspect.getsource(_kernel_py))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]


def int_polys(d):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * d),
                           st.integers(-9, 9).filter(bool), max_size=5)


@st.composite
def term_maps(draw):
    """A parity table, a variable count d and two term maps
    {mono: {exponent tuple: int}} over them."""
    parity, monos = draw(parity_and_monos(6))
    d = draw(st.integers(1, 3))
    polys = [draw(int_polys(d).filter(bool)) for _ in monos]
    return parity, d, dict(zip(monos[:3], polys[:3])), dict(zip(monos[3:], polys[3:]))


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(parity_and_monos(2))
    def test_packed_product_matches_bubble_sort(self, case):
        parity, (m1, m2) = case
        mask, unit = layout(parity)
        out = {}
        _kernel_py.element_mul({key_of(unit, m1): {0: 1}}, {key_of(unit, m2): {0: 1}},
                               mask, out, 1)
        sign, mono = reference_mul(m1, m2, parity)
        assert out == ({key_of(unit, mono): {0: sign}} if sign else {})
        # the earlier tuple merge agrees with the bubble sort too
        assert tuple_mul(m1, m2, parity) == (sign, mono)

    @settings(max_examples=300, deadline=None)
    @given(parity_and_monos(1))
    def test_tuple_partial_matches_letter_strike(self, case):
        parity, (m,) = case
        for from_right in (False, True):
            walk = tuple_partial(m, parity, from_right)
            # every generator of m, in order, each struck as the reference does
            assert [g for g, _, _ in walk] == [g for g, _ in m]
            for g, coeff, reduced in walk:
                assert (coeff, reduced) == reference_partial(m, g, parity, from_right)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * d),
                        st.integers(-9, 9).filter(bool), max_size=8),
        st.integers(0, d - 1))))
    def test_poly_partial_term_by_term(self, case):
        d, a, mu = case
        expected = {}
        for exp, c in a.items():
            if exp[mu]:
                e = list(exp)
                e[mu] -= 1
                key = _pack(d, e)
                expected[key] = expected.get(key, 0) + c * exp[mu]
        packed = {_pack(d, exp): c for exp, c in a.items()}
        assert _kernel_py.poly_partial(packed, mu) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), int_polys(d), int_polys(d))))
    def test_integer_add_and_mul(self, case):
        d, a, b = case
        pa, pb = packed(d, a), packed(d, b)
        assert _kernel_py.poly_mul(pa, pb) == packed(d, ref_mul(a, b))
        assert (pa, pb) == (packed(d, a), packed(d, b))
        # poly_add adds its second argument into its first, in place
        assert _kernel_py.poly_add(pa, pb) is pa
        assert pa == packed(d, ref_add(a, b))
        assert pb == packed(d, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), int_polys(d), int_polys(d), st.tuples(*[st.integers(0, 3)] * d),
        st.integers(-9, 9).filter(bool))))
    def test_poly_add_shifted_and_scaled(self, case):
        d, a, b, shift, scale = case
        pa, pb = packed(d, a), packed(d, b)
        row = ref_scale(ref_mul({shift: 1}, b), scale)
        assert _kernel_py.poly_add(pa, pb, _pack(d, shift), scale) is pa
        assert pa == packed(d, ref_add(a, row))
        assert pb == packed(d, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), int_polys(d), int_polys(d), int_polys(d),
        st.integers(-9, 9).filter(bool))))
    def test_poly_mul_accumulates_weighted(self, case):
        d, a, b, acc, weight = case
        pa, pb, out = packed(d, a), packed(d, b), packed(d, acc)
        expected = packed(d, ref_add(acc, ref_scale(ref_mul(a, b), weight)))
        assert _kernel_py.poly_mul(pa, pb, weight, out) is out
        assert out == expected
        assert (pa, pb) == (packed(d, a), packed(d, b))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), int_polys(d).filter(lambda a: len(a) == 1), int_polys(d))))
    def test_poly_mul_one_term_factor(self, case):
        d, a, b = case
        pa, pb = packed(d, a), packed(d, b)
        assert _kernel_py.poly_mul(pa, pb) == packed(d, ref_mul(a, b))
        assert _kernel_py.poly_mul(pb, pa) == packed(d, ref_mul(b, a))

    def test_poly_mul_cancels_and_empty_factors(self):
        x, one = _pack(1, (1,)), 0
        # (x + 1)(x - 1) - (x^2 - 1) is empty
        prod = _kernel_py.poly_mul({x: 1, one: 1}, {x: 1, one: -1})
        assert prod == {2 * x: 1, one: -1}
        assert _kernel_py.poly_add(prod, {2 * x: -1, one: 1}) == {}
        # (x - 1)(x^2 + x + 1) = x^3 - 1: terms of different rows cancel
        assert _kernel_py.poly_mul({x: 1, one: -1}, {2 * x: 1, x: 1, one: 1}) \
            == {3 * x: 1, one: -1}
        for a in ({}, {x: 3}, {x: 1, one: 2}):
            assert _kernel_py.poly_mul(a, {}) == {}
            assert _kernel_py.poly_mul({}, a) == {}

    @settings(max_examples=100, deadline=None)
    @given(term_maps(), st.sampled_from([1, -1, 2, -2, 3]))
    def test_element_mul_weight(self, case, weight):
        parity, d, f, g = case
        mask, unit = layout(parity)
        pf, pg = packed_terms(d, f, unit), packed_terms(d, g, unit)
        out = {}
        _kernel_py.element_mul(pf, pg, mask, out, weight)
        assert out == packed_terms(
            d, reference_element_mul(f, g, parity, weight), unit)
        # a second pair lands on the monomials of the first: rows add in place
        _kernel_py.element_mul(pf, pg, mask, out, -2 * weight)
        assert out == packed_terms(
            d, reference_element_mul(f, g, parity, -weight), unit)
        assert (pf, pg) == (packed_terms(d, f, unit), packed_terms(d, g, unit))

    @settings(max_examples=100, deadline=None)
    @given(term_maps(), st.sampled_from([1, -1]))
    def test_element_mul_accumulates_the_pair_sum(self, case, sign):
        parity, d, f, g = case
        mask, unit = layout(parity)
        pf, pg = packed_terms(d, f, unit), packed_terms(d, g, unit)
        out = {}
        _kernel_py.element_mul(pf, pg, mask, out, sign)
        first = reference_element_mul(f, g, parity, sign)
        assert out == packed_terms(d, first, unit)
        # a second pair adds into the same map
        _kernel_py.element_mul(pg, pf, mask, out, 1)
        both = dict(first)
        for m, p in reference_element_mul(g, f, parity, 1).items():
            both[m] = ref_add(both.get(m, {}), p)
        assert out == packed_terms(d, nonzero(both), unit)
        # the same pair with both signs cancels term by term, and each
        # monomial is deleted where its numerators cancel
        out = {}
        _kernel_py.element_mul(pf, pg, mask, out, sign)
        _kernel_py.element_mul(pf, pg, mask, out, -sign)
        assert out == {}
        # the factors' numerator dicts were read, never written
        assert (pf, pg) == (packed_terms(d, f, unit), packed_terms(d, g, unit))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d), int_polys(d), int_polys(d), int_polys(d),
        st.sampled_from([1, -1, 3, -3]))))
    def test_poly_mul_takes_the_partial_in_the_product(self, case):
        d, a, b, acc, weight = case
        pa, pb = packed(d, a), packed(d, b)
        for mu in range(d):
            # either factor differentiated: when the lengths differ, one
            # orientation has it shorter and the other longer
            for x, y in ((pa, pb), (pb, pa)):
                expected = _kernel_py.poly_mul(x, _kernel_py.poly_partial(y, mu), weight)
                assert _kernel_py.poly_mul(x, y, weight, None, mu) == expected
                # into a map holding other terms, and into one that cancels
                out = packed(d, acc)
                assert _kernel_py.poly_mul(x, y, weight, out, mu) is out
                assert out == _kernel_py.poly_add(packed(d, acc), expected)
                out = _kernel_py.poly_scale(expected, -1)
                assert _kernel_py.poly_mul(x, y, weight, out, mu) == {}
        assert (pa, pb) == (packed(d, a), packed(d, b))

    def test_poly_mul_partial_on_the_shorter_and_the_longer_factor(self):
        x1, x2 = _pack(2, (1, 0)), _pack(2, (0, 1))
        cube = {3 * x1: 1, 2 * x1 + x2: 3, x2: -2, 0: 5}  # x1^3 + 3x1^2x2 - 2x2 + 5
        # d/dx1 of cube = 3x1^2 + 6x1x2, times 2x2
        expected = {2 * x1 + x2: 6, x1 + 2 * x2: 12}
        assert _kernel_py.poly_mul({x2: 2}, cube, 1, None, 0) == expected
        # d/dx1 of 2x1x2 = 2x2, times cube
        assert _kernel_py.poly_mul(cube, {x1 + x2: 2}, 1, None, 0) \
            == _kernel_py.poly_mul(cube, {x2: 2})
        # no term holds the variable: nothing is added
        assert _kernel_py.poly_mul(cube, {x2: 2}, -3, None, 0) == {}

    @settings(max_examples=100, deadline=None)
    @given(term_maps(), st.sampled_from([1, -1, 2, -3]))
    def test_element_mul_reads_one_side_as_its_partial(self, case, weight):
        parity, d, f, g = case
        mask, unit = layout(parity)
        pf, pg = packed_terms(d, f, unit), packed_terms(d, g, unit)
        for mu in range(d):
            def materialised(terms):
                return {k: _kernel_py.poly_partial(p, mu) for k, p in terms.items()}
            for dx, left, right in ((-(mu + 1), materialised(pf), pg),
                                    (mu + 1, pf, materialised(pg))):
                lazy, built = {}, {}
                _kernel_py.element_mul(pf, pg, mask, lazy, weight, dx)
                _kernel_py.element_mul(left, right, mask, built, weight)
                # a numerator without x^mu adds nothing and makes no entry
                assert lazy == nonzero(built)
        assert (pf, pg) == (packed_terms(d, f, unit), packed_terms(d, g, unit))


BRACKET_CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 2, 3),
                  make_chart("m5", 6)]


def fresh(f):
    """A copy of f with no memoised derivatives."""
    return GradedElement(f.chart, dict(f.terms))


def rederived(twin, memo):
    """The memo of `twin`, a copy of an element, derived afresh in the
    letters `memo` holds, each side in one first pass: what the memo of
    the element copied must equal, however often its left map widened.  A
    set q entry (Theta element, (Theta, element)) is taken afresh as
    `poisson(theta, copy)` on another copy, so the twin's own derivative
    slots stay those of the two passes."""
    twin._derivs = None
    if memo[1] is not None:
        _right(twin)
    if memo[0] is not None:
        _left(twin, memo[2])
    if memo[4] is not None:
        theta = memo[4][0]
        twin._derivs[4] = (theta, poisson(theta, fresh(twin)))
    return twin._derivs


@st.composite
def signed_brackets(draw):
    """A chart and 2-3 brackets (f, g, sign) whose arguments have
    different non-unit denominators; each bracket's f and g come with
    their derivatives memoised by an earlier bracket, or none."""
    chart = draw(st.sampled_from(BRACKET_CHARTS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    brackets = []
    for k in range(draw(st.integers(2, 3))):
        f = random_homogeneous(rng, chart, rng.randint(1, chart.p)) * Fraction(1, 2 + k)
        g = random_homogeneous(rng, chart, rng.randint(1, chart.p)) * Fraction(k + 1, 5 + 2 * k)
        if draw(st.booleans()):
            poisson(f, g)  # warms f's right and g's left memo
        brackets.append((f, g, draw(st.sampled_from([1, -1]))))
    return chart, brackets


PRODUCT_CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
                  make_chart("m5", 6)]
WEIGHTS = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4),
           Fraction(-3, 4)]


@st.composite
def weighted_sums(draw):
    """A chart, 0-2 weighted brackets and 0-3 weighted products of
    homogeneous elements with denominators up to 12."""
    chart = draw(st.sampled_from(PRODUCT_CHARTS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def element():
        return random_homogeneous(rng, chart, rng.randint(0, chart.p)) \
            * Fraction(rng.randint(1, 12), rng.randint(1, 12))

    def terms(most):
        return [(element(), element(), draw(st.sampled_from(WEIGHTS)))
                for _ in range(draw(st.integers(0, most)))]

    return chart, terms(2), terms(3)


@st.composite
def cancelling_products(draw):
    """A chart of PRODUCT_CHARTS, three homogeneous elements f, g, h with
    denominators up to 12, a set `taken` of g's super keys and a weight."""
    chart = draw(st.sampled_from(PRODUCT_CHARTS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def element():
        return random_homogeneous(rng, chart, rng.randint(0, chart.p), terms=3) \
            * Fraction(rng.randint(1, 12), rng.randint(1, 12))

    f, g, h = element(), element(), element()
    keys = sorted(g.nums)
    taken = set(keys[:draw(st.integers(0, len(keys)))])
    return chart, f, g, h, taken, draw(st.sampled_from([1, -1, 2, -3]))


def koszul(f, g):
    """The sign of g*f against f*g for homogeneous f and g: -1 when both
    have odd degree."""
    return -1 if f.euler_degree() % 2 and g.euler_degree() % 2 else 1


class TestCancelledMonomials:
    """`element_mul` deletes a monomial where its numerators cancel, so
    `product_sum` returns a canonical element with no filtering pass."""

    @settings(max_examples=150, deadline=None)
    @given(cancelling_products())
    def test_full_cancellation_is_the_canonical_zero(self, case):
        chart, f, g, _, _, w = case
        # w*f*g less itself, and less w*(+-g*f): keys of both orders cancel
        for pairs in ([(f.nums, g.nums, w, 0), (f.nums, g.nums, -w, 0)],
                      [(f.nums, g.nums, w, 0), (g.nums, f.nums, -w * koszul(f, g), 0)]):
            out = product_sum(chart, f.den * g.den, pairs)
            assert out.nums == {} and out.den == 1
            assert out == GradedElement.zero(chart)

    @settings(max_examples=150, deadline=None)
    @given(cancelling_products())
    def test_partial_cancellation_keeps_no_empty_map(self, case):
        chart, f, g, h, taken, w = case
        kept = _reduced(chart, g.den, {k: v for k, v in g.nums.items() if k not in taken})
        gone = {k: v for k, v in g.nums.items() if k in taken}
        den = f.den * g.den
        out = product_sum(chart, den, [(f.nums, g.nums, w, 0), (f.nums, gone, -w, 0)])
        assert element_canonical(out)
        assert out == f * kept * w
        # a third product between the two that cancel: where f*h meets
        # f*gone, only some numerators of a monomial cancel
        negated = {k: {x: -n for x, n in v.items()} for k, v in gone.items()}
        out = product_sum(chart, den * h.den, [
            (f.nums, g.nums, w * h.den, 0), (f.nums, h.nums, w * g.den, 0),
            (f.nums, negated, w * h.den, 0)])
        assert element_canonical(out)
        assert out == f * (kept + h) * w


class TestBracketSum:
    @settings(max_examples=60, deadline=None)
    @given(signed_brackets())
    def test_equals_the_separate_brackets(self, case):
        chart, brackets = case
        expected = GradedElement.zero(chart)
        for f, g, sign in brackets:
            expected = expected + poisson(fresh(f), fresh(g), sign)
        got = bracket_sum(chart, brackets)
        assert got == expected
        assert all(canonical(p) for p in got.terms.values())

    def test_a_bracket_minus_itself_is_zero(self):
        chart = BRACKET_CHARTS[0]
        f = GradedElement.from_poly(chart, parse_poly("1/3*x1^2 + x2", 3))
        g = GradedElement.generator(chart, "p1") * Fraction(1, 2)
        assert not poisson(f, g).is_zero()
        # the first bracket reads the memo of f and g, the second derives copies
        assert bracket_sum(chart, [(f, g, 1), (fresh(f), fresh(g), -1)]) \
            == GradedElement.zero(chart)
        assert bracket_sum(chart, []) == GradedElement.zero(chart)

    def test_chart_mismatch(self):
        a, b = BRACKET_CHARTS[:2]
        f = GradedElement.generator(a, "psi1")
        with pytest.raises(ChartError):
            bracket_sum(b, [(f, f, 1)])
        with pytest.raises(ChartError):
            bracket_sum(a, [(f, GradedElement.generator(b, "psi1"), 1)])
        # a product on another chart raises, as a bracket does
        with pytest.raises(ChartError):
            bracket_sum(b, [], [(f, f, 1)])
        with pytest.raises(ChartError):
            bracket_sum(a, [], [(f, GradedElement.generator(b, "psi1"), 1)])

    @settings(max_examples=80, deadline=None)
    @given(weighted_sums())
    def test_products_join_the_sum(self, case):
        """Brackets and products with int and Fraction weights, summed in
        one accumulator, equal the same terms computed apart and added."""
        chart, brackets, products = case
        expected = GradedElement.zero(chart)
        for f, g, weight in brackets:
            expected = expected + poisson(fresh(f), fresh(g)) * weight
        for f, g, weight in products:
            expected = expected + f * g * weight
        got = bracket_sum(chart, brackets, products)
        assert got == expected
        assert all(canonical(p) for p in got.terms.values())

    def test_a_weight_denominator_joins_the_lcm(self):
        chart = BRACKET_CHARTS[0]
        f = GradedElement.from_poly(chart, parse_poly("1/3*x1^2 + x2", 3))
        g = GradedElement.generator(chart, "p1") * Fraction(1, 2)
        half = poisson(f, g) * Fraction(1, 2)
        assert bracket_sum(chart, [(f, g, Fraction(1, 2))]) == half
        assert bracket_sum(chart, [], [(f, g, Fraction(3, 4)), (g, f, Fraction(-3, 4))]) \
            == GradedElement.zero(chart)
        # the exact defect, not a multiple of it
        assert bracket_sum(chart, [(f, g, 1)], [(f, g, Fraction(-1, 2))]) \
            == poisson(f, g) - f * g * Fraction(1, 2)

    @settings(max_examples=30, deadline=None)
    @given(signed_brackets())
    def test_brackets_leave_the_memo_as_derived(self, case):
        chart, brackets = case
        copies = [(e, GradedElement(chart, {m: p * 1 for m, p in e.terms.items()}))
                  for f, g, _ in brackets for e in (f, g)]  # p * 1 copies numerators
        bracket_sum(chart, brackets)
        bracket_sum(chart, [(g, f, sign) for f, g, sign in brackets])
        for e, copy in copies:
            assert e.terms == copy.terms
            if e._derivs is not None:
                assert e._derivs == rederived(copy, e._derivs)


# coefficients as inputs arrive: int, Fraction (integral ones included)
coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))).filter(bool)


def polys(d, max_terms=6):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), coefficients,
                           max_size=max_terms)


def as_fractions(a):
    return {exp: Fraction(c) for exp, c in a.items()}


def stored_exactly(a):
    return all(type(c) in (int, Fraction) and c != 0 for c in a.values())


# (d, poly) and (d, poly, poly) with up to 8 variables, the m5 chart's d
one_poly = st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), polys(d)))
two_polys = st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.just(d), polys(d, 5), polys(d, 5)))


class TestAgainstOldKernel:
    """Poly arithmetic on mixed rational inputs equals the reference,
    keeps its stored form canonical and renders the same text."""

    @settings(max_examples=100, deadline=None)
    @given(two_polys)
    def test_ring_operations(self, case):
        d, a, b = case
        pa, pb = Poly(d, a), Poly(d, b)
        for got, want in ((pa + pb, ref_add(a, b)),
                          (pa - pb, ref_add(a, ref_scale(b, -1))),
                          (-pa, ref_scale(a, -1)),
                          (pa * pb, ref_mul(a, b))):
            assert canonical(got)
            assert got.terms == want
            assert exact_view(got.terms)
            assert str(got) == ref_str(want)

    @settings(max_examples=100, deadline=None)
    @given(one_poly,
           st.sampled_from([1, -1, 0, 2, Fraction(1), Fraction(-1), Fraction(4, 2)])
           | coefficients)
    def test_scale(self, case, c):
        d, a = case
        got = Poly(d, a) * c
        assert canonical(got)
        assert got.terms == ref_scale(a, c)
        assert exact_view(got.terms)
        assert str(got) == ref_str(ref_scale(a, c))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), polys(d), st.integers(1, d))))
    def test_partial(self, case):
        d, a, mu = case
        got = Poly(d, a).partial(mu)
        assert canonical(got)
        assert got.terms == ref_partial(a, mu - 1)
        assert exact_view(got.terms)

    @settings(max_examples=100, deadline=None)
    @given(two_polys, st.integers(1, 6))
    def test_equality_and_hash(self, case, k):
        d, a, b = case
        pa = Poly(d, a)
        # the same polynomial reached another way: (a * k + b) - b, then / k
        same = ((pa * k + Poly(d, b)) - Poly(d, b)) * Fraction(1, k)
        assert canonical(same)
        assert same == pa and hash(same) == hash(pa)
        assert (Poly(d, b) == pa) == (ref_add(b, ref_scale(a, -1)) == {})
        assert Poly(d, as_fractions(a)) == pa

    @settings(max_examples=100, deadline=None)
    @given(one_poly)
    def test_pack_round_trip(self, case):
        d, a = case
        p = Poly(d, a)
        assert canonical(p)
        assert p.terms == a
        assert Poly(d, p.terms) == p
        for exp in a:
            assert _unpack(d, _pack(d, exp)) == exp


class TestMixedCoefficients:
    """int and Fraction coefficients give the same results as all-Fraction
    ones, and the view holds `int` exactly when a value is integral."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), polys(d), polys(d))))
    def test_add_and_mul(self, case):
        d, a, b = case
        for op in (Poly.__add__, Poly.__mul__):
            out = op(Poly(d, a), Poly(d, b))
            assert out == op(Poly(d, as_fractions(a)), Poly(d, as_fractions(b)))
            assert stored_exactly(out.terms) and exact_view(out.terms)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), polys(d))),
           st.sampled_from([1, -1, 0, Fraction(1), Fraction(-1)]) | coefficients)
    def test_scale(self, case, c):
        d, a = case
        out = Poly(d, a) * c
        assert out == Poly(d, as_fractions(a)) * Fraction(c)
        assert out.terms == {exp: c * v for exp, v in a.items() if c}
        assert stored_exactly(out.terms) and exact_view(out.terms)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), polys(d),
                                                         st.integers(1, d))))
    def test_partial(self, case):
        d, a, mu = case
        out = Poly(d, a).partial(mu)
        assert out == Poly(d, as_fractions(a)).partial(mu)
        assert stored_exactly(out.terms) and exact_view(out.terms)

    def test_integral_coefficients_are_stored_as_int(self):
        e = (1, 0, 2)
        assert type(Poly(3, {e: Fraction(4, 2)}).terms[e]) is int
        assert type(Poly(3, {e: True}).terms[e]) is int
        assert [type(c) for c in Poly.var(3, 2).terms.values()] == [int]
        assert {exp: type(c) for exp, c in parse_poly("3*x1 - 2", 3).terms.items()} \
            == {(1, 0, 0): int, (0, 0, 0): int}
        assert type(parse_poly("3/2*x1", 3).terms[(1, 0, 0)]) is Fraction
        # an integral result of rational arithmetic is an int too
        assert type((parse_poly("3/2*x1", 3) * 2).terms[(1, 0, 0)]) is int

    def test_float_is_rejected(self):
        with pytest.raises(PolyError):
            Poly(3, {(1, 0, 0): 0.5})
        with pytest.raises(PolyError):
            Poly(3, {(1, 0, 0): 1.0})


class TestPackedExponents:
    LIMIT = 2 ** 15

    @pytest.mark.parametrize("d, mu", [(1, 1), (3, 2), (8, 8)])
    def test_carry_into_guard_bit_raises(self, d, mu):
        high = Poly.var(d, mu, self.LIMIT - 1)
        with pytest.raises(ExponentOverflowError) as err:
            high * Poly.var(d, mu)
        assert not isinstance(err.value, PolyError)
        if d > 1:  # a carry in one field, not a neighbour's exponent
            other = mu % d + 1
            exp = [0] * d
            exp[mu - 1], exp[other - 1] = self.LIMIT - 1, 1
            assert (high * Poly.var(d, other)).terms == {tuple(exp): 1}

    def test_carry_in_graded_product_raises(self):
        from gradedq import GradedElement, make_chart
        chart = make_chart("vinogradov", 2, 2)
        high = GradedElement.from_poly(chart, Poly.var(2, 1, self.LIMIT - 1))
        with pytest.raises(ExponentOverflowError):
            high * GradedElement.generator(chart, "x1")

    def test_exponent_at_field_limit_is_an_input_error(self):
        with pytest.raises(PolyError):
            Poly.var(3, 1, self.LIMIT)
        with pytest.raises(PolyError):
            Poly(2, {(0, self.LIMIT): 1})
        with pytest.raises(PolyError):
            Poly(2, {(1, 0, 0): 1})   # wrong length
        with pytest.raises(PolyError):
            Poly(2, {(-1, 0): 1})
        assert Poly.var(3, 3, self.LIMIT - 1).terms == {(0, 0, self.LIMIT - 1): 1}

    def test_carry_in_super_field_raises(self):
        chart = make_chart("vinogradov", 3, 2)
        p1, p2 = chart.sid_of_name("p1"), chart.sid_of_name("p2")
        one = Poly.const(3, 1)
        high = GradedElement(chart, {((p1, self.LIMIT - 1),): one})
        with pytest.raises(ExponentOverflowError) as err:
            high * GradedElement.generator(chart, "p1")
        assert not isinstance(err.value, PolyError)
        # a carry in one field, not a neighbour's exponent
        assert (high * GradedElement.generator(chart, "p2")).terms \
            == {((p1, self.LIMIT - 1), (p2, 1)): one}
        # the constructor takes no exponent a field cannot hold
        with pytest.raises(ChartError):
            GradedElement(chart, {((p1, self.LIMIT),): one})
        with pytest.raises(ChartError):
            GradedElement(chart, {((chart.sid_of_name("psi1"), 2),): one})

    def test_carry_in_bracket_coefficient_raises(self):
        # (psi1, chi1) = 1, so the bracket multiplies the two coefficients
        chart = make_chart("vinogradov", 3, 2)
        f = GradedElement.generator(chart, "psi1") * Poly.var(3, 1, self.LIMIT - 1)
        g = GradedElement.generator(chart, "chi1") * Poly.var(3, 1)
        with pytest.raises(ExponentOverflowError):
            poisson(f, g)
        assert poisson(f, GradedElement.generator(chart, "chi1") * Poly.var(3, 2)) \
            == GradedElement.from_poly(chart, Poly(3, {(self.LIMIT - 1, 1, 0): 1}))

    def carrying_terms(self):
        """(chart, x pair, super pair): f, g on v(3,2) whose bracket and
        whose product carry into an x guard bit, and into a super one."""
        chart = make_chart("vinogradov", 3, 2)
        p1 = chart.sid_of_name("p1")
        x_high = GradedElement.generator(chart, "psi1") * Poly.var(3, 1, self.LIMIT - 1)
        x_one = GradedElement.generator(chart, "chi1") * Poly.var(3, 1)
        # (x1 p1^(L-1), p1^2) = -+2 p1^L, and p1^(L-1) * p1^2 carries too
        p_high = GradedElement(chart, {((p1, self.LIMIT - 1),): Poly.var(3, 1)})
        p_two = GradedElement(chart, {((p1, 2),): Poly.const(3, 1)})
        return chart, (x_high, x_one), (p_high, p_two)

    def test_guard_carries_raise_the_overflow_message(self):
        chart, *carrying = self.carrying_terms()
        message = r"^an exponent reached 32768, the packed field limit$"
        for f, g in carrying:
            for run in (lambda: poisson(f, g), lambda: bracket_sum(chart, [(f, g, 1)]),
                        lambda: bracket_sum(chart, [], [(f, g, 1)]),
                        lambda: bracket_sum(chart, [], [(f, g, Fraction(-1, 3))])):
                with pytest.raises(ExponentOverflowError, match=message):
                    run()

    def test_a_carry_that_cancels_is_not_checked(self):
        chart, *carrying = self.carrying_terms()
        psi = GradedElement.generator(chart, "psi2") * Poly.var(3, 2) * 3
        chi = GradedElement.generator(chart, "chi2")
        kept = poisson(psi, chi)
        assert kept
        for f, g in carrying:
            zero = GradedElement.zero(chart)
            assert bracket_sum(chart, [(f, g, 1), (fresh(f), fresh(g), -1)]) == zero
            assert bracket_sum(chart, [], [(f, g, 2), (f, g, -2)]) == zero
            # a sum that keeps other monomials is checked on those alone
            assert bracket_sum(chart, [(f, g, 1), (psi, chi, 1),
                                       (fresh(f), fresh(g), -1)]) == kept
            assert bracket_sum(chart, [(psi, chi, 1)], [(f, g, 1), (f, g, -1)]) == kept


# the charts of the packed-form properties: p even, p odd (chi even, p
# odd), and the m5 chart with its odd zeta
PACKED_CHARTS = [make_chart("vinogradov", 3, 2), make_chart("vinogradov", 4, 3),
                 make_chart("m5", 6)]


@st.composite
def chart_monos(draw, count):
    """A chart of PACKED_CHARTS and `count` canonical monomials on it."""
    chart = draw(st.sampled_from(PACKED_CHARTS))
    parity = chart.parity
    monos = []
    for _ in range(count):
        sids = draw(st.lists(st.integers(0, len(parity) - 1), unique=True, max_size=7))
        monos.append(tuple(sorted(
            (s, 1 if parity[s] else draw(st.integers(1, 4))) for s in sids)))
    return chart, monos


@st.composite
def chart_term_maps(draw):
    """A chart of PACKED_CHARTS and two term maps {mono: {exponent tuple:
    int}} on it."""
    chart, monos = draw(chart_monos(6))
    polys = [draw(int_polys(chart.d).filter(bool)) for _ in monos]
    return chart, dict(zip(monos[:3], polys[:3])), dict(zip(monos[3:], polys[3:]))


class TestPackedOnCharts:
    """The packed kernel on real chart layouts agrees with the word
    references: bubble sort for products, letter strike for derivatives."""

    @settings(max_examples=300, deadline=None)
    @given(chart_monos(2))
    def test_product_matches_reference(self, case):
        chart, (m1, m2) = case
        out = {}
        _kernel_py.element_mul({chart.encode(m1): {0: 1}}, {chart.encode(m2): {0: 1}},
                               chart.odd_mask, out, 1)
        sign, mono = reference_mul(m1, m2, chart.parity)
        # zero on a shared odd letter, else the sign and the key of the product
        assert out == ({chart.encode(mono): {0: sign}} if sign else {})
        if sign:
            assert chart.decode(next(iter(out))) == mono

    @settings(max_examples=300, deadline=None)
    @given(chart_monos(1))
    def test_derivative_walk_matches_reference(self, case):
        chart, (m,) = case
        f = GradedElement(chart, {m: Poly.const(chart.d, 1)})
        for from_right in (False, True):
            expected = {}
            for sid, _ in m:
                coeff, reduced = reference_partial(m, sid, chart.parity, from_right)
                expected[sid] = {chart.encode(reduced): {0: coeff}}
            assert _derive(f, from_right, chart.odd_mask, True) == expected
            # in some odd letters: those, and every even one, with the same
            # signs; the rest of the odd letters are what widening adds
            some = sum(chart.unit[sid] for sid in chart.odd_sids[::2])
            part = _derive(f, from_right, some, True)
            assert part == {sid: d for sid, d in expected.items()
                            if not chart.parity[sid] or chart.unit[sid] & some}
            part.update(_derive(f, from_right, chart.odd_mask & ~some, False))
            assert part == expected

    @settings(max_examples=100, deadline=None)
    @given(chart_term_maps(), st.sampled_from([1, -1, 2, -3]))
    def test_element_mul_matches_reference(self, case, weight):
        chart, f, g = case
        d, unit = chart.d, chart.unit
        out = {}
        _kernel_py.element_mul(packed_terms(d, f, unit), packed_terms(d, g, unit),
                               chart.odd_mask, out, weight)
        assert out == packed_terms(
            d, reference_element_mul(f, g, chart.parity, weight), unit)

    @pytest.mark.parametrize("chart", PACKED_CHARTS, ids=repr)
    def test_key_at_packs_the_unranked_monomial(self, chart):
        for n in range(chart.p + 2):
            keys = [_key_at(chart, n, i) for i in range(monomial_count(chart, n))]
            assert keys == [chart.encode(monomial_at(chart, n, i))
                            for i in range(len(keys))]
            assert len(set(keys)) == len(keys)
            assert all(chart.key_degree(k) == n for k in keys)

    @settings(max_examples=100, deadline=None)
    @given(chart_term_maps(), st.integers(1, 6))
    def test_terms_round_trip(self, case, k):
        chart, f, _ = case
        terms = {m: Poly(chart.d, p) * Fraction(1, k) for m, p in f.items()}
        e = GradedElement(chart, terms)
        assert e.terms == terms
        assert GradedElement(chart, e.terms) == e
        assert all(canonical(p) for p in e.terms.values())
        assert e.monomials() == sorted(terms, key=lambda m: (chart.mono_degree(m), m))


def element_canonical(e):
    """The element's stored form is canonical: a positive denominator
    sharing no factor with every numerator, no empty inner map, and zero
    over 1."""
    assert type(e.den) is int and e.den > 0
    assert all(e.nums.values())
    assert gcd(e.den, *(n for v in e.nums.values() for n in v.values())) == 1
    return True


@st.composite
def rational_elements(draw):
    """An element on a chart of PACKED_CHARTS with 0 to 3 terms whose
    coefficients have denominators up to 12."""
    chart, f, _ = draw(chart_term_maps())
    terms = {m: Poly(chart.d, {e: Fraction(n, draw(st.integers(1, 12)))
                               for e, n in p.items()})
             for m, p in list(f.items())[:draw(st.integers(0, 3))]}
    return GradedElement(chart, terms)


scalars = (st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1)])
           | st.integers(-60, 60)
           | st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30)))


class TestElementScaling:
    """Scaling by an int or Fraction, on either side, and negation agree
    with scaling each coefficient by the Fraction reference, give a
    canonical element, and leave the operand and its derivative memo as
    they were."""

    @settings(max_examples=200, deadline=None)
    @given(rational_elements(), scalars)
    def test_scaling_matches_per_monomial_reference(self, e, c):
        _right(e)
        _left(e, e.chart.odd_mask)
        nums, memo = copy.deepcopy(e.nums), e._derivs
        before = copy.deepcopy(memo)
        terms = dict(e.terms)
        for out, k in ((e * c, c), (c * e, c), (-e, -1)):
            reference = GradedElement(e.chart, {
                m: Poly(e.chart.d, {exp: v * Fraction(k) for exp, v in p.terms.items()})
                for m, p in terms.items()})
            assert out == reference
            assert element_canonical(out)
        assert e.nums == nums
        assert e._derivs is memo and memo == before
