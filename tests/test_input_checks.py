"""Input checks of the library API that the suites and the CLI never
reach: each bad argument raises the error class its module documents,
and a few near misses that are valid keep working."""

from fractions import Fraction

import pytest

from gradedq import (ChartError, DiffForm, FormError, GradedElement, Hamiltonian,
                     HamiltonianError, MatrixError, Poly, PolyError, Section,
                     SectionError, anchor, dorfman, embed_form, encode_section,
                     make_chart, pairing, theta_vinogradov)
from gradedq.genmetric import as_matrix, mat_inv

V32 = make_chart("vinogradov", 3, 2)
V42 = make_chart("vinogradov", 4, 2)
THETA = theta_vinogradov(V32)


def gen(name, chart=V32):
    return GradedElement.generator(chart, name)


def section(chart):
    """The section x1 d/dx1 + dx2 on chart."""
    d = chart.d
    v = (Poly.var(d, 1),) + tuple(Poly.zero(d) for _ in range(d - 1))
    return encode_section(chart, Section(v, DiffForm.basis(d, (2,)), None))


A = section(V32)
DEGREE_2 = "A must be homogeneous of degree p-1=1, got 2"


@pytest.mark.parametrize("call, error, match", [
    (lambda: dorfman(THETA, gen("p1"), A), SectionError, DEGREE_2),
    (lambda: pairing(gen("p1"), A), SectionError, DEGREE_2),
    (lambda: anchor(THETA, gen("p1"), Poly.var(3, 1)), SectionError, DEGREE_2),
    (lambda: dorfman(THETA, section(V42), A), ChartError, "chart mismatch on A"),
    (lambda: anchor(THETA, A, Poly.var(4, 1)), SectionError, "function on R\\^4"),
    (lambda: Hamiltonian(V32, gen("p1"), ("beta", None)), HamiltonianError,
     "degree p\\+1=3"),
    (lambda: embed_form(V32, DiffForm.basis(4, (1,))), FormError, "R\\^4"),
    (lambda: as_matrix([[1, 2], [3]]), MatrixError, "equal length"),
    (lambda: mat_inv(as_matrix([[1, 2, 3], [4, 5, 6]])), MatrixError, "square"),
    (lambda: Poly.var(3, 4), PolyError, "out of range"),
    (lambda: Poly.var(3, 1).partial(4), PolyError, "out of range"),
    (lambda: Poly.var(3, 1) ** -1, PolyError, "negative powers"),
    (lambda: 1 - Poly.var(3, 1), None, Poly(3, {(0, 0, 0): 1, (1, 0, 0): -1})),
    (lambda: Poly.const(3, 2) == 2, None, True),
    (lambda: Poly(3, {(1, 0, 0): "1/2"}), None, Poly.var(3, 1) * Fraction(1, 2)),
], ids=["dorfman degree", "pairing degree", "anchor degree", "dorfman chart",
        "anchor function", "hamiltonian degree", "embed_form d",
        "ragged matrix", "non-square inverse", "var index", "partial index",
        "negative power", "int minus poly", "poly equals int", "string coeff"])
def test_input_check(call, error, match):
    if error is None:
        assert call() == match
    else:
        with pytest.raises(error, match=match):
            call()


# ---------------------------------------------------------------------
# one checked way in: monomial tuples, element coefficients, form terms
# ---------------------------------------------------------------------

ONE = Poly.const(3, 1)
CHI1 = V32.sid("chi", 1)


@pytest.mark.parametrize("mono", [
    ((0, 1), (0, 1)), ((1, 1), (0, 1)), ((-1, 1),), ((99, 1),), ((9, 1),),
    ((0, 2),), ("junk",), ((0, 1, 2),), (("0", 1),), ((CHI1, 1.0),), [(0, 1)],
], ids=["repeated sid", "descending sids", "negative sid", "sid far out",
        "sid one past", "odd square", "not a pair", "triple", "str sid",
        "float exponent", "list"])
def test_non_canonical_monomial_raises(mono):
    with pytest.raises(ChartError):
        V32.encode(mono)
    if isinstance(mono, tuple):
        with pytest.raises(ChartError):
            GradedElement(V32, {mono: ONE})
        # a Mapping query answers instead of raising
        assert mono not in gen("psi1").terms
        assert gen("psi1").terms.get(mono) is None


def test_canonical_monomial_still_encodes():
    psi12 = GradedElement(V32, {((0, 1), (1, 1)): ONE})
    assert psi12 == gen("psi1") * gen("psi2")
    assert psi12.terms[((0, 1), (1, 1))] == ONE
    assert ((0, 1),) in gen("psi1").terms


def test_wrong_dimension_coefficient_raises():
    with pytest.raises(PolyError, match="dimension mismatch: 5 vs 3"):
        GradedElement(V32, {((CHI1, 1),): Poly.var(5, 5)})
    with pytest.raises(PolyError, match="dimension mismatch: 4 vs 3"):
        GradedElement.from_poly(V32, Poly.var(4, 1))
    with pytest.raises(FormError, match="R\\^4, form on R\\^3"):
        DiffForm.from_poly(3, Poly.var(4, 1))
    with pytest.raises(FormError, match="R\\^4, form on R\\^3"):
        DiffForm(3, 1).add_term((1,), Poly.var(4, 1))
    with pytest.raises(FormError, match="R\\^2, form on R\\^3"):
        DiffForm.basis(3, (2, 1), Poly.var(2, 1))
