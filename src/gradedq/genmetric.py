"""Exact-rational generalised metrics and the O(d,d) action.

Matrices are tuples of tuples of Fractions.  The duality-group action
convention is H' = O^t H O; the B-shift generator ((I,0),(b',I)) then
sends H(g, b) to H(g, b + b'), which is verified as a test.
"""

from __future__ import annotations

from fractions import Fraction

from .config import MatrixError


# ---------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------

def as_matrix(rows) -> tuple:
    out = tuple(tuple(Fraction(c) for c in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(r) != len(out[0]) for r in out):
        raise MatrixError("matrix rows must be non-empty and equal length")
    return out


def mat_identity(n: int) -> tuple:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def mat_zero(n: int) -> tuple:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def mat_mul(a, b) -> tuple:
    if len(a[0]) != len(b):
        raise MatrixError("matrix dimensions do not match")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a) -> tuple:
    return tuple(tuple(-x for x in row) for row in a)


def mat_t(a) -> tuple:
    return tuple(zip(*a))


def mat_inv(a) -> tuple:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise MatrixError("inverse needs a square matrix")
    work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise MatrixError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def mat_symmetric(a) -> bool:
    return a == mat_t(a)


def mat_antisymmetric(a) -> bool:
    return a == mat_neg(mat_t(a))


def assemble(ul, ur, ll, lr) -> tuple:
    top = tuple(ra + rb for ra, rb in zip(ul, ur))
    bot = tuple(ra + rb for ra, rb in zip(ll, lr))
    return top + bot


def eta_matrix(d: int) -> tuple:
    return assemble(mat_zero(d), mat_identity(d), mat_identity(d), mat_zero(d))


def mat_mul_eta(a) -> tuple:
    """a * eta without a product: eta = ((0, I), (I, 0)) swaps the two
    column blocks of a, which must have an even number of columns."""
    d, odd = divmod(len(a[0]), 2)
    if odd:
        raise MatrixError("matrix dimensions do not match")
    return tuple(row[d:] + row[:d] for row in a)


# ---------------------------------------------------------------------
# backgrounds and generalised metrics
# ---------------------------------------------------------------------

class Background:
    """Symmetric invertible g and antisymmetric b, exact rational."""

    __slots__ = ("g", "b")

    def __init__(self, g, b):
        self.g = g = as_matrix(g)
        self.b = b = as_matrix(b)
        d = len(g)
        if len(g[0]) != d or len(b) != d or len(b[0]) != d:
            raise MatrixError("g and b must be square of the same size")
        if not mat_symmetric(g):
            raise MatrixError("g must be symmetric")
        if not mat_antisymmetric(b):
            raise MatrixError("b must be antisymmetric")
        mat_inv(g)  # raises if singular


class GenMetric:
    """Symmetric eta-orthogonal 2d x 2d matrix."""

    __slots__ = ("H",)

    def __init__(self, H):
        self.H = H = as_matrix(H)
        if not mat_symmetric(H):
            raise MatrixError("generalised metric must be symmetric")
        if mat_mul(mat_mul_eta(H), H) != eta_matrix(self.d):  # eta is its own inverse
            raise MatrixError("generalised metric must satisfy H eta H = eta")

    @property
    def d(self) -> int:
        return len(self.H) // 2


def build_gen_metric(bg: Background) -> GenMetric:
    """H = ((g - b g^-1 b, b g^-1), (-g^-1 b, g^-1)), evaluated exactly."""
    ginv = mat_inv(bg.g)
    ul = mat_sub(bg.g, mat_mul(mat_mul(bg.b, ginv), bg.b))
    ur = mat_mul(bg.b, ginv)
    ll = mat_neg(mat_mul(ginv, bg.b))
    return GenMetric(assemble(ul, ur, ll, ginv))


def odd_check(O) -> bool:
    """Exact O(d,d) membership: O^t eta O = eta."""
    O = as_matrix(O)
    n = len(O)
    if n % 2 or len(O[0]) != n:
        return False
    return mat_mul(mat_mul_eta(mat_t(O)), O) == eta_matrix(n // 2)


def act(O, H: GenMetric) -> GenMetric:
    """H' = O^t H O for O in O(d,d)."""
    O = as_matrix(O)
    if not odd_check(O):
        raise MatrixError("matrix is not in O(d,d)")
    return GenMetric(mat_mul(mat_mul(mat_t(O), H.H), O))


def extract(H: GenMetric) -> Background:
    """g = (lower-right)^-1, b = -g (lower-left); exact roundtrip inverse."""
    d = H.d
    ll = tuple(row[:d] for row in H.H[d:])
    lr = tuple(row[d:] for row in H.H[d:])
    g = mat_inv(lr)
    b = mat_neg(mat_mul(g, ll))
    bg = Background(g, b)  # raises if H was not of generalised-metric form
    if build_gen_metric(bg).H != H.H:
        raise MatrixError("matrix is not of generalised-metric form")
    return bg


def b_shift(bprime) -> tuple:
    """The O(d,d) generator ((I, 0), (-b', I)): with H' = O^t H O this
    sends H(g, b) to H(g, b + b')."""
    bprime = as_matrix(bprime)
    if not mat_antisymmetric(bprime):
        raise MatrixError("B-shift parameter must be antisymmetric")
    d = len(bprime)
    return assemble(mat_identity(d), mat_zero(d), mat_neg(bprime), mat_identity(d))


def gl_embed(A) -> tuple:
    """The O(d,d) generator diag(A, A^-t) for invertible A."""
    A = as_matrix(A)
    d = len(A)
    return assemble(A, mat_zero(d), mat_zero(d), mat_t(mat_inv(A)))


def block_swap(d: int) -> tuple:
    """((0, I), (I, 0)); inversion duality on diagonal backgrounds."""
    return eta_matrix(d)
