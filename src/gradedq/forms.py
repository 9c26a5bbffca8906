"""Independent exterior-calculus oracle on polynomial forms over R^d.

Differential forms are stored on strictly increasing index tuples only;
antisymmetry is resolved at construction with inversion-count signs,
the same normalization the graded engine uses, so cross-checks are
coefficient-exact.  `DiffForm.add_term` is the one routine that stores
a term: it checks the index tuple and the coefficient's dimension, sorts
the indices and merges; every constructor and operation goes through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .poly import Poly, render_sum


class FormError(ValueError):
    pass


# raised by algebroid's encode/decode; defined here, in a module every CLI
# command loads, so the CLI can catch it without importing algebroid
class SectionError(ValueError):
    pass


def sort_indices(indices):
    """(sign, sorted tuple) of an index tuple: the sign is (-1) to the
    number of out-of-order pairs; a repeated index gives (0, None)."""
    indices = tuple(indices)
    idx = tuple(sorted(indices))
    if len(set(idx)) < len(idx):
        return 0, None
    inversions = sum(a > b for a, b in combinations(indices, 2))
    return (-1 if inversions % 2 else 1), idx


class DiffForm:
    """Rank-r form with Poly coefficients on sorted index tuples (1-based)."""

    __slots__ = ("d", "rank", "terms")

    def __init__(self, d: int, rank: int, terms=None):
        if rank < 0:
            raise FormError("rank must be non-negative")
        self.d = d
        self.rank = rank
        self.terms: dict[tuple, Poly] = {}
        if terms:
            for idx, poly in dict(terms).items():
                self.add_term(idx, poly)

    @classmethod
    def zero(cls, d: int, rank: int) -> "DiffForm":
        return cls(d, rank)

    @classmethod
    def from_poly(cls, d: int, poly: Poly) -> "DiffForm":
        return cls(d, 0, {(): poly})

    @classmethod
    def basis(cls, d: int, indices, coeff=None) -> "DiffForm":
        """coeff * dx^{i1} ^ ... ^ dx^{ir} with arbitrary index order."""
        f = cls(d, len(indices))
        if coeff is None:
            coeff = Poly.const(d, 1)
        elif not isinstance(coeff, Poly):
            coeff = Poly.const(d, coeff)
        f.add_term(indices, coeff)
        return f

    def add_term(self, indices, poly: Poly):
        """Accumulate one (possibly unsorted) component; the one routine
        that stores a term.  Mutates self; used only during construction."""
        if len(indices) != self.rank:
            raise FormError(f"index tuple {tuple(indices)} has length "
                            f"{len(indices)}, expected rank {self.rank}")
        if any(not 1 <= i <= self.d for i in indices):
            raise FormError(f"index out of range 1..{self.d} in {tuple(indices)}")
        if poly.d != self.d:
            raise FormError(f"coefficient on R^{poly.d}, form on R^{self.d}")
        sign, idx = sort_indices(indices)
        if sign == 0 or poly.is_zero():
            return
        add = poly if sign > 0 else -poly
        cur = self.terms.get(idx)
        s = add if cur is None else cur + add
        if s:
            self.terms[idx] = s
        else:
            self.terms.pop(idx, None)

    # arithmetic ------------------------------------------------------
    def _check(self, other: "DiffForm", same_rank=True):
        if self.d != other.d:
            raise FormError(f"dimension mismatch: {self.d} vs {other.d}")
        if same_rank and self.rank != other.rank:
            raise FormError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        out = DiffForm(self.d, self.rank, self.terms)
        for idx, poly in other.terms.items():
            out.add_term(idx, poly)
        return out

    def __neg__(self) -> "DiffForm":
        return self * -1

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return DiffForm(self.d, self.rank,
                            {i: p * other for i, p in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.d == other.d
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self):
        return hash((self.d, self.rank, frozenset(self.terms.items())))

    def __str__(self):
        # from d = 10 on an index can have two digits, so indices are
        # separated: dx1_12 and dx11_2 are different forms
        sep = "_" if self.d >= 10 else ""
        return render_sum((str(p), "dx" + sep.join(map(str, idx)) if idx else "")
                          for idx, p in sorted(self.terms.items()))

    def __repr__(self):
        return f"DiffForm({self})"


# ---------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------

def ext_d(omega: DiffForm) -> DiffForm:
    """Exterior derivative; d of a rank-r form has rank r+1 and d(d(.)) = 0."""
    out = DiffForm(omega.d, omega.rank + 1)
    for idx, poly in omega.terms.items():
        for mu in range(1, omega.d + 1):
            dp = poly.partial(mu)
            if dp:
                out.add_term((mu,) + idx, dp)
    return out


def wedge(omega: DiffForm, tau: DiffForm) -> DiffForm:
    omega._check(tau, same_rank=False)
    out = DiffForm(omega.d, omega.rank + tau.rank)
    for i1, p1 in omega.terms.items():
        for i2, p2 in tau.terms.items():
            out.add_term(i1 + i2, p1 * p2)
    return out


def interior(v, omega: DiffForm) -> DiffForm:
    """Interior product with a vector field (tuple of d Polys)."""
    if omega.rank == 0:
        return DiffForm(omega.d, 0)
    out = DiffForm(omega.d, omega.rank - 1)
    for idx, poly in omega.terms.items():
        for pos, i in enumerate(idx):
            comp = v[i - 1]
            if comp.is_zero():
                continue
            coeff = poly * comp
            if pos % 2:
                coeff = -coeff
            out.add_term(idx[:pos] + idx[pos + 1:], coeff)
    return out


def lie_deriv(v, omega: DiffForm) -> DiffForm:
    """Lie derivative along a vector field via the Cartan magic formula."""
    if omega.rank == 0:  # the d(iota) term is vacuous on functions
        return interior(v, ext_d(omega))
    return ext_d(interior(v, omega)) + interior(v, ext_d(omega))


def vec_lie_bracket(v, w, d: int):
    """[v, w]^mu = v^nu d_nu w^mu - w^nu d_nu v^mu."""
    out = []
    for mu in range(1, d + 1):
        acc = Poly.zero(d)
        for nu in range(1, d + 1):
            acc = acc + v[nu - 1] * w[mu - 1].partial(nu) \
                      - w[nu - 1] * v[mu - 1].partial(nu)
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------
# sections of generalised tangent bundles and classical Dorfman formulas
# ---------------------------------------------------------------------

class Section:
    """(v, lambda[, sigma]): vector field plus form components."""

    __slots__ = ("v", "lam", "sigma")

    def __init__(self, v: tuple, lam: DiffForm, sigma: DiffForm | None = None):
        self.v = v          # d Polys
        self.lam = lam      # rank p-1 (vinogradov), rank 2 (m5)
        self.sigma = sigma  # rank 5, m5 only

    def __eq__(self, other):
        if type(other) is not Section:
            return NotImplemented
        return (self.v, self.lam, self.sigma) == (other.v, other.lam, other.sigma)

    def __hash__(self):
        return hash((self.v, self.lam, self.sigma))

    @property
    def d(self) -> int:
        return self.lam.d

    def __str__(self):
        vs = "(" + ", ".join(str(c) for c in self.v) + ")"
        out = f"v={vs}, lambda={self.lam}"
        if self.sigma is not None:
            out += f", sigma={self.sigma}"
        return out


def classical_dorfman(kind: str, A: Section, B: Section) -> Section:
    """Textbook generalised Lie derivative, componentwise.

    kind 'vinogradov': (Lie_v v', Lie_v lam' - i_{v'} d lam).
    kind 'm5': additionally the 5-form slot
               Lie_v sigma' - i_{v'} d sigma - lam' ^ d lam.
    """
    d = A.d
    if A.lam.rank != B.lam.rank:
        raise FormError("section rank mismatch")
    v = vec_lie_bracket(A.v, B.v, d)
    lam = lie_deriv(A.v, B.lam) - interior(B.v, ext_d(A.lam))
    if kind == "m5":
        if A.sigma is None or B.sigma is None:
            raise FormError("m5 sections need a sigma component")
        sigma = (lie_deriv(A.v, B.sigma) - interior(B.v, ext_d(A.sigma))
                 - wedge(B.lam, ext_d(A.lam)))
        return Section(v, lam, sigma)
    if A.sigma is not None or B.sigma is not None:
        raise FormError(f"sections with sigma need kind 'm5', got {kind!r}")
    return Section(v, lam)


# ---------------------------------------------------------------------
# Poincare lemma via the radial homotopy operator
# ---------------------------------------------------------------------

def homotopy(omega: DiffForm) -> DiffForm:
    """Radial homotopy operator K centred at the origin.

    On a monomial component c x^alpha dx^{i1..ir} of x-degree k:
        K = sum_j (-1)^{j-1} c x^{i_j} x^alpha / (k + r) dx^{I minus i_j}.
    Satisfies dK + Kd = id on forms of rank >= 1.
    """
    if omega.rank == 0:
        return DiffForm(omega.d, 0)
    out = DiffForm(omega.d, omega.rank - 1)
    r = omega.rank
    for idx, poly in omega.terms.items():
        for exp, c in poly.terms.items():
            k = sum(exp)
            scale = Fraction(c, k + r)
            mono = Poly(omega.d, {exp: scale})
            for pos, i in enumerate(idx):
                coeff = mono * Poly.var(omega.d, i)
                if pos % 2:
                    coeff = -coeff
                out.add_term(idx[:pos] + idx[pos + 1:], coeff)
    return out


def poincare_primitive(omega: DiffForm) -> DiffForm:
    """A primitive kappa with d(kappa) = omega, for closed omega of rank >= 1."""
    if omega.rank < 1:
        raise FormError("primitive requires rank >= 1")
    if not ext_d(omega).is_zero():
        raise FormError("form is not closed; no primitive exists")
    return homotopy(omega)
