"""Graded coordinate charts for T*[p]T[1]R^d, optionally times R[3].

A chart fixes the generator families, their degrees and parities, the
canonical generator order (x-block, psi-block, zeta, chi-block, p-block,
ascending by index) and the constant Darboux pairing table of the
degree-(-p) Poisson bracket.

Sign conventions (documented choices, validated by the test suite):

* (p_mu, x^mu) = +1 and (x^mu, p_mu) = -1, the orientation for which
  Q = (Theta, -) acts as psi^mu d/dx^mu on p- and chi-independent
  functions.
* (psi^mu, chi_mu) = +1 always; graded symmetry of a degree-(-p)
  bracket then forces (chi_mu, psi^mu) = (-1)^p.
* (zeta, zeta) = +1 on the m5 chart.

`partner` maps each tag, ('x', mu) or ('s', sid), to (partner tag, constant),
since each generator pairs with exactly one other (x^mu with p_mu, psi^mu
with chi_mu, zeta with itself).
"""

from __future__ import annotations


class ChartError(ValueError):
    """Invalid chart construction or mismatched-chart operation."""


class Generator:
    """One chart generator: its name, family, index and degree."""

    __slots__ = ("name", "family", "index", "degree")

    def __init__(self, name: str, family: str, index: int, degree: int):
        self.name = name
        self.family = family  # 'x' | 'psi' | 'zeta' | 'chi' | 'p'
        self.index = index    # 1-based within family; 0 for zeta
        self.degree = degree

    @property
    def parity(self) -> int:
        return self.degree % 2


class ChartSpec:
    """Immutable description of one graded Darboux chart.

    The x generators live in polynomial coefficients; the remaining
    ("super") generators label graded monomials and are numbered by a
    super id (sid) in canonical order.

    A chart also owns two caches, each entry built on first use and never
    changed after: `_counts` (degree n -> element's monomial count table)
    and `_elements`, its constant elements (each generator element of
    `GradedElement.generator` under its name, and `npq.kinetic_term` under
    a tuple key, which no name equals).  They belong to the instance, so
    an equal but distinct chart builds its own; equality and hashing
    ignore them.
    """

    def __init__(self, kind: str, d: int, p: int):
        if kind not in ("vinogradov", "m5"):
            raise ChartError(f"unknown chart kind {kind!r}")
        if kind == "m5" and p != 6:
            raise ChartError("m5 chart has fixed symplectic degree p=6")
        if d < 1:
            raise ChartError(f"base dimension d must be >= 1, got {d}")
        if p < 2:
            raise ChartError(f"symplectic degree p must be >= 2, got {p}")
        self.kind = kind
        self.d = d
        self.p = p

        supers = [Generator(f"psi{mu}", "psi", mu, 1) for mu in range(1, d + 1)]
        if kind == "m5":
            supers.append(Generator("zeta", "zeta", 0, 3))
        supers += [Generator(f"chi{mu}", "chi", mu, p - 1) for mu in range(1, d + 1)]
        supers += [Generator(f"p{mu}", "p", mu, p) for mu in range(1, d + 1)]
        self.supers = tuple(supers)
        self.xs = tuple(Generator(f"x{mu}", "x", mu, 0) for mu in range(1, d + 1))
        self.parity = tuple(g.parity for g in supers)
        self.degrees = tuple(g.degree for g in supers)
        self._sid = {g.name: i for i, g in enumerate(supers)}
        self._by_family = {(g.family, g.index): i for i, g in enumerate(supers)}

        # The pairing table the Poisson bracket reads; every const is +1 or -1.
        chi_psi = 1 if p % 2 == 0 else -1
        partner: dict[tuple, tuple] = {}
        for mu in range(1, d + 1):
            sp, spsi, schi = (("s", self.sid(f, mu)) for f in ("p", "psi", "chi"))
            partner[sp] = (("x", mu), 1)
            partner[("x", mu)] = (sp, -1)
            partner[spsi] = (schi, 1)
            partner[schi] = (spsi, chi_psi)
        if kind == "m5":
            sz = ("s", self.sid("zeta", 0))
            partner[sz] = (sz, 1)
        self.partner = partner
        # Generators that count towards gauge_exp's momentum weight.
        self.momentum = tuple(g.family in ("p", "chi", "zeta") for g in supers)
        # element's count tables: degree n -> T[sid][r] for r <= n, built once
        self._counts: dict[int, list] = {}
        # shared constant elements, each built once (see the class docstring)
        self._elements: dict = {}

    def sid(self, family: str, index: int) -> int:
        return self._by_family[(family, index)]

    def sid_of_name(self, name: str) -> int:
        try:
            return self._sid[name]
        except KeyError:
            raise ChartError(f"unknown generator {name!r}") from None

    def generator(self, sid: int) -> Generator:
        return self.supers[sid]

    def mono_degree(self, mono) -> int:
        return sum(e * self.degrees[g] for g, e in mono)

    def __eq__(self, other):
        return (isinstance(other, ChartSpec)
                and (self.kind, self.d, self.p) == (other.kind, other.d, other.p))

    def __hash__(self):
        return hash((self.kind, self.d, self.p))

    def __repr__(self):
        if self.kind == "m5":
            return f"ChartSpec(m5, d={self.d})"
        return f"ChartSpec(vinogradov, d={self.d}, p={self.p})"


def lambda_rank(chart: ChartSpec) -> int:
    """The rank of a section's form component lambda on `chart`."""
    return 2 if chart.kind == "m5" else chart.p - 1


def make_chart(kind: str, d: int, p: int | None = None) -> ChartSpec:
    """Build a chart: make_chart('vinogradov', d, p) or make_chart('m5', d)."""
    if p is None and kind == "vinogradov":
        raise ChartError("vinogradov chart needs a symplectic degree p")
    return ChartSpec(kind, d, 6 if p is None else p)
