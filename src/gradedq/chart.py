"""Graded coordinate charts for T*[p]T[1]R^d, optionally times R[3].

Each chart kind is a table that one builder returns (`CHART_KINDS`): the
generators with their families and degrees in canonical order (x-block,
psi-block, zeta, chi-block, p-block, ascending by index), the Darboux
pairs that give the constant pairing table of the degree-(-p) Poisson
bracket, and the section and twist layouts.  `vinogradov_table` builds
T*[p]T[1]R^d; `m5_table` adds the odd degree-3 zeta at p = 6, with its
own layouts.  `ChartSpec` reads the table and never the kind.

Sign conventions (documented choices, validated by the test suite).  A
Darboux pair (a, b, c) is a coordinate a, its momentum b and the constant
c = (a, b):

* (x^mu, p_mu, -1), the orientation for which Q = (Theta, -) acts as
  psi^mu d/dx^mu on p- and chi-independent functions;
* (psi^mu, chi_mu, +1);
* (zeta, zeta, +1) on the m5 chart.

Graded symmetry of a degree-(-p) bracket, (b, a) = (-1)^(|a||b|+1) (a, b),
gives the other direction of each pair, so (p_mu, x^mu) = +1 and
(chi_mu, psi^mu) = (-1)^p.

A derivative is tagged by an `int`: the sid for a super generator and
-mu for x^mu; `tags` maps each generator name to its tag.  `partner` maps
each tag to (partner tag, constant), since each generator pairs with
exactly one other, and `partner_bit` maps it to the super-key bit of its
partner when that partner is odd, else 0.

The chart also fixes how a graded element packs its super monomials
(see `element`).  A super key is one `int`: one bit per odd super
generator, in the low bits, in sid order (so psi^mu owns bit mu-1), then
one FIELD-bit field per even super generator (p_mu when p is even, chi_mu
when p is odd), whose top bit is a guard bit as in the x keys of
`_kernel_py`.  So the product of two monomials with no odd letter in
common is the sum of their keys, and an exponent that reaches the guard
bit shows in `super_guard`.
`encode` and `decode` convert between keys and the canonical tuples
((sid, exponent), ...) sorted by sid, which the boundary still uses.
"""

from __future__ import annotations

from ._kernel_py import _EXP_LIMIT, FIELD, FIELD_MASK, _guard_bits


class ChartError(ValueError):
    """Invalid chart construction or mismatched-chart operation."""


def super_layout(parity) -> tuple[tuple, tuple, tuple]:
    """(odd sids, even sids, unit): the super-key layout for generators of
    the given parities, in sid order.  Odd generator i of the odd sids owns
    bit i, even generator j of the even sids owns the field starting at bit
    len(odd sids) + FIELD * j, and unit[sid] is the key of that generator
    to the first power."""
    odd = tuple(sid for sid, o in enumerate(parity) if o)
    even = tuple(sid for sid, o in enumerate(parity) if not o)
    unit = [0] * len(parity)
    for bit, sid in enumerate(odd):
        unit[sid] = 1 << bit
    for j, sid in enumerate(even):
        unit[sid] = 1 << (len(odd) + FIELD * j)
    return odd, even, tuple(unit)


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
    """Immutable description of one graded Darboux chart, read from the
    table of its kind (see the module docstring).

    The x generators live in polynomial coefficients; the remaining
    ("super") generators label graded monomials and are numbered by a
    super id (sid) in canonical order; psi^mu has sid and key bit mu-1.
    `momentum` flags the super generators that are the second member of a
    Darboux pair (p_mu, chi_mu, zeta): gauge_exp's momentum weight.

    A chart also owns two caches, each entry built on first use and never
    changed after: `_counts` (degree n -> element's monomial count table)
    and `_elements`, its constant elements (each generator element of
    `GradedElement.generator` under its name, and `npq.kinetic_term` under
    a tuple key, which no name equals).  They belong to the instance, so
    an equal but distinct chart builds its own; equality and hashing
    ignore them.

    `section_forms` lists a section's forms (its vector field goes to the
    chi_mu), each entry (name, rank, factor generator or None, sign),
    ranks distinct; a term c dx^I encodes as sign * c psi^I * factor.
    `twist_forms` lists a hamiltonian's twist forms, each (name, rank,
    factor) with sign 1.  So vinogradov has lambda and beta, and m5 has
    lambda -> psi psi zeta, sigma -> -psi^5, zeta F4 and F7.
    """

    def __init__(self, kind: str, d: int, p: int):
        if kind not in CHART_KINDS:
            raise ChartError(f"unknown chart kind {kind!r}")
        # a kind of fixed p refuses any other p here, before d and p are checked
        table = CHART_KINDS[kind][0](d, p)
        xs, supers, pairs, self.section_forms, self.twist_forms = table
        if d < 1:
            raise ChartError(f"base dimension d must be >= 1, got {d}")
        if p < 2:
            raise ChartError(f"symplectic degree p must be >= 2, got {p}")
        self.kind, self.d, self.p = kind, d, p

        self.xs, self.supers = tuple(xs), tuple(supers)
        self.parity = tuple(g.parity for g in supers)
        self.degrees = tuple(g.degree for g in supers)
        self.tags = {g.name: -g.index for g in xs}
        self.tags.update((g.name, i) for i, g in enumerate(supers))
        self._by_family = {(g.family, g.index): i for i, g in enumerate(supers)}
        # the super-key layout (see the module docstring)
        self.odd_sids, self.even_sids, self.unit = super_layout(self.parity)
        self.odd_mask = (1 << len(self.odd_sids)) - 1
        self.super_guard = _guard_bits(len(self.even_sids)) << len(self.odd_sids)
        self.x_guard = _guard_bits(d)
        # key_degree's tables: the odd bits of each odd degree, the even degrees
        self._odd_degree_bits = tuple(
            (deg, sum(self.unit[sid] for sid in self.odd_sids if self.degrees[sid] == deg))
            for deg in sorted({self.degrees[sid] for sid in self.odd_sids}))
        self._even_degrees = tuple(self.degrees[sid] for sid in self.even_sids)

        # The pairing table the Poisson bracket reads, both directions of
        # each Darboux pair by the one sign rule; every const is +1 or -1.
        partner = self.partner = {}
        for a, b, c in pairs:
            ta, tb = self.tags[a.name], self.tags[b.name]
            partner[ta] = (tb, c)
            partner[tb] = (ta, c * (-1) ** (a.degree * b.degree + 1))
        self.partner_bit = {a: self.unit[b] if b >= 0 and self.parity[b] else 0
                            for a, (b, _) in partner.items()}
        momenta = {b.name for _, b, _ in pairs}
        self.momentum = tuple(g.name in momenta for g in supers)
        # element's count tables: degree n -> T[sid][r] for r <= n, built once
        self._counts: dict[int, list] = {}
        # shared constant elements, each built once (see the class docstring)
        self._elements: dict = {}

    def sid(self, family: str, index: int) -> int:
        return self._by_family[(family, index)]

    def sid_of_name(self, name: str) -> int:
        sid = self.tags.get(name, -1)
        if sid < 0:
            raise ChartError(f"unknown generator {name!r}")
        return sid

    def generator(self, sid: int) -> Generator:
        return self.supers[sid]

    def mono_degree(self, mono) -> int:
        return sum(e * self.degrees[g] for g, e in mono)

    def key_degree(self, key: int) -> int:
        """The degree of the monomial with super key `key`, read off its
        bits: each odd degree times the odd bits of that degree set, plus
        each even field times its generator's degree."""
        deg = 0
        for n, bits in self._odd_degree_bits:
            deg += n * (key & bits).bit_count()
        even = key >> len(self.odd_sids)
        for n in self._even_degrees:
            if not even:
                break
            deg += n * (even & FIELD_MASK)
            even >>= FIELD
        return deg

    def encode(self, mono) -> int:
        """The super key of a canonical monomial ((sid, exponent), ...):
        int sids strictly ascending in 0..len(supers)-1, int exponents 1
        for an odd generator and in 1.._EXP_LIMIT-1 for an even one.
        Anything else raises `ChartError`, so encode is injective on what
        it accepts."""
        key, last = 0, -1
        # a term that is not a pair of numbers raises on unpacking or on
        # comparing, and a non-int sid or one past the last on indexing
        try:
            for sid, e in mono:
                limit = 2 if self.parity[sid] else _EXP_LIMIT
                if not last < sid or not 0 < e < limit:
                    break
                key += e * self.unit[sid]
                last = sid
            else:
                # a float or Fraction exponent makes a key that is no int
                if isinstance(key, int) and isinstance(mono, tuple):
                    return key
        except (TypeError, ValueError, IndexError):
            pass
        raise ChartError(f"{mono!r} is not a canonical monomial of {self!r}: "
                         f"(sid, exponent) pairs, sids strictly ascending, "
                         f"exponents in range")

    def decode(self, key: int) -> tuple:
        """The canonical monomial ((sid, exponent), ...) of a super key."""
        odd_sids = self.odd_sids
        mono = []
        odd = key & self.odd_mask
        while odd:
            low = odd & -odd
            mono.append((odd_sids[low.bit_length() - 1], 1))
            odd ^= low
        even = key >> len(odd_sids)
        for sid in self.even_sids:
            if not even:
                break
            if even & FIELD_MASK:
                mono.append((sid, even & FIELD_MASK))
            even >>= FIELD
        mono.sort()
        return tuple(mono)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ChartSpec)
            and (self.kind, self.d, self.p) == (other.kind, other.d, other.p))

    def __hash__(self):
        return hash((self.kind, self.d, self.p))

    def __repr__(self):
        p = "" if CHART_KINDS[self.kind][1] else f", p={self.p}"
        return f"ChartSpec({self.kind}, d={self.d}{p})"


def lambda_rank(chart: ChartSpec) -> int:
    """The rank of a section's form component lambda on `chart`."""
    return chart.section_forms[0][1]


def vinogradov_table(d: int, p: int) -> tuple:
    """The table of T*[p]T[1]R^d: (x generators, super generators in
    canonical order, Darboux pairs (coordinate, momentum, c), section
    layout, twist layout)."""
    xs, psis, chis, ps = ([Generator(f"{family}{mu}", family, mu, deg)
                           for mu in range(1, d + 1)] for family, deg in
                          (("x", 0), ("psi", 1), ("chi", p - 1), ("p", p)))
    pairs = [(x, m, -1) for x, m in zip(xs, ps)] + [(a, b, 1) for a, b in zip(psis, chis)]
    return (xs, psis + chis + ps, pairs,
            (("lambda", p - 1, None, 1),), (("beta", p + 1, None),))


def m5_table(d: int, p: int) -> tuple:
    """The table of the exceptional chart T*[6]T[1]R^d x R[3]: vinogradov's
    at p = 6 with zeta after the psi block, the pair (zeta, zeta, +1) and
    the m5 layouts."""
    if p != 6:
        raise ChartError("m5 chart has fixed symplectic degree p=6")
    xs, supers, pairs, _, _ = vinogradov_table(d, 6)
    zeta = Generator("zeta", "zeta", 0, 3)
    # sigma's sign -1 reproduces the -lambda' ^ d lambda term of the
    # exceptional Dorfman bracket given the (zeta, zeta) = +1 pairing
    return (xs, supers[:d] + [zeta] + supers[d:], pairs + [(zeta, zeta, 1)],
            (("lambda", 2, "zeta", 1), ("sigma", 5, None, -1)),
            (("F4", 4, "zeta"), ("F7", 7, None)))


# each chart kind: its table builder and its fixed p, or None if p is free
CHART_KINDS = {"vinogradov": (vinogradov_table, None), "m5": (m5_table, 6)}


def make_chart(kind: str, d: int, p: int | None = None) -> ChartSpec:
    """Build a chart: make_chart('vinogradov', d, p) or make_chart('m5', d)."""
    if p is None and kind in CHART_KINDS:
        p = CHART_KINDS[kind][1]
        if p is None:
            raise ChartError(f"{kind} chart needs a symplectic degree p")
    return ChartSpec(kind, d, p)
