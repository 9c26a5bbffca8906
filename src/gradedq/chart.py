"""Graded coordinate charts for T*[p]T[1]R^d, optionally times R[3].

A chart fixes the generator families, their degrees and parities, the
canonical generator order (x-block, psi-block, zeta, chi-block, p-block,
ascending by index), the constant Darboux pairing table of the
degree-(-p) Poisson bracket and the section and twist layouts.

Sign conventions (documented choices, validated by the test suite):

* (p_mu, x^mu) = +1 and (x^mu, p_mu) = -1, the orientation for which
  Q = (Theta, -) acts as psi^mu d/dx^mu on p- and chi-independent
  functions.
* (psi^mu, chi_mu) = +1 always; graded symmetry of a degree-(-p)
  bracket then forces (chi_mu, psi^mu) = (-1)^p.
* (zeta, zeta) = +1 on the m5 chart.

A derivative is tagged by an `int`: the sid for a super generator and
-mu for x^mu.  `partner` maps each tag to (partner tag, constant), since
each generator pairs with exactly one other (x^mu with p_mu, psi^mu with
chi_mu, zeta with itself), and `partner_bit` maps it to the super-key bit
of its partner when that partner is odd, else 0.

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
    """Immutable description of one graded Darboux chart.

    The x generators live in polynomial coefficients; the remaining
    ("super") generators label graded monomials and are numbered by a
    super id (sid) in canonical order; psi^mu has sid and key bit mu-1.

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

        # The pairing table the Poisson bracket reads; every const is +1 or -1.
        chi_psi = 1 if p % 2 == 0 else -1
        partner: dict[int, tuple] = {}
        for mu in range(1, d + 1):
            sp, spsi, schi = (self.sid(f, mu) for f in ("p", "psi", "chi"))
            partner[sp] = (-mu, 1)
            partner[-mu] = (sp, -1)
            partner[spsi] = (schi, 1)
            partner[schi] = (spsi, chi_psi)
        if kind == "m5":
            sz = self.sid("zeta", 0)
            partner[sz] = (sz, 1)
            # sigma's sign -1 reproduces the -lambda' ^ d lambda term of the
            # exceptional Dorfman bracket given the (zeta, zeta) = +1 pairing
            self.section_forms = (("lambda", 2, "zeta", 1), ("sigma", 5, None, -1))
            self.twist_forms = (("F4", 4, "zeta"), ("F7", 7, None))
        else:
            self.section_forms = (("lambda", p - 1, None, 1),)
            self.twist_forms = (("beta", p + 1, None),)
        self.partner = partner
        self.partner_bit = {a: self.unit[b] if b >= 0 and self.parity[b] else 0
                            for a, (b, _) in partner.items()}
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

    def key_degree(self, key: int) -> int:
        """The degree of the monomial with super key `key`, read off its
        bits: each odd degree times the odd bits of that degree set, plus
        each even field times its generator's degree."""
        deg = sum(n * (key & bits).bit_count() for n, bits in self._odd_degree_bits)
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
    return chart.section_forms[0][1]


def make_chart(kind: str, d: int, p: int | None = None) -> ChartSpec:
    """Build a chart: make_chart('vinogradov', d, p) or make_chart('m5', d)."""
    if p is None and kind == "vinogradov":
        raise ChartError("vinogradov chart needs a symplectic degree p")
    return ChartSpec(kind, d, 6 if p is None else p)
