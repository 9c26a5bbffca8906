"""Hot kernels: integer polynomial numerators and graded monomials.

A polynomial here is the numerator part of a `Poly`: a dict mapping
packed exponents to nonzero `int` numerators, over a denominator that
the `Poly` keeps.  The kernel does integer arithmetic only.  A packed
exponent is one `int` holding FIELD bits per variable, x1 lowest; the
top bit of each field is a guard bit that no stored exponent sets, so
the product of two monomials is the sum of their keys, a carry out of a
field shows as a guard bit (checked by the caller), and the x-partial
reads a field with shift and mask.  A graded monomial is a tuple of
(generator id, exponent) pairs sorted by generator id; odd generators
carry exponent 1.  `mono_partial` derives a monomial in all of its
generators in one walk.

Invariants the code relies on: monomials are canonically sorted with
no repeated generator, no stored numerator is zero, and a derivative
in one generator is injective on the terms it keeps, so those terms
never collide and need no merging.

Products are built row by row: a row is one term c*x^e of one factor
times the whole other factor, and `poly_add(acc, b, e, c)` adds it
straight into its accumulator, so no row is ever stored.  Every
coefficient product goes through `poly_mul`.

Mutation: every function leaves its arguments alone and returns new
values, except the three accumulators.  `poly_add(a, b, shift, scale)`
adds a scaled, shifted b into a in place; `poly_mul(a, b, weight, out)`
adds weight*a*b into `out` in place, or into a fresh dict when `out` is
None; and `element_mul(f, g, parity, out, weight)` adds weight*f*g, for
any nonzero integer weight, into the term map `out` in place, each
product straight into its monomial's numerators, so no full product or
negated copy is built.  The only dicts they write are `a`, `out` and
the numerator dicts `element_mul` itself made.  The numerators of a
`Poly` are shared by the callers and are never written.
"""

FIELD = 16
FIELD_MASK = (1 << FIELD) - 1


def poly_add(a, b, shift=0, scale=1):
    """Add scale * x^shift * b into a in place, dropping the terms that
    cancel; returns a.  x^shift is the monomial with packed exponent
    `shift`, so the default adds b itself."""
    if not a and not shift and scale == 1:
        a.update(b)
        return a
    for exp, c in b.items():
        exp += shift
        c *= scale
        s = a.get(exp)
        if s is None:
            a[exp] = c
        else:
            s = s + c
            if s:
                a[exp] = s
            else:
                del a[exp]
    return a


def poly_scale(a, c):
    return {exp: c * v for exp, v in a.items()} if c else {}


def poly_mul(a, b, weight=1, out=None):
    """Add weight * a * b into `out` row by row and return it, starting
    from a fresh dict when `out` is None: one `poly_add` per term of the
    shorter factor, so a one-term factor gives its row."""
    if out is None:
        out = {}
    if len(a) > len(b):
        a, b = b, a
    for exp, c in a.items():
        poly_add(out, b, exp, c * weight)
    return out


def poly_partial(a, mu):
    """d/dx of the variable in field mu (0-based)."""
    shift = FIELD * mu
    one = 1 << shift
    out = {}
    for exp, c in a.items():
        k = (exp >> shift) & FIELD_MASK
        if k:
            out[exp - one] = c * k
    return out


def mono_mul(m1, m2, parity):
    """Multiply canonical monomials in one merge.  Returns (sign, mono);
    sign 0 means zero.  An odd letter of m2 crosses every odd letter of
    m1 not yet placed."""
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


def mono_partial(m, parity, from_right):
    """[(generator id, integer coefficient, reduced monomial)]: the graded
    derivative of a monomial in each of its generators, in order, in one
    walk.  An even generator's coefficient is its exponent, an odd one's
    the Koszul sign of the odd letters the derivation crosses: those
    before it from the left, those after it from the right."""
    # the sign at the first odd letter; it flips at every odd letter
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


def element_mul(f, g, parity, out, weight):
    """Add weight * f * g into the term map `out` in place; weight is any
    nonzero int.

    f and g are term maps {mono: numerator dict}, all of f over one
    denominator and all of g over another; `out` is over their product
    and may keep empty numerator dicts where terms cancelled, which the
    caller drops."""
    for m1, p1 in f.items():
        for m2, p2 in g.items():
            s, mono = mono_mul(m1, m2, parity)
            if s:
                out[mono] = poly_mul(p1, p2, s * weight, out.get(mono))
