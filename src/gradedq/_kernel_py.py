"""Hot kernels: integer polynomial numerators and graded products.

A polynomial here is the numerator part of a `Poly`: a dict mapping
packed exponents to nonzero `int` numerators, over a denominator that
the `Poly` keeps.  The kernel does integer arithmetic only.  A packed
exponent is one `int` holding FIELD bits per variable, x1 lowest; the
top bit of each field is a guard bit that no stored exponent sets, so
the product of two monomials is the sum of their keys, a carry out of a
field shows as a guard bit (checked by the caller), and the x-partial
reads a field with shift and mask.

A graded element is two-level: {super key: numerator dict}, where the
super key packs the super monomial (see `chart`): one bit per odd
generator in the low bits (selected by `odd_mask`), then one guarded
field per even generator.  The product of two super monomials is zero
when their odd bits meet, its Koszul sign is the parity of the odd-odd
crossings (a popcount per odd letter), and its key is the sum of the
keys; the coefficients multiply with `poly_mul`.

Invariants the code relies on: no stored numerator is zero, and a
derivative in one generator is injective on the terms it keeps, so
those terms never collide and need no merging.

Products are built row by row: a row is one term c*x^e of one factor
times the whole other factor, and `poly_add(acc, b, e, c)` adds it
straight into its accumulator, so no row is ever stored.  Every
coefficient product goes through `poly_mul`.

Mutation: every function leaves its arguments alone and returns new
values, except the three accumulators.  `poly_add(a, b, shift, scale)`
adds a scaled, shifted b into a in place; `poly_mul(a, b, weight, out)`
adds weight*a*b into `out` in place, or into a fresh dict when `out` is
None; and `element_mul(f, g, odd_mask, out, weight)` adds weight*f*g, for
any nonzero integer weight, into the term map `out` in place, each
product straight into its monomial's numerators, so no full product or
negated copy is built.  The only dicts they write are `a`, `out` and
the numerator dicts `element_mul` itself made.  The numerators of a
`Poly` are shared by the callers and are never written.
"""

FIELD = 16
FIELD_MASK = (1 << FIELD) - 1
# a stored exponent stays below its field's top bit, the guard bit
_EXP_LIMIT = 1 << (FIELD - 1)


def _guard_bits(fields):
    """The guard bits of `fields` packed fields from bit 0 up."""
    # a 1 at the bottom of each field, moved up to its top bit
    return ((1 << FIELD * fields) - 1) // FIELD_MASK << (FIELD - 1)


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


def element_mul(f, g, odd_mask, out, weight):
    """Add weight * f * g into the term map `out` in place; weight is any
    nonzero int.

    f and g are term maps {super key: numerator dict}, all of f over one
    denominator and all of g over another; `out` is over their product
    and may keep empty numerator dicts where terms cancelled, which the
    caller drops.  A pair of keys whose odd parts share a bit is zero;
    otherwise each odd letter of g's key crosses the odd letters of f's
    key above it, and the product's key is the sum of the two."""
    for k1, p1 in f.items():
        o1 = k1 & odd_mask
        for k2, p2 in g.items():
            o2 = k2 & odd_mask
            if o1 & o2:
                continue
            w = weight
            # an odd letter of f above the lowest odd letter of g: count crossings
            if o1 and o1 >> (o2 & -o2).bit_length():
                crossed = 0
                while o2:
                    low = o2 & -o2
                    crossed += (o1 >> low.bit_length()).bit_count()
                    o2 ^= low
                if crossed & 1:
                    w = -w
            key = k1 + k2
            out[key] = poly_mul(p1, p2, w, out.get(key))
