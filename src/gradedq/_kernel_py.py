"""Hot kernels: integer polynomial numerators and graded products.

A polynomial here is the numerator part of a `Poly`: a dict mapping
packed exponents to nonzero `int` numerators, over a denominator that
the `Poly` keeps.  The kernel does integer arithmetic only.  A packed
exponent is one `int` holding FIELD bits per variable, x1 lowest; the
top bit of each field is a guard bit that no stored exponent sets, so
the product of two monomials is the sum of their keys, a carry out of a
field shows as a guard bit (checked by the caller), and an x-partial
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

x-partials: the bracket pairs an x-derivative of one element with a
momentum derivative of the other, and takes that x-partial inside the
product, never as a dict of its own.  `element_mul(..., dx)` passes the
variable to `poly_mul(a, b, weight, out, mu)`, which reads b's terms as
their partial in field mu while it multiplies: each term's exponent in
that field scales it and its key drops one unit there, and a term
without the variable is skipped.  `poly_partial` builds the partial as a
dict, for `Poly.partial` and the `forms` oracle only.

Mutation: every function leaves its arguments alone and returns new
values, except the three accumulators.  `poly_add(a, b, shift, scale)`
adds a scaled, shifted b into a in place; `poly_mul(a, b, weight, out,
mu)` adds weight*a*b, or weight*a*(db/dx), into `out` in place, or into
a fresh dict when `out` is None; and `element_mul(f, g, odd_mask, out,
weight, dx)` adds weight*f*g, for any nonzero integer weight and either
factor read as an x-partial, into the term map `out` in place, each
product straight into its monomial's numerators, so no full product,
partial or negated copy is built.  The only dicts they write are `a`,
`out` and the numerator dicts `element_mul` itself made.  The numerators
of a `Poly` or an element are shared by the callers, the bracket's
derivative maps among them, and are never written.
"""

FIELD = 16
FIELD_MASK = (1 << FIELD) - 1
# a stored exponent stays below its field's top bit, the guard bit
_EXP_LIMIT = 1 << (FIELD - 1)


def _guard_bits(fields):
    """The guard bits of `fields` packed fields from bit 0 up."""
    # a 1 at the bottom of each field, moved up to its top bit
    return ((1 << FIELD * fields) - 1) // FIELD_MASK << (FIELD - 1)


def key_bytes(key):
    """A packed key as bytes, for hashing: an int hashes modulo 2^61 - 1,
    so keys past bit 61 can alias lower ones (x5, at bit 64, hashes as
    x1^8), and their bytes do not."""
    return key.to_bytes((key.bit_length() + 7) // 8, "little")


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


def poly_mul(a, b, weight=1, out=None, mu=None):
    """Add weight * a * b into `out` row by row and return it, starting
    from a fresh dict when `out` is None: one `poly_add` per term of the
    shorter factor, so a one-term factor gives its row.

    With `mu`, b is read as its x-partial in field mu (0-based) as it is
    multiplied, and no partial is built: a term x^e*c of b counts as
    k*c x^(e - 1 in field mu), k the exponent of field mu in e, and a term
    with k = 0 is skipped.  When b is the shorter factor the rows run over
    its terms that hold x^mu; otherwise each row of a reads b term by
    term."""
    if out is None:
        out = {}
    if mu is None:
        if len(a) > len(b):
            a, b = b, a
        for exp, c in a.items():
            poly_add(out, b, exp, c * weight)
        return out
    shift = FIELD * mu
    one = 1 << shift
    if len(b) <= len(a):
        for exp, c in b.items():
            k = exp >> shift & FIELD_MASK
            if k:
                poly_add(out, a, exp - one, c * k * weight)
        return out
    for exp, c in a.items():
        exp -= one
        c *= weight
        for e, v in b.items():
            k = e >> shift & FIELD_MASK
            if k:
                e += exp
                v *= c * k
                s = out.get(e)
                if s is None:
                    out[e] = v
                else:
                    s += v
                    if s:
                        out[e] = s
                    else:
                        del out[e]
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


def element_mul(f, g, odd_mask, out, weight, dx=0):
    """Add weight * f * g into the term map `out` in place; weight is any
    nonzero int.  A nonzero `dx` reads one factor's numerators as their
    x-partial inside `poly_mul`: g's in x^dx when dx > 0, f's in x^-dx
    when dx < 0.

    f and g are term maps {super key: numerator dict}, all of f over one
    denominator and all of g over another; `out` is over their product
    and may keep empty numerator dicts where terms cancelled, which the
    caller drops.  A pair of keys whose odd parts share a bit is zero;
    otherwise each odd letter of g's key crosses the odd letters of f's
    key above it, and the product's key is the sum of the two."""
    mu = abs(dx) - 1 if dx else None
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
            out[key] = (poly_mul(p2, p1, w, out.get(key), mu) if dx < 0
                        else poly_mul(p1, p2, w, out.get(key), mu))
