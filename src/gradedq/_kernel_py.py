"""Hot kernels: exact rational polynomials and graded monomials.

A polynomial is a dict mapping exponent tuples (length d) to nonzero
Fractions.  A graded monomial is a tuple of (generator id, exponent)
pairs sorted by generator id; odd generators carry exponent 1.
"""


def poly_add(a, b):
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


def poly_neg(a):
    return {exp: -c for exp, c in a.items()}


def poly_scale(a, c):
    if not c:
        return {}
    return {exp: c * v for exp, v in a.items()}


def poly_mul(a, b):
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


def poly_partial(a, mu):
    out = {}
    for exp, c in a.items():
        k = exp[mu]
        if k:
            e = exp[:mu] + (k - 1,) + exp[mu + 1:]
            v = c * k
            s = out.get(e)
            if s is None:
                out[e] = v
            else:
                out[e] = s + v  # distinct sources never cancel here
    return out


def mono_mul(m1, m2, parity):
    """Multiply canonical monomials.  Returns (sign, mono); sign 0 means zero."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd1 = [g for g, _ in m1 if parity[g]]
    swaps = 0
    for g, _ in m2:
        if parity[g]:
            # crossings with odd letters of m1 that end up to the right
            lo, hi = 0, len(odd1)
            while lo < hi:
                mid = (lo + hi) // 2
                if odd1[mid] <= g:
                    lo = mid + 1
                else:
                    hi = mid
            if lo and odd1[lo - 1] == g:
                return 0, None
            swaps += len(odd1) - lo
    # merge
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 < g2:
            out.append(m1[i])
            i += 1
        elif g2 < g1:
            out.append(m2[j])
            j += 1
        else:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    sign = -1 if swaps & 1 else 1
    return sign, tuple(out)


def mono_partial(m, gid, parity, from_right):
    """Graded derivative of a monomial with respect to one generator.

    Returns (integer coefficient, reduced monomial).  Coefficient 0 means
    the generator is absent.  For odd generators the coefficient is the
    Koszul sign of commuting the derivation to the generator's slot.
    """
    pos = -1
    for k, (g, _) in enumerate(m):
        if g == gid:
            pos = k
            break
    if pos < 0:
        return 0, None
    g, e = m[pos]
    if parity[gid]:
        if from_right:
            crossings = sum(1 for gg, _ in m[pos + 1:] if parity[gg])
        else:
            crossings = sum(1 for gg, _ in m[:pos] if parity[gg])
        coeff = -1 if crossings & 1 else 1
        reduced = m[:pos] + m[pos + 1:]
    else:
        coeff = e
        reduced = m[:pos] + ((g, e - 1),) + m[pos + 1:] if e > 1 else m[:pos] + m[pos + 1:]
    return coeff, reduced


def element_mul(f, g, parity):
    """Product of term maps {mono: polydict}; result is normalized."""
    out = {}
    for m1, p1 in f.items():
        for m2, p2 in g.items():
            sign, mono = mono_mul(m1, m2, parity)
            if sign == 0:
                continue
            prod = poly_mul(p1, p2)
            if not prod:
                continue
            if sign < 0:
                prod = poly_neg(prod)
            cur = out.get(mono)
            out[mono] = poly_add(cur, prod) if cur is not None else prod
    return {m: p for m, p in out.items() if p}
