"""Reference implementations that the tests compare the package against.

They are the plain versions the package replaced by faster ones, or helpers
only tests need: a dense matrix product, a dense Gaussian rank, the inverse of
``presentation.reduce_to_basis``, the composition search for divisor
inverse certificates, and a ``topology.graded_rows`` that loses the rows
into degree n.
"""

from fractions import Fraction

from toricqh.monoid import element_from_monomial, monoid_for


def mat_mul(A, B):
    """Product of two matrices (entries int or Fraction)."""
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    assert all(len(r) == inner for r in A) or inner == 0
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def rank(rows, p=None):
    """Rank over Q (p None) or over F_p by dense Gaussian elimination, in
    Fractions or residues mod p.  Rows are dense lists or sparse dicts
    {column: value}, with int or Fraction entries."""
    rows = [r if isinstance(r, dict) else dict(enumerate(r)) for r in rows]
    width = 1 + max((c for r in rows for c in r), default=-1)

    def entry(v):
        v = Fraction(v)
        return v if p is None else v.numerator * pow(v.denominator, -1, p) % p

    M = [[entry(r.get(c, 0)) for c in range(width)] for r in rows]
    done = 0
    for c in range(width):
        pivot = next((i for i in range(done, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[done], M[pivot] = M[pivot], M[done]
        top = M[done]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i in range(done + 1, len(M)):
            f = M[i][c] * inv
            if f:
                M[i] = [x - f * y for x, y in zip(M[i], top)]
                if p is not None:
                    M[i] = [x % p for x in M[i]]
        done += 1
    return done


def recompose_from_basis(coords, Q):
    """Inverse of ``presentation.reduce_to_basis`` up to an element of the
    relation lattice."""
    ctx = monoid_for(Q.normalized)
    out = ctx.zero()
    for g, poly in enumerate(coords):
        e = ctx.from_exponents(Q.basis[g])
        for exp, c in enumerate(poly):
            if c:
                out = out + element_from_monomial(ctx.t_power(exp) * e) * Fraction(c)
    return out


def compositions(total, parts):
    """Weak compositions of `total` into `parts` parts, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def inverse_multiplicities(P, j):
    """The multiplicities of the inverse certificate of facet j by the plain
    search: exponent vectors m of growing total degree, each degree in
    lexicographic order, the first with m_j >= 1 and sum m_k nu_k = 0;
    None when no total below 40 * N has one."""
    N, n = P.nfacets, P.dim
    for total in range(2, 40 * N):
        for m in compositions(total, N):
            if m[j - 1] >= 1 and all(
                    sum(mk * P.normals[k][i] for k, mk in enumerate(m)) == 0
                    for i in range(n)):
                return m
    return None


def dropping_rows_at_top(walk):
    """``walk`` (``topology.graded_rows``) without the rows into the slice
    of degree n, n the number of forms, so the quotient there is the whole
    slice."""
    def dropping(slices, steps, weights, leads=()):
        n = len(weights[0])
        for d, (index, rows) in enumerate(walk(slices, steps, weights, leads)):
            yield index, ([] if d == n else rows)
    return dropping
