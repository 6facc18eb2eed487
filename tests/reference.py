"""Reference implementations that the tests compare the package against.

They are the plain versions the package replaced by faster ones, or helpers
only tests need: a dense matrix product, a dense Gaussian rank, a dense
Gauss-Jordan solve, the fraction-free (Bareiss) determinant and adjugate,
the monotone normalization by that solve, the inverse of
``presentation.reduce_to_basis``, the composition search for divisor
inverse certificates, a ``topology.graded_rows`` that loses the rows into
degree n, the classical table under a B-field by an elimination over Q,
an exact characteristic polynomial, and two surfaces outside the corpus:
the hexagon and dP8.
"""

from fractions import Fraction
from operator import add

from toricqh import topology
from toricqh.monoid import element_from_monomial, monoid_for
from toricqh.polyhedra import polyhedron
from toricqh.presentation import classical_presentation


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


def solve_rational(A, b):
    """Solve A*x = b exactly over the rationals by Gauss-Jordan elimination.

    Returns one solution (free variables set to 0), or None if the system is
    inconsistent.  A may be rectangular; entries int or Fraction.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivot_cols):
        x[c] = aug[row_idx][n]
    return x


def cramer(A, b):
    """Fraction-free Cramer solve of a square integer system: (det, y) with
    det = det(A) and A*y = det*b in integers, or (0, None) when A is
    singular.  One Bareiss elimination of [A | b] (Bareiss, Math. Comp. 22,
    1968), whose divisions are exact, then back substitution."""
    n = len(A)
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    sign = 1
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                return 0, None
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        rk = M[k]
        a = rk[k]
        for i in range(k + 1, n):
            ri = M[i]
            f = ri[k]
            for j in range(k + 1, n + 1):
                ri[j] = (ri[j] * a - f * rk[j]) // prev
            ri[k] = 0
        prev = a
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ri = M[i]
        s = prev * ri[n] - sum(ri[j] * y[j] for j in range(i + 1, n))
        y[i] = s // ri[i]
    if sign < 0:
        y = [-v for v in y]
    return sign * prev, y


def determinant(M):
    """Exact determinant of a square integer matrix."""
    return cramer(M, [0] * len(M))[0]


def adjugate(M):
    """Integer adjugate of a nonsingular square matrix, one ``cramer``
    solve per column; a singular M raises ValueError."""
    n = len(M)
    cols = [cramer(M, [int(i == k) for i in range(n)])[1] for k in range(n)]
    if n and cols[0] is None:
        raise ValueError("a singular matrix has no adjugate here")
    return [list(row) for row in zip(*cols)]


def monotone_normalization(P):
    """(translation, offset) of ``polyhedra.monotone_normalization`` by the
    dense solve of lambda_j = lambda + <b, nu_j>, again with lambda = 1
    pinned when the first solution has lambda <= 0; None when no solution
    has lambda > 0."""
    A = [[1] + list(nu) for nu in P.normals]
    b = list(P.offsets)
    x = solve_rational(A, b)
    if x is not None and x[0] <= 0:
        x = solve_rational(A + [[1] + [0] * P.dim], b + [Fraction(1)])
    if x is None or x[0] <= 0:
        return None
    return tuple(x[1:]), x[0]


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


def deformed_classical_structure(P, rho):
    """The classical structure constants of P in the generators rho_j * v_j
    by an elimination over Q: in each degree the rho-weighted rows of
    ``topology.vertex_rows``, on the plain basis, which dense ranks check
    to be a basis of the quotient, and each product of two basis elements
    solved on that basis and the rows by ``solve_rational``."""
    plain = classical_presentation(P)
    basis, n = plain.basis, P.dim
    keys, _, walk = topology.vertex_rows(P, n, rho)
    layers = []
    for d, (index, rows) in enumerate(walk):
        claimed = [{index[keys.encode(e)]: 1} for e in basis if sum(e) == d]
        width = len(index)
        assert rank(rows) + len(claimed) == width == rank(rows + claimed), d
        A = [[v.get(c, 0) for v in claimed + rows] for c in range(width)]
        first = sum(1 for e in basis if sum(e) < d)
        layers.append((index, A, range(first, first + len(claimed))))
    K = topology.build_nerve(P)
    table = []
    for ea in basis:
        row = []
        for eb in basis:
            m = tuple(map(add, ea, eb))
            coeffs = [Fraction(0)] * len(basis)
            support = frozenset(j + 1 for j, t in enumerate(m) if t)
            if sum(m) <= n and K.is_face(support):
                index, A, idx = layers[sum(m)]
                col = index[keys.encode(m)]
                x = solve_rational(A, [int(c == col) for c in range(len(A))])
                for g, c in zip(idx, x):
                    coeffs[g] = c
            row.append(tuple(coeffs))
        table.append(tuple(row))
    return tuple(table)


def charpoly(M):
    """Coefficients of det(x I - M), highest degree first, by the
    Faddeev-LeVerrier recursion in exact arithmetic: with A_0 = 0 and
    c_0 = 1, A_k = M A_(k-1) + c_(k-1) I and c_k = -tr(M A_k) / k."""
    n = len(M)
    coeffs = [Fraction(1)]
    A = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        A = mat_mul(M, A)
        for i in range(n):
            A[i][i] += coeffs[-1]
        MA = mat_mul(M, A)
        coeffs.append(-sum(MA[i][i] for i in range(n)) / k)
    return coeffs


def hexagon():
    """The hexagon, every offset 1: the toric del Pezzo surface of degree
    6."""
    return polyhedron(2, [(nu, 1) for nu in ((1, 0), (1, 1), (0, 1), (-1, 0),
                                             (-1, -1), (0, -1))])


def dp8():
    """CP^2 blown up at one point, every offset 1."""
    return polyhedron(2, [(nu, 1) for nu in ((1, 0), (0, 1), (-1, -1),
                                             (1, 1))])
