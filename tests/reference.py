"""Reference implementations that the tests compare the package against.

They are the plain versions the package replaced by faster ones, or helpers
only tests need: a dense matrix product, a dense Gaussian rank, a dense
Gauss-Jordan solve, the fraction-free (Bareiss) determinant and adjugate,
the monotone normalization by that solve, the dense Smith normal form
that ``linalg.column_echelon`` replaced, the inverse of
``presentation.reduce_to_basis``, the composition search for divisor
inverse certificates, the "linear form times monomial" loop that
``topology.graded_rows`` replaced and a ``topology.graded_rows`` that loses
the rows into degree n, the classical table under a B-field by an elimination over Q,
an exact characteristic polynomial, two surfaces outside the corpus (the
hexagon and dP8) and the product of two polyhedra, the classical ranks by
a Morse count on the vertices, the mirror potential in exact Q(omega)
arithmetic; for the CLI, the report
writers that ``json.dumps`` and a pass turning Fractions into numbers and
strings make, and the generator coordinates and products of a quantum
report by ``reduce_to_basis`` of ``FilteredElement`` products; the
quantum presentation by one elimination per T-degree, the method the
one-layer ``presentation.quantum_presentation`` replaced; the relations
c'_k of ``jacobian_freeness`` by ``FilteredElement`` arithmetic, the
admissible height levels by a walk on Fractions and the whole Fraction
set-up of the Jacobian slice (caps, inner window, L, levels, relation
maps), which the integer versions of ``jacobian._relations``,
``monoid.build_height_monoid`` and ``jacobian_freeness`` replaced; the
readers of exact values by ``Fraction`` alone, the vertex
order by Fraction points and the cone monoid's scaling from the Fraction
points and offsets, which the integers over a common denominator replaced.
"""

import json
from fractions import Fraction
from math import lcm
from operator import add, mul
from types import SimpleNamespace

from toricqh import linalg, polyhedra, topology
from toricqh import presentation as pr
from toricqh.errors import PreconditionError, SchemaError
from toricqh.monoid import (element_from_monomial, format_monomial, monoid_for,
                            scaled, theta)
from toricqh.polyhedra import (enumerate_vertices, exact_units, polyhedron,
                               vertex_basis)
# bound here, so a fault planted in ``presentation._graded_layer`` by a test
# does not reach ``quantum_by_layers``
from toricqh.presentation import (_graded_layer, classical_presentation,
                                  reduce_to_basis, tpoly_str)


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


def smith_normal_form(M):
    """Smith normal form: (S, U, V) with U, V unimodular and U*M*V = S.

    S is diagonal with non-negative entries d_1 | d_2 | ... ; it pivots
    naively on a smallest nonzero entry.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    S = [list(row) for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(target, source, factor):
        for A in (S, U):
            A[target] = [t + factor * s for t, s in zip(A[target], A[source])]

    def add_col(target, source, factor):
        for A in (S, V):
            for row in A:
                row[target] += factor * row[source]

    t = 0
    while True:
        entries = [(abs(S[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if S[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        for A in (S, U):
            A[t], A[pi] = A[pi], A[t]
        for A in (S, V):
            for row in A:
                row[t], row[pj] = row[pj], row[t]

        dirty = False
        for i in range(t + 1, m):
            if S[i][t] != 0:
                add_row(i, t, -(S[i][t] // S[t][t]))
                dirty = dirty or S[i][t] != 0
        for j in range(t + 1, n):
            if S[t][j] != 0:
                add_col(j, t, -(S[t][j] // S[t][t]))
                dirty = dirty or S[t][j] != 0
        if dirty:
            continue

        # Row and column are clear; enforce divisibility of the remaining block.
        d = S[t][t]
        offender = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                         if S[i][j] % d != 0), None)
        if offender is not None:
            add_row(t, offender[0], 1)
            continue
        if d < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return S, U, V


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


def exact_fraction(value, what):
    """``polyhedra.exact_fraction`` with every value read by ``Fraction``."""
    if isinstance(value, (float, bool)):
        raise SchemaError(f"{what} must be exact (int or fraction string), "
                          f"got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what} {value!r}: {exc}") from exc


def exact_parameter(value, what):
    """``polyhedra.exact_parameter`` with every value read by ``Fraction``."""
    try:
        if not isinstance(value, (float, bool)):
            return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise PreconditionError(f"{what} must be exact (int, Fraction or "
                            f"fraction string), got {value!r}")


def vertices_by_points(P):
    """The vertices of ``enumerate_vertices``, taken in reverse and sorted
    by their Fraction points, each as (point, incident, basis record,
    rays)."""
    return [(v.point, v.incident, v.basis, v.rays)
            for v in sorted(enumerate_vertices(P)[::-1], key=lambda v: v.point)]


def cone_scaling(P):
    """(scale, scaled_points, scaled_offsets) of ``monoid.ConeMonoid``
    from the Fractions: the lcm D of the denominators of the offsets and of
    every vertex coordinate, and the points and offsets times D."""
    vertices = enumerate_vertices(P)
    D = lcm(*(lam.denominator for lam in P.offsets),
            *(x.denominator for v in vertices for x in v.point))

    def scaled(x):
        return x.numerator * (D // x.denominator)

    return (D, [tuple(scaled(x) for x in v.point) for v in vertices],
            tuple(scaled(lam) for lam in P.offsets))


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


def graded_rows(slices, steps, weights, leads=()):
    """``topology.graded_rows`` as one loop over the monomials of the slice
    before: every move Z_j, with its weights and its Koszul limit, is looked
    up once per monomial, and each kept form's row is read off the moves
    found."""
    n = len(weights[0])
    lead = {j: t + 1 for t, j in enumerate(leads)}
    moves = [(step, weights[j], lead.get(j, n))
             for j, step in enumerate(steps) if any(weights[j])]
    prev = {}  # key of the slice before -> number of forms it keeps
    for keys in slices:
        index = {m: i for i, m in enumerate(keys)}
        forms = [n] * len(keys)
        rows = []
        for m, kept in prev.items():
            cols = []
            for step, w, limit in moves:
                col = index.get(m + step)
                if col is not None:
                    cols.append((col, w))
                    if limit < forms[col]:
                        forms[col] = limit
            for i in range(kept):
                row = {col: w[i] for col, w in cols if w[i]}
                if row:
                    rows.append(row)
        rows.sort(key=min)
        yield index, rows
        prev = dict(zip(keys, forms))


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
        rows = list(rows)
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


class LayeredQuantum:
    """A quantum presentation with one verified layer per T-degree
    0..``degree_bound`` (``quantum_by_layers``): the parts of
    ``presentation.QuantumPresentation`` that the Kodaira-Spencer table and
    the report's generator products read, and ``reduce``, the per-degree
    ``reduce_to_basis``."""

    def __init__(self, normalized, rho, ring, basis, layers, basis_nu):
        self.normalized, self.rho, self.ring = normalized, rho, ring
        self.basis = basis
        self.basis_degrees = tuple(sum(e) for e in basis)
        self.degree_bound = len(layers) - 1
        self.layers = layers
        self.verified_ranks = tuple(len(layer.basis_cols) for layer in layers)
        table = [[None] * len(basis) for _ in basis]
        for a, da in enumerate(self.basis_degrees):
            for b, db in enumerate(self.basis_degrees):
                coords = self.monomial_coords(
                    da + db, tuple(map(add, basis_nu[a], basis_nu[b])))
                table[a][b] = tuple(
                    poly[:-1] + (pr._coerce_ring(poly[-1], ring),) if poly
                    else () for poly in coords)
        self.structure = tuple(map(tuple, table))

    def basis_names(self):
        return tuple(format_monomial(Fraction(0), e) for e in self.basis)

    def monomial_coords(self, k, nu, c=1):
        """Coordinates of c * (k, nu), read off the layer of T-degree k."""
        layer = self.layers[k]
        coords = layer.coords({layer.column(nu): c})
        return [(0,) * (k - d) + (coords[g],) if g in coords else ()
                for g, d in enumerate(self.basis_degrees)]

    def reduce(self, x):
        """``reduce_to_basis`` of the filtered element x: the terms of each
        T-degree k reduced together on the layer of T-degree k."""
        by_degree = {}
        for m, c in x.terms.items():
            by_degree.setdefault(int(m.lam), {})[m.nu] = c
        pairs = [[] for _ in self.basis]
        for k, terms in by_degree.items():
            layer = self.layers[k]
            vec = {layer.column(nu): c for nu, c in terms.items()}
            for g, c in layer.coords(vec).items():
                pairs[g].append((k - self.basis_degrees[g], c))
        return [pr._tpoly(p) for p in pairs]


def quantum_by_layers(P, margin=0, rho=None):
    """The quantum presentation of a monotone P by one elimination per
    T-degree k = 0..2n + margin, each claiming its own basis
    T^(k - deg e_g) * e_g, deg e_g <= k, on the slice of
    ``topology.vertex_rows``: the oracle for the one-layer
    ``presentation.quantum_presentation``, which must agree with it on
    every rank, structure constant and coordinate."""
    Pn = polyhedra.monotone_normalization(P).rescaled
    N = Pn.nfacets
    units = exact_units((1,) * N if rho is None else rho, N)
    classical = classical_presentation(Pn)
    if rho is not None:
        classical = pr._rescaled(classical, units)
    coeff = tuple(int(r) if r.denominator == 1 else r for r in units)
    degs = classical.basis_degrees()
    basis_nu = [tuple(sum(map(mul, e, col)) for col in zip(*Pn.normals))
                for e in classical.basis]
    keys, _, walk = topology.vertex_rows(Pn, 2 * Pn.dim + margin, coeff,
                                         by_nu=True)
    layers = []
    for k, (index, rows) in enumerate(walk):
        claimed = [index[keys.encode(nu)]
                   for nu, d in zip(basis_nu, degs) if d <= k]
        layers.append(_graded_layer(
            index, keys, rows, classical.ring == "Z",
            f"the quantum quotient at T-degree {k}", claimed, True))
    return LayeredQuantum(Pn, units, classical.ring, classical.basis,
                          layers, basis_nu)


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


def product(P, Q):
    """P x Q: the facets of P on the first coordinates and those of Q on
    the last, with their offsets."""
    return polyhedron(P.dim + Q.dim,
                      [(tuple(nu) + (0,) * Q.dim, lam)
                       for nu, lam in zip(P.normals, P.offsets)]
                      + [((0,) * P.dim + tuple(nu), lam)
                         for nu, lam in zip(Q.normals, Q.offsets)])


def morse_ranks(P):
    """Per-degree ranks of the cohomology of X_P by Morse theory of the
    moment map paired with xi = sum_j nu_j, made generic by breaking ties
    lexicographically by the coordinates (xi + eps e_1 + eps^2 e_2 + ...):
    degree d counts the vertices with exactly d edges along which it
    decreases.  xi is positive on every nonzero direction of the recession
    cone, so the function is proper and bounded below.  At a vertex the
    edge leaving facet s_k is row k of A^-1, the adjugate's row k over det
    (``vertex_basis``); rays count as edges."""
    xi = [sum(col) for col in zip(*P.normals)]
    ranks = [0] * (P.dim + 1)
    for k in range(len(enumerate_vertices(P))):
        _, adjugate, det = vertex_basis(P, k)
        down = 0
        for row in adjugate:
            edge = [Fraction(x, det) for x in row]
            down += (sum(map(mul, xi, edge)), *edge) < (0,) * (P.dim + 1)
        ranks[down] += 1
    return tuple(ranks)


def omega_mul(x, y):
    """(a + b w)(c + d w) in Q(w) for w a primitive cube root of unity,
    w^2 = -1 - w; an element is the pair (a, b)."""
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


def omega_pow(x, e):
    """x^e in Q(w) for x nonzero and any integer e: x^-1 is the conjugate
    a + b w^2 = (a - b) - b w over the norm a^2 - ab + b^2."""
    if e < 0:
        a, b = x
        norm = a * a - a * b + b * b
        x, e = (Fraction(a - b, norm), Fraction(-b, norm)), -e
    out = (1, 0)
    for _ in range(e):
        out = omega_mul(out, x)
    return out


def mirror_potential(P, point):
    """(W(p), [x_i dW/dx_i (p)]) for the mirror potential W = sum_j x^nu_j
    at a point p of (Q(w)^*)^n; p is critical when every log derivative
    sum_j nu_ji x^nu_j is 0."""
    terms = []
    for nu in P.normals:
        term = (1, 0)
        for x, e in zip(point, nu):
            term = omega_mul(term, omega_pow(x, e))
        terms.append(term)
    weights = [[1] * len(terms)] + [[nu[i] for nu in P.normals]
                                    for i in range(P.dim)]
    value, *derivatives = [
        tuple(sum(w * t[c] for w, t in zip(ws, terms)) for c in (0, 1))
        for ws in weights]
    return value, derivatives


def stringify(obj):
    """A report with every Fraction turned into its integer or its "p/q"
    string and every tuple into a list."""
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, (list, tuple)):
        return [stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: stringify(v) for k, v in obj.items()}
    return obj


def json_report(report):
    """The JSON text of a report."""
    return json.dumps(stringify(report), indent=2, sort_keys=True) + "\n"


def text_report(report):
    """The text form of a report: a key and its value per line, nested
    dicts indented, lists of scalars joined by commas, other lists in
    compact JSON, on one line up to 100 characters or one item a line."""
    lines = []

    def compact(v):
        return json.dumps(stringify(v), separators=(",", ":"))

    def walk(obj, indent=""):
        for k, v in obj.items():
            if isinstance(v, dict):
                lines.append(f"{indent}{k}:")
                walk(v, indent + "  ")
            elif isinstance(v, list):
                if all(not isinstance(x, (dict, list)) for x in v):
                    lines.append(f"{indent}{k}: "
                                 + (", ".join(str(x) for x in v) or "[]"))
                elif len(compact(v)) <= 100:
                    lines.append(f"{indent}{k}: {compact(v)}")
                else:
                    lines.append(f"{indent}{k}:")
                    for item in v:
                        if isinstance(item, dict):
                            walk(item, indent + "    ")
                        else:
                            lines.append(f"{indent}  - {compact(item)}")
            else:
                lines.append(f"{indent}{k}: {v}")

    walk(report)
    return "\n".join(lines) + "\n"


def kodaira_spencer_generators(Q):
    """{"H<j>": coordinates of rho_j * v_j}, each by ``reduce_to_basis`` of
    the generator's filtered element times rho_j."""
    ctx = monoid_for(Q.normalized)
    return {f"H{j}": reduce_to_basis(
                element_from_monomial(ctx.generator(j)) * Q.rho[j - 1], Q)
            for j in range(1, Q.normalized.nfacets + 1)}


def generator_products(Q):
    """The "v_a*v_b = ..." lines of a quantum report, from ``reduce_to_basis``
    of the filtered products, each named c*T^s*v_l when it is that multiple
    of a generator's coordinates (c = 1 first, then c = -1, then the least
    l), else by its coordinates."""
    ctx = monoid_for(Q.normalized)
    gens = [element_from_monomial(ctx.generator(j))
            for j in range(1, Q.normalized.nfacets + 1)]
    reductions = [reduce_to_basis(v, Q) for v in gens]
    names = Q.basis_names()
    lines = []
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            coords = reduce_to_basis(gens[a] * gens[b], Q)
            lhs = f"v{a + 1}^2" if a == b else f"v{a + 1}*v{b + 1}"
            rhs = _match_generator(coords, reductions)
            if rhs is None:
                rhs = " + ".join(tpoly_str(poly, names[i])
                                 for i, poly in enumerate(coords) if poly) or "0"
            lines.append(f"{lhs} = {rhs}")
    return lines


def _match_generator(coords, reductions):
    matches = []
    for l, red in enumerate(reductions):
        if all(not p for p in red):
            continue
        shifts = set()
        scalars = set()
        ok = True
        for poly, rpoly in zip(coords, red):
            nz = [(e, c) for e, c in enumerate(poly) if c]
            rnz = [(e, c) for e, c in enumerate(rpoly) if c]
            if len(nz) != len(rnz) or len(nz) > 1:
                ok = False
                break
            if nz:
                shifts.add(nz[0][0] - rnz[0][0])
                scalars.add(Fraction(nz[0][1]) / Fraction(rnz[0][1]))
        if not ok or len(shifts) != 1 or len(scalars) != 1:
            continue
        shift = shifts.pop()
        scalar = scalars.pop()
        if shift >= 0:
            matches.append((scalar != 1, scalar != -1, l, shift, scalar))
    if not matches:
        return None
    _, _, l, shift, scalar = min(matches)
    return tpoly_str((0,) * shift + (scalar,), f"v{l + 1}")


def jacobian_relations(P, rho=None, perturbations=None):
    """The c'_k = sum_j w_jk h_j of ``jacobian_freeness``, with
    h_j = rho_j * v_j + perturbation_j and w_j the coordinates of nu_j at
    the first vertex, as sums of ``FilteredElement`` products of the
    generator monomials."""
    ctx = monoid_for(P)
    N = P.nfacets
    rho = exact_units(rho if rho is not None else (1,) * N, N)
    perturbations = perturbations or [ctx.zero()] * N
    hs = [element_from_monomial(ctx.generator(j + 1)) * rho[j]
          + perturbations[j] for j in range(N)]
    _, coords = polyhedra.vertex_coordinates(P, 0)
    return [sum((h * w[k] for h, w in zip(hs, coords) if w[k]), ctx.zero())
            for k in range(P.dim)]


def height_levels(P, extra, g):
    """(generators, elements) of the height monoid below g: the values
    theta_v(lambda_j, nu_j) over the vertices v and facets j, with the
    extra heights, and every sum of positive ones below g, by a
    breadth-first walk on Fractions."""
    g = Fraction(g)
    gens = {theta(v, (lam, nu)) for v in enumerate_vertices(P)
            for lam, nu in zip(P.offsets, P.normals)}
    gens.update(Fraction(x) for x in extra)
    positive = sorted(x for x in gens if x > 0)
    elements = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        base = frontier.pop()
        for x in positive:
            s = base + x
            if s < g and s not in elements:
                elements.add(s)
                frontier.append(s)
    return tuple(sorted(gens)), tuple(sorted(elements))


def jacobian_set_up(P, g, rho=None, perturbations=None, p=None):
    """What ``jacobian_freeness`` hands its slice, computed as it was on
    Fractions: the caps and the inner window from the offsets, g and the
    perturbations' largest T-weight, the levels by ``height_levels``, the
    relations by ``jacobian_relations`` and ``linalg.normalize``, and L as
    the lcm of the cone monoid's scale, g's denominator and the
    perturbation terms' T-weight denominators.  Returns L (``scale``), g,
    the inner window, the caps and the levels each times L, the relations
    as {(lam * L, nu): row coefficient} maps, and the height monoid's
    generators as Fractions."""
    ctx = monoid_for(P)
    g = Fraction(g)
    terms = [pert.terms for pert in perturbations or () if not pert.is_zero()]
    pert_weight = max((mm.lam for pert in terms for mm in pert),
                      default=Fraction(0))
    generators, levels = height_levels(
        P, [mm.height for pert in terms for mm in pert], g)
    dim_r = len(levels)
    lam_max, lam_min = max(P.offsets), min(P.offsets)
    step = max(lam_max, pert_weight)
    inner = P.dim * lam_max + g
    first = inner + (dim_r - 1) * max(Fraction(0), step - lam_min) + \
        max(Fraction(0), pert_weight - lam_min)
    caps = [first + i * (inner + (dim_r - 1) * step) for i in range(3)]
    relations = [{(mm.lam, mm.nu): c for mm, c in rel.terms.items()}
                 for rel in jacobian_relations(P, rho, perturbations)]
    L = lcm(ctx.scale, g.denominator,
            *(mm.lam.denominator for pert in terms for mm in pert))

    def times_L(x):
        assert L % x.denominator == 0, f"{x} is not an integer over {L}"
        return scaled(x, L)

    return SimpleNamespace(
        scale=L, g=times_L(g), inner=times_L(inner),
        caps=tuple(map(times_L, caps)), levels=tuple(map(times_L, levels)),
        relations=tuple({(times_L(lam), nu): c for (lam, nu), c
                         in linalg.normalize(rel, p).items()}
                        for rel in relations),
        generators=generators)
