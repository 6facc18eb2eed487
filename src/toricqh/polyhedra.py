"""Delzant polyhedra: construction, vertex enumeration, structural checks.

A polyhedron is the set {x : <x, nu_j> >= -lambda_j} with primitive integer
normals nu_j and positive rational offsets lambda_j.  Facets carry 1-based
labels throughout the public API (label j corresponds to index j-1 in the
``normals``/``offsets`` tuples).

Positivity of every offset makes the origin an interior point, so the
feasible set is always nonempty and full-dimensional; irredundancy of each
inequality is verified exactly at construction time.

Vertices come from one walk over the feasible bases by fraction-free
simplex pivots on an integer tableau (``enumerate_vertices``; Avis and
Fukuda, Discrete Comput. Geom. 8, 1992): from the origin to a vertex, then
along the edges, with basis exchanges where more than dim facets meet.  It
costs a pivot per basis met, not a solve per dim-subset of the facets, and
records on each vertex its basis, which ``vertex_basis`` and
``check_delzant`` read, and the directions of the unbounded edges (rays)
that leave it.  With a vertex, P is the convex hull of its vertices plus
the cone of its rays, so every question about P is answered from them and
no LP is solved: compactness (``is_compact``), irredundancy (a facet's face
must have dimension dim - 1), facet intersections
(``facet_intersection_nonempty``) and membership in the disc-area cone
(``monoid.ConeMonoid.contains``).  Input without a vertex holds lines; it is
answered from the pointed polyhedron that slabs across the lines cut out of
it (``_pointed_vertices``).

The working form is integers over one denominator.  The offsets are read
once per polyhedron as integers L_j over their least common denominator D
(``integer_offsets``); the walk runs on them, each vertex keeps its point as
integers over its least common denominator (``Vertex.scaled``), and the
vertices are sorted on integers.  ``monoid.ConeMonoid`` and the inverse
certificates of ``presentation`` read those integers too.  Fractions are
the public values: the offsets, ``Vertex.point`` and what reports print.
Exact inputs are read by ``exact_fraction`` and ``exact_parameter``, which
take a plain ASCII fraction string with ``int`` and hand every other
string to ``Fraction``.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from . import linalg
from .errors import PreconditionError, SchemaError


@dataclass(frozen=True)
class Vertex:
    point: tuple[Fraction, ...]
    incident: frozenset[int]  # 1-based facet labels active at the point
    # (labels, adjugate, det) of the least basis, see ``vertex_basis``
    basis: tuple = field(default=None, compare=False, repr=False)
    # sorted primitive directions of the unbounded edges leaving the point
    rays: tuple = field(default=(), compare=False, repr=False)
    # (y, q): point = y / q, integers over the least common denominator q
    scaled: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DelzantPolyhedron:
    dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)  # filled by ``memoized`` functions

    @property
    def nfacets(self) -> int:
        return len(self.normals)

    def normal(self, label: int) -> tuple[int, ...]:
        return self.normals[label - 1]

    def offset(self, label: int) -> Fraction:
        return self.offsets[label - 1]


def memoized(fn):
    """Compute ``fn(P, ...)`` once per polyhedron object and keep it on P,
    so it is freed with P.  The key is the function and its other arguments
    as passed, each with its type and a tuple's entries with theirs:
    ``f(P)`` and ``f(P, default)`` are separate entries, so are
    ``f(P, True)`` and ``f(P, 1)`` or ``f(P, (True,))`` and ``f(P, (1,))``,
    and a value-equal polyhedron built separately computes its own."""
    @functools.wraps(fn)
    def wrapper(P, *args, **kwargs):
        key = (fn, *map(_typed, args),
               *sorted((k, _typed(v)) for k, v in kwargs.items()))
        if key not in P._memo:
            P._memo[key] = fn(P, *args, **kwargs)
        return P._memo[key]

    return wrapper


def _typed(value):
    return (type(value), tuple(map(_typed, value))
            if type(value) is tuple else value)


def is_integer(x) -> bool:
    """An int that is not a bool (JSON ``true`` parses as the int 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def integer_parameter(value, what: str, low: int, high: int | None = None):
    """An int library parameter in low..high (high None: no upper bound);
    anything else, a bool among them, raises PreconditionError naming it."""
    if is_integer(value) and low <= value and (high is None or value <= high):
        return value
    bound = f"at least {low}" if high is None else f"in {low}..{high}"
    raise PreconditionError(f"{what} must be an integer {bound}, got {value!r}")


def _read_fraction(value) -> Fraction:
    """``Fraction(value)``: the same value, or the same exception.

    A Fraction is returned as it is, and a plain ASCII string
    [+-]digits[/digits] with a nonzero denominator is read by ``int``;
    every other value goes to ``Fraction``, whose string parser (a regular
    expression, after abstract-base-class checks) costs several times
    more.  A string past the interpreter's int/str digit limit goes there
    too, and raises its ValueError.
    """
    if type(value) is Fraction:
        return value
    if type(value) is str:
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            try:
                n, d = int(digits), int(den) if slash else 1
            except ValueError:
                pass
            else:
                if d:
                    return Fraction(-n if num[0] == "-" else n, d)
    return Fraction(value)


def exact_fraction(value, what: str) -> Fraction:
    """An int, Fraction or fraction string as a Fraction.

    Floats and bools raise SchemaError: neither is an exact input.
    """
    if isinstance(value, (float, bool)):
        raise SchemaError(f"{what} must be exact (int or fraction string), "
                          f"got {value!r}")
    try:
        return _read_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what} {value!r}: {exc}") from exc


def exact_parameter(value, what: str) -> Fraction:
    """A library parameter as a Fraction.

    Floats and bools raise PreconditionError, as neither is an exact input,
    and so does anything that ``Fraction`` cannot read, such as a malformed
    string or a zero denominator.
    """
    try:
        if not isinstance(value, (float, bool)):
            return _read_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise PreconditionError(f"{what} must be exact (int, Fraction or "
                            f"fraction string), got {value!r}")


def exact_units(rho, nfacets: int) -> tuple[Fraction, ...]:
    """B-field units as Fractions: one ``exact_parameter`` per facet, each
    nonzero, zero tested on the numerator; PreconditionError otherwise."""
    try:
        rho = tuple(exact_parameter(r, "B-field entry") for r in rho)
    except TypeError:
        raise PreconditionError(f"the B-field must be {nfacets} units, got "
                                f"{rho!r}") from None
    if len(rho) != nfacets:
        raise PreconditionError(f"expected {nfacets} B-field entries, got "
                                f"{len(rho)}")
    if not all(r.numerator for r in rho):
        raise PreconditionError("B-field entries must be nonzero units")
    return rho


def polyhedron(dim: int, facets) -> DelzantPolyhedron:
    """Validate raw facet data and build a polyhedron.

    ``facets`` is an iterable of (normal, offset) pairs.  Raises SchemaError
    on any type-level invariant violation: a bool where an integer belongs,
    a float offset, non-primitive or zero normals, non-positive offsets, or
    a redundant inequality.
    """
    if not is_integer(dim) or dim < 1:
        raise SchemaError(f"dimension must be a positive integer, got {dim!r}")
    normals = []
    offsets = []
    for k, (nu, lam) in enumerate(facets, start=1):
        nu = tuple(nu)
        if len(nu) != dim or not all(is_integer(x) for x in nu):
            raise SchemaError(f"facet {k}: normal must be {dim} integers, got {nu!r}")
        g = 0
        for x in nu:
            g = gcd(g, x)
        if g != 1:
            raise SchemaError(f"facet {k}: normal {nu} is not primitive (gcd {g})")
        lam = exact_fraction(lam, f"facet {k}: offset")
        if lam.numerator <= 0:
            raise SchemaError(f"facet {k}: offset must be positive, got {lam}")
        normals.append(nu)
        offsets.append(lam)
    if not normals:
        raise SchemaError("a polyhedron needs at least one facet")
    P = DelzantPolyhedron(dim, tuple(normals), tuple(offsets))
    _check_irredundant(P)
    return P


def _check_irredundant(P: DelzantPolyhedron) -> None:
    """Raise SchemaError naming the first facet implied by the others.

    A facet containing a simple vertex v, where exactly dim facets are
    active, is irredundant: their normals have rank dim, so some direction
    d has <nu_j, d> < 0 and <nu_k, d> = 0 for the other active facets k,
    and v + eps*d violates facet j alone.

    Every other facet j, in label order, is redundant iff it repeats the
    (nu_j, lambda_j) of another facet or its face has dimension below
    dim - 1.  If dropping j changes P, some y violates j alone; the segment
    from the interior origin to y crosses facet j at a point where every
    other inequality is strict, so the face is a facet of P.  Conversely
    at a relative interior point of a facet only the inequalities with its
    hyperplane are tight, and with primitive normals those repeat j.  The
    face is the hull of the vertices on j plus the cone of the rays leaving
    them along j (<nu_j, r> = 0), so its dimension is the rank of those
    rays and of the differences of those vertices; with no vertex on j the
    face is empty.  Without a vertex, the vertices and rays are those of P
    cut by slabs across its lines (``_pointed_vertices``), whose face on
    each facet of P has the dimension of P's.
    """
    vertices = _pointed_vertices(P)
    certified = set()
    for v in vertices:
        if len(v.incident) == P.dim:
            certified |= v.incident
    facets = list(zip(P.normals, P.offsets))
    for j, (nu, lam) in enumerate(facets, start=1):
        if j in certified:
            continue
        on = [v for v in vertices if j in v.incident]
        rows = [[a - b for a, b in zip(v.point, on[0].point)] for v in on[1:]]
        rows += [r for v in on for r in v.rays
                 if not sum(a * b for a, b in zip(nu, r))]
        if (facets.count((nu, lam)) > 1 or not on
                or linalg.rank(rows) < P.dim - 1):
            raise SchemaError(f"facet {j} is redundant: dropping it does not "
                              f"change the polyhedron")


def parse_polyhedron(obj) -> DelzantPolyhedron:
    """Build a polyhedron from the JSON input schema.

    Expected shape: {"dim": n, "facets": [{"normal": [int...], "offset": "p/q"}...]}.
    Offsets must be exact: integers or fraction strings, never floats; no
    number may be a bool.
    """
    if not isinstance(obj, dict):
        raise SchemaError("top-level value must be an object")
    if "dim" not in obj or "facets" not in obj:
        raise SchemaError('missing required keys "dim" and "facets"')
    dim = obj["dim"]
    if not is_integer(dim):
        raise SchemaError(f'"dim" must be an integer, got {dim!r}')
    facets = []
    if not isinstance(obj["facets"], list):
        raise SchemaError('"facets" must be a list')
    for k, f in enumerate(obj["facets"], start=1):
        if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
            raise SchemaError(f'facet {k}: expected {{"normal": ..., "offset": ...}}')
        normal = f["normal"]
        if not isinstance(normal, list) or not all(is_integer(x) for x in normal):
            raise SchemaError(f"facet {k}: normal must be a list of integers")
        facets.append((normal, f["offset"]))
    return polyhedron(dim, facets)


def relabel_lattice(P: DelzantPolyhedron, U) -> DelzantPolyhedron:
    """Apply a unimodular change of the ambient lattice basis to all normals."""
    normals = [tuple(sum(U[i][k] * nu[k] for k in range(P.dim))
                     for i in range(P.dim)) for nu in P.normals]
    return polyhedron(P.dim, list(zip(normals, P.offsets)))


def polyhedron_to_json(P: DelzantPolyhedron) -> dict:
    return {
        "dim": P.dim,
        "facets": [{"normal": list(nu), "offset": str(lam)}
                   for nu, lam in zip(P.normals, P.offsets)],
    }


@memoized
def integer_offsets(P: DelzantPolyhedron) -> tuple[int, tuple[int, ...]]:
    """(D, L): the least common denominator D of the offsets and the
    integer offsets L_j = lambda_j * D, so that with y = x * D facet j reads
    <nu_j, y> + L_j >= 0.  Kept on P: the vertex walk, the cone monoid and
    the inverse certificates work on them instead of on the Fractions."""
    D = lcm(*(lam.denominator for lam in P.offsets))
    return D, tuple([lam.numerator * (D // lam.denominator)
                     for lam in P.offsets])


@memoized
def enumerate_vertices(P: DelzantPolyhedron) -> tuple[Vertex, ...]:
    """All vertices, each listed once, sorted by coordinates, each with
    the basis record that ``vertex_basis`` reads and the rays leaving it.

    One walk over the feasible bases, in integers.  With D and the L_j of
    ``integer_offsets`` and y = x * D, facet j reads <nu_j, y> + L_j >= 0.
    A basis is a sorted list of n rows whose normals are independent, and
    d = |det A| for A the matrix of their normals.  The tableau has a row for every facet and for every unit
    vector e_i: d times the coordinates of that vector on the basis
    normals, then d times its slack at the point where every basis row is
    tight (for e_i, d * y_i).  So the slacks, the point and the ratio test
    are read off the tableau.  Replacing basis member k by row l
    (``_pivot``) is one fraction-free step whose divisions are all exact.
    The tableau is stored by columns, W[k][j] for row j, with the slacks
    in W[n].

    Start.  Every offset is positive, so the origin is interior.  The walk
    starts there with the coordinate hyperplanes y_i = 0 as an artificial
    basis: W is the normals and the unit vectors, d = 1, and the slacks
    are the offsets.  Each artificial member in turn leaves by a ratio test
    along its column, in whichever direction some facet blocks; after n
    pivots the basis is n facets, all tight at a feasible point: a vertex.
    A column that no facet blocks either way is a direction orthogonal to
    every normal, so P holds a line and has no vertex: the result is ().

    Walk.  Leaving a basis facet along its column, the facets whose entry
    is negative block, the first at the least slack / |entry|.  None
    blocking means the edge is a ray: its direction r has <nu, r> = 1 for
    the facet left and 0 for the other basis members, so r is row k of
    A^-1, which column k holds d times on the unit-vector rows; it is
    recorded, made primitive, on the vertex.  A positive step reaches a
    neighbouring vertex.  A zero step (an incident facet blocks) stays at
    the vertex and is skipped; instead, where more than n facets meet, each
    basis member is exchanged with every other incident facet whose entry
    in its column is nonzero, which are the exchanges that keep the normals
    independent.  Degenerate input runs the same code.

    Completeness.  The vertices and bounded edges of a pointed polyhedron
    form a connected graph.  The bases at one vertex are the bases of the
    matroid of its incident normals, which single exchanges connect, and
    every edge leaving the vertex is a positive step or a ray from one of
    them: the n - 1 facets tight along it and one more incident facet form
    a basis.  So the walk meets every basis of every vertex, and pivots to
    each once, and it meets every unbounded edge.  The extreme rays of the
    recession cone of a pointed polyhedron are the directions of its
    unbounded edges, so P is the hull of the vertices plus the cone of the
    recorded rays.

    A vertex is identified by its incident set (every facet active there,
    so a degenerate vertex reports all of them), since n of them fix the
    point.  Its basis record comes from its least basis.  It keeps its
    point as integers y over their least common denominator q (``scaled``)
    beside the Fractions y_i / q, and the vertices are sorted by the
    integers y * (Q / q), Q the lcm of every q, which order them as their
    points do.
    """
    n, N = P.dim, P.nfacets
    D, L = integer_offsets(P)
    W = []
    for k, column in enumerate(zip(*P.normals)):
        W.append([*column, *[0] * n])
        W[k][N + k] = 1
    W.append([*L, *[0] * n])
    basis = list(range(N, N + n))
    d, sign = 1, 1
    for k in range(n):  # position k holds the artificial member N + k
        l, _ = _ratio_test(W, N, k, 1)
        if l is None:
            l, _ = _ratio_test(W, N, k, -1)
            if l is None:
                return ()  # P holds a line
        basis, W, d, sign = _pivot(basis, W, l, k, d, sign)
    mask = sum(1 << b for b in basis)
    seen = {mask}
    stack = [(basis, W, d, sign, mask)]
    found = {}  # incident rows -> [(y, q), least basis, its record, rays]
    while stack:
        basis, W, d, sign, mask = stack.pop()
        slack = W[n]
        incident = tuple([j for j in range(N) if not slack[j]])
        vertex = found.get(incident)
        if vertex is None:
            y = slack[N:]
            g = gcd(d * D, *y)
            vertex = found[incident] = [
                (tuple([x // g for x in y]), d * D // g), basis,
                _basis_record(basis, W, N, d, sign), set()]
        elif basis < vertex[1]:
            vertex[1:3] = basis, _basis_record(basis, W, N, d, sign)
        moves = []
        for k in range(n):
            l, step = _ratio_test(W, N, k, -1)
            if step:  # a positive step to a neighbouring vertex
                moves.append((l, k))
            elif l is None:  # a ray, along d times row k of A^-1
                g = gcd(*W[k][N:])
                vertex[3].add(tuple([x // g for x in W[k][N:]]))
        if len(incident) > n:
            moves += [(l, k) for l in incident if not mask >> l & 1
                      for k in range(n) if W[k][l]]
        for l, k in moves:
            key = mask ^ (1 << basis[k]) ^ (1 << l)
            if key not in seen:
                seen.add(key)
                stack.append((*_pivot(basis, W, l, k, d, sign), key))
    Q = lcm(*(q for (_, q), *_ in found.values()))
    keyed = [(tuple([x * (Q // q) for x in y]),
              Vertex(tuple([Fraction(x, q) for x in y]),
                     frozenset([j + 1 for j in incident]), record,
                     tuple(sorted(rays)), (y, q)))
             for incident, ((y, q), _, record, rays) in found.items()]
    keyed.sort(key=itemgetter(0))
    return tuple([v for _, v in keyed])


def _ratio_test(W, N, k, s):
    """(l, slack): among the facet rows whose entry in column k has the
    sign of s, the least l with the least slack / |entry|, and W's slack
    at l; (None, None) when there is no such row."""
    column, slacks = W[k], W[-1]
    best = least = None
    for j in range(N):
        a = column[j] * s
        if a > 0 and (best is None or slacks[j] * size < least * a):
            best, size, least = j, a, slacks[j]
    return best, least


def _pivot(basis, W, l, k, d, sign):
    """(basis, W, d, sign) after row l replaces basis member k.

    With p = W[k][l], W'[c][j] = sgn(p) * (p * W[c][j] - W[k][j] * W[c][l])
    / d for c != k, W'[k][j] = sgn(p) * W[k][j], and d' = |p|; columns that
    do not change are shared.  Then l and its column move to l's place in
    sorted order, so the basis stays sorted, and a move over m places
    multiplies det A by (-1)^m.
    """
    pivot_column = W[k]
    p = pivot_column[l]
    s = 1 if p > 0 else -1
    ap = s * p
    out = []
    for c, column in enumerate(W):
        q = s * column[l]
        if c == k:
            out.append(column if s > 0 else [-x for x in column])
        elif not q:
            out.append(column if ap == d else [ap * x // d for x in column])
        elif d == 1:
            out.append([ap * x - q * y for x, y in zip(column, pivot_column)])
        else:
            out.append([(ap * x - q * y) // d
                        for x, y in zip(column, pivot_column)])
    basis = basis[:k] + basis[k + 1:]
    at = bisect_left(basis, l)
    basis.insert(at, l)
    out.insert(at, out.pop(k))
    if (k - at) % 2:
        s = -s
    return basis, out, ap, sign * s


def _basis_record(basis, W, N, d, sign):
    """(labels, adjugate, det) of a basis.

    Column k of W on the unit-vector rows holds d times row k of A^-1, for
    A the matrix whose columns are the basis normals in (sorted) basis
    order, and det A = sign * d, so the adjugate, det A * A^-1, is read
    off W.
    """
    adjugate = tuple([tuple(column[N:]) if sign > 0 else
                      tuple([-x for x in column[N:]]) for column in W[:-1]])
    return tuple([b + 1 for b in basis]), adjugate, sign * d


def vertex_basis(P: DelzantPolyhedron, k: int):
    """(labels, adjugate, det) of the normals at vertex k of
    ``enumerate_vertices(P)``, recorded on the vertex by the walk.

    labels are the sorted incident labels, or at a degenerate vertex the
    least sorted dim-subset of them with independent normals (the first in
    ``itertools.combinations`` order).  adjugate and det belong to A, the
    matrix whose columns are their normals, so the coordinates of nu in
    that basis are adjugate * nu / det.  On Delzant input det is +-1, and
    det * adjugate is A^-1 in GL_n(Z).
    """
    return enumerate_vertices(P)[k].basis


@memoized
def vertex_coordinates(P: DelzantPolyhedron, k: int):
    """(labels, coords) at vertex k: the labels of ``vertex_basis(P, k)``
    and, for every facet j in order, the integer coordinates w_j of nu_j in
    the basis of their normals, read off as det * adjugate * nu_j.

    That is the inverse of the basis matrix only when det is +-1, as on
    Delzant input; the callers require it.  Then w_{s_k} is the k-th unit
    vector for the k-th label s_k.
    """
    labels, adj, det = vertex_basis(P, k)
    return labels, tuple(tuple(det * x for x in linalg.mat_vec(adj, nu))
                         for nu in P.normals)


@dataclass(frozen=True)
class DelzantReport:
    passed: bool
    violations: tuple[str, ...]


@memoized
def check_delzant(P: DelzantPolyhedron) -> DelzantReport:
    """Delzant condition at every vertex: exactly dim incident facets whose
    normals have determinant +-1, read off the vertex's basis record.  Never
    raises; returns a structured report, kept on P (``require_delzant`` asks
    for it on every public entry).
    """
    violations = []
    for v in enumerate_vertices(P):
        if len(v.incident) != P.dim:
            violations.append(f"vertex {format_point(v.point)}: {len(v.incident)} "
                              f"facets meet (expected {P.dim})")
            continue
        det = v.basis[2]
        if det not in (1, -1):
            violations.append(f"vertex {format_point(v.point)}: normal determinant "
                              f"{det} is not a unit")
    return DelzantReport(not violations, tuple(violations))


def require_delzant(P: DelzantPolyhedron) -> None:
    """Raise PreconditionError unless P has a vertex and passes check_delzant."""
    if not enumerate_vertices(P):
        raise PreconditionError("polyhedron has no vertex")
    report = check_delzant(P)
    if not report.passed:
        raise PreconditionError("Delzant check failed: " + "; ".join(report.violations))


def format_point(pt) -> str:
    return "(" + ", ".join(str(x) for x in pt) + ")"


@dataclass(frozen=True)
class SplittingReport:
    has_vertex: bool
    split_rank: int
    annihilator_basis: tuple[tuple[int, ...], ...]


@memoized
def check_vertex_and_splitting(P: DelzantPolyhedron) -> SplittingReport:
    """Vertex existence and the torus factor split off when there is none.

    P has a vertex exactly when the normals span: when the walk finds one.
    Otherwise split_rank k is dim minus their rank, and P is a product of
    an affine R^k, along the annihilator basis of the lattice orthogonal to
    the normals, with a polyhedron that has a vertex.  Kept on P.
    """
    if enumerate_vertices(P):
        return SplittingReport(True, 0, ())
    basis = tuple(map(tuple, linalg.integer_kernel(P.normals)))
    return SplittingReport(False, len(basis), basis)


@memoized
def _pointed_vertices(P: DelzantPolyhedron) -> tuple[Vertex, ...]:
    """The vertices of P; without one, those of P plus the slab facets
    <x, +-w> >= -1 for w in ``check_vertex_and_splitting(P).annihilator_basis``.

    P holds the lines along the span L of those w, which is orthogonal to
    every normal, so each face F of P is a union of translates of L, and
    the slabs cut L to a bounded box around the origin.  The cut polyhedron
    is pointed, its face on a set of P's facets is F cut by the slabs, and
    that is nonempty exactly when F is, with the same dimension: every
    point of F moves along L to one with every <x, w> = 0.  Its facets past
    P.nfacets are the slabs.
    """
    vertices = enumerate_vertices(P)
    if vertices:
        return vertices
    slabs = [w for v in check_vertex_and_splitting(P).annihilator_basis
             for w in (v, tuple(-x for x in v))]
    return enumerate_vertices(DelzantPolyhedron(
        P.dim, P.normals + tuple(slabs),
        P.offsets + (Fraction(1),) * len(slabs)))


@memoized
def is_compact(P: DelzantPolyhedron) -> bool:
    """True iff P has a vertex and no ray leaves a vertex.

    Without a vertex P holds a line.  With one, P is the hull of its
    vertices plus the cone of the rays the vertex walk records, since a
    pointed unbounded polyhedron has an unbounded edge, and every unbounded
    edge is a column that no facet blocks at some basis of its vertex.
    """
    vertices = enumerate_vertices(P)
    return bool(vertices) and not any(v.rays for v in vertices)


def facet_intersection_nonempty(P: DelzantPolyhedron, labels) -> bool:
    """Do the facets with the given labels meet?

    Every nonempty face of a pointed polyhedron contains a vertex, so they
    meet iff their labels lie in the incident set of some vertex; without
    a vertex, of some vertex of P cut by slabs (``_pointed_vertices``).
    Raises PreconditionError unless the labels are a nonempty collection of
    ints in 1..nfacets.
    """
    try:
        labels = frozenset([integer_parameter(j, "facet label", 1,
                                              P.nfacets) for j in labels])
    except TypeError:
        raise PreconditionError(f"facet labels must be a collection of "
                                f"ints, got {labels!r}") from None
    if not labels:
        raise PreconditionError("facet subset must be nonempty")
    return any(labels <= v.incident for v in _pointed_vertices(P))


@memoized
def minimal_nonfaces(P: DelzantPolyhedron) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal facet subsets with empty common intersection, as
    sorted label tuples in (size, lex) order.

    Every nonempty face of a polyhedron with a vertex contains a vertex, so
    a facet set meets iff it lies in the incident set of some vertex; no LP
    is solved.  The faces, the subsets of those incident sets, are built
    once.  A minimal nonface S is F + (j,) for its largest label j and the
    face F = S - {j}, so the candidates are the faces extended by one
    larger label; S is kept when it is no face while every S - {i} is.
    Raises PreconditionError when P has no vertex.
    """
    vertices = enumerate_vertices(P)
    if not vertices:
        raise PreconditionError("polyhedron has no vertex")
    faces = {F for v in vertices for k in range(len(v.incident) + 1)
             for F in itertools.combinations(sorted(v.incident), k)}
    nonfaces = []
    for F in faces:
        for j in range(F[-1] + 1 if F else 1, P.nfacets + 1):
            S = F + (j,)
            if S not in faces and all(S[:i] + S[i + 1:] in faces
                                      for i in range(len(S) - 1)):
                nonfaces.append(S)
    return tuple(sorted(nonfaces, key=lambda S: (len(S), S)))


@dataclass(frozen=True)
class MonotoneNormalization:
    translation: tuple[Fraction, ...]  # b with lambda_j = lambda + <b, nu_j>
    offset: Fraction                   # the common offset lambda after translating
    rescaled: DelzantPolyhedron        # translated polyhedron, offsets scaled to 1


@memoized
def monotone_normalization(P: DelzantPolyhedron) -> MonotoneNormalization | None:
    """Solve lambda_j = lambda + <b, nu_j>; None when the system has no
    solution with lambda > 0.

    On success returns the translate of P by b with all offsets equal,
    rescaled so the common offset is 1 (the scale is recorded in ``offset``).
    When every offset of P is already 1, ``rescaled`` is P itself.  Kept on
    P, so all callers share one rescaled polyhedron and what derives from it.

    The unknowns (lambda, b) are columns 0..n and the constant is column
    n + 1: one row (1, nu_j, -lambda_j) per facet, times the denominator of
    lambda_j so that its entries are integers, goes to a rational
    ``linalg.Eliminator``.  Its quotient coordinates are a basis of the
    linear forms that vanish on every row, one per free column, so the
    system is solvable exactly when the constant column is free.  The
    coordinate t that it keeps is then the solution x_c = reduce(e_c)[t]
    with every other free unknown 0.  The free columns are the same as
    those of a Gauss-Jordan solve (the pivot columns of an echelon form
    depend on the row space only), so this is the solution that solve
    gives.  A system with a family of solutions (e.g. C^n) whose chosen
    lambda is not positive is solved again with lambda = 1 pinned.
    """
    rows = [[lam.denominator, *[lam.denominator * x for x in nu],
             -lam.numerator] for nu, lam in zip(P.normals, P.offsets)]
    x = _solve_homogenized(rows, P.dim + 1)
    if x is not None and x[0].numerator <= 0:
        x = _solve_homogenized(rows + [[1] + [0] * P.dim + [-1]], P.dim + 1)
    if x is None or x[0].numerator <= 0:
        return None
    if integer_offsets(P) != (1, (1,) * P.nfacets):
        P = DelzantPolyhedron(P.dim, P.normals, (Fraction(1),) * P.nfacets)
    return MonotoneNormalization(tuple(x[1:]), x[0], P)


def _solve_homogenized(rows, m: int) -> list[Fraction] | None:
    """The solution of A*x = b with every free unknown 0, or None, for the
    rows (A | -b) of m unknowns and the constant column m."""
    elim = linalg.Eliminator()
    for row in rows:
        elim.add_row(linalg.normalize(row))
    elim.settle(m + 1)
    e = elim.reduce({m: 1})
    if not any(e):
        return None
    t = e.index(1)
    return [Fraction(elim.reduce({c: 1})[t]) for c in range(m)]
