"""Nerve complexes, simplicial homology, the Cohen-Macaulay criterion and the
regular-sequence verification.

Homology is computed over Q or over a prime field, via exact ranks of
boundary matrices.  The Cohen-Macaulay check is Reisner's: reduced homology
of the complex and of every face link must vanish below the dimension of the
respective complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import add

from . import linalg
from .errors import PreconditionError
from .polyhedra import (DelzantPolyhedron, enumerate_vertices, is_compact,
                        memoized, require_delzant, vertex_coordinates)


@dataclass(frozen=True)
class NerveComplex:
    """Simplicial complex on facet labels 1..ground, stored by maximal faces.

    The face family is the downward closure; the empty face always belongs.
    The complex is immutable, so its face set and sorted face list are
    built on first use and kept on it.
    """

    ground: int
    maximal: tuple[frozenset[int], ...]

    @property
    def dim(self) -> int:
        return max((len(m) for m in self.maximal), default=0) - 1

    def is_face(self, J) -> bool:
        J = frozenset(J)
        return any(J <= m for m in self.maximal) or not J

    @cached_property
    def _face_set(self) -> frozenset[frozenset[int]]:
        out = {frozenset()}
        for m in self.maximal:
            for k in range(1, len(m) + 1):
                out.update(map(frozenset, itertools.combinations(sorted(m), k)))
        return frozenset(out)

    @cached_property
    def sorted_faces(self) -> tuple[tuple[int, ...], ...]:
        """Every face as a sorted label tuple, ordered by size and then
        lexicographically, so entry 0 is the empty face.  Cached."""
        return tuple(sorted((tuple(sorted(f)) for f in self._face_set),
                            key=lambda f: (len(f), f)))

    def faces(self) -> frozenset[frozenset[int]]:
        """The face set, empty face included.  Cached: built once per
        complex, and the same frozenset is returned on every call."""
        return self._face_set

    def faces_by_dim(self) -> list[list[tuple[int, ...]]]:
        """Entry d holds the sorted (d-1)-dimensional faces as sorted tuples,
        so entry 0 is [()] and entry 1 lists the vertices."""
        by_size: list[list] = [[] for _ in range(self.dim + 2)]
        for f in self.sorted_faces:
            by_size[len(f)].append(f)
        return by_size


def make_complex(ground: int, faces) -> NerveComplex:
    """Normalize an arbitrary face family into maximal-face form."""
    fs = [frozenset(f) for f in faces]
    maximal = [f for f in fs if not any(f < g for g in fs)]
    canon = sorted(set(maximal), key=lambda f: (len(f), sorted(f)))
    return NerveComplex(ground, tuple(canon))


@memoized
def build_nerve(P: DelzantPolyhedron) -> NerveComplex:
    """Nerve of the facet family: faces are the facet subsets with nonempty
    intersection.

    Because the polyhedron is pointed, every nonempty face of the polyhedron
    contains a vertex, so the nerve is the downward closure of the vertex
    incidence sets.  Requires a passed Delzant check; built once per
    polyhedron object and kept on it.
    """
    require_delzant(P)
    return make_complex(P.nfacets, [v.incident for v in enumerate_vertices(P)])


def field_name(p: int | None) -> str:
    """The report name of the coefficient field: "Q" for p None, else
    "F{p}".  Raises PreconditionError unless p is None or a prime."""
    if p is None:
        return "Q"
    if not isinstance(p, int) or not linalg.is_prime(p):
        raise PreconditionError(f"the field size {p!r} is not a prime")
    return f"F{p}"


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers in degrees -1 .. dim."""

    dim: int
    ranks: tuple[int, ...]  # ranks[i] is the reduced Betti number in degree i-1

    def betti(self, degree: int) -> int:
        idx = degree + 1
        return self.ranks[idx] if 0 <= idx < len(self.ranks) else 0

    def nonzero(self) -> dict[int, int]:
        return {i - 1: r for i, r in enumerate(self.ranks) if r}


def reduced_homology(K: NerveComplex, p: int | None = None) -> HomologyProfile:
    """Reduced simplicial homology ranks over Q (p None) or over F_p."""
    field_name(p)
    layers = K.faces_by_dim()
    index = [{f: i for i, f in enumerate(layer)} for layer in layers]
    counts = [len(layer) for layer in layers]

    def boundary_rank(d):
        # rank of the boundary map from (d-1)-dimensional to (d-2)-dimensional
        # faces; d indexes layers by face cardinality.
        if d <= 0 or d >= len(layers) or not layers[d]:
            return 0
        rows = []
        for f in layers[d]:
            row = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                row[index[d - 1][sub]] = (-1) ** i
            rows.append(row)
        return linalg.rank(rows, p)

    branks = [boundary_rank(d) for d in range(len(layers) + 1)]
    ranks = []
    for d in range(len(layers)):
        next_rank = branks[d + 1] if d + 1 < len(branks) else 0
        ranks.append(counts[d] - branks[d] - next_rank)
    return HomologyProfile(K.dim, tuple(ranks))


def link(K: NerveComplex, J) -> NerveComplex:
    """The link of a face: all faces disjoint from J whose union with J is a face."""
    J = frozenset(J)
    if not K.is_face(J):
        raise PreconditionError(f"{sorted(J)} is not a face of the complex")
    return make_complex(K.ground, [m - J for m in K.maximal if J <= m])


@dataclass(frozen=True)
class CMReport:
    passed: bool
    field: str
    witness: str | None = None


def reisner_cm_check(K: NerveComplex, p: int | None = None) -> CMReport:
    """Reisner's criterion: reduced homology of the complex and of every face
    link vanishes in all degrees strictly below the dimension of that complex."""
    field = field_name(p)
    for face in K.sorted_faces:
        L = link(K, face)
        profile = reduced_homology(L, p)
        for degree, rank in profile.nonzero().items():
            if degree < L.dim:
                return CMReport(False, field,
                                f"link of {list(face)} has reduced homology of "
                                f"rank {rank} in degree {degree} < dim {L.dim}")
    return CMReport(True, field)


@dataclass(frozen=True)
class ProfileReport:
    compact: bool
    expected: str
    match: bool
    actual: tuple[int, ...]


def sphere_or_ball_profile(P: DelzantPolyhedron, p: int | None = None) -> ProfileReport:
    """Compare the nerve's homology with that of S^(n-1) (compact case) or of
    a point (non-compact case).  Homology-level only: homeomorphism itself is
    not decided."""
    K = build_nerve(P)
    profile = reduced_homology(K, p)
    compact = is_compact(P)
    n = P.dim
    if compact:
        expected = f"S^{n - 1}"
        ok = profile.nonzero() == ({n - 1: 1} if n >= 1 else {-1: 1})
    else:
        expected = f"B^{n - 1}"
        ok = profile.nonzero() == {}
    return ProfileReport(compact, expected, ok, profile.ranks)


def sr_monomials(K: NerveComplex, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree ``degree`` whose support is a face,
    sorted in graded lexicographic order.  These are the monomial basis of
    the Stanley-Reisner ring in that degree, and the enumerator of the
    degree-graded slices: the classical, regular-sequence and quantum (the
    height-zero part of each T-degree) slices.  The Jacobian slice, bounded
    by weight instead of degree, comes from ``sr_walk``; the two are the
    only enumerators of slice monomials.

    Walks ``K.sorted_faces``, which the complex builds once and keeps, so
    repeated calls on one complex do not rebuild its faces."""
    if degree == 0:
        return [(0,) * K.ground]
    out = []
    for labels in K.sorted_faces:
        k = len(labels)
        if not 1 <= k <= degree:
            continue
        # compositions of `degree` into k positive parts
        for cut in itertools.combinations(range(1, degree), k - 1):
            parts = [b - a for a, b in zip((0,) + cut, cut + (degree,))]
            expo = [0] * K.ground
            for lbl, e in zip(labels, parts):
                expo[lbl - 1] = e
            out.append(tuple(expo))
    return sorted(out)


def sr_walk(K: NerveComplex, vectors, cap: int):
    """Yield every exponent vector t whose support is a face and whose
    weight sum_j t_j * vectors[j][0] is at most ``cap``, paired with the
    summed vector sum_j t_j * vectors[j] as a list.

    ``vectors[j]`` is an integer vector for label j + 1 whose first entry,
    the weight, is positive.  One walk per face of ``K.sorted_faces``
    starts at the sum of the face's vectors (every exponent on the face at
    least 1) and raises one exponent at a time, never at an earlier label
    than the last one raised, so each t is reached once, by one vector
    addition, and the walk stops where the weight passes the cap.  The
    order is by face and then by the walk; callers sort what they need.
    """
    width = len(vectors[0])
    for labels in K.sorted_faces:
        t = [0] * K.ground
        acc = [0] * width
        for lbl in labels:
            t[lbl - 1] = 1
            acc = list(map(add, acc, vectors[lbl - 1]))
        if acc[0] > cap:
            continue
        stack = [(t, acc, 0)]
        while stack:
            t, acc, first = stack.pop()
            yield tuple(t), acc
            for pos in range(first, len(labels)):
                j = labels[pos] - 1
                nxt = list(map(add, acc, vectors[j]))
                if nxt[0] <= cap:
                    t2 = list(t)
                    t2[j] += 1
                    stack.append((t2, nxt, pos))


def sr_hilbert_function(P: DelzantPolyhedron, maxdeg: int) -> list[int]:
    """Dimensions of the Stanley-Reisner ring per degree, 0..maxdeg, counted
    face by face: a face with k vertices carries C(d-1, k-1) monomials of
    degree d."""
    if maxdeg < 0:
        raise PreconditionError("maxdeg must be non-negative")
    K = build_nerve(P)
    sizes = sorted(len(f) for f in K.faces() if f)
    values = [1]
    for d in range(1, maxdeg + 1):
        values.append(sum(comb(d - 1, k - 1) for k in sizes))
    return values


def linear_form_rows(prev, index, steps, weights) -> list[dict[int, int]]:
    """Images of the linear forms c_i = sum_j weights[j][i] Z_j times each
    monomial of ``prev``, as sparse rows over the columns ``index``.

    A monomial is keyed by a vector and Z_j moves it by ``steps[j]``.
    Products missing from ``index`` are dropped: their support is not a
    face, so they have positive height and vanish in the graded piece.
    Only the Z_j with a nonzero weight are stepped.
    """
    n = len(weights[0]) if weights else 0
    moves = [(j, step) for j, step in enumerate(steps) if any(weights[j])]
    rows = []
    for m in prev:
        cols = [(j, index.get(tuple(map(add, m, step)))) for j, step in moves]
        cols = [(j, col) for j, col in cols if col is not None]
        for i in range(n):
            row = {}
            for j, col in cols:
                coeff = weights[j][i]
                if coeff:
                    row[col] = row.get(col, 0) + coeff
            if row:
                rows.append(row)
    return rows


@dataclass(frozen=True)
class RegSeqReport:
    passed: bool
    field: str
    quotient_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]


def regular_sequence_check(P: DelzantPolyhedron, p: int | None = None,
                           maxdeg: int | None = None) -> RegSeqReport:
    """Verify that the n linear combinations c_i = sum_j nu_j[i] Z_j cut the
    Stanley-Reisner ring by a regular sequence, via Hilbert functions.

    For each degree d the quotient of the degree-d slice by the images
    c_i * (degree d-1 slice) must have dimension equal to the d-th
    coefficient of (1-t)^n * H_SR(t).

    The forms are taken in the lattice basis of the first vertex v, with
    facets s_1 < ... < s_n (``polyhedra.vertex_coordinates(P, 0)``).
    Delzant makes their normals a basis of Z^n, so C = (N_S^T)^-1 is in
    GL_n(Z), and the forms C * c are
    c'_k = Z_{s_k} + sum_{l not in S} w_lk Z_l, where w_l holds the
    coordinates of nu_l in the basis nu_{s_1}, ..., nu_{s_n}.  They span the
    same ideal over Z, Q and every F_p, and each has n-1 fewer terms.

    The row c'_k * m is skipped when Z_{s_t} divides m for some t < k (the
    Koszul criterion of Faugere's F5).  Sound: with m = Z_{s_t} * m',
      c'_k * m = c'_t * (c'_k * m') - sum_{l not in S} w_lt * c'_k * (Z_l * m'),
    and Z_l * m' < m in any monomial order ranking Z_S above the other
    variables, so by induction on (k, m) the kept rows span every degree.

    Slices are ranked only up to the first degree whose quotient is 0.  The
    quotient ring is generated in degree 1, so its degree-(d+1) piece is
    spanned by the products Z_j * (degree-d piece): once a degree is zero,
    every higher one is zero too.  The expected values are still computed
    for every degree, so the verdict compares the full sequences.
    """
    field = field_name(p)
    if maxdeg is None:
        maxdeg = P.dim + 2
    if maxdeg < P.dim:
        raise PreconditionError(f"maxdeg must be at least the dimension {P.dim}")
    K = build_nerve(P)
    n, N = P.dim, P.nfacets
    hilbert = sr_hilbert_function(P, maxdeg)
    expected = []
    for d in range(maxdeg + 1):
        expected.append(sum((-1) ** k * comb(n, k) * hilbert[d - k]
                            for k in range(0, min(d, n) + 1)))

    S, coords = vertex_coordinates(P, 0)
    weights = [[[w[k]] for w in coords] for k in range(n)]  # c'_k alone

    steps = [tuple(int(k == j) for k in range(N)) for j in range(N)]
    dims = []
    prev = []
    for d in range(maxdeg + 1):
        if dims and dims[-1] == 0:
            dims += [0] * (maxdeg + 1 - d)
            break
        cur = sr_monomials(K, d)
        index = {m: i for i, m in enumerate(cur)}
        rows, kept = [], prev
        for s, weight in zip(S, weights):
            rows += linear_form_rows(kept, index, steps, weight)
            kept = [m for m in kept if not m[s - 1]]
        dims.append(len(cur) - linalg.rank(rows, p))
        prev = cur
    return RegSeqReport(tuple(dims) == tuple(expected), field,
                        tuple(dims), tuple(expected))
