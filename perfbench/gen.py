"""Seeded input generator for the benchmark.

Everything here is plain Python over ``fractions.Fraction`` and never imports
``toricqh``: a seed must give byte-identical input files on every commit, so
the inputs cannot depend on the code under test (its vertex order, its random
helpers).

Random Delzant polyhedra are made the way toric blow-ups are: start from a
scaled simplex, cube or orthant, truncate a vertex by the sum of its incident
normals (the cut stops short of every other vertex, so every facet stays
irredundant and every vertex stays unimodular), then change the lattice basis
by a short word of elementary unimodular moves.  Each slot of a workload fixes
the seed shape, dimension and number of truncations, so the facet count and
the combinatorial size, which set the cost of an op, do not move with the
seed; the seed picks the vertices, cut depths, scale and lattice basis.  The
lattice basis is redrawn until it grows the normals' entries by a factor in
``ENTRY_GROWTH``: exact arithmetic over Q costs more on larger entries (the
time of ``cm`` on random 4-cubes with two cuts followed their total absolute
entry size with correlation 0.85 and spanned 2.3x without the band), so the
band keeps the draws of one slot close in cost.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# Accepted range of (total absolute entry of the normals after the change of
# lattice basis) / (the same before it).  It holds the median or just below
# it of the 4-dimensional slot shapes, and a sixth or more of the draws of
# every slot shape.
ENTRY_GROWTH = (Fraction(3, 2), Fraction(2))


def _solve(A, b):
    """Exact solution of a square system, or None when A is singular."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def _det(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return det


def _pair(nu, x):
    return sum(a * b for a, b in zip(nu, x))


def vertices(dim, facets):
    """Sorted (point, incident facet indices) of {x : <x, nu> >= -lam}."""
    out = {}
    for sub in itertools.combinations(range(len(facets)), dim):
        A = [facets[j][0] for j in sub]
        x = _solve(A, [-facets[j][1] for j in sub])
        if x is None:
            continue
        if all(_pair(nu, x) >= -lam for nu, lam in facets):
            pt = tuple(x)
            out[pt] = frozenset(j for j, (nu, lam) in enumerate(facets)
                                if _pair(nu, pt) == -lam)
    return sorted(out.items())


def _check_delzant(dim, facets):
    for pt, inc in vertices(dim, facets):
        if len(inc) != dim or abs(_det([facets[j][0] for j in inc])) != 1:
            raise AssertionError(f"generator produced a non-Delzant vertex {pt}")


def _seed_facets(kind, dim, scale):
    unit = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    if kind == "simplex":
        facets = [(e, 1) for e in unit] + [((-1,) * dim, 1)]
    elif kind == "cube":
        facets = [(tuple(s * x for x in e), 1) for e in unit for s in (1, -1)]
    elif kind == "orthant":
        facets = [(e, 1) for e in unit]
    else:
        raise ValueError(f"unknown seed shape {kind!r}")
    return [(nu, Fraction(lam) * scale) for nu, lam in facets]


def _inverse_columns(rows):
    """Columns of the inverse of a square integer matrix of determinant
    +-1 (an integer matrix)."""
    n = len(rows)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col])
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [[M[i][n + j] / M[i][i] for i in range(n)] for j in range(n)]


def _truncate(dim, facets, verts, nseed, rng):
    """Cut one vertex, preferring vertices of the seed shape (those on seed
    facets only): a cut of a cut makes normals with larger entries, and the
    cost of ``invert``'s certificate search grows quickly with them.

    ``verts`` is ``vertices(dim, facets)``; returns the new facets and their
    vertices, updated in place of a new enumeration.  The cut stops short of
    every other vertex, so it replaces the cut vertex by one new vertex on
    each of its ``dim`` edges: the edge leaving the facet ``j`` runs along
    column ``j`` of the inverse of the incident normals, and the new normal
    (their sum) grows by 1 per unit along it.
    """
    pick = [v for v in verts if max(v[1]) < nseed] or verts
    pt, incident = pick[rng.randrange(len(pick))]
    nu0 = tuple(sum(facets[j][0][i] for j in incident) for i in range(dim))
    a = _pair(nu0, pt)
    upper = min([_pair(nu0, w) for w, _ in verts if w != pt] + [Fraction(0)])
    cut = a + Fraction(1, rng.randrange(2, 5)) * (upper - a)
    order = sorted(incident)
    new = [v for v in verts if v[0] != pt]
    for j, edge in zip(order, _inverse_columns([facets[j][0] for j in order])):
        new.append((tuple(x + (cut - a) * e for x, e in zip(pt, edge)),
                    incident - {j} | {len(facets)}))
    return facets + [(nu0, -cut)], sorted(new)


def _entry_size(facets):
    return sum(abs(x) for nu, _ in facets for x in nu)


def _unimodular(dim, rng):
    """A determinant +-1 matrix from 2*dim elementary moves with factor +-1."""
    U = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, k = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i != k and rng.random() < 0.7:
            f = rng.choice((-1, 1))
            U[i] = [x + f * y for x, y in zip(U[i], U[k])]
        else:
            U[i] = [-x for x in U[i]]
    return U


def random_delzant(rng: random.Random, kind: str, dim: int, cuts: int):
    """A random Delzant polyhedron as a (dim, [(normal, offset)]) pair."""
    scale = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    facets = _seed_facets(kind, dim, scale)
    nseed = len(facets)
    verts = vertices(dim, facets)
    for _ in range(cuts):
        facets, verts = _truncate(dim, facets, verts, nseed, rng)
    size = _entry_size(facets)
    for _ in range(1000):
        U = _unimodular(dim, rng)
        moved = [(tuple(_pair(row, nu) for row in U), lam)
                 for nu, lam in facets]
        if ENTRY_GROWTH[0] <= Fraction(_entry_size(moved), size) \
                <= ENTRY_GROWTH[1]:
            break
    else:
        raise AssertionError(f"no lattice basis in ENTRY_GROWTH for {kind}")
    facets = moved
    for pt, inc in verts:
        if len(inc) != dim or abs(_det([facets[j][0] for j in inc])) != 1:
            raise AssertionError(f"generator produced a non-Delzant vertex {pt}")
    return dim, facets


def polyhedron_json(dim, facets) -> str:
    return json.dumps({"dim": dim, "facets": [
        {"normal": list(nu), "offset": str(Fraction(lam))}
        for nu, lam in facets]}, indent=1) + "\n"


def load_corpus(text: str):
    obj = json.loads(text)
    return obj["dim"], [(tuple(f["normal"]), Fraction(f["offset"]))
                        for f in obj["facets"]]


def random_perturbation(rng: random.Random, dim, facets, terms: int,
                        degree: int, height: int) -> str:
    """A perturbation file with ``terms`` nonzero entries, each one monomial
    T^height * v^t with |t| = degree and a small rational coefficient.

    The monomial's T-weight is height + sum t_j lambda_j, so its height is at
    least ``height`` > 0, which makes every entry admissible.  Fixing terms,
    degree and height per slot keeps the working slice, hence the cost, the
    same across seeds.
    """
    N = len(facets)
    entries = [[] for _ in range(N)]
    for j in rng.sample(range(N), terms):
        t = [0] * N
        for _ in range(degree):
            t[rng.randrange(N)] += 1
        lam = height + sum(tj * lamj for tj, (_, lamj) in zip(t, facets))
        nu = [sum(tj * nuj[i] for tj, (nuj, _) in zip(t, facets))
              for i in range(dim)]
        coeff = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                         rng.randrange(1, 4))
        entries[j] = [{"lambda": str(Fraction(lam)), "nu": nu,
                       "coeff": str(coeff)}]
    return json.dumps(entries) + "\n"


def fixed_monotone():
    """Blow-ups of CP^2 at 1, 2 and 3 fixed points, and CP^2 x CP^1, all
    with offsets 1 (hence monotone)."""
    ring = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    keep = {"cp2_bl1": [(1, 0), (1, 1), (0, 1), (-1, -1)],
            "cp2_bl2": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
            "cp2_bl3": ring}
    out = {name: (2, [(nu, Fraction(1)) for nu in normals])
           for name, normals in keep.items()}
    out["cp2xcp1"] = (3, [(nu, Fraction(1)) for nu in
                          [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1),
                           (0, 0, -1)]])
    for dim, facets in out.values():
        _check_delzant(dim, facets)
    return out
