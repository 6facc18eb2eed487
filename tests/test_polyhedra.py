import importlib.util
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import lp
import reference
from reference import mat_mul
from toricqh import catalog, linalg, monoid, polyhedra
from toricqh.errors import PreconditionError, SchemaError
from toricqh.linalg import random_unimodular
from toricqh.polyhedra import (DelzantPolyhedron, Vertex, check_delzant,
                               check_vertex_and_splitting, enumerate_vertices,
                               facet_intersection_nonempty, is_compact,
                               minimal_nonfaces, monotone_normalization,
                               parse_polyhedron, polyhedron, relabel_lattice,
                               vertex_basis, vertex_coordinates)


def test_vertices_o_minus_1(o_minus_1):
    vs = enumerate_vertices(o_minus_1)
    data = {tuple(v.point): set(v.incident) for v in vs}
    assert data == {(-1, 0): {1, 2}, (0, -1): {2, 3}}


def test_vertices_cp2(cp2):
    points = {tuple(v.point) for v in enumerate_vertices(cp2)}
    assert points == {(-1, -1), (-1, 2), (2, -1)}


def test_vertices_halfspace():
    P = polyhedron(1, [((1,), 1)])
    vs = enumerate_vertices(P)
    assert [tuple(v.point) for v in vs] == [(-1,)]


def test_vertex_incident_equalities(corpus):
    for P in corpus.values():
        for v in enumerate_vertices(P):
            for j in range(1, P.nfacets + 1):
                pairing = sum(a * b for a, b in zip(P.normal(j), v.point))
                if j in v.incident:
                    assert pairing == -P.offset(j)
                else:
                    assert pairing > -P.offset(j)


def _reference_vertices(P):
    """Per-subset Fraction enumeration: determinant, solve_rational, then
    the Fraction pairings for feasibility and incidence."""
    def pairing(nu, x):
        return sum(a * b for a, b in zip(nu, x))

    points = set()
    for subset in itertools.combinations(range(P.nfacets), P.dim):
        A = [list(P.normals[j]) for j in subset]
        if reference.determinant(A) == 0:
            continue
        x = reference.solve_rational(A, [-P.offsets[j] for j in subset])
        if all(pairing(nu, x) >= -lam for nu, lam in zip(P.normals, P.offsets)):
            points.add(tuple(x))
    return tuple(
        Vertex(pt, frozenset(j + 1 for j in range(P.nfacets)
                             if pairing(P.normals[j], pt) == -P.offsets[j]))
        for pt in sorted(points))


OCTAHEDRON = [((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
SQUARE_PYRAMID = [((0, 0, 1), 1), ((-2, 0, -1), 1), ((2, 0, -1), 1),
                  ((0, -2, -1), 1), ((0, 2, -1), 1)]


def test_vertices_match_fraction_reference():
    octahedron = polyhedron(3, OCTAHEDRON)
    pyramid = polyhedron(3, SQUARE_PYRAMID)
    fractional = polyhedron(2, [((1, 0), Fraction(1, 2)),
                                ((0, 1), Fraction(2, 3)),
                                ((-1, -1), Fraction(5, 7))])
    corpus = [catalog.load_example(name) for name in catalog.example_names()]
    for P in corpus + [octahedron, pyramid, fractional]:
        assert enumerate_vertices(P) == _reference_vertices(P), P
    assert [len(v.incident) for v in enumerate_vertices(octahedron)] == [4] * 6
    assert [v.point for v in enumerate_vertices(pyramid)
            if len(v.incident) == 4] == [(0, 0, 1)]
    rng = random.Random(31)
    randoms = [catalog.random_delzant(rng, 1 + t % 4, 4 + t % 6,
                                      allow_noncompact=t % 3 != 0)
               for t in range(40)]
    assert {P.dim for P in randoms} == {1, 2, 3, 4}
    assert {is_compact(P) for P in randoms} == {True, False}
    for P in randoms:
        assert enumerate_vertices(P) == _reference_vertices(P), P


# Strings that the plain [+-]digits[/digits] reader takes, and strings that
# only ``Fraction`` reads or that it rejects: spaces, decimals, exponents,
# underscores, non-ASCII digits, a zero denominator, stray signs and slashes,
# and a numerator past the default int/str digit limit.
FRACTION_STRINGS = [
    "0", "-0", "+7", "007", "1/2", "-3/4", "+5/10", "1/007", "1/0", "1/-2",
    "+-1", "1//2", "", "/", "3/", "-", " 1/2", "1/2 ", "1.5", "1e3", "1_000",
    "\u0661/\u0662", "\u00b2", "9" * 5000 + "/7"]


def _outcome(read, value):
    try:
        x = read(value, "w")
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "gives", type(x), x


@pytest.mark.parametrize("limit", ["default", "lifted"])
def test_exact_readers_match_the_fraction_parser(limit):
    # exact_fraction and exact_parameter give Fraction(str)'s value for
    # every string it accepts and, for every other, the exception type and
    # message of a reader that hands the string to Fraction; under the
    # default digit limit the 5,000-digit numerator is one of those.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit in this Python")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(
        sys.int_info.default_max_str_digits if limit == "default" else 0)
    try:
        outcomes = {}
        for text in FRACTION_STRINGS:
            for read, oracle in [
                    (polyhedra.exact_fraction, reference.exact_fraction),
                    (polyhedra.exact_parameter, reference.exact_parameter)]:
                outcome = _outcome(read, text)
                assert outcome == _outcome(oracle, text), (read, text[:20])
                outcomes[text] = outcome[0]
                if outcome[0] == "gives":
                    assert outcome[2] == Fraction(text)
    finally:
        sys.set_int_max_str_digits(before)
    assert outcomes["9" * 5000 + "/7"] == (
        "raises" if limit == "default" else "gives")
    assert outcomes["\u0661/\u0662"] == outcomes["1.5"] == "gives"
    assert outcomes["1/0"] == outcomes["+-1"] == "raises"


def test_exact_readers_return_a_fraction_as_it_is():
    x = Fraction(-7, 3)
    assert polyhedra.exact_fraction(x, "w") is x
    assert polyhedra.exact_parameter(x, "w") is x
    assert polyhedra.exact_fraction(5, "w") == Fraction(5)
    with pytest.raises(SchemaError, match="must be exact"):
        polyhedra.exact_fraction(True, "w")
    with pytest.raises(PreconditionError, match="must be exact"):
        polyhedra.exact_parameter(0.5, "w")


# A triangle with a vertex of determinant 3, at (-1, 2/3).
THIRDS_TRIANGLE = [((1, 0), 1), ((0, 1), 1), ((-1, -3), 1)]


def _vertex_inputs():
    """The corpus, the octahedron, the square pyramid, the thirds triangle
    and 40 random Delzant inputs of dimension 2-4, compact and not."""
    polys = [catalog.load_example(name) for name in catalog.example_names()]
    polys += [polyhedron(3, OCTAHEDRON), polyhedron(3, SQUARE_PYRAMID),
              polyhedron(2, THIRDS_TRIANGLE)]
    rng = random.Random(40)
    polys += [catalog.random_delzant(rng, 2 + t % 3, 4 + t % 5,
                                     allow_noncompact=t % 2 == 0)
              for t in range(40)]
    return polys


def test_vertices_are_sorted_as_their_fraction_points():
    # The integer sort key orders the vertices as their Fraction points do,
    # and each vertex keeps its point as integers over the least common
    # denominator; in the thirds triangle and in 15 of the random inputs the
    # vertex denominators differ.
    polys = _vertex_inputs()
    assert {is_compact(P) for P in polys[14:]} == {True, False}
    mixed = []
    for P in polys:
        vertices = enumerate_vertices(P)
        assert [(v.point, v.incident, v.basis, v.rays) for v in vertices] \
            == reference.vertices_by_points(P), P
        for v in vertices:
            y, q = v.scaled
            assert math.gcd(q, *y) == 1 and q > 0
            assert v.point == tuple(Fraction(x, q) for x in y)
        mixed.append(len({v.scaled[1] for v in vertices}) > 1)
    assert mixed[13] and not check_delzant(polys[13]).passed
    assert sum(mixed[14:]) == 15


def test_cone_scaling_matches_the_fraction_scaling():
    for P in _vertex_inputs():
        if not enumerate_vertices(P):
            continue
        ctx = monoid.ConeMonoid(P)
        assert (ctx.scale, ctx.scaled_points, ctx.scaled_offsets) == \
            reference.cone_scaling(P), P


def _random_arrangement(rng, dim, nfacets):
    """Primitive normals in [-2, 2]^dim with offsets 1 or 2, unchecked:
    redundant and repeated inequalities stay, as in ``polyhedron`` before
    its irredundancy check."""
    normals = tuple(_random_primitive(rng, dim) for _ in range(nfacets))
    return DelzantPolyhedron(dim, normals, tuple(Fraction(rng.choice((1, 2)))
                                                 for _ in normals))


def _reference_basis(P, v):
    """The first dim-subset of the sorted incident labels with independent
    normals, with the adjugate and determinant of those normals as
    columns."""
    labels = next(sub for sub in itertools.combinations(sorted(v.incident),
                                                        P.dim)
                  if reference.determinant([list(P.normal(j)) for j in sub]))
    A = [[P.normal(j)[i] for j in labels] for i in range(P.dim)]
    return labels, reference.adjugate(A), reference.determinant(A)


def _reference_violations(P):
    """``check_delzant``'s texts from the reference vertices and the
    determinant of each simple vertex's sorted incident normals."""
    out = []
    for v in _reference_vertices(P):
        labels = sorted(v.incident)
        where = "vertex (" + ", ".join(map(str, v.point)) + ")"
        if len(labels) != P.dim:
            out.append(f"{where}: {len(labels)} facets meet (expected {P.dim})")
            continue
        det = reference.determinant([list(P.normal(j)) for j in labels])
        if det not in (1, -1):
            out.append(f"{where}: normal determinant {det} is not a unit")
    return tuple(out)


def _assert_walk_matches_reference(P):
    vertices = enumerate_vertices(P)
    assert vertices == _reference_vertices(P), P
    for k, v in enumerate(vertices):
        labels, adj, det = vertex_basis(P, k)
        ref_labels, ref_adj, ref_det = _reference_basis(P, v)
        assert (labels, det) == (ref_labels, ref_det), (P, k)
        assert [list(row) for row in adj] == ref_adj, (P, k)
    assert check_delzant(P).violations == _reference_violations(P), P
    return vertices


def test_walk_matches_reference_at_degenerate_vertices():
    # Random arrangements, until 25 of them have a vertex where more than
    # dim facets meet: the vertices, the basis of each (the least sorted
    # one at a degenerate vertex) and the Delzant violations all match the
    # subset scan, on those and on every arrangement drawn before them.
    rng = random.Random(18)
    degenerate = 0
    for trial in range(400):
        dim = 2 + trial % 3
        P = _random_arrangement(rng, dim, rng.randint(dim + 1, dim + 5))
        vertices = _assert_walk_matches_reference(P)
        degenerate += any(len(v.incident) > dim for v in vertices)
        if degenerate == 25:
            break
    assert degenerate == 25


@pytest.mark.parametrize("dim,facets,nvertices", [
    (2, [((1, 0), 1), ((-1, 0), 1)], 0),
    (2, [((1, 0), 1)], 0),
    (3, [((1, 0, 0), 1), ((0, 1, 0), 1)], 0),
    (1, [((1,), 1)], 1),
    (1, [((-1,), Fraction(3, 2))], 1),
    (1, [((1,), 1), ((-1,), 2)], 2),
    (2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], 3),
    (2, [((1, 0), 1), ((0, 1), 1), ((-1, 1), 3)], 2),
    (3, [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3)], 1),
    (3, [((0, 0, 1), 1), ((1, 0, 0), 1), ((0, 1, 0), 1),
         ((1, 1, -1), Fraction(1, 2))], 2),
    (3, [((-2, 0, -1), 1), ((2, 0, -1), 1), ((0, -2, -1), 1),
         ((0, 2, -1), 1)], 1),
], ids=["strip", "halfplane", "wedge_times_line", "halfline",
        "negative_halfline", "segment", "triangle", "unbounded_2d",
        "orthant_3d", "cut_orthant", "pyramid_cone"])
def test_walk_without_vertices_in_one_dimension_and_with_rays(
        dim, facets, nvertices):
    P = polyhedron(dim, facets)
    assert len(_assert_walk_matches_reference(P)) == nvertices


def test_walk_pivots_instead_of_solving(monkeypatch):
    # A relabelled 6-cube (C(12, 6) = 924 subsets) and a corner cut of it
    # (C(13, 6) = 1716): linalg has no dense solver left to call, and at
    # most V * n pivots, plus one per basis at each degenerate vertex, as
    # on the octahedron and the square pyramid.
    rng = random.Random(6)
    cube = [(tuple(s * (i == j) for i in range(6)), 1)
            for j in range(6) for s in (1, -1)]
    cube = relabel_lattice(polyhedron(6, cube), random_unimodular(6, rng))
    cases = [cube, catalog.blow_up(cube, 5), polyhedron(3, OCTAHEDRON),
             polyhedron(3, SQUARE_PYRAMID)]
    assert not any(hasattr(linalg, name) for name in (
        "cramer", "determinant", "adjugate", "solve_rational"))
    counts = {"pivot": 0}

    def counting(fn):
        def wrapped(*args):
            counts["pivot"] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(polyhedra, "_pivot", counting(polyhedra._pivot))
    for P in cases:
        fresh = DelzantPolyhedron(P.dim, P.normals, P.offsets)
        counts.update(pivot=0)
        vertices = enumerate_vertices(fresh)
        assert vertices == enumerate_vertices(P)
        exchanges = sum(math.comb(len(v.incident), P.dim) for v in vertices
                        if len(v.incident) > P.dim)
        assert 0 < counts["pivot"] <= len(vertices) * P.dim + exchanges
    assert [math.comb(P.nfacets, P.dim) for P in cases[:2]] == [924, 1716]


def test_check_delzant_violation_texts():
    # Read off the basis records of the walk, word for word what the
    # determinant of each simple vertex's sorted incident normals gives.
    assert check_delzant(catalog.load_example("non_delzant")).violations == (
        "vertex (-1, 1): normal determinant -2 is not a unit",)
    assert check_delzant(polyhedron(3, OCTAHEDRON)).violations == tuple(
        f"vertex {pt}: 4 facets meet (expected 3)"
        for pt in ("(-1, 0, 0)", "(0, -1, 0)", "(0, 0, -1)", "(0, 0, 1)",
                   "(0, 1, 0)", "(1, 0, 0)"))
    assert check_delzant(polyhedron(3, SQUARE_PYRAMID)).violations == (
        "vertex (-1, -1, -1): normal determinant 4 is not a unit",
        "vertex (-1, 1, -1): normal determinant -4 is not a unit",
        "vertex (0, 0, 1): 4 facets meet (expected 3)",
        "vertex (1, -1, -1): normal determinant -4 is not a unit",
        "vertex (1, 1, -1): normal determinant 4 is not a unit")


def test_check_delzant_passes(o_minus_1, cp2):
    assert check_delzant(o_minus_1).passed
    assert check_delzant(cp2).passed


def test_check_delzant_fails_determinant_2():
    P = polyhedron(2, [((1, 0), 1), ((1, 2), 1)])
    report = check_delzant(P)
    assert not report.passed
    assert "determinant" in report.violations[0]


def test_check_delzant_non_delzant_example():
    P = catalog.load_example("non_delzant")
    report = check_delzant(P)
    assert not report.passed


def test_vertex_basis(corpus):
    # The incident labels of each vertex (at the degenerate apex of the
    # pyramid, the first dim of them with independent normals), with the
    # adjugate and determinant of their normals; kept on the polyhedron.
    pyramid = polyhedron(3, SQUARE_PYRAMID)
    for P in [*corpus.values(), pyramid]:
        for k, v in enumerate(enumerate_vertices(P)):
            labels, adj, det = vertex_basis(P, k)
            first = next(sub for sub in itertools.combinations(
                sorted(v.incident), P.dim) if reference.determinant(
                    [list(P.normal(j)) for j in sub]))
            assert labels == first
            A = [[P.normal(j)[i] for j in labels] for i in range(P.dim)]
            assert det == reference.determinant(A)
            assert mat_mul(A, adj) == [
                [det * (i == j) for j in range(P.dim)] for i in range(P.dim)]
            if P is not pyramid:
                assert det in (1, -1)
            assert vertex_basis(P, k) is vertex_basis(P, k)
    assert len(max((v.incident for v in enumerate_vertices(pyramid)),
                   key=len)) == 4


def test_vertex_coordinates(corpus):
    # w_j holds the coordinates of nu_j in the basis of vertex k's normals:
    # unit vectors on the basis facets, and sum_k w_jk nu_{s_k} = nu_j
    for P in corpus.values():
        for k in range(len(enumerate_vertices(P))):
            labels, coords = vertex_coordinates(P, k)
            assert labels == vertex_basis(P, k)[0]
            for pos, s in enumerate(labels):
                assert coords[s - 1] == tuple(int(i == pos)
                                              for i in range(P.dim))
            for nu, w in zip(P.normals, coords):
                assert tuple(sum(x * P.normal(s)[i] for x, s in
                                 zip(w, labels))
                             for i in range(P.dim)) == nu
            assert vertex_coordinates(P, k) is vertex_coordinates(P, k)


def test_splitting_o_minus_1(o_minus_1):
    rep = check_vertex_and_splitting(o_minus_1)
    assert rep.has_vertex and rep.split_rank == 0


def test_splitting_vertexless():
    P = catalog.load_example("vertexless")
    rep = check_vertex_and_splitting(P)
    assert not rep.has_vertex
    assert rep.split_rank == 1
    assert rep.annihilator_basis == ((0, 1),)
    assert enumerate_vertices(P) == ()


@pytest.mark.parametrize("seed", range(6))
def test_splitting_basis_of_relabelled_strips_and_slabs(seed):
    # The annihilator basis is a saturated basis of the kernel lattice of
    # the normals, whatever unimodular frame the input is written in.
    rng = random.Random(500 + seed)
    dim = 2 + seed % 2
    facets = [((1,) + (0,) * (dim - 1), 1), ((-1,) + (0,) * (dim - 1), 2)]
    if dim == 3 and seed > 2:  # a half-slab times a line: split rank 1
        facets.append(((0, 1, 0), 1))
    P = relabel_lattice(polyhedron(dim, facets), random_unimodular(dim, rng))
    rep = check_vertex_and_splitting(P)
    k = dim - linalg.rank([list(nu) for nu in P.normals])
    assert k > 0 and (rep.has_vertex, rep.split_rank) == (False, k)
    for x in rep.annihilator_basis:
        assert all(sum(a * b for a, b in zip(nu, x)) == 0 for nu in P.normals)
    S, _, _ = reference.smith_normal_form(
        [list(x) for x in rep.annihilator_basis])
    assert all(S[i][i] == 1 for i in range(k))


def test_splitting_single_normal():
    P = polyhedron(2, [((1, 0), 1)])
    rep = check_vertex_and_splitting(P)
    assert (rep.has_vertex, rep.split_rank) == (False, 1)


def test_splitting_line_in_1d():
    P = polyhedron(1, [((1,), 1), ((-1,), 1)])
    rep = check_vertex_and_splitting(P)
    assert (rep.has_vertex, rep.split_rank) == (True, 0)


def splitting_by_rank(P):
    """(has_vertex, split_rank, annihilator_basis) by their definition: the
    split rank is dim minus the rank of the normals, and the basis is that
    of the kernel lattice of the normals."""
    M = [list(nu) for nu in P.normals]
    k = P.dim - reference.rank(M)
    return k == 0, k, tuple(map(tuple, linalg.integer_kernel(M))) if k else ()


def strips_and_slabs(rng):
    """Polyhedra without a vertex of dimension 2-4 and split rank k = 1 and
    2: strips -1 <= x_i <= 1/2 (or half-spaces x_i >= -1) across the first
    dim - k coordinates, in a random lattice basis."""
    out = []
    for dim, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)):
        facets = []
        for i in range(dim - k):
            e = tuple(int(j == i) for j in range(dim))
            facets.append((e, 1))
            if i != 1:
                facets.append((tuple(-x for x in e), Fraction(1, 2)))
        out.append(relabel_lattice(polyhedron(dim, facets),
                                   random_unimodular(dim, rng)))
    return out


def test_splitting_is_the_rank_of_the_normals(corpus, monkeypatch):
    rng = random.Random(61)
    lines = strips_and_slabs(rng)
    assert sorted(splitting_by_rank(P)[1] for P in lines) == [1, 1, 1, 2, 2]
    randoms = [catalog.random_delzant(rng, 2 + i % 3, 7) for i in range(40)]
    inputs = [*corpus.values(), catalog.load_example("vertexless"), *lines]
    for P in inputs + randoms:
        rep = check_vertex_and_splitting(P)
        assert (rep.has_vertex, rep.split_rank,
                rep.annihilator_basis) == splitting_by_rank(P)
        assert rep is check_vertex_and_splitting(P)

    def eliminate(*args):
        raise AssertionError("input with a vertex was eliminated")

    for name in ("rank", "integer_kernel", "column_echelon"):
        monkeypatch.setattr(linalg, name, eliminate)
    for P in randoms:
        Q = polyhedron(P.dim, zip(P.normals, P.offsets))
        assert check_vertex_and_splitting(Q).has_vertex


def test_compactness(corpus):
    expected = {"c1": False, "c2": False, "c3": False, "cp1": True,
                "cp2": True, "cp3": True, "cp1xcp1": True,
                "o_minus_1": False, "hirzebruch_f2": True}
    for name, P in corpus.items():
        assert is_compact(P) == expected[name], name


def test_facet_intersections_o_minus_1(o_minus_1):
    assert not facet_intersection_nonempty(o_minus_1, {1, 3})
    assert facet_intersection_nonempty(o_minus_1, {1, 2})
    for j in (1, 2, 3):
        assert facet_intersection_nonempty(o_minus_1, {j})
    with pytest.raises(PreconditionError):
        facet_intersection_nonempty(o_minus_1, set())


@pytest.mark.parametrize("labels", [[1.0, 2], {True}, [0], [4], ["1"]],
                         ids=["float", "bool", "zero", "past_end", "string"])
def test_facet_labels_must_be_integers_in_range(o_minus_1, labels):
    with pytest.raises(PreconditionError):
        facet_intersection_nonempty(o_minus_1, labels)


def test_minimal_nonfaces(corpus):
    assert minimal_nonfaces(corpus["o_minus_1"]) == ((1, 3),)
    assert minimal_nonfaces(corpus["cp2"]) == ((1, 2, 3),)
    assert minimal_nonfaces(corpus["c3"]) == ()
    assert minimal_nonfaces(corpus["cp1xcp1"]) == ((1, 2), (3, 4))


def _brute_minimal_nonfaces(P):
    """Every facet subset, smallest first and then lexicographically, that
    no vertex's incident set holds while each of its one-smaller subsets
    lies in one."""
    incident = [v.incident for v in enumerate_vertices(P)]
    subsets = [S for k in range(1, P.nfacets + 1)
               for S in itertools.combinations(range(1, P.nfacets + 1), k)]
    face = {S: any(set(S) <= inc for inc in incident) for S in subsets}
    face[()] = True
    return tuple(S for S in subsets if not face[S] and all(
        face[S[:i] + S[i + 1:]] for i in range(len(S))))


def test_minimal_nonfaces_match_the_definition(corpus):
    # the corpus with non_delzant, two polytopes whose apex or vertices meet
    # four facets (an octahedron, a square pyramid), and random inputs
    octahedron = polyhedron(3, [((a, b, c), 1) for a in (1, -1)
                                for b in (1, -1) for c in (1, -1)])
    pyramid = polyhedron(3, [((0, 0, 1), 1), ((1, 0, -1), 1),
                             ((-1, 0, -1), 1), ((0, 1, -1), 1),
                             ((0, -1, -1), 1)])
    assert max(len(v.incident) for P in (octahedron, pyramid)
               for v in enumerate_vertices(P)) == 4
    rng = random.Random(2024)
    polys = [*corpus.values(), catalog.load_example("non_delzant"),
             octahedron, pyramid]
    polys += [catalog.random_delzant(rng, dim, 2 * dim + 2)
              for dim in (2, 3, 4, 5) for _ in range(25)]
    for P in polys:
        assert minimal_nonfaces(P) == _brute_minimal_nonfaces(P), P


def test_minimal_nonfaces_needs_a_vertex():
    with pytest.raises(PreconditionError):
        minimal_nonfaces(catalog.load_example("vertexless"))


def test_nonface_partition_exhaustive(corpus):
    # every subset has empty intersection iff it contains a minimal nonface
    import itertools
    polys = [corpus[name] for name in
             ("o_minus_1", "cp2", "cp1xcp1", "hirzebruch_f2", "c2")]
    rng = random.Random(77)
    while True:  # one larger random instance, up to 8 facets
        P = catalog.random_delzant(rng, 3, 8)
        if P.nfacets >= 6:
            polys.append(P)
            break
    for P in polys:
        nonfaces = [set(J) for J in minimal_nonfaces(P)]
        for k in range(1, P.nfacets + 1):
            for J in itertools.combinations(range(1, P.nfacets + 1), k):
                covered = any(nf <= set(J) for nf in nonfaces)
                assert facet_intersection_nonempty(P, J) == (not covered)


def test_intersection_monotone_under_inclusion(corpus):
    import itertools
    for P in (corpus["cp1xcp1"], corpus["hirzebruch_f2"]):
        labels = range(1, P.nfacets + 1)
        for k in range(2, P.nfacets + 1):
            for J in itertools.combinations(labels, k):
                if facet_intersection_nonempty(P, J):
                    for sub in itertools.combinations(J, k - 1):
                        assert facet_intersection_nonempty(P, sub)


def test_monotone_normalization_o_minus_1(o_minus_1):
    norm = monotone_normalization(o_minus_1)
    assert norm is not None
    assert norm.translation == (0, 0)
    assert norm.offset == 1
    assert norm.rescaled == o_minus_1


def test_monotone_normalization_cp1_scaled():
    P = polyhedron(1, [((1,), 1), ((-1,), 3)])
    norm = monotone_normalization(P)
    assert norm is not None
    assert norm.translation == (Fraction(-1),)
    assert norm.offset == 2
    assert set(norm.rescaled.offsets) == {Fraction(1)}


def test_monotone_normalization_hirzebruch_absent(corpus):
    assert monotone_normalization(corpus["hirzebruch_f2"]) is None


def _translated_monotone(rng, P):
    """P's normals with offsets 1 + <b, nu_j> for a random small rational b,
    or None where one of them is not positive: the translate by -b of the
    offsets-1 arrangement, left unchecked (the normalization reads only the
    normals and offsets)."""
    b = [Fraction(rng.randrange(-2, 3), rng.randrange(2, 7))
         for _ in range(P.dim)]
    offsets = tuple(1 + sum(map(operator.mul, b, nu)) for nu in P.normals)
    if min(offsets) <= 0:
        return None
    return DelzantPolyhedron(P.dim, P.normals, offsets)


def test_monotone_normalization_matches_dense_solve():
    # The eliminator's solution is the dense Gauss-Jordan one: same None,
    # same translation and offset, also where lambda = 1 is pinned, on every
    # corpus file (vertexless and non_delzant included) and random input.
    corpus = [catalog.load_example(name) for name in catalog.example_names()]
    pinned = polyhedron(2, [((1, 0), 1), ((2, 1), 3)])
    assert reference.solve_rational([[1, 1, 0], [1, 2, 1]], [1, 3])[0] == -1
    assert reference.monotone_normalization(pinned) == (
        (Fraction(0), Fraction(2)), Fraction(1))
    assert reference.monotone_normalization(
        catalog.load_example("hirzebruch_f2")) is None
    rng = random.Random(22)
    cases = [*corpus, pinned]
    while len(cases) < len(corpus) + 1 + 240:
        P = catalog.random_delzant(rng, 1 + len(cases) % 4,
                                   3 + len(cases) % 6,
                                   allow_noncompact=len(cases) % 3 != 0)
        cases.append(P)
        translated = _translated_monotone(rng, P)
        if translated is not None:
            cases.append(translated)
    found = {True: 0, False: 0}
    for P in cases:
        norm = monotone_normalization(P)
        got = None if norm is None else (norm.translation, norm.offset)
        assert got == reference.monotone_normalization(P), P
        found[norm is not None] += 1
        if norm is not None:
            assert all(type(x) is Fraction
                       for x in (*norm.translation, norm.offset))
    assert min(found.values()) >= 20, found


def test_monotone_normalization_orthant_family(corpus):
    # C^n has a one-parameter family of monotone fibres; some solution with
    # positive offset must be found
    norm = monotone_normalization(corpus["c2"])
    assert norm is not None and norm.offset > 0


def test_schema_rejects_imprimitive_normal():
    with pytest.raises(SchemaError):
        polyhedron(2, [((2, 0), 1), ((0, 1), 1)])


def test_schema_rejects_nonpositive_offset():
    with pytest.raises(SchemaError):
        polyhedron(1, [((1,), 0)])


def test_schema_rejects_redundant_facet():
    # x >= -2 is implied by x >= -1
    with pytest.raises(SchemaError):
        polyhedron(1, [((1,), 1), ((1,), 2)])
    # the point (0,0) face: x+y >= 0 is redundant for the orthant
    with pytest.raises(SchemaError):
        polyhedron(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)])


def test_schema_rejects_float_offset():
    with pytest.raises(SchemaError):
        parse_polyhedron({"dim": 1, "facets": [{"normal": [1], "offset": 1.0}]})


def test_parse_accepts_fraction_strings():
    P = parse_polyhedron({"dim": 1, "facets": [{"normal": [1], "offset": "3/2"}]})
    assert P.offsets == (Fraction(3, 2),)


@pytest.mark.parametrize("seed", range(6))
def test_vertex_count_invariant_under_relabeling(seed, corpus):
    rng = random.Random(seed)
    for P in (corpus["o_minus_1"], corpus["cp2"], corpus["hirzebruch_f2"]):
        U = random_unimodular(P.dim, rng)
        P2 = relabel_lattice(P, U)
        assert len(enumerate_vertices(P2)) == len(enumerate_vertices(P))
        perm = list(range(P.nfacets))
        rng.shuffle(perm)
        P3 = polyhedron(P.dim, [(P.normals[i], P.offsets[i]) for i in perm])
        assert len(enumerate_vertices(P3)) == len(enumerate_vertices(P))


@pytest.mark.parametrize("seed", range(10))
def test_random_delzant_generator_is_valid(seed):
    rng = random.Random(seed)
    P = catalog.random_delzant(rng, rng.choice([1, 2, 2, 3]), 8)
    assert check_delzant(P).passed
    assert check_vertex_and_splitting(P).has_vertex
    # vertex-based face criterion agrees with the LP decision
    vs = enumerate_vertices(P)
    import itertools
    for k in (1, 2):
        for J in itertools.combinations(range(1, P.nfacets + 1), k):
            by_vertex = any(set(J) <= v.incident for v in vs)
            assert facet_intersection_nonempty(P, J) == by_vertex


@pytest.mark.parametrize("seed", range(12))
def test_random_delzant_rank_formulas(seed):
    # Borel-Moore rank count: classical total rank equals the vertex count
    # and the degree-1 rank equals N - n, on generated instances
    from toricqh.presentation import classical_presentation
    rng = random.Random(4000 + seed)
    P = catalog.random_delzant(rng, rng.choice([2, 3]), 7)
    cp = classical_presentation(P)
    assert cp.total_rank == len(enumerate_vertices(P))
    assert cp.ranks[1] == P.nfacets - P.dim


# Reference forms of the LP questions that polyhedra answers through small
# dual LPs: the per-facet primal minimum and the 2*dim recession-cone probes.

def _primal_first_redundant(dim, facets):
    """Label of the first facet whose primal minimum shows it redundant."""
    ineqs = [(list(nu), -lam) for nu, lam in facets]
    for j, (nu, lam) in enumerate(facets):
        others = ineqs[:j] + ineqs[j + 1:]
        status, value = lp.minimize(list(nu), others, [], dim)
        if status == lp.OPTIMAL and value >= -lam:
            return j + 1
    return None


def _assert_irredundancy_matches_primal(dim, facets):
    """``polyhedron`` accepts the facets, or names the first redundant one,
    exactly as the primal LPs do; returns that label or None."""
    expected = _primal_first_redundant(dim, facets)
    if expected is None:
        polyhedron(dim, facets)
    else:
        with pytest.raises(SchemaError, match=f"^facet {expected} is redundant"):
            polyhedron(dim, facets)
    return expected


def _primal_is_compact(P):
    """No nonzero x with every <x, nu_j> >= 0.  With the normals spanning,
    such an x has some <x, nu_j> > 0, so it scales to sum_j <x, nu_j> = 1:
    one primal feasibility LP over the recession cone."""
    if linalg.rank([list(nu) for nu in P.normals]) < P.dim:
        return False
    recession = [(list(nu), 0) for nu in P.normals]
    total = [sum(column) for column in zip(*P.normals)]
    return not lp.feasible(recession, [(total, 1)], P.dim)


def _random_primitive(rng, dim):
    while True:
        nu = [rng.randint(-2, 2) for _ in range(dim)]
        g = gcd(*nu)
        if g:
            return tuple(x // g for x in nu)


def test_irredundancy_matches_primal_lp():
    # One extra inequality at a random position, with an offset beyond,
    # at or inside the polyhedron's support value in that direction.
    rng = random.Random(2024)
    verdicts = {"redundant": 0, "irredundant": 0}
    for trial in range(48):
        dim = 1 + trial % 4
        P = catalog.random_delzant(rng, dim, 3 + dim)
        nu = _random_primitive(rng, dim)
        support = -min(sum(a * b for a, b in zip(nu, v.point))
                       for v in enumerate_vertices(P))
        kind = rng.choice(["beyond", "touching", "inside"])
        if support <= 0:
            lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        elif kind == "beyond":
            lam = support + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        elif kind == "touching":
            lam = support
        else:
            lam = support * Fraction(rng.randint(1, 5), 6)
        facets = list(zip(P.normals, P.offsets))
        facets.insert(rng.randint(0, len(facets)), (nu, lam))
        if _assert_irredundancy_matches_primal(dim, facets) is None:
            verdicts["irredundant"] += 1
        else:
            verdicts["redundant"] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_is_compact_matches_recession_probes(corpus):
    polys = list(corpus.values()) + [
        catalog.load_example("vertexless"), catalog.load_example("non_delzant"),
        polyhedron(3, SQUARE_PYRAMID), polyhedron(3, SQUARE_PYRAMID[1:]),
        polyhedron(3, OCTAHEDRON), polyhedron(2, [((1, 0), 1)]),
        polyhedron(1, [((1,), 1), ((-1,), 1)])]
    rng = random.Random(5)
    for trial in range(200):
        polys.append(catalog.random_delzant(rng, 1 + trial % 4, 7))
    verdicts = [is_compact(P) for P in polys]
    assert verdicts == [_primal_is_compact(P) for P in polys]
    assert min(verdicts.count(True), verdicts.count(False)) >= 50


# Cases the random insertions above need not reach: no simple vertex (a
# vertex where exactly dim facets meet) at all, a non-simple apex, a
# duplicated inequality, no vertex, and a cut of the orthant that misses or
# meets its corner.
DUPLICATED = [((1, 0), 1), ((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]
VERTEXLESS = catalog.load_example("vertexless")
STRIP = list(zip(VERTEXLESS.normals, VERTEXLESS.offsets))
ORTHANT_CUT = [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]
ORTHANT_CUT_AT_CORNER = [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]


@pytest.mark.parametrize("dim,facets,expected", [
    (3, OCTAHEDRON, None),
    (3, SQUARE_PYRAMID, None),
    (2, DUPLICATED, 1),
    (2, STRIP, None),
    (2, ORTHANT_CUT, None),
    (2, ORTHANT_CUT_AT_CORNER, 3),
], ids=["octahedron", "square_pyramid", "duplicated", "strip", "orthant_cut",
        "orthant_cut_at_corner"])
def test_irredundancy_beyond_simple_vertices(dim, facets, expected):
    assert _assert_irredundancy_matches_primal(dim, facets) == expected


def _unchecked_arrangement(rng):
    """Random facets with normals in [-2, 2]^dim, dim 2 to 4, built without
    the irredundancy check: one in twenty hold a line (every normal ends in
    0), a tenth repeat an inequality, and offsets of one or two times a
    common scale make degenerate vertices common."""
    dim = rng.randint(2, 4)
    line = rng.random() < 0.05
    normals = [_random_primitive(rng, dim - line) + (0,) * line
               for _ in range(rng.randint(dim, dim + 3))]
    scale = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 1, 2]))
    offsets = [rng.choice([1, 1, 2]) * scale for _ in normals]
    if rng.random() < 0.1:
        k = rng.randrange(len(normals))
        normals.append(normals[k])
        offsets.append(offsets[k])
    return DelzantPolyhedron(dim, tuple(normals), tuple(offsets))


def _dual_first_redundant(P):
    """Label of the first facet j with some y >= 0 on the other facets,
    sum y_k nu_k = nu_j and sum y_k lambda_k <= lambda_j: the dual of
    min <nu_j, x> over the others, which is then at least -lambda_j.  With
    dim rows it is a few times faster than ``_primal_first_redundant``."""
    for j in range(P.nfacets):
        others = [k for k in range(P.nfacets) if k != j]
        A = [[P.normals[k][i] for k in others] for i in range(P.dim)]
        status, value = lp.solve(A, list(P.normals[j]),
                                 [P.offsets[k] for k in others])
        if status == lp.OPTIMAL and value <= P.offsets[j]:
            return j + 1
    return None


def _dual_facets_meet(P, J):
    """The facets J meet iff sum_J (<nu_j, x> + lambda_j), which is >= 0 on
    P, reaches 0: by duality, iff min sum y_k lambda_k over y >= 0 with
    sum y_k nu_k = sum_J nu_j is sum_J lambda_j (y = 1 on J attains it)."""
    A = [[n[i] for n in P.normals] for i in range(P.dim)]
    target = [sum(P.normal(j)[i] for j in J) for i in range(P.dim)]
    _, value = lp.solve(A, target, list(P.offsets))
    return value == sum(P.offset(j) for j in J)


def _reference_contains(P, lam, nu):
    """(lam, nu) = s * (1, 0) + sum y_j (lambda_j, nu_j) with s, y >= 0."""
    A = [[n[i] for n in P.normals] for i in range(P.dim)]
    status, value = lp.solve(A, list(nu), list(P.offsets))
    return status == lp.OPTIMAL and value <= lam


def test_vertex_walk_matches_lp_reference():
    # Every LP question the package answers from vertices and rays, against
    # the LP reference, on arrangements that may be redundant, degenerate,
    # unbounded or hold a line.
    rng = random.Random(19)
    kinds = {"line": 0, "degenerate": 0, "ray": 0, "redundant": 0,
             "ray_rejects": 0}
    for _ in range(300):
        P = _unchecked_arrangement(rng)
        facets = list(zip(P.normals, P.offsets))
        expected = _dual_first_redundant(P)
        if expected is None:
            polyhedron(P.dim, facets)
        else:
            kinds["redundant"] += 1
            with pytest.raises(SchemaError, match=f"^facet {expected} is "):
                polyhedron(P.dim, facets)
        assert is_compact(P) == _primal_is_compact(P), P
        for _ in range(4):
            J = rng.sample(range(1, P.nfacets + 1),
                           rng.randint(1, min(3, P.nfacets)))
            assert (facet_intersection_nonempty(P, J)
                    == _dual_facets_meet(P, J)), (P, J)
        vertices = enumerate_vertices(P)
        if not vertices:
            kinds["line"] += 1
            continue
        kinds["degenerate"] += any(len(v.incident) > P.dim for v in vertices)
        kinds["ray"] += any(v.rays for v in vertices)
        ctx = monoid.ConeMonoid(P)
        for _ in range(4):
            nu = tuple(rng.randint(-3, 3) for _ in range(P.dim))
            low = min(sum(a * b for a, b in zip(v.point, nu)) for v in vertices)
            lam = -low + Fraction(rng.randint(-1, 2), 2)
            expected = _reference_contains(P, lam, nu)
            assert ctx.contains((lam, nu)) == expected, (P, lam, nu)
            kinds["ray_rejects"] += lam + low >= 0 and not expected
    assert kinds["line"] >= 10 and kinds["degenerate"] >= 50, kinds
    assert kinds["ray"] >= 100 and kinds["ray_rejects"] >= 50, kinds
    assert kinds["redundant"] >= 50, kinds


def test_package_has_no_lp():
    # Parsing, validating and deciding compactness of every corpus file
    # leaves no LP module behind in the package.
    for name in catalog.VALID_EXAMPLES + ("non_delzant", "vertexless"):
        P = catalog.load_example(name)
        check_delzant(P)
        is_compact(P)
    for build in ((3, SQUARE_PYRAMID), (3, OCTAHEDRON), (2, STRIP)):
        is_compact(polyhedron(*build))
    assert importlib.util.find_spec("toricqh.lp") is None
