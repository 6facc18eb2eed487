import itertools
import random
from math import comb, lcm
from operator import mul

import pytest

from toricqh import catalog, linalg
from toricqh import topology as tp
from toricqh.errors import PreconditionError
from toricqh.jacobian import jacobian_freeness
from toricqh.polyhedra import is_compact, polyhedron, relabel_lattice


def brute_sr_monomial_count(K, d):
    """Count degree-d exponent vectors with face support by full enumeration."""
    if d == 0:
        return 1
    count = 0
    for expo in itertools.product(range(d + 1), repeat=K.ground):
        if sum(expo) != d:
            continue
        support = {j + 1 for j, e in enumerate(expo) if e}
        if K.is_face(support):
            count += 1
    return count


def test_nerve_o_minus_1(o_minus_1):
    K = tp.build_nerve(o_minus_1)
    assert sorted(sorted(f) for f in K.maximal) == [[1, 2], [2, 3]]


def test_nerve_cp2(cp2):
    K = tp.build_nerve(cp2)
    assert sorted(sorted(f) for f in K.maximal) == [[1, 2], [1, 3], [2, 3]]


def test_nerve_orthant():
    for n in (1, 2, 3):
        P = polyhedron(n, [(tuple(1 if i == j else 0 for i in range(n)), 1)
                           for j in range(n)])
        K = tp.build_nerve(P)
        assert K.maximal == (frozenset(range(1, n + 1)),)
        assert K.dim == n - 1


def test_nerve_requires_vertex():
    P = catalog.load_example("vertexless")
    with pytest.raises(PreconditionError):
        tp.build_nerve(P)


def test_homology_circle(cp2):
    profile = tp.reduced_homology(tp.build_nerve(cp2))
    assert profile.nonzero() == {1: 1}


def test_homology_path(o_minus_1):
    profile = tp.reduced_homology(tp.build_nerve(o_minus_1))
    assert profile.nonzero() == {}


def test_homology_empty_complex():
    K = tp.make_complex(3, [frozenset()])
    profile = tp.reduced_homology(K)
    assert profile.nonzero() == {-1: 1}


def test_homology_two_points():
    K = tp.make_complex(2, [{1}, {2}])
    assert tp.reduced_homology(K).nonzero() == {0: 1}


def test_homology_euler_characteristic(corpus):
    # reduced Euler characteristic computed from face counts (empty face in
    # degree -1) equals the alternating sum of the reduced Betti numbers
    for P in corpus.values():
        K = tp.build_nerve(P)
        profile = tp.reduced_homology(K)
        face_chi = sum((-1) ** (len(f) - 1) for f in K.faces())
        betti_chi = sum((-1) ** (i - 1) * r for i, r in enumerate(profile.ranks))
        assert face_chi == betti_chi


def test_links(o_minus_1, cp2):
    K = tp.build_nerve(o_minus_1)
    assert tp.link(K, frozenset()) == K
    L = tp.link(K, {2})
    assert sorted(sorted(f) for f in L.maximal) == [[1], [3]]
    L2 = tp.link(tp.build_nerve(cp2), {1})
    assert sorted(sorted(f) for f in L2.maximal) == [[2], [3]]
    with pytest.raises(PreconditionError):
        tp.link(K, {1, 3})


def test_reisner_pass(o_minus_1, cp2):
    assert tp.reisner_cm_check(tp.build_nerve(o_minus_1)).passed
    assert tp.reisner_cm_check(tp.build_nerve(cp2)).passed


def test_reisner_fail_disconnected_edges():
    K = tp.make_complex(4, [{1, 2}, {3, 4}])
    report = tp.reisner_cm_check(K)
    assert not report.passed
    assert "degree 0" in report.witness


def test_reisner_across_fields(corpus):
    for P in corpus.values():
        K = tp.build_nerve(P)
        for p in (None, 2, 3):
            assert tp.reisner_cm_check(K, p).passed


def test_sphere_or_ball(corpus):
    for name, P in corpus.items():
        report = tp.sphere_or_ball_profile(P)
        assert report.match, name
        assert report.compact == is_compact(P)


def test_sphere_or_ball_examples(cp1, cp2):
    assert tp.sphere_or_ball_profile(cp1).expected == "S^0"
    P = polyhedron(1, [((1,), 1)])
    assert tp.sphere_or_ball_profile(P).expected == "B^0"
    assert tp.sphere_or_ball_profile(cp2).expected == "S^1"


def test_sr_hilbert_examples(corpus):
    assert tp.sr_hilbert_function(corpus["o_minus_1"], 3) == [1, 3, 5, 7]
    assert tp.sr_hilbert_function(corpus["cp2"], 3) == [1, 3, 6, 9]
    for n, name in ((1, "c1"), (2, "c2"), (3, "c3")):
        values = tp.sr_hilbert_function(corpus[name], 4)
        assert values == [comb(d + n - 1, n - 1) for d in range(5)]


def test_sr_hilbert_brute_force(corpus):
    for name in ("o_minus_1", "cp2", "cp1xcp1", "hirzebruch_f2", "cp3"):
        P = corpus[name]
        K = tp.build_nerve(P)
        values = tp.sr_hilbert_function(P, 4)
        for d in range(5):
            assert values[d] == brute_sr_monomial_count(K, d), (name, d)


def test_sr_monomials_match_hilbert(corpus):
    for P in corpus.values():
        K = tp.build_nerve(P)
        values = tp.sr_hilbert_function(P, 3)
        for d in range(4):
            assert len(tp.sr_monomials(K, d)) == values[d]


def test_sr_walk_matches_the_degree_enumeration(corpus):
    # the weight-bounded walk yields exactly the Stanley-Reisner exponents
    # of weight <= cap that the degree loop and a weight filter yield, each
    # once, with the summed generator vectors; the corpus includes the
    # non-compact c1-c3 and o_minus_1
    rng = random.Random(1618)
    polys = list(corpus.items()) + [
        (f"random{i}", catalog.random_delzant(rng, rng.choice([2, 3]), 7))
        for i in range(8)]
    for name, P in polys:
        K = tp.build_nerve(P)
        D = lcm(*(lam.denominator for lam in P.offsets))
        vectors = [(int(lam * D), *nu, j)
                   for j, (lam, nu) in enumerate(zip(P.offsets, P.normals))]
        least = min(v[0] for v in vectors)
        for cap in (0, least - 1, least, 3 * least + 1, 5 * max(
                v[0] for v in vectors)):
            walked = list(tp.sr_walk(K, vectors, cap))
            found = {}
            for t, acc in walked:
                assert t not in found, (name, cap, t)
                found[t] = acc
            want = {t for d in range(cap // least + 1)
                    for t in tp.sr_monomials(K, d)
                    if sum(map(mul, t, (v[0] for v in vectors))) <= cap}
            assert set(found) == want, (name, cap)
            for t, acc in found.items():
                assert acc == [sum(map(mul, t, col))
                               for col in zip(*vectors)], (name, t)


def test_regular_sequence_o_minus_1(o_minus_1):
    report = tp.regular_sequence_check(o_minus_1, maxdeg=4)
    assert report.passed
    assert report.quotient_dims == (1, 1, 0, 0, 0)
    assert sum(report.quotient_dims) == 2  # number of vertices


def test_regular_sequence_cp2(cp2):
    report = tp.regular_sequence_check(cp2, maxdeg=5)
    assert report.passed
    assert report.quotient_dims == (1, 1, 1, 0, 0, 0)


def test_regular_sequence_all_corpus_two_fields(corpus):
    from toricqh.polyhedra import enumerate_vertices
    for name, P in corpus.items():
        for p in (None, 2):
            report = tp.regular_sequence_check(P, p, P.dim + 2)
            assert report.passed, (name, p, report)
            assert sum(report.quotient_dims) == len(enumerate_vertices(P))
            if P.dim >= 1:
                assert report.quotient_dims[1] == P.nfacets - P.dim


def _reference_regular_sequence(P, p, maxdeg):
    """Quotient dimensions from ranking every degree, no early stop."""
    K = tp.build_nerve(P)
    n, N = P.dim, P.nfacets
    steps = [tuple(int(k == j) for k in range(N)) for j in range(N)]
    dims, prev = [], []
    for d in range(maxdeg + 1):
        cur = tp.sr_monomials(K, d)
        index = {m: i for i, m in enumerate(cur)}
        rows = tp.linear_form_rows(prev, index, steps, P.normals)
        dims.append(len(cur) - linalg.rank(rows, p))
        prev = cur
    hilbert = tp.sr_hilbert_function(P, maxdeg)
    expected = [sum((-1) ** k * comb(n, k) * hilbert[d - k]
                    for k in range(min(d, n) + 1)) for d in range(maxdeg + 1)]
    return tuple(dims), tuple(expected)


def test_regular_sequence_early_stop_matches_every_degree(corpus):
    rng = random.Random(2718)
    polys = list(corpus.values())
    polys += [catalog.random_delzant(rng, rng.choice([2, 3]), 7)
              for _ in range(12)]
    four = [catalog.random_delzant(rng, 4, 6) for _ in range(4)]
    assert any(is_compact(P) for P in four)
    assert any(not is_compact(P) for P in four)  # orthant-based
    polys += four
    # relabelled corpus: the first vertex's normals are no longer unit vectors
    polys += [relabel_lattice(P, linalg.random_unimodular(P.dim, rng))
              for P in corpus.values()]
    for P in polys:
        for p in (None, 2, 3):
            dims, expected = _reference_regular_sequence(P, p, P.dim + 4)
            report = tp.regular_sequence_check(P, p, P.dim + 4)
            assert report.quotient_dims == dims, (P, p)
            assert report.expected_dims == expected, (P, p)
            assert report.passed == (dims == expected), (P, p)
            assert dims[-1] == 0, (P, p)


def test_regular_sequence_skips_koszul_rows(corpus, monkeypatch):
    """In every degree d >= 2 the check ranks fewer than the n * |SR_{d-1}|
    rows of the standard basis, and gets the reference's dimensions."""
    ranked = []

    def counting_rank(rows, p=None, rank=linalg.rank):
        ranked.append(len(rows))
        return rank(rows, p)

    for P in (corpus["cp3"], catalog.random_delzant(random.Random(31), 4, 7)):
        K = tp.build_nerve(P)
        for p in (None, 2):
            ranked.clear()
            with monkeypatch.context() as m:
                m.setattr(linalg, "rank", counting_rank)
                report = tp.regular_sequence_check(P, p, P.dim + 4)
            dims, _ = _reference_regular_sequence(P, p, P.dim + 4)
            assert report.quotient_dims == dims, (P, p)
            assert len(ranked) >= 3
            for d, count in enumerate(ranked):
                full = P.dim * len(tp.sr_monomials(K, d - 1)) if d else 0
                assert count < full if d >= 2 else count <= full, (P, p, d)


FIELD_TAKERS = {
    "reduced_homology": lambda P, p: tp.reduced_homology(tp.build_nerve(P), p),
    "reisner_cm_check": lambda P, p: tp.reisner_cm_check(tp.build_nerve(P), p),
    "sphere_or_ball_profile": tp.sphere_or_ball_profile,
    "regular_sequence_check": tp.regular_sequence_check,
    "jacobian_freeness": lambda P, p: jacobian_freeness(P, p=p),
}


@pytest.mark.parametrize("p", [4, 1, -3, 0])
@pytest.mark.parametrize("name", sorted(FIELD_TAKERS))
def test_field_must_be_prime(cp2, name, p):
    with pytest.raises(PreconditionError, match="not a prime"):
        FIELD_TAKERS[name](cp2, p)


def test_field_names(cp2):
    K = tp.build_nerve(cp2)
    assert [tp.reisner_cm_check(K, p).field for p in (None, 2, 32003)] == \
        ["Q", "F2", "F32003"]
    assert tp.regular_sequence_check(cp2, 3).field == "F3"


def test_faces_are_cached(cp2):
    K = tp.build_nerve(cp2)
    assert K.faces() is K.faces()
    assert isinstance(K.faces(), frozenset)
    assert K.sorted_faces[0] == () and len(K.sorted_faces) == len(K.faces())
    assert K.sorted_faces == tuple(sorted(K.sorted_faces,
                                          key=lambda f: (len(f), f)))


def test_regular_sequence_requires_polyhedron():
    P = catalog.load_example("vertexless")
    with pytest.raises(PreconditionError):
        tp.regular_sequence_check(P)


@pytest.mark.parametrize("seed", range(8))
def test_reisner_random_delzant(seed):
    rng = random.Random(1000 + seed)
    P = catalog.random_delzant(rng, rng.choice([2, 3]), 7)
    K = tp.build_nerve(P)
    assert tp.reisner_cm_check(K).passed
    assert tp.sphere_or_ball_profile(P).match
