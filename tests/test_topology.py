import dataclasses
import itertools
import json
import random
from fractions import Fraction
from importlib import resources
from math import comb, lcm
from operator import mul

import pytest

from reference import dropping_rows_at_top
from reference import graded_rows as loop_rows
from toricqh import catalog, cli, linalg
from toricqh import presentation as pr
from toricqh import topology as tp
from toricqh.errors import PreconditionError, VerificationError
from toricqh.jacobian import jacobian_freeness
from toricqh.polyhedra import (is_compact, monotone_normalization,
                               polyhedron, polyhedron_to_json, relabel_lattice,
                               vertex_coordinates)


def brute_sr_monomials(K, d):
    """Every exponent vector of degree d whose support is a face of K, by
    brute force: every multiset of d labels inside some maximal face, once.
    Independent of ``K.sorted_faces``, which the walk uses."""
    out = set()
    for m in K.maximal:
        for labels in itertools.combinations_with_replacement(sorted(m), d):
            out.add(tuple(labels.count(j + 1) for j in range(K.ground)))
    return sorted(out)


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
        face_chi = sum((-1) ** (len(f) - 1) for f in K.sorted_faces)
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
            assert values[d] == len(brute_sr_monomials(K, d)), (name, d)


def test_sr_monomials_match_hilbert(corpus):
    for P in corpus.values():
        K = tp.build_nerve(P)
        values = tp.sr_hilbert_function(P, 3)
        units = [tuple(int(i == j) for i in range(P.nfacets))
                 for j in range(P.nfacets)]
        assert [len(keyed) for keyed in
                tp.sr_slices(K, tp.SRKeys(units, 3))] == values


def test_sr_slices_match_brute_force(corpus):
    # sorted unit keys decode to the exponent vectors in lexicographic
    # order, sorted nu keys to their sums of normals, sorted; the corpus
    # includes the non-compact c1-c3 and o_minus_1
    rng = random.Random(1729)
    polys = list(corpus.items()) + [
        (f"random{i}", catalog.random_delzant(rng, rng.choice([2, 3]), 6))
        for i in range(6)]
    for name, P in polys:
        K = tp.build_nerve(P)
        N, n = P.nfacets, P.dim
        units = tp.SRKeys([tuple(int(i == j) for i in range(N))
                           for j in range(N)], n + 2)
        nus = tp.SRKeys(P.normals, n + 2)
        by_unit = tp.sr_slices(K, units)
        by_nu = tp.sr_slices(K, nus)
        assert len(by_unit) == len(by_nu) == n + 3
        for d in range(n + 3):
            brute = brute_sr_monomials(K, d)
            assert by_unit[d] == sorted(by_unit[d])
            assert [units.decode(key) for key in by_unit[d]] == brute, \
                (name, d)
            assert by_unit[d] == [units.encode(t) for t in brute], (name, d)
            assert by_nu[d] == sorted(by_nu[d])
            assert [nus.decode(key) for key in by_nu[d]] == sorted(
                tuple(sum(map(mul, t, col)) for col in zip(*P.normals))
                for t in brute), (name, d)


def test_sr_keys_round_trip_and_keep_the_order():
    # mixed signs, a zero column and top 0, whose windows still hold the
    # steps: the key of sum_j t_j * vectors[j] is sum_j t_j * steps[j], it
    # decodes back, and keys sort as the vectors do
    for vectors, top in (([(1, 0, -2), (0, 1, 3), (-1, -1, 0)], 3),
                         ([(2, 0), (-3, 0)], 2), ([(1, 0), (0, 1)], 0),
                         ([(-1, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 1)], 4)):
        keys = tp.SRKeys(vectors, top)
        width = len(vectors[0])
        found = {}
        for ts in itertools.product(range(max(top, 1) + 1),
                                    repeat=len(vectors)):
            if sum(ts) > max(top, 1):
                continue
            vec = tuple(sum(t * v[i] for t, v in zip(ts, vectors))
                        for i in range(width))
            key = keys.encode(vec)
            assert key == sum(map(mul, ts, keys.steps)), (vectors, ts)
            assert keys.decode(key) == vec, (vectors, ts)
            found[vec] = key
        assert sorted(found) == sorted(found, key=found.get)
        assert len(set(found.values())) == len(found)
        with pytest.raises(ValueError):
            keys.encode([lo + keys.base for lo in keys.low])
        with pytest.raises(ValueError):
            keys.encode(vectors[0][1:])
        for outside in (-1, keys.base ** width):
            with pytest.raises(ValueError):
                keys.decode(keys.encode(keys.low) + outside)


def test_sr_walk_matches_the_degree_enumeration(corpus):
    # the weight-bounded walk yields exactly the Stanley-Reisner exponents
    # of weight <= cap that the degree loop and a weight filter yield, each
    # once, with the summed generator vectors; the exponents are read off
    # the unit entries at the end of the vectors.  The corpus includes the
    # non-compact c1-c3 and o_minus_1
    rng = random.Random(1618)
    polys = list(corpus.items()) + [
        (f"random{i}", catalog.random_delzant(rng, rng.choice([2, 3]), 7))
        for i in range(8)]
    for name, P in polys:
        K = tp.build_nerve(P)
        N = P.nfacets
        D = lcm(*(lam.denominator for lam in P.offsets))
        vectors = [(int(lam * D), *nu, j, *(int(i == j) for i in range(N)))
                   for j, (lam, nu) in enumerate(zip(P.offsets, P.normals))]
        least = min(v[0] for v in vectors)
        caps = (0, least - 1, least, 3 * least + 1,
                5 * max(v[0] for v in vectors))
        # (weight, t) for every face-supported t of degree <= max(caps) / least
        brute = [(sum(map(mul, t, (v[0] for v in vectors))), t)
                 for d in range(max(caps) // least + 1)
                 for t in brute_sr_monomials(K, d)]
        for cap in caps:
            walked = list(tp.sr_walk(K, vectors, cap))
            found = {}
            for _, acc in walked:
                t = tuple(acc[-N:])
                assert t not in found, (name, cap, t)
                found[t] = acc
            want = {t for w, t in brute if w <= cap}
            assert set(found) == want, (name, cap)
            for t, acc in found.items():
                assert acc == [sum(map(mul, t, col))
                               for col in zip(*vectors)], (name, t)


def test_sr_walk_names_the_support_of_each_monomial(corpus):
    # the face yielded with each vector is the support of its exponents,
    # read off unit entries
    for P in corpus.values():
        K = tp.build_nerve(P)
        N = P.nfacets
        vectors = [(1, *(int(i == j) for i in range(N))) for j in range(N)]
        for face, acc in tp.sr_walk(K, vectors, N + 1):
            assert face == tuple(j + 1 for j in range(N) if acc[1 + j])


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
    keys = tp.SRKeys([tuple(int(k == j) for k in range(N))
                      for j in range(N)], maxdeg)
    slices = tp.sr_slices(K, keys)
    # no leads, lexicographic columns: every row, in the ambient basis of
    # the normals
    dims = [len(index) - linalg.rank(rows, p)
            for index, rows in tp.graded_rows(slices, keys.steps, P.normals)]
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


def _top_degrees(monkeypatch, run):
    """The ``keys.top`` of every ``sr_slices`` walk that ``run()`` makes."""
    tops = []
    real_slices = tp.sr_slices

    def recording_slices(K, keys):
        tops.append(keys.top)
        return real_slices(K, keys)

    with monkeypatch.context() as m:
        m.setattr(tp, "sr_slices", recording_slices)
        run()
    return tops


def test_vanishing_is_certified_at_degree_n(corpus, monkeypatch):
    """On Delzant input, compact or not, the regular-sequence check and the
    classical presentation each walk once, to degree n: the certificate of
    ``top_class_certificate`` holds at every one, over Q, F_2, F_3 and Z,
    on the corpus, random inputs of dimension 1 to 5 and relabellings, as
    neither raises."""
    rng = random.Random(1979)
    polys = [catalog.load_example(name) for name in catalog.VALID_EXAMPLES]
    polys += [catalog.random_delzant(rng, dim, dim + rng.randrange(1, 4))
              for dim in (1, 2, 2, 3, 3, 4, 4)]
    polys.append(catalog.random_delzant(rng, 5, 7, allow_noncompact=False))
    polys += [relabel_lattice(P, linalg.random_unimodular(P.dim, rng))
              for P in corpus.values()]
    assert any(is_compact(P) and P.dim == 5 for P in polys)
    assert any(not is_compact(P) for P in polys)
    for P in polys:
        for p in (None, 2, 3):
            tops = _top_degrees(monkeypatch, lambda: tp.regular_sequence_check(
                P, p, P.dim + 4))
            assert tops == [P.dim], (P, p)
        tops = _top_degrees(monkeypatch, lambda: pr.classical_presentation(P))
        assert tops == [P.dim], P


def _walked_monomials(monkeypatch, run):
    """The number of monomials in the slices that ``sr_slices`` returns
    during ``run()``."""
    walked = [0]
    real_slices = tp.sr_slices

    def counting_slices(K, keys):
        slices = real_slices(K, keys)
        walked[0] += sum(map(len, slices))
        return slices

    with monkeypatch.context() as m:
        m.setattr(tp, "sr_slices", counting_slices)
        run()
    return walked[0]


def test_regular_sequence_walks_only_to_the_first_zero_degree(
        o_minus_1, monkeypatch):
    """On non-compact input the quotient vanishes from a degree at most n
    on.  The check walks the Stanley-Reisner ring once, to degree n, also
    where the quotient vanishes below n (o_minus_1's vanishes at n = 2),
    and reports what ranking every degree gives."""
    rng = random.Random(60)

    def first_zero(P):
        return tp.regular_sequence_check(P).expected_dims.index(0)

    early = next(P for P in iter(lambda: catalog.random_delzant(rng, 3, 6),
                                 None)
                 if not is_compact(P) and first_zero(P) < P.dim)
    assert first_zero(o_minus_1) == o_minus_1.dim
    for P in (o_minus_1, early):
        for p in (None, 2):
            reports = []
            walked = _walked_monomials(monkeypatch, lambda: reports.append(
                tp.regular_sequence_check(P, p, P.dim + 2)))
            hilbert = tp.sr_hilbert_function(P, P.dim + 2)
            assert walked == sum(hilbert[:P.dim + 1]), (P, p)
            dims, expected = _reference_regular_sequence(P, p, P.dim + 2)
            assert reports[0] == tp.RegSeqReport(
                dims == expected, tp.field_name(p), dims, expected,
                tuple(hilbert)), (P, p)


def _cm_polyhedra(seed):
    """The corpus and random Delzant polyhedra of dimensions 2 to 4, compact
    and not."""
    rng = random.Random(seed)
    polys = [catalog.load_example(name) for name in catalog.VALID_EXAMPLES]
    polys += [catalog.random_delzant(rng, dim, dim + rng.randrange(1, 4))
              for dim in (2, 2, 3, 3, 4, 4)]
    polys += [catalog.random_delzant(rng, dim, dim + 3, allow_noncompact=False)
              for dim in (2, 3, 4)]
    assert {P.dim for P in polys} >= {2, 3, 4}
    assert any(is_compact(P) for P in polys if P.dim == 4)
    assert any(not is_compact(P) for P in polys if P.dim >= 3)
    return polys


def test_reisner_and_regular_sequence_verdicts_agree():
    """The oracle behind ``cm`` answering Cohen-Macaulayness from the
    regular-sequence check: Reisner's criterion and the check agree over
    Q, F_2 and F_3."""
    for P in _cm_polyhedra(1976):
        K = tp.build_nerve(P)
        for p in (None, 2, 3):
            assert (tp.reisner_cm_check(K, p).passed
                    == tp.regular_sequence_check(P, p).passed), (P, p)


def _cm_json(capsys, name, ring):
    path = str(resources.files("toricqh").joinpath("data", f"{name}.json"))
    code = cli.main(["--input", path, "--command", "cm", "--ring", ring,
                     "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_cm_ranks_no_link_when_the_regular_sequence_passes(
        corpus, monkeypatch, capsys):
    """On the corpus the regular-sequence check passes, and ``cm`` reports
    Reisner's verdict without calling ``reisner_cm_check``."""
    verdicts = {(name, p): tp.reisner_cm_check(tp.build_nerve(P), p)
                for name, P in corpus.items() for p in (None, 2)}

    def no_links(K, p=None):
        raise AssertionError("reisner_cm_check ran")

    monkeypatch.setattr(tp, "reisner_cm_check", no_links)
    for (name, p), verdict in verdicts.items():
        code, report = _cm_json(capsys, name, "q" if p is None else f"fp:{p}")
        assert code == 0 and verdict.passed, (name, p)
        assert report["cohen_macaulay"] == {"passed": True, "witness": None}
        assert report["field"] == verdict.field


def _plant_failing_check(monkeypatch):
    """Make every regular-sequence check report a failure."""
    real_check = tp.regular_sequence_check

    def failing_check(P, p=None, maxdeg=None):
        report = real_check(P, p, maxdeg)
        return dataclasses.replace(report, passed=False)

    monkeypatch.setattr(tp, "regular_sequence_check", failing_check)


def test_cm_reports_a_failing_regular_sequence_verdict_as_it_is(
        monkeypatch, capsys):
    """When the regular-sequence verdict fails, ``cm`` reports the ring as
    not Cohen-Macaulay with no witness and exits 4, without calling
    ``reisner_cm_check``: every report of the check proves the forms a
    system of parameters, so its verdict holds both ways."""
    def no_links(K, p=None):
        raise AssertionError("reisner_cm_check ran")

    _plant_failing_check(monkeypatch)
    monkeypatch.setattr(tp, "reisner_cm_check", no_links)
    for name, ring, field in (("cp3", "q", "Q"), ("o_minus_1", "fp:3", "F3")):
        code, report = _cm_json(capsys, name, ring)
        assert code == 4 and report["field"] == field
        assert report["cohen_macaulay"] == {"passed": False, "witness": None}
        assert report["regular_sequence"]["passed"] is False
        assert report["profile"]["match"] is True


def _profile_block(P, p):
    """The ``profile`` block of a ``cm`` report, from the ranked nerve."""
    ref = tp.sphere_or_ball_profile(P, p)
    return {"compact": ref.compact, "expected": ref.expected,
            "match": ref.match,
            "reduced_betti_from_degree_minus_1": list(ref.actual)}


def test_cm_ranks_the_nerve_only_when_the_check_fails(monkeypatch, capsys):
    """A passing ``cm`` reads the nerve's homology off the h-vector and
    ranks no face layer.  With the planted failing check of
    ``test_cm_reports_a_failing_regular_sequence_verdict_as_it_is`` it
    ranks the nerve's full face layers once per field and reports the
    ranked profile."""
    P = catalog.load_example("cp3")
    full = tp.build_nerve(P).faces_by_dim()
    fields = (("q", None), ("fp:2", 2))
    blocks = {p: _profile_block(P, p) for _, p in fields}
    ranked = []
    real_betti = tp._reduced_betti

    def recording_betti(layers, p):
        ranked.append((layers == full, p))
        return real_betti(layers, p)

    monkeypatch.setattr(tp, "_reduced_betti", recording_betti)
    for ring, p in fields:
        code, report = _cm_json(capsys, "cp3", ring)
        assert code == 0 and ranked == []
        assert report["profile"] == blocks[p]
    _plant_failing_check(monkeypatch)
    for ring, p in fields:
        code, report = _cm_json(capsys, "cp3", ring)
        assert code == 4 and ranked == [(True, p)]
        assert report["profile"] == blocks[p]
        ranked.clear()


def test_cm_profile_from_the_check_matches_the_ranked_nerve(tmp_path,
                                                            capsys):
    """Differential: on the corpus (dimensions 1 to 3) and random inputs of
    dimensions 2 to 4, compact and not, over Q, F_2 and F_3, the check
    passes and the ``profile`` block that ``cm`` reads off it equals
    ``sphere_or_ball_profile``, which ranks the nerve."""
    rng = random.Random(1006)
    polys = _cm_polyhedra(1976) + [
        catalog.random_delzant(rng, dim, dim + 4, allow_noncompact=any_kind)
        for dim in (2, 3, 4) for any_kind in (False, True, True)]
    for i, P in enumerate(polys):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(polyhedron_to_json(P)))
        for ring, p in (("q", None), ("fp:2", 2), ("fp:3", 3)):
            code = cli.main(["--input", str(path), "--command", "cm",
                             "--ring", ring, "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            assert report["regular_sequence"]["passed"], (P, p)
            assert report["profile"] == _profile_block(P, p), (P, p)
            assert code == (0 if report["profile"]["match"] else 4), (P, p)


def test_field_certificate_reads_the_pivots_alone(monkeypatch):
    """Over Q, F_2 and F_3, on every monomial of every top slice (degree
    n), the certificate of an unsettled field eliminator gives the answer
    of the settled ``reduce`` reference, and leaves the pivot rows and the
    rank as they were.  hirzebruch_f2's v4^2 is twice a generator over Z:
    it spans over Q and F_3, not over F_2.  ``regular_sequence_check``
    never settles."""
    polys = _cm_polyhedra(2026)
    hirzebruch, squares = catalog.load_example("hirzebruch_f2"), {}
    for P in polys:
        n = P.dim
        for p in (None, 2, 3):
            keys, leads, walk = tp.vertex_rows(P, n, p=p)
            for index, rows in walk:
                elim, ref = linalg.Eliminator(p), linalg.Eliminator(p)
                for row in rows:
                    elim.add_row(dict(row))
                    ref.add_row(dict(row))
            assert ref.settle(len(index))
            pivots = {c: dict(row) for c, row in elim.pivots.items()}
            rank = elim.rank
            for key, col in index.items():
                face = [j for j, e in enumerate(keys.decode(key))
                        for _ in range(e)]
                expected = ref.dim == 0 or (ref.dim == 1
                                            and ref.reduce({col: 1}) != [0])
                got = tp.top_class_certificate(elim, index, keys.steps, face)
                assert got == expected, (P, p, face)
                if P == hirzebruch and face == [3, 3]:
                    squares[p] = got
            assert tp.top_class_certificate(elim, index, keys.steps, leads)
            assert elim.pivots == pivots and elim.rank == rank
    assert squares == {None: True, 2: False, 3: True}

    settled = []
    monkeypatch.setattr(linalg.Eliminator, "settle",
                        lambda self, ncols: settled.append(ncols))
    for P in polys:
        for p in (None, 2, 3):
            assert tp.regular_sequence_check(P, p).passed
    assert settled == []


def test_top_class_certificate_needs_a_generator_over_z(corpus):
    """In degree 2 of hirzebruch_f2 the quotient is Z, and the class of
    v4^2 is twice a generator (see the classical basis test): it spans
    over Q but not over Z.  The first vertex's facet monomial spans over
    both, and a quotient of dimension 2 (degree 1) is never certified."""
    P = corpus["hirzebruch_f2"]
    K = tp.build_nerve(P)
    n, N = P.dim, P.nfacets
    S, coords = vertex_coordinates(P, 0)
    leads = [s - 1 for s in S]
    keys = tp.SRKeys([tuple(int(k == j) for k in range(N))
                      for j in range(N)], n)
    for d, (index, rows) in enumerate(tp.graded_rows(
            tp.sr_slices(K, keys), keys.steps, coords, leads)):
        over_z, over_q = linalg.Eliminator(integral=True), linalg.Eliminator()
        for row in rows:
            over_z.add_row(dict(row))
            over_q.add_row(dict(row))
        assert over_z.settle(len(index)) and over_q.settle(len(index))
        if d == 1:
            assert over_z.dim == 2
            assert not tp.top_class_certificate(over_z, index, keys.steps,
                                                leads[:1])
    assert d == n and over_z.dim == 1
    assert tp.top_class_certificate(over_z, index, keys.steps, leads)
    assert tp.top_class_certificate(over_q, index, keys.steps, leads)
    square = [3, 3]  # v4^2
    assert over_z.reduce({index[keys.encode((0, 0, 0, 2))]: 1}) in ([2], [-2])
    assert not tp.top_class_certificate(over_z, index, keys.steps, square)
    assert tp.top_class_certificate(over_q, index, keys.steps, square)


def test_top_class_certificate_reads_a_smith_settled_quotient():
    """Z^3 modulo the rows (2, 3, -31) and (3, 4, -43), which hold no unit
    entry, is settled through the residual block: it is Z, by (a, b, c) ->
    5a + 7b + c.  The class of the third column generates it, that of the
    first is 5 times a generator."""
    elim = linalg.Eliminator(integral=True)
    for row in ({0: 2, 1: 3, 2: -31}, {0: 3, 1: 4, 2: -43}):
        elim.add_row(row)
    assert elim.settle(3) and not elim.pivots and elim.dim == 1
    index, steps = {0: 0, 1: 1, 2: 2}, [0, 1, 2]
    assert tp.top_class_certificate(elim, index, steps, [2])
    assert not tp.top_class_certificate(elim, index, steps, [0])


def test_regular_sequence_skips_koszul_rows(corpus, monkeypatch):
    """In every degree d >= 2 the check ranks fewer than the n * |SR_{d-1}|
    rows of the standard basis, and gets the reference's dimensions.

    The check makes one eliminator per degree up to n and hands it every
    row of that degree, so the rows are counted per eliminator."""
    ranked = []
    init, add_row = linalg.Eliminator.__init__, linalg.Eliminator.add_row

    def counting_init(self, *args, **kwargs):
        ranked.append(0)
        init(self, *args, **kwargs)

    def counting_add_row(self, row):
        ranked[-1] += 1
        return add_row(self, row)

    for P in (corpus["cp3"], catalog.random_delzant(random.Random(31), 4, 7)):
        K = tp.build_nerve(P)
        units = [tuple(int(i == j) for i in range(P.nfacets))
                 for j in range(P.nfacets)]
        slices = tp.sr_slices(K, tp.SRKeys(units, P.dim + 1))
        for p in (None, 2):
            ranked.clear()
            with monkeypatch.context() as m:
                m.setattr(linalg.Eliminator, "__init__", counting_init)
                m.setattr(linalg.Eliminator, "add_row", counting_add_row)
                report = tp.regular_sequence_check(P, p, P.dim + 4)
            dims, _ = _reference_regular_sequence(P, p, P.dim + 4)
            assert report.quotient_dims == dims, (P, p)
            # no slice past degree n, although maxdeg is n + 4
            assert len(ranked) == P.dim + 1
            for d, count in enumerate(ranked):
                full = P.dim * len(slices[d - 1]) if d else 0
                assert count < full if d >= 2 else count <= full, (P, p, d)


def test_regular_sequence_ranks_rows_by_least_column(corpus, monkeypatch):
    """The check's columns fall by lead degree, the exponent sum on the
    first vertex's facets S, and then run lexicographically; the rows reach
    ``add_row`` sorted by least column.  Every kept row c_k * m whose lead
    product Z_{s_k} * m is a face monomial has that product as its least
    column, with coefficient 1.  The slices stop at degree n."""
    sliced, walked, ranked = [], [], []
    real_slices, real_rows = tp.sr_slices, tp.graded_rows
    init, add_row = linalg.Eliminator.__init__, linalg.Eliminator.add_row

    def recording_slices(K, keys):
        sliced.append(keys)
        return real_slices(K, keys)

    def recording_rows(*args):
        for index, rows in real_rows(*args):
            rows = list(rows)
            walked.append((index, [dict(row) for row in rows]))
            yield index, rows

    def recording_init(self, *args, **kwargs):
        ranked.append([])
        init(self, *args, **kwargs)

    def recording_add_row(self, row):
        ranked[-1].append(dict(row))
        return add_row(self, row)

    for P in (corpus["cp3"], catalog.random_delzant(random.Random(31), 4, 7)):
        S, coords = vertex_coordinates(P, 0)
        for p in (None, 2):
            sliced.clear()
            walked.clear()
            ranked.clear()
            with monkeypatch.context() as m:
                m.setattr(tp, "sr_slices", recording_slices)
                m.setattr(tp, "graded_rows", recording_rows)
                m.setattr(linalg.Eliminator, "__init__", recording_init)
                m.setattr(linalg.Eliminator, "add_row", recording_add_row)
                assert tp.regular_sequence_check(P, p).passed
            (keys,) = sliced
            assert keys.top == P.dim
            assert len(walked) == len(ranked) == P.dim + 1
            led = 0
            prev = {}
            for (index, rows), added in zip(walked, ranked):
                # columns: sorted keys, decoding to t, in the order of
                # (-lead degree, t); graded_rows sorts the rows
                vecs = [keys.decode(key) for key in index]
                assert list(index.values()) == list(range(len(index)))
                assert vecs == sorted(vecs, key=lambda t: (
                    -sum(t[s - 1] for s in S), t))
                assert added == rows == sorted(rows, key=min), P
                kept = {frozenset(row.items()) for row in rows}
                for m_vec in prev:
                    for k, s in enumerate(S):
                        product = list(m_vec)
                        product[s - 1] += 1
                        lead = index.get(keys.encode(product))
                        if lead is None:
                            continue
                        row = {}
                        for j, w in enumerate(coords):
                            c = w[k] if p is None else w[k] % p
                            vec = list(m_vec)
                            vec[j] += 1
                            col = index.get(keys.encode(vec))
                            if c and col is not None:
                                row[col] = c
                        if frozenset(row.items()) in kept:
                            assert min(row) == lead and row[lead] == 1
                            led += 1
                prev = dict.fromkeys(vecs)
            assert led > 0, (P, p)


def test_regular_sequence_raises_if_degree_n_plus_1_survives(
        corpus, monkeypatch, capsys):
    """Without the rows into degree n the quotient there is the whole
    slice, not spanned by the class of Z_S, so the vanishing in degree
    n + 1 is not certified: the check raises, and ``cm`` exits 4 with one
    error line."""
    monkeypatch.setattr(tp, "graded_rows",
                        dropping_rows_at_top(tp.graded_rows))
    for name in ("cp2", "cp3", "hirzebruch_f2"):
        P = corpus[name]
        path = str(resources.files("toricqh").joinpath("data", f"{name}.json"))
        for p, ring in ((None, "q"), (2, "fp:2")):
            with pytest.raises(VerificationError, match=f"degree {P.dim + 1}"):
                tp.regular_sequence_check(P, p, P.dim + 4)
            code = cli.main(["--input", path, "--command", "cm",
                             "--ring", ring])
            out, err = capsys.readouterr()
            assert code == 4 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def _prefix_rows(slices, steps, weights, leads, forms):
    """The rows of the walk with ``leads`` are, slice by slice, the first
    ``forms[d][i]`` of the rows of the walk without leads out of the i-th
    monomial of slice d - 1; every product is in its slice, so each
    monomial has one row per form."""
    n = len(weights[0])
    kept = [(index, list(rows)) for index, rows in
            tp.graded_rows(slices, steps, weights, leads)]
    every = [(index, list(rows)) for index, rows in
             tp.graded_rows(slices, steps, weights)]
    assert [index for index, _ in kept] == [index for index, _ in every]
    for (_, rows), (_, full), counts in zip(kept, every, forms):
        assert len(full) == n * len(counts)
        assert rows == [row for i, c in enumerate(counts)
                        for row in full[n * i:n * i + c]]


def test_graded_rows_sort_each_slice_by_least_column(corpus, monkeypatch):
    """Every walk of the package hands out each slice's rows sorted by
    least column, for the lead order of ``SRKeys``: the regular-sequence
    check over Q and F_2 and the classical and quantum presentations, on
    the corpus and on random input."""
    real = tp.graded_rows
    counted = []

    def checked(*args):
        for index, rows in real(*args):
            rows = list(rows)
            assert rows == sorted(rows, key=min)
            counted.append(len(rows))
            yield index, rows

    rng = random.Random(577)
    polys = [*corpus.values(), *(catalog.random_delzant(rng, dim, dim + 4)
                                 for dim in (2, 3, 3, 4))]
    monkeypatch.setattr(tp, "graded_rows", checked)
    for P in polys:
        for p in (None, 2):
            tp.regular_sequence_check(P, p)
        pr.classical_presentation(P)
        if monotone_normalization(P) is not None:
            pr.quantum_presentation(P)
    assert sum(counted) > 1000


def test_graded_rows_match_the_loop_they_replaced(corpus, monkeypatch):
    """``graded_rows`` gives the index and the rows, entry order included,
    of the loop it replaced (``reference.graded_rows``) for every slice
    that ``vertex_rows`` walks: classical keys over Z, under units rho and
    mod p, and quantum keys by nu, on the corpus and 20 random inputs (for
    nu keys, 20 relabellings of the monotone corpus)."""
    rng = random.Random(3141)
    randoms = [catalog.random_delzant(rng, dim, dim + rng.randrange(1, 4))
               for dim in (2, 3, 4) * 6 + (2, 3)]
    monotone = [monotone_normalization(P).rescaled for P in corpus.values()
                if monotone_normalization(P) is not None]
    relabelled = [relabel_lattice(P, linalg.random_unimodular(P.dim, rng))
                  for P in rng.choices(monotone, k=20)]
    calls = []
    real = tp.graded_rows

    def recording(slices, steps, weights, leads=()):
        calls.append((list(slices), steps, weights, leads))
        return real(*calls[-1])

    def rows_with_order(walk):
        return [(list(index.items()), [list(row.items()) for row in rows])
                for index, rows in walk]

    monkeypatch.setattr(tp, "graded_rows", recording)
    for P in [*corpus.values(), *randoms]:
        rho = [rng.choice((1, -1, 2, Fraction(-1, 3), Fraction(5, 2)))
               for _ in range(P.nfacets)]
        for kwargs in ({}, {"rho": rho}, {"p": 3}):
            calls.clear()
            list(tp.vertex_rows(P, P.dim, **kwargs)[2])
            (args,) = calls
            assert (rows_with_order(real(*args))
                    == rows_with_order(loop_rows(*args))), (P, kwargs)
    for P in [*monotone, *relabelled]:
        calls.clear()
        list(tp.vertex_rows(P, 2 * P.dim, by_nu=True)[2])
        (args,) = calls
        assert (rows_with_order(real(*args))
                == rows_with_order(loop_rows(*args))), P


def test_koszul_limit_keeps_a_prefix_of_the_forms():
    # Over three variables with every weight nonzero and leads (1, 0, 2):
    # Z_2 keeps c_0 only, Z_1 keeps c_0 and c_1, Z_3 keeps all three, and
    # the empty monomial keeps all three.
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    keys = tp.SRKeys(units, 2)
    slices = [[(0, 0, 0)], [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
              sorted({tuple(map(sum, zip(a, b))) for a in units for b in units})]
    slices = [list(map(keys.encode, vecs)) for vecs in slices]
    assert all(keyed == sorted(keyed) for keyed in slices)
    weights = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    _prefix_rows(slices, keys.steps, weights, (1, 0, 2), [[], [3], [3, 1, 2]])
    assert sum(len(list(rows)) for _, rows in
               tp.graded_rows(slices, keys.steps, weights, (1, 0, 2))) == 9
    # nu keys: the monotone T-degree slices of CP^2, stepped by the normals
    # and with the forms of the vertex at facets 1, 2.  Slice 1 holds T (nu
    # 0) and v_1, v_2, v_3; v_1 keeps c_0 only, the others keep both.
    normals = [(1, 0), (0, 1), (-1, -1)]
    keys = tp.SRKeys(normals, 2)
    slices = [[(0, 0)], [(-1, -1), (0, 0), (0, 1), (1, 0)],
              sorted({(0, 0), *normals, *(tuple(map(sum, zip(a, b)))
                                          for a in normals for b in normals)})]
    slices = [list(map(keys.encode, vecs)) for vecs in slices]
    assert all(keyed == sorted(keyed) for keyed in slices)
    _prefix_rows(slices, keys.steps, normals, (0, 1), [[], [2], [2, 2, 2, 1]])


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


def test_field_size_past_24_digits_is_too_large(cp2):
    # refused by size, before any primality test: 2^89 - 1 is a prime
    for p in (10 ** 24 + 7, 2 ** 89 - 1, 10 ** 5000 + 1):
        with pytest.raises(PreconditionError, match="too large"):
            tp.field_name(p)
    assert tp.field_name(10 ** 18 + 3) == "F1000000000000000003"


def test_field_names(cp2):
    K = tp.build_nerve(cp2)
    assert [tp.reisner_cm_check(K, p).field for p in (None, 2, 32003)] == \
        ["Q", "F2", "F32003"]
    assert tp.regular_sequence_check(cp2, 3).field == "F3"


def test_sorted_faces_are_every_subset_of_a_maximal_face(corpus):
    rng = random.Random(67)
    inputs = [*corpus.values(),
              *(catalog.random_delzant(rng, 2 + i % 3, 8) for i in range(20))]
    for P in inputs:
        K = tp.build_nerve(P)
        labels = range(1, K.ground + 1)
        brute = [S for k in range(K.ground + 1)
                 for S in itertools.combinations(labels, k)
                 if any(set(S) <= m for m in K.maximal)]
        assert K.sorted_faces == tuple(brute)


def test_faces_are_cached(cp2):
    K = tp.build_nerve(cp2)
    assert K.sorted_faces is K.sorted_faces
    assert K.sorted_faces[0] == () and len(set(K.sorted_faces)) == len(
        K.sorted_faces)
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


def _boundary_rank_homology(K, p=None):
    """Reduced Betti numbers from the exact rank of every boundary matrix."""
    layers = K.faces_by_dim()
    index = [{f: i for i, f in enumerate(layer)} for layer in layers]
    branks = [0] * (len(layers) + 1)
    for d in range(1, len(layers)):
        branks[d] = linalg.rank(
            [{index[d - 1][f[:i] + f[i + 1:]]: (-1) ** i for i in range(len(f))}
             for f in layers[d]], p)
    return tuple(len(layer) - branks[d] - branks[d + 1]
                 for d, layer in enumerate(layers))


def _reference_reisner(K, p=None):
    """Reisner's criterion face by face: build every link from the maximal
    faces and rank all of its boundary matrices."""
    field = tp.field_name(p)
    for face in K.sorted_faces:
        J = frozenset(face)
        L = tp.make_complex(K.ground, [m - J for m in K.maximal if J <= m])
        ranks = _boundary_rank_homology(L, p)
        for degree, rank in enumerate(ranks, start=-1):
            if rank and degree < L.dim:
                return tp.CMReport(False, field,
                                   f"link of {list(face)} has reduced homology "
                                   f"of rank {rank} in degree {degree} < dim "
                                   f"{L.dim}")
    return tp.CMReport(True, field)


# The six-vertex real projective plane: acyclic over Q, not over F_2.
RP2 = [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6}, {2, 3, 5},
       {3, 4, 6}, {2, 4, 5}, {3, 5, 6}, {2, 4, 6}]


def _cone(K):
    apex = K.ground + 1
    return tp.make_complex(apex, [m | {apex} for m in K.maximal])


def _suspension(K):
    a, b = K.ground + 1, K.ground + 2
    return tp.make_complex(b, [m | {c} for m in K.maximal for c in (a, b)])


def _random_complex(rng):
    """Random maximal faces, possibly non-pure or disconnected, then as it
    is, coned or suspended."""
    ground = rng.randint(1, 7)
    faces = [rng.sample(range(1, ground + 1), rng.randint(1, min(4, ground)))
             for _ in range(rng.randint(1, 6))]
    K = tp.make_complex(ground, faces)
    return rng.choice([lambda K: K, lambda K: K, _cone, _suspension])(K)


def _reisner_cases():
    rng = random.Random(4242)
    cases = [_random_complex(rng) for _ in range(320)]
    projective = tp.make_complex(6, RP2)
    cases += [projective, _cone(projective), _suspension(projective),
              tp.make_complex(3, [frozenset()]), tp.NerveComplex(2, ()),
              tp.make_complex(4, [{1, 2}, {3, 4}])]
    cases += [tp.build_nerve(P) for P in catalog.load_valid_examples().values()]
    cases += [tp.build_nerve(catalog.random_delzant(rng, dim, 8))
              for dim in (2, 3, 4) for _ in range(8)]
    return cases


def test_reisner_matches_the_link_by_link_reference():
    verdicts = {}
    for K in _reisner_cases():
        for p in (None, 2, 3):
            report = tp.reisner_cm_check(K, p)
            assert report == _reference_reisner(K, p), (K, p)
            verdicts[report.passed] = verdicts.get(report.passed, 0) + 1
    assert min(verdicts.values()) >= 100, verdicts
    projective = tp.make_complex(6, RP2)
    assert tp.reisner_cm_check(projective).passed
    assert tp.reisner_cm_check(projective, 3).passed
    assert tp.reisner_cm_check(projective, 2).witness == \
        "link of [] has reduced homology of rank 1 in degree 1 < dim 2"


def test_betti_numbers_match_the_boundary_ranks():
    for K in _reisner_cases():
        for p in (None, 2, 3):
            profile = tp.reduced_homology(K, p)
            assert profile == tp.HomologyProfile(
                K.dim, _boundary_rank_homology(K, p)), (K, p)
    projective = tp.make_complex(6, RP2)
    assert tp.reduced_homology(projective).nonzero() == {}
    assert tp.reduced_homology(projective, 2).nonzero() == {1: 1, 2: 1}


def test_sr_slices_stop_below_the_largest_face(corpus):
    """With ``top`` below the size of the largest face the walk stops at
    the first face that is too large, and each slice still holds every
    face-supported exponent vector of its degree."""
    rng = random.Random(881)
    polys = [corpus["cp3"], corpus["c3"],
             catalog.random_delzant(rng, 4, 7)]
    for P in polys:
        K = tp.build_nerve(P)
        N = P.nfacets
        assert K.dim + 1 == P.dim
        for top in range(P.dim):
            keys = tp.SRKeys([tuple(int(i == j) for i in range(N))
                              for j in range(N)], top)
            slices = tp.sr_slices(K, keys)
            assert len(slices) == top + 1
            for d, keyed in enumerate(slices):
                assert [keys.decode(key) for key in keyed] == \
                    brute_sr_monomials(K, d), (P, top, d)


def test_each_walk_builds_only_the_rows_it_reads(corpus, monkeypatch):
    """``quantum_presentation`` builds the rows of its top slice alone, the
    one it eliminates; ``classical_presentation`` builds the n + 1 slices
    of degrees 0..n; ``regular_sequence_check`` stops at its first zero
    degree, which on the orthant c3 (h-vector 1, 0, 0, 0) is degree 1.
    ``built`` gets the index of a slice when its rows are first read."""
    built = []
    real = tp._slice_rows

    def counting(index, *rest):
        built.append(index)
        yield from real(index, *rest)

    monkeypatch.setattr(tp, "_slice_rows", counting)
    for name in ("cp1", "cp2", "cp3", "cp1xcp1", "o_minus_1"):
        P = catalog.load_example(name)
        Pn = monotone_normalization(P).rescaled
        built.clear()
        cp = pr.classical_presentation(Pn)
        assert len(built) == P.dim + 1 == len(cp.ranks), name
        built.clear()
        Q = pr.quantum_presentation(P)
        assert built == [Q.layer.index], name
        built.clear()
        assert tp.regular_sequence_check(P).passed
        assert len(built) == P.dim + 1, name
    built.clear()
    report = tp.regular_sequence_check(corpus["c3"])
    assert report.passed and report.quotient_dims[:2] == (1, 0)
    assert len(built) == 2
