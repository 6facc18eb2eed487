"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is exact (zero tolerance), and the stated runtime budgets are
enforced with wall-clock assertions.
"""

import itertools
import random
import time
from fractions import Fraction

from toricqh import catalog, cli
from toricqh import jacobian as jc
from toricqh import monoid as mo
from toricqh import presentation as pr
from toricqh import topology as tp
from toricqh.errors import PreconditionError
from toricqh.polyhedra import enumerate_vertices, is_compact

MONOTONE = ("c1", "c2", "c3", "cp1", "cp2", "cp3", "cp1xcp1", "o_minus_1")


def _verdict(label, ok):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_o_minus_1_end_to_end(capsys):
    start = time.monotonic()
    P = catalog.load_example("o_minus_1")
    Q = pr.quantum_presentation(P)
    ok = len(Q.basis) == 2
    ok &= Q.linear_relations == ((1, 1, 0), (0, 1, 1))
    ok &= [str(r) for r in Q.qsr_relations] == ["v1*v3 = T*v2"]
    # E := image of v2.  The presentation must realize E^2 = T*E exactly,
    # i.e. Z[T, E]/(E^2 - T E) under H2 -> v2 (sign recorded in the table).
    ctx = mo.monoid_for(Q.normalized)
    v2 = mo.element_from_monomial(ctx.generator(2))
    e = pr.reduce_to_basis(v2, Q)
    e_sq = pr.reduce_to_basis(v2 * v2, Q)
    t_times_e = [tuple([0] + list(p)) if p else () for p in e]
    ok &= e_sq == t_times_e
    ok &= e[0] == () and e[1] in ((1,), (-1,))  # E is the nonunit class
    v1 = mo.element_from_monomial(ctx.generator(1))
    v3 = mo.element_from_monomial(ctx.generator(3))
    ok &= pr.reduce_to_basis(v1 * v3, Q) == t_times_e
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    # the CLI report spells the relation out
    code = cli.main(["--input", _data("o_minus_1"), "--command", "quantum"])
    out = capsys.readouterr().out
    ok &= code == 0 and "v2^2 = T*v2" in out and "basis_size: 2" in out
    _verdict("1 (O(-1) end-to-end, < 1 s)", ok)


def _data(name):
    from importlib import resources
    return str(resources.files("toricqh").joinpath("data", f"{name}.json"))


def test_criterion_2_rank_formulas():
    start = time.monotonic()
    ok = True
    for name, P in catalog.load_valid_examples().items():
        cp = pr.classical_presentation(P)
        ok &= cp.total_rank == len(enumerate_vertices(P))
        ok &= P.dim == 0 or cp.ranks[1] == P.nfacets - P.dim
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _verdict(f"2 (rank formulas on all examples, {elapsed:.2f} s < 5 s)", ok)


def test_criterion_3_known_quantum_rings():
    corpus = catalog.load_valid_examples()
    ok = True

    def unit_with(poly, Q, idx):
        expected = [() for _ in Q.basis]
        expected[idx] = poly
        return expected

    # CP^1: v^2 = T^2
    Q = pr.quantum_presentation(corpus["cp1"])
    ctx = mo.monoid_for(Q.normalized)
    v = mo.element_from_monomial(ctx.generator(1))
    ok &= pr.reduce_to_basis(v * v, Q) == unit_with((0, 0, 1), Q, 0)

    # CP^2: v^3 = T^3
    Q = pr.quantum_presentation(corpus["cp2"])
    ctx = mo.monoid_for(Q.normalized)
    v = mo.element_from_monomial(ctx.generator(1))
    ok &= pr.reduce_to_basis(v * v * v, Q) == unit_with((0, 0, 0, 1), Q, 0)

    # CP^1 x CP^1: vx^2 = T^2, vy^2 = T^2, vx*vy a basis element
    Q = pr.quantum_presentation(corpus["cp1xcp1"])
    ctx = mo.monoid_for(Q.normalized)
    vx = mo.element_from_monomial(ctx.generator(1))
    vy = mo.element_from_monomial(ctx.generator(3))
    ok &= pr.reduce_to_basis(vx * vx, Q) == unit_with((0, 0, 1), Q, 0)
    ok &= pr.reduce_to_basis(vy * vy, Q) == unit_with((0, 0, 1), Q, 0)
    mixed = pr.reduce_to_basis(vx * vy, Q)
    ok &= sum(1 for p in mixed if p) == 1 and (1,) in mixed

    # C^n: rank-1 ring
    for name in ("c1", "c2", "c3"):
        Q = pr.quantum_presentation(corpus[name])
        ok &= len(Q.basis) == 1
    _verdict("3 (known quantum rings: CP1, CP2, CP1xCP1, C^n)", ok)


def test_criterion_4_cohen_macaulay_suite():
    ok = True
    for name, P in catalog.load_valid_examples().items():
        K = tp.build_nerve(P)
        ok &= tp.reisner_cm_check(K).passed
        profile = tp.sphere_or_ball_profile(P)
        ok &= profile.match and profile.compact == is_compact(P)
    rng = random.Random(52)
    for _ in range(50):
        P = catalog.random_delzant(rng, rng.choice([1, 2, 2, 3, 3]), 8)
        K = tp.build_nerve(P)
        ok &= tp.reisner_cm_check(K).passed
        profile = tp.sphere_or_ball_profile(P)
        ok &= profile.match and profile.compact == is_compact(P)
    _verdict("4 (Cohen-Macaulay suite incl. 50 random polyhedra)", ok)


def test_criterion_5_regular_sequence_hilbert():
    ok = True
    for name, P in catalog.load_valid_examples().items():
        for p in (None, 2):
            report = tp.regular_sequence_check(P, p, P.dim + 2)
            ok &= report.passed
            ok &= report.quotient_dims == report.expected_dims
    _verdict("5 (regular-sequence Hilbert check over Q and F2)", ok)


def test_criterion_6_freeness_at_cutoff():
    start = time.monotonic()
    corpus = catalog.load_valid_examples()
    ok = True
    # (a) zero perturbations, g in {1, 2, 3}
    for name, P in corpus.items():
        for g in (1, 2, 3):
            rep = jc.jacobian_freeness(P, g=g)
            ok &= rep.free and rep.rank == len(enumerate_vertices(P))
    # (b) 25 random admissible perturbations per example, g = 3
    rng = random.Random(20260811)
    for name, P in corpus.items():
        ctx = mo.monoid_for(P)
        for _ in range(25):
            perts = []
            for _ in range(P.nfacets):
                if rng.random() < 0.6:
                    perts.append(ctx.zero())
                    continue
                t = [0] * P.nfacets
                for _ in range(rng.randrange(1, 3)):
                    t[rng.randrange(P.nfacets)] += 1
                m = ctx.from_exponents(t, height=rng.randrange(1, 3))
                coeff = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
                perts.append(mo.element_from_monomial(m) * coeff)
            rep = jc.jacobian_freeness(P, perturbations=perts, g=3)
            ok &= rep.free
    # (c) unit rescalings from {1, -1, 2, 1/3} over Q
    for name, P in corpus.items():
        for seed in range(3):
            r2 = random.Random(1000 * seed + P.nfacets)
            rho = [r2.choice([1, -1, 2, Fraction(1, 3)])
                   for _ in range(P.nfacets)]
            rep = jc.jacobian_freeness(P, rho=rho, g=2)
            ok &= rep.free and rep.rank == len(enumerate_vertices(P))
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _verdict(f"6 (freeness at finite cutoff, {elapsed:.1f} s < 30 s)", ok)


def test_criterion_7_brute_force_oracles():
    corpus = catalog.load_valid_examples()
    ok = True
    # intersecting-sum uniqueness against exhaustive bounded search
    for name, P in corpus.items():
        ctx = mo.monoid_for(P)
        rng = random.Random(len(name))
        for _ in range(100):
            t = [rng.randrange(0, 2) for _ in range(P.nfacets)]
            s = Fraction(rng.randrange(0, 2))
            lam = s + sum((tj * w for tj, w in zip(t, P.offsets)), Fraction(0))
            nu = tuple(sum(tj * P.normals[j][i] for j, tj in enumerate(t))
                       for i in range(P.dim))
            found = _brute_decompositions(P, lam, nu)
            ok &= len(found) == 1
            ok &= found[0] == ctx.decompose((lam, nu))
    # Hilbert function against direct monomial enumeration
    for name, P in corpus.items():
        K = tp.build_nerve(P)
        values = tp.sr_hilbert_function(P, 4)
        for d in range(5):
            count = 0
            for expo in itertools.product(range(d + 1), repeat=P.nfacets):
                if sum(expo) == d and K.is_face(
                        {j + 1 for j, e in enumerate(expo) if e}):
                    count += 1
            ok &= values[d] == count
    # height superadditivity on 1000 random pairs
    rng = random.Random(99)
    P = corpus["cp1xcp1"]
    ctx = mo.monoid_for(P)
    for _ in range(1000):
        a = ctx.from_exponents([rng.randrange(0, 3) for _ in range(4)],
                               height=Fraction(rng.randrange(0, 4), 2))
        b = ctx.from_exponents([rng.randrange(0, 3) for _ in range(4)],
                               height=Fraction(rng.randrange(0, 4), 2))
        ok &= (a * b).height >= a.height + b.height
    _verdict("7 (brute-force oracle equivalences)", ok)


def _brute_decompositions(P, lam, nu):
    vertices = enumerate_vertices(P)
    bounds = [int(lam / w) for w in P.offsets]
    found = []
    for t in itertools.product(*(range(b + 1) for b in bounds)):
        weight = sum((tj * w for tj, w in zip(t, P.offsets)), Fraction(0))
        if weight > lam:
            continue
        if tuple(sum(tj * P.normals[j][i] for j, tj in enumerate(t))
                 for i in range(P.dim)) != tuple(nu):
            continue
        support = {j + 1 for j, tj in enumerate(t) if tj}
        if support and not any(support <= v.incident for v in vertices):
            continue
        found.append((lam - weight, t))
    return found


def test_criterion_8_invertibility_certificates():
    ok = True
    for name, P in catalog.load_valid_examples().items():
        if is_compact(P):
            for j in range(1, P.nfacets + 1):
                cert = pr.divisor_inverse_certificate(P, j)
                ok &= cert.multiplicities[j - 1] >= 1
                for i in range(P.dim):
                    ok &= sum(m * P.normals[k][i] for k, m in
                              enumerate(cert.multiplicities)) == 0
                ok &= cert.t_exponent == sum(
                    (m * w for m, w in zip(cert.multiplicities, P.offsets)),
                    Fraction(0))
        else:
            try:
                pr.divisor_inverse_certificate(P, 1)
                ok = False
            except PreconditionError as exc:
                ok &= "not compact" in str(exc)
    _verdict("8 (divisor-inverse certificates)", ok)


def test_criterion_9_structure_constant_laws():
    corpus = catalog.load_valid_examples()
    ok = True
    for name in MONOTONE:
        Q = pr.quantum_presentation(corpus[name])
        m = len(Q.basis)
        for a in range(m):
            for b in range(m):
                ok &= Q.structure[a][b] == Q.structure[b][a]
                for k in range(m):
                    poly = Q.structure[a][b][k]
                    constant = poly[0] if poly else 0
                    ok &= constant == Q.classical.structure[a][b][k]
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    left = _table_mul(Q, _table_mul(Q, _unit(m, a),
                                                    _unit(m, b)), _unit(m, c))
                    right = _table_mul(Q, _unit(m, a),
                                       _table_mul(Q, _unit(m, b), _unit(m, c)))
                    ok &= left == right
    _verdict("9 (structure-constant algebra laws)", ok)


def _unit(m, i):
    return [(1,) if k == i else () for k in range(m)]


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _table_mul(Q, ca, cb):
    m = len(Q.basis)
    out = [() for _ in range(m)]
    for i in range(m):
        if not ca[i]:
            continue
        for j in range(m):
            if not cb[j]:
                continue
            factor = _poly_mul(ca[i], cb[j])
            for k in range(m):
                if Q.structure[i][j][k]:
                    out[k] = _poly_add(out[k],
                                       _poly_mul(factor, Q.structure[i][j][k]))
    return out
