import heapq
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from math import comb
from operator import mul
from types import SimpleNamespace

import pytest

import reference
from reference import (charpoly, deformed_classical_structure, determinant,
                       dp8, dropping_rows_at_top, hexagon,
                       inverse_multiplicities, mirror_potential, omega_mul,
                       product, recompose_from_basis)
from toricqh import catalog, cli, linalg, topology
from toricqh import monoid as mo
from toricqh import presentation as pr
from toricqh.errors import PreconditionError, VerificationError
from toricqh.jacobian import jacobian_freeness
from toricqh.polyhedra import (enumerate_vertices, is_compact,
                               monotone_normalization, polyhedron,
                               relabel_lattice)


def elem(P, j):
    return mo.element_from_monomial(mo.monoid_for(P).generator(j))


def test_classical_o_minus_1(o_minus_1):
    cp = pr.classical_presentation(o_minus_1)
    assert cp.ranks == (1, 1, 0)
    assert cp.total_rank == 2
    assert cp.linear_relations == ((1, 1, 0), (0, 1, 1))
    assert cp.nonfaces == ((1, 3),)
    # degree-1 basis element squares to zero classically
    assert cp.structure[1][1] == (0, 0)


def test_classical_orthants(corpus):
    for name in ("c1", "c2", "c3"):
        cp = pr.classical_presentation(corpus[name])
        assert cp.ranks[0] == 1 and cp.total_rank == 1
        assert cp.basis == ((0,) * corpus[name].nfacets,)


def test_classical_cp2(cp2):
    cp = pr.classical_presentation(cp2)
    assert cp.ranks == (1, 1, 1)
    assert cp.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    # v3^3 = 0 classically: top basis element squared falls out of range
    assert all(c == 0 for c in cp.structure[2][2])
    # v3 * v3 = v3^2
    assert cp.structure[1][1] == (0, 0, 1)


def test_classical_basis_hirzebruch_f2(corpus):
    # Over Z the greedy rule must skip v4^2: its class has index 2 in the
    # degree-2 quotient, so v3*v4 is the first free generator.  A rank test
    # over a field would pick v4^2.
    cp = pr.classical_presentation(corpus["hirzebruch_f2"])
    assert cp.ranks == (1, 2, 1)
    assert [e for e in cp.basis if sum(e) == 2] == [(0, 0, 1, 1)]


def test_classical_rank_formulas(corpus):
    for name, P in corpus.items():
        cp = pr.classical_presentation(P)
        assert cp.total_rank == len(enumerate_vertices(P)), name
        if P.dim >= 1:
            assert cp.ranks[1] == P.nfacets - P.dim, name


def test_classical_quotient_vanishes_past_dim_plus_one(corpus):
    # classical_presentation stops at degree n and certifies degree n+1 to
    # be 0; every degree from n+1 up to 2n, where products of two basis
    # elements land, is 0 over Q as well.
    rng = random.Random(23)
    randoms = [catalog.random_delzant(rng, dim, dim + 3) for dim in (2, 3, 3, 4)]
    for P in [*corpus.values(), *randoms]:
        K = topology.build_nerve(P)
        n, N = P.dim, P.nfacets
        keys = topology.SRKeys([tuple(int(k == j) for k in range(N))
                                for j in range(N)], 2 * n)
        slices = topology.sr_slices(K, keys)[n:]
        # no leads: every row; the degree-n slice comes first, with none
        walk = topology.graded_rows(slices, keys.steps, P.normals)
        next(walk)
        for d, (index, rows) in enumerate(walk, start=n + 1):
            assert linalg.rank(rows) == len(index), (P, d)


def test_classical_over_fields(o_minus_1):
    for ring in ("Q", "F2", "F5"):
        cp = pr.classical_presentation(o_minus_1, ring)
        assert cp.ranks == (1, 1, 0)
        assert cp.ring == ring
    # F_p needs a prime p, and a ring is named by a string, never a type
    for ring in ("F4", "F6", "F1", "Fx", int):
        with pytest.raises(PreconditionError):
            pr.classical_presentation(o_minus_1, ring)


def test_ring_name_needs_ascii_digits(o_minus_1):
    # str.isdigit accepts "²" (which int() cannot read) and "٣" (which it
    # reads as 3); a prime is written in ASCII digits only
    for ring in ("F²", "F٣"):
        with pytest.raises(PreconditionError):
            pr.classical_presentation(o_minus_1, ring)


def test_classical_requires_vertex():
    from toricqh import catalog
    with pytest.raises(PreconditionError):
        pr.classical_presentation(catalog.load_example("vertexless"))


def test_quantum_sr_relations(corpus):
    rels = pr.quantum_sr_relations(corpus["o_minus_1"])
    assert [str(r) for r in rels] == ["v1*v3 = T*v2"]
    assert [str(r) for r in pr.quantum_sr_relations(corpus["cp2"])] == \
        ["v1*v2*v3 = T^3"]
    assert [str(r) for r in pr.quantum_sr_relations(corpus["cp1"])] == \
        ["v1*v2 = T^2"]
    assert [str(r) for r in pr.quantum_sr_relations(corpus["cp1xcp1"])] == \
        ["v1*v2 = T^2", "v3*v4 = T^2"]
    assert all(r.height > 0 for r in pr.quantum_sr_relations(
        corpus["hirzebruch_f2"]))


def test_quantum_o_minus_1(o_minus_1):
    Q = pr.quantum_presentation(o_minus_1)
    assert len(Q.basis) == 2
    assert Q.ring == "Z"
    # E := image of v2; then E^2 = T*E exactly
    ctx = mo.monoid_for(Q.normalized)
    v2 = mo.element_from_monomial(ctx.generator(2))
    e = pr.reduce_to_basis(v2, Q)
    e_sq = pr.reduce_to_basis(v2 * v2, Q)
    t_e = [tuple([0] + list(pv)) if pv else () for pv in e]
    assert e_sq == [tuple(p) for p in t_e]
    # the quantum SR relation v1*v3 = T*v2 holds in the quotient
    v1 = mo.element_from_monomial(ctx.generator(1))
    v3 = mo.element_from_monomial(ctx.generator(3))
    assert pr.reduce_to_basis(v1 * v3, Q) == e_sq


def test_quantum_cp1(cp1):
    Q = pr.quantum_presentation(cp1)
    assert len(Q.basis) == 2
    # v^2 = T^2: the nontrivial basis element squares to T^2 * 1
    assert Q.structure[1][1][0] == (0, 0, 1)
    assert all(not Q.structure[1][1][i] for i in range(1, len(Q.basis)))


def test_quantum_cp2(cp2):
    Q = pr.quantum_presentation(cp2)
    assert len(Q.basis) == 3
    # with basis (1, v, v^2): v * v^2 = T^3, v^2 * v^2 = T^3 v
    assert Q.structure[1][2][0] == (0, 0, 0, 1)
    assert Q.structure[2][2][1] == (0, 0, 0, 1)


def test_quantum_cp1xcp1(corpus):
    Q = pr.quantum_presentation(corpus["cp1xcp1"])
    assert len(Q.basis) == 4
    degs = Q.basis_degrees
    assert sorted(degs) == [0, 1, 1, 2]
    a, b = [i for i, d in enumerate(degs) if d == 1]
    # each degree-1 class squares to T^2 * 1; the mixed product is the
    # degree-2 basis element
    assert Q.structure[a][a][0] == (0, 0, 1)
    assert Q.structure[b][b][0] == (0, 0, 1)
    top = degs.index(2)
    assert Q.structure[a][b][top] == (1,)


def test_quantum_cpn_rank_and_top_power(corpus):
    for name, n in (("cp1", 1), ("cp2", 2), ("cp3", 3)):
        Q = pr.quantum_presentation(corpus[name])
        assert len(Q.basis) == n + 1
        assert Q.verified_ranks == tuple(
            min(k + 1, n + 1) for k in range(2 * n + 1))


def test_quantum_slices_match_the_monoid_enumeration(corpus):
    # the columns are built from Stanley-Reisner monomials; the reference
    # walks the monotone monoid by its definition.  The columns run by
    # <v0, nu> for the first vertex v0, and then by nu.  Every slice of the
    # walk is checked, although the presentation eliminates only the last
    for name, P in corpus.items():
        norm = monotone_normalization(P)
        if norm is None:
            continue
        keys, _, walk = topology.vertex_rows(norm.rescaled, 2 * P.dim + 1,
                                             by_nu=True)
        v0 = enumerate_vertices(norm.rescaled)[0].point
        for k, (index, _) in enumerate(walk):
            nus = [keys.decode(key) for key in index]
            assert sorted(nus) == sorted(
                m.nu for m in mo.enumerate_gamma_degree(norm.rescaled, k)), \
                (name, k)
            assert nus == sorted(nus, key=lambda nu: (
                sum(map(mul, v0, nu)), nu)), (name, k)


def test_quantum_eliminates_one_quantum_layer(monkeypatch):
    """The classical presentation eliminates its n + 1 degrees, and the
    quantum one a single layer, at T-degree 2n + margin: the lower ones
    follow from the classical ring (``quantum_presentation``)."""
    real = pr._graded_layer
    where = []
    monkeypatch.setattr(pr, "_graded_layer",
                        lambda *args, **kw: where.append(args[4])
                        or real(*args, **kw))
    for make in (lambda: catalog.load_example("cp2"), hexagon,
                 lambda: _cube(3)):
        for margin in (0, 2):
            where.clear()
            P = make()
            Q = pr.quantum_presentation(P, margin)
            n = P.dim
            assert where == [f"the classical quotient at degree {d}"
                             for d in range(n + 1)] + [
                f"the quantum quotient at T-degree {2 * n + margin}"], where
            assert Q.layer.basis_idx == tuple(range(len(Q.basis)))
            assert not hasattr(Q, "layers")


def _relabelled_cube():
    """(CP^1)^3 in a lattice basis whose normals are far from unit vectors."""
    return polyhedron(3, [(tuple(s * x for x in nu), 3)
                          for nu in ((2, -2, 3), (5, -3, 4), (1, 0, 0))
                          for s in (1, -1)])


def _simplex(n):
    return polyhedron(n, [(tuple(int(i == j) for i in range(n)), 1)
                          for j in range(n)] + [((-1,) * n, 1)])


def _cube(n):
    """(CP^1)^n, offsets 1."""
    return polyhedron(n, [(tuple(s * int(i == j) for i in range(n)), 1)
                          for j in range(n) for s in (1, -1)])


def test_quantum_koszul_rows_span_every_row(monkeypatch):
    # Every walk the presentations make (the quantum slices and the
    # classical ones under them, which stop at degree n, as the certificate
    # of the vanishing in degree n + 1 needs no slice there) is checked
    # against the walk without leads:
    # per slice the kept rows have the rank of every row over Q and F_2,
    # and from degree 2 on there are fewer of them, wherever there are two
    # forms to skip between.
    real = topology.graded_rows
    walks = []

    def checked(slices, steps, weights, leads=()):
        slices = list(slices)
        every = real(slices, steps, weights)
        walks.append(len(slices))
        for d, ((index, rows), (_, full)) in enumerate(
                zip(real(slices, steps, weights, leads), every)):
            rows, full = list(rows), list(full)
            for p in (None, 2):
                assert linalg.rank(rows, p) == linalg.rank(full, p), (d, p)
            if d >= 2 and len(leads) >= 2:
                assert len(rows) < len(full), d
            yield index, rows

    polys = [catalog.load_example(name) for name in catalog.VALID_EXAMPLES]
    polys = [P for P in polys if monotone_normalization(P) is not None]
    polys += [_simplex(4), _relabelled_cube()]
    monkeypatch.setattr(topology, "graded_rows", checked)
    for P in polys:
        walks.clear()
        Q = pr.quantum_presentation(P)
        assert walks == [P.dim + 1, Q.degree_bound + 1], P


def _both_ways(monkeypatch, make, run):
    """``run`` on a fresh polyhedron from ``make()``, once as it is and once
    with the slices walked and eliminated up to degree n + 1, where the
    quotient is 0 (the certificate then reads a layer of dimension 0); the
    classical presentations must agree."""
    want = run(make())
    real = topology.SRKeys
    with monkeypatch.context() as m:
        m.setattr(topology, "SRKeys",
                  lambda vectors, top, *order: real(vectors, top + 1, *order))
        got = run(make())
    assert (got.ranks, got.basis, got.structure) == \
        (want.ranks, want.basis, want.structure)
    return want


def test_classical_presentation_matches_the_walk_to_degree_n_plus_1(
        monkeypatch):
    rng = random.Random(167)
    for name in catalog.VALID_EXAMPLES:
        def make():
            return catalog.load_example(name)
        _both_ways(monkeypatch, make, pr.classical_presentation)
        for ring in ("Q", "F3"):
            cp = _both_ways(monkeypatch, make,
                            lambda P: pr.classical_presentation(P, ring))
            assert cp.ring == ring
        U = linalg.random_unimodular(make().dim, rng)
        _both_ways(monkeypatch, lambda: relabel_lattice(make(), U),
                   pr.classical_presentation)


def test_classical_raises_if_degree_n_plus_1_is_not_certified(
        monkeypatch, capsys):
    """Without the rows into degree n the quotient there is the whole
    slice, not spanned by the class of Z_S, so the vanishing in degree
    n + 1 is not certified: the presentation raises, and ``classical``
    exits 4 with one error line."""
    monkeypatch.setattr(topology, "graded_rows",
                        dropping_rows_at_top(topology.graded_rows))
    for name in ("cp2", "cp3", "hirzebruch_f2", "o_minus_1"):
        P = catalog.load_example(name)
        with pytest.raises(VerificationError,
                           match=f"vanish in degree {P.dim + 1}"):
            pr.classical_presentation(P)
        path = str(resources.files("toricqh").joinpath("data", f"{name}.json"))
        code = cli.main(["--input", path, "--command", "classical"])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_relabelling_leaves_no_residual_block(monkeypatch):
    # The rows come from the first vertex's basis, so a relabelling of the
    # lattice does not change them: on the corpus and on relabellings of it
    # every integral elimination settles on unit pivots, with no residual
    # block left (the relabelled cube left one 14 times with the rows of
    # the ambient normals).  CP^4, CP^5 and (CP^1)^4 are keyed in the first
    # vertex's lead order as well.  Only the presentations are watched:
    # ``random_unimodular`` checks its own output, which may leave one.
    rng = random.Random(61)
    extra = [_relabelled_cube(), _simplex(4), _simplex(5), _cube(4)]
    polys = [catalog.load_example(name) for name in catalog.VALID_EXAMPLES]
    polys += extra
    for P in [*map(catalog.load_example, ("cp1xcp1", "cp3", "o_minus_1")),
              *extra]:
        polys += [relabel_lattice(P, linalg.random_unimodular(P.dim, rng))
                  for _ in range(3)]
    blocks, settled = [], []
    real = linalg.Eliminator.settle

    def watching(self, ncols):
        free = real(self, ncols)
        settled.append(ncols)
        blocks.extend(self.residual)
        return free

    monkeypatch.setattr(linalg.Eliminator, "settle", watching)
    for P in polys:
        pr.classical_presentation(P)
        if monotone_normalization(P) is not None:
            pr.quantum_presentation(P)
        assert not blocks, P
    assert len(settled) > len(polys)


def test_first_vertex_lead_order_needs_little_reduction(monkeypatch):
    """With the columns in the first vertex's lead order and the rows
    sorted by least column, nearly every row over Z lands on a fresh unit
    lead: the integral eliminator pops its reduction heap 0 times for CP^4
    quantum and CP^6, CP^7 classical, and at most 14,190 times for (CP^1)^4
    quantum (84,711, 82,671, 1,077,135 and 181,845 in plain exponent and
    nu order)."""
    pops = []

    def heappop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr(linalg, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop))
    for make, run, most in ((lambda: _simplex(4), pr.quantum_presentation, 0),
                            (lambda: _simplex(6), pr.classical_presentation, 0),
                            (lambda: _simplex(7), pr.classical_presentation, 0),
                            (lambda: _cube(4), pr.quantum_presentation, 14190)):
        pops.clear()
        P = make()
        run(P)
        assert len(pops) <= most, (P, len(pops))


def test_quantum_shares_the_classical_presentation(corpus):
    for name, P in corpus.items():
        if set(P.offsets) == {1}:
            assert pr.quantum_presentation(P).classical is \
                pr.classical_presentation(P), name


def test_quantum_structure_commutative_associative(corpus):
    for name in ("cp1", "cp2", "cp1xcp1", "o_minus_1"):
        Q = pr.quantum_presentation(corpus[name])
        _check_algebra_laws(Q)


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


def _table_mul(Q, coeffs_a, coeffs_b):
    """Multiply two coordinate vectors of T-polynomials through the table."""
    m = len(Q.basis)
    out = [() for _ in range(m)]
    for i in range(m):
        if not coeffs_a[i]:
            continue
        for j in range(m):
            if not coeffs_b[j]:
                continue
            factor = _poly_mul(coeffs_a[i], coeffs_b[j])
            for k in range(m):
                if Q.structure[i][j][k]:
                    out[k] = _poly_add(out[k],
                                       _poly_mul(factor, Q.structure[i][j][k]))
    return out


def _check_algebra_laws(Q):
    m = len(Q.basis)

    def unit(i):
        return [(1,) if k == i else () for k in range(m)]

    for a in range(m):
        for b in range(m):
            assert Q.structure[a][b] == Q.structure[b][a]
    for a in range(m):
        for b in range(m):
            for c in range(m):
                left = _table_mul(Q, _table_mul(Q, unit(a), unit(b)), unit(c))
                right = _table_mul(Q, unit(a), _table_mul(Q, unit(b), unit(c)))
                assert left == right, (a, b, c)


def test_quantum_t_zero_is_classical(corpus):
    for name in ("cp1", "cp2", "cp3", "cp1xcp1", "o_minus_1", "c2"):
        _assert_t_zero_is_classical(pr.quantum_presentation(corpus[name]))


def test_quantum_t_zero_is_classical_under_a_bfield(corpus):
    # the quantum slices are eliminated over Q with the units, while the
    # classical table is the plain one rescaled; on the corpus every
    # nonzero constant has e_g = e_a + e_b, so the surfaces test the factor
    rng = random.Random(433)
    units = (1, -1, 2, Fraction(1, 3), Fraction(-3, 2))
    polys = {name: P for name, P in corpus.items()
             if monotone_normalization(P) is not None}
    polys.update(hexagon=hexagon(), dp8=dp8())
    for name, P in polys.items():
        for _ in range(2):
            rho = (rng.choice(units[2:]),) + tuple(
                rng.choice(units) for _ in range(P.nfacets - 1))
            Q = pr.quantum_presentation(P, _rho=rho)
            assert Q.ring == Q.classical.ring == "Q"
            _assert_t_zero_is_classical(Q)


def _assert_t_zero_is_classical(Q):
    cp = Q.classical
    assert Q.basis == cp.basis
    m = len(Q.basis)
    for a in range(m):
        for b in range(m):
            for k in range(m):
                poly = Q.structure[a][b][k]
                constant = poly[0] if poly else 0
                assert constant == cp.structure[a][b][k]


MIRROR_CHARPOLYS = {
    "cp2": [1, 0, 0, -27],
    "cp3": [1, 0, 0, 0, -256],
    "cp1xcp1": [1, 0, -16, 0, 0],
}

# Critical points of the hexagon's mirror potential, coordinates in Q(w)
# as pairs (a, b) = a + b w for a primitive cube root of unity w:
# (1, 1), (-1, -1), (1, -1), (-1, 1), (w, w) and (w^2, w^2), w^2 = -1 - w.
# There are as many as the rank of the cohomology, so there are no others.
HEXAGON_CRITICAL_POINTS = (((1, 0), (1, 0)), ((-1, 0), (-1, 0)),
                           ((1, 0), (-1, 0)), ((-1, 0), (1, 0)),
                           ((0, 1), (0, 1)), ((-1, -1), (-1, -1)))


def c1_matrix(P):
    """The matrix at T = 1 of multiplication by c_1 = sum_j v_j on the
    quantum basis."""
    Q = pr.quantum_presentation(P)
    c1 = [0] * len(Q.basis)
    for j in range(1, P.nfacets + 1):
        for b, poly in enumerate(pr.reduce_to_basis(elem(Q.normalized, j), Q)):
            c1[b] += sum(poly)
    return [[sum(c1[b] * sum(Q.structure[b][a][g]) for b in range(len(c1)))
             for a in range(len(c1))] for g in range(len(c1))]


def poly_with_roots(roots):
    """Coefficients of prod (x - r), highest degree first, for roots r in
    Q(w); the coefficients must be rational."""
    poly = [(1, 0)]
    for r in roots:
        shifted = [(0, 0)] + [omega_mul(r, c) for c in poly]
        poly = [(a - c, b - d)
                for (a, b), (c, d) in zip(poly + [(0, 0)], shifted)]
    assert all(b == 0 for _, b in poly)
    return [a for a, _ in poly]


def mirror_charpoly(P, points):
    """prod (x - W(p)) over the points p, each checked to be critical."""
    values = []
    for p in points:
        value, derivatives = mirror_potential(P, p)
        assert derivatives == [(0, 0)] * P.dim, p
        values.append(value)
    return poly_with_roots(values)


@pytest.mark.parametrize("name", sorted([*MIRROR_CHARPOLYS, "hexagon"]))
def test_c1_multiplication_has_the_mirror_critical_values(name):
    """At T = 1 the eigenvalues of multiplication by c_1 = sum_j v_j are the
    critical values of the mirror potential sum_j x^(nu_j) (Batyrev)."""
    if name == "hexagon":
        P = hexagon()
        expected = mirror_charpoly(P, HEXAGON_CRITICAL_POINTS)
    else:
        P = catalog.load_example(name)
        expected = MIRROR_CHARPOLYS[name]
    assert charpoly(c1_matrix(P)) == expected


def test_hexagon_mirror_critical_points_in_q_omega():
    P = hexagon()
    assert len(set(HEXAGON_CRITICAL_POINTS)) == 6
    assert pr.classical_presentation(P).total_rank == 6
    values = [mirror_potential(P, p) for p in HEXAGON_CRITICAL_POINTS]
    assert [v for v, _ in values] == [(6, 0), (-2, 0), (-2, 0), (-2, 0),
                                      (-3, 0), (-3, 0)]
    assert all(d == [(0, 0), (0, 0)] for _, d in values)


def test_mirror_check_catches_a_changed_critical_value():
    P = hexagon()
    M = charpoly(c1_matrix(P))
    values = [mirror_potential(P, p)[0] for p in HEXAGON_CRITICAL_POINTS]
    assert poly_with_roots(values) == M
    for k, (a, b) in enumerate(values):
        planted = values[:k] + [(a + 1, b)] + values[k + 1:]
        assert poly_with_roots(planted) != M
    _, derivatives = mirror_potential(P, ((1, 0), (0, 1)))  # (1, w)
    assert derivatives != [(0, 0), (0, 0)]


def morse_inputs(corpus):
    """The corpus, the hexagon, dP8, three products and 40 random inputs of
    dimension 2-4, compact and not."""
    cp1, c1, o_minus_1 = (corpus[n] for n in ("cp1", "c1", "o_minus_1"))
    inputs = {**corpus, "hexagon": hexagon(), "dp8": dp8(),
              "hexagon x cp1": product(hexagon(), cp1),
              "dp8 x c1": product(dp8(), c1),
              "o_minus_1 x cp1": product(o_minus_1, cp1)}
    rng = random.Random(73)
    for i in range(40):
        dim = 2 + i % 3
        inputs[f"random {i}"] = catalog.random_delzant(rng, dim, dim + 4)
    return inputs


def test_classical_ranks_are_the_morse_count(corpus):
    """The classical ranks are the Morse count of the tests' reference and
    the nerve's h-vector, which ``classical_presentation`` checks."""
    inputs = morse_inputs(corpus)
    assert {is_compact(P) for P in inputs.values()} == {True, False}
    for name, P in inputs.items():
        h = topology.h_vector(topology.sr_hilbert_function(P, P.dim), P.dim)
        assert reference.morse_ranks(P) == \
            pr.classical_presentation(P).ranks == h, name


def test_classical_ranks_are_checked_in_every_degree(cp1, monkeypatch):
    """Planted h-vector (1, 4, 5, 5, 1) for (CP^1)^4: its total is the
    vertex count 16 and its degree-1 entry N - n = 4, as in the true
    (1, 4, 6, 4, 1), so only a check of every degree rejects the ranks."""
    def cube4():
        return product(product(cp1, cp1), product(cp1, cp1))

    assert pr.classical_presentation(cube4()).ranks == (1, 4, 6, 4, 1)
    monkeypatch.setattr(topology, "h_vector",
                        lambda hilbert, n: (1, 4, 5, 5, 1))
    with pytest.raises(VerificationError, match="h-vector"):
        pr.classical_presentation(cube4())


def test_morse_count_catches_an_off_by_one_rank(corpus):
    for name, P in morse_inputs(corpus).items():
        ranks = list(pr.classical_presentation(P).ranks)
        for d in range(len(ranks)):
            for delta in (1, -1):
                planted = ranks[:d] + [ranks[d] + delta] + ranks[d + 1:]
                assert reference.morse_ranks(P) != tuple(planted), name


def test_poincare_pairing_is_unimodular(corpus):
    polys = {name: P for name, P in corpus.items() if is_compact(P)}
    polys.update(hexagon=hexagon(), dp8=dp8())
    for name, P in polys.items():
        cp = pr.classical_presentation(P)
        assert cp.ranks[-1] == 1, name
        top = cp.basis_degrees().index(P.dim)
        pairing = [[cell[top] for cell in row] for row in cp.structure]
        assert determinant(pairing) in (1, -1), name


def test_quantum_requires_monotone(corpus):
    with pytest.raises(PreconditionError):
        pr.quantum_presentation(corpus["hirzebruch_f2"])


def test_reduce_to_basis_examples(o_minus_1):
    Q = pr.quantum_presentation(o_minus_1)
    ctx = mo.monoid_for(Q.normalized)
    one = mo.element_from_monomial(ctx.one())
    assert pr.reduce_to_basis(one, Q) == [(1,), ()]
    v1 = mo.element_from_monomial(ctx.generator(1))
    v2 = mo.element_from_monomial(ctx.generator(2))
    # v1 and v2 reduce to opposite coordinates (v1 = -v2 in the quotient)
    c1 = pr.reduce_to_basis(v1, Q)
    c2 = pr.reduce_to_basis(v2, Q)
    assert c1 == [(), (Fraction(1),)] and c2 == [(), (Fraction(-1),)] or \
        c1 == [(), (Fraction(-1),)] and c2 == [(), (Fraction(1),)]


def test_reduce_recompose_consistency(o_minus_1):
    Q = pr.quantum_presentation(o_minus_1)
    ctx = mo.monoid_for(Q.normalized)
    rng = random.Random(11)
    for _ in range(10):
        x = ctx.zero()
        for _ in range(3):
            t = [rng.randrange(0, 2) for _ in range(3)]
            m = ctx.from_exponents(t, height=rng.randrange(0, 5 - sum(t)))
            x = x + mo.element_from_monomial(m) * rng.randrange(-2, 3)
        coords = pr.reduce_to_basis(x, Q)
        y = recompose_from_basis(coords, Q)
        # the difference reduces to zero
        diff = x - y
        assert all(not p for p in pr.reduce_to_basis(diff, Q))


def test_reduce_degree_overflow(o_minus_1):
    Q = pr.quantum_presentation(o_minus_1)
    ctx = mo.monoid_for(Q.normalized)
    big = mo.element_from_monomial(ctx.t_power(Q.degree_bound + 1))
    with pytest.raises(PreconditionError):
        pr.reduce_to_basis(big, Q)


def test_coordinates_above_the_t_degree_raise(cp2):
    # a top layer naming e_1, of degree 1, where e_0 is: the unit, of
    # T-degree 0, would read as e_1 at T-power -1
    Q = pr.quantum_presentation(cp2)
    assert Q.monomial_coords(0, (0, 0)) == [(1,), (), ()]
    idx = Q.layer.basis_idx
    bad = replace(Q, layer=replace(Q.layer,
                                   basis_idx=(idx[1], idx[0], *idx[2:])))
    unit = mo.element_from_monomial(mo.monoid_for(Q.normalized).t_power(0))
    with pytest.raises(VerificationError, match="higher degree"):
        bad.monomial_coords(0, (0, 0))
    with pytest.raises(VerificationError, match="higher degree"):
        pr.reduce_to_basis(unit, bad)


def test_coordinates_keep_an_exact_coefficient(cp2):
    # an int coefficient stays an int and a fraction string is read
    # exactly; a float is refused (LIBRARY_PRECONDITIONS)
    Q = pr.quantum_presentation(cp2)
    nu = Q.normalized.normals[0]
    one = Q.monomial_coords(1, nu)
    ints = Q.monomial_coords(1, nu, -3)
    assert ints == [tuple(-3 * x for x in c) for c in one]
    assert all(type(x) is int for c in ints for x in c)
    assert Q.monomial_coords(1, nu, "1/2") == \
        [tuple(Fraction(x, 2) for x in c) for c in one]


def test_kodaira_spencer_table(o_minus_1, cp2):
    Q = pr.quantum_presentation(o_minus_1)
    table = pr.kodaira_spencer_table(Q)
    gens = table["generators"]
    # H2 is the exceptional class: a unit-coordinate image up to sign
    h2 = gens["H2"]
    assert [p for p in h2 if p] and h2[0] == ()
    assert gens["H1"] == [(), tuple(-c for c in gens["H2"][1])]
    assert gens["H3"] == gens["H1"]
    # unit row for the empty product
    assert table["basis_monomials"]["1"][0] == (1,)
    Qc = pr.quantum_presentation(cp2)
    gens = pr.kodaira_spencer_table(Qc)["generators"]
    assert gens["H1"] == gens["H2"] == gens["H3"]


def coordinate_inputs():
    """The monotone corpus, the hexagon, dP8 and CP^2 x CP^1."""
    polys = {name: P for name, P in catalog.load_valid_examples().items()
             if monotone_normalization(P) is not None}
    polys.update(hexagon=hexagon(), dp8=dp8(),
                 cp2xcp1=product(catalog.load_example("cp2"),
                                 catalog.load_example("cp1")))
    return polys


def quantum_case(P, case):
    """The quantum presentation of P plain, under the units (2, -1, 1/3)
    repeated over the facets, or with margin 1."""
    if case == "bfield":
        return pr.quantum_presentation(
            P, _rho=tuple((2, -1, Fraction(1, 3))[j % 3]
                          for j in range(P.nfacets)))
    return pr.quantum_presentation(P, margin=int(case == "margin"))


def coordinate_mismatches(case):
    """(input, part) for every part of a quantum report's coordinates that
    differs from ``reduce_to_basis`` of the filtered products: the
    Kodaira-Spencer images of the generators and the generator products."""
    out = []
    for name, P in coordinate_inputs().items():
        Q = quantum_case(P, case)
        if (pr.kodaira_spencer_table(Q)["generators"]
                != reference.kodaira_spencer_generators(Q)):
            out.append((name, "kodaira_spencer"))
        if cli._generator_products(Q) != reference.generator_products(Q):
            out.append((name, "generator_products"))
    return out


@pytest.mark.parametrize("case", ["plain", "bfield", "margin"])
def test_report_coordinates_match_reduce_to_basis(case):
    assert coordinate_mismatches(case) == []


def test_report_coordinates_catch_an_off_by_one(monkeypatch):
    # one coordinate one too large: the unit's, in T-degree k
    read = pr.QuantumPresentation.monomial_coords

    def planted(Q, k, nu, c=1):
        coords = read(Q, k, nu, c)
        coords[0] = (0,) * k + ((coords[0][-1] if coords[0] else 0) + 1,)
        return coords

    monkeypatch.setattr(pr.QuantumPresentation, "monomial_coords", planted)
    found = coordinate_mismatches("plain")
    names = set(coordinate_inputs())
    assert {name for name, part in found if part == "kodaira_spencer"} == names
    assert any(part == "generator_products" for _, part in found)


def layered_inputs():
    """``coordinate_inputs`` with CP^4, (CP^1)^3, hexagon x CP^1 and
    dP8 x CP^1."""
    polys = coordinate_inputs()
    cp1 = catalog.load_example("cp1")
    polys.update(cp4=_simplex(4), cube3=_cube(3),
                 hexxcp1=product(hexagon(), cp1), dp8xcp1=product(dp8(), cp1))
    return polys


def layered_case(P, case):
    """(margin, units) for a case: plain, margin 2, the units
    (2, -1, 1/3, 5) repeated over the facets, or the units +-1
    alternating."""
    cycle = {"bfield": (2, -1, Fraction(1, 3), 5), "signs": (1, -1)}.get(case)
    rho = cycle and tuple(cycle[j % len(cycle)] for j in range(P.nfacets))
    return 2 * (case == "margin"), rho


def layered_mismatches(case, inputs):
    """(input, part) for every part of the one-layer quantum presentation
    that differs from the per-layer reference: the verified ranks, the
    structure constants, the Kodaira-Spencer images of the generators, the
    report's generator products, and the coordinates of every monomial of
    every slice, by ``monomial_coords`` and by ``reduce_to_basis`` of all
    the monomials of the slice of each T-degree at once."""
    out = []
    for name, P in inputs.items():
        margin, rho = layered_case(P, case)
        Q = pr.quantum_presentation(P, margin, _rho=rho)
        R = reference.quantum_by_layers(P, margin, rho)
        ctx = mo.monoid_for(Q.normalized)
        got, want, reduced = [], [], []
        for k, layer in enumerate(R.layers):
            nus = [layer.keys.decode(key) for key in layer.index]
            got.extend(Q.monomial_coords(k, nu) for nu in nus)
            want.extend(R.monomial_coords(k, nu) for nu in nus)
            x = mo.FilteredElement(ctx, {ctx.monomial(k, nu): 1 + i % 3
                                         for i, nu in enumerate(nus)})
            reduced.append(pr.reduce_to_basis(x, Q) == R.reduce(x))
        for part, ours, theirs in (
                ("ranks", Q.verified_ranks, R.verified_ranks),
                ("structure", Q.structure, R.structure),
                ("kodaira_spencer",
                 pr.kodaira_spencer_table(Q)["generators"],
                 pr.kodaira_spencer_table(R)["generators"]),
                ("generator_products", cli._generator_products(Q),
                 cli._generator_products(R)),
                ("monomial_coords", got, want),
                ("reduce_to_basis", all(reduced), True)):
            if ours != theirs:
                out.append((name, part))
    return out


@pytest.mark.parametrize("case", ["plain", "margin", "bfield", "signs"])
def test_one_layer_matches_the_per_layer_reference(case):
    assert layered_mismatches(case, layered_inputs()) == []


def test_per_layer_reference_catches_planted_faults(monkeypatch):
    # one top-layer coordinate one too large, or two claimed basis elements
    # of the top layer swapped: with equal degrees the coordinates differ
    # from the reference, and with degrees 0 and 1 the degree check raises
    names = ("cp1xcp1", "hexagon", "cube3", "dp8xcp1")

    def fresh():
        return {name: layered_inputs()[name] for name in names}

    top = pr._top_coords

    def plus_one(layer, degs, k, terms):
        coords = top(layer, degs, k, terms)
        coords[0] = (0,) * k + ((coords[0][-1] if coords[0] else 0) + 1,)
        return coords

    monkeypatch.setattr(pr, "_top_coords", plus_one)
    assert {name for name, _ in layered_mismatches("plain", fresh())} == \
        set(names)
    monkeypatch.undo()
    graded = pr._graded_layer
    pair = []

    def swapped(index, keys, rows, integral, where, candidates, *args, **kw):
        if "quantum" in where:
            candidates = list(candidates)
            a, b = pair
            candidates[a], candidates[b] = candidates[b], candidates[a]
        return graded(index, keys, rows, integral, where, candidates, *args,
                      **kw)

    monkeypatch.setattr(pr, "_graded_layer", swapped)
    pair[:] = 1, 2  # e_1 and e_2 have degree 1 on these inputs
    assert {name for name, _ in layered_mismatches("plain", fresh())} == \
        set(names)
    pair[:] = 0, 1
    for name, P in fresh().items():
        with pytest.raises(VerificationError, match="higher degree"):
            layered_mismatches("plain", {name: P})


def c1_traces(Q, structure, top):
    """tr(M^k) for k = 0..top, M the matrix of multiplication at T = 1 by
    c_1, the sum of the Kodaira-Spencer images of the generators, under the
    structure constants ``structure``."""
    n = len(Q.basis)
    c1 = [0] * n
    for coords in pr.kodaira_spencer_table(Q)["generators"].values():
        for b, poly in enumerate(coords):
            c1[b] += sum(poly)
    M = [[sum(c1[b] * sum(structure[b][a][g]) for b in range(n))
          for a in range(n)] for g in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(top + 1):
        traces.append(sum(power[i][i] for i in range(n)))
        power = reference.mat_mul(M, power)
    return traces


def kunneth_mismatches(X, Y, structure=None):
    """The k <= rank + 1 at which tr(M_{XxY}^k) differs from
    sum_i C(k, i) tr(M_X^i) tr(M_Y^(k-i)), QH(X x Y) = QH(X) (x) QH(Y);
    ``structure`` replaces the product's structure constants."""
    QX, QY = pr.quantum_presentation(X), pr.quantum_presentation(Y)
    QXY = pr.quantum_presentation(product(X, Y))
    top = len(QXY.basis) + 1
    tx, ty = c1_traces(QX, QX.structure, top), c1_traces(QY, QY.structure, top)
    txy = c1_traces(QXY, structure or QXY.structure, top)
    return [k for k in range(top + 1)
            if txy[k] != sum(comb(k, i) * tx[i] * ty[k - i]
                             for i in range(k + 1))]


@pytest.mark.parametrize("x, y", [("hexagon", "cp1"), ("dp8", "cp2")])
def test_quantum_kunneth_traces(x, y):
    X = hexagon() if x == "hexagon" else dp8()
    assert kunneth_mismatches(X, catalog.load_example(y)) == []


def test_quantum_kunneth_catches_a_flipped_structure_constant():
    X, Y = hexagon(), catalog.load_example("cp1")
    Q = pr.quantum_presentation(product(X, Y))
    table = [[list(cell) for cell in row] for row in Q.structure]
    # the product of the first two degree-1 classes gains one T^0 term on
    # the first degree-2 class
    a, b = [i for i, d in enumerate(Q.basis_degrees) if d == 1][:2]
    g = Q.basis_degrees.index(2)
    cell = table[a][b][g]
    table[a][b][g] = table[b][a][g] = (cell[0] + 1,) + cell[1:] if cell else (1,)
    assert kunneth_mismatches(X, Y, table)


def test_divisor_inverse_certificates(corpus):
    cert = pr.divisor_inverse_certificate(corpus["cp1"], 1)
    assert cert.multiplicities == (1, 1) and cert.t_exponent == 2
    cert = pr.divisor_inverse_certificate(corpus["cp2"], 1)
    assert cert.multiplicities == (1, 1, 1) and cert.t_exponent == 3
    for name in ("cp1", "cp2", "cp3", "cp1xcp1", "hirzebruch_f2"):
        P = corpus[name]
        for j in range(1, P.nfacets + 1):
            cert = pr.divisor_inverse_certificate(P, j)
            assert cert.multiplicities[j - 1] >= 1
            assert cert.t_exponent == sum(
                (m * lam for m, lam in zip(cert.multiplicities, P.offsets)),
                Fraction(0))
            for i in range(P.dim):
                assert sum(m * P.normals[k][i]
                           for k, m in enumerate(cert.multiplicities)) == 0


def test_divisor_inverse_certificates_match_the_composition_search(corpus):
    # the vertex solve finds, for every facet, the vector that the plain
    # search through compositions of growing total meets first: on the
    # compact corpus, on a relabelled cube with two corners cut, and on 52
    # random compact inputs of dimension 2-4, the last twelve relabelled
    # once more.  In the cut cube facet 8 has two vectors of total 4, and
    # the certificate (0, 1, 1, 0, 1, 0, 0, 1) is the one of larger free
    # sum: a search stopping once every facet has some vector returns the
    # other, (0, 2, 0, 0, 0, 0, 1, 1).
    cut_cube = polyhedron(3, [
        ((0, 0, 1), 1), ((0, 0, -1), 1), ((0, 1, 1), 1), ((0, -1, -1), 1),
        ((-1, -2, -2), 1), ((1, 2, 2), 1), ((-1, -1, 0), Fraction(7, 3)),
        ((1, 1, 2), Fraction(7, 3))])
    assert pr.divisor_inverse_certificate(cut_cube, 8).multiplicities == \
        (0, 1, 1, 0, 1, 0, 0, 1)
    rng = random.Random(4242)
    randoms = []
    for dim, facets in [(d, d + 4) for d in (2, 3, 4)] * 14 + [(3, 8)] * 10:
        P = catalog.random_delzant(rng, dim, facets)
        while not is_compact(P):
            P = catalog.random_delzant(rng, dim, facets)
        randoms.append(P)
    randoms[40:] = [relabel_lattice(P, linalg.random_unimodular(P.dim, rng))
                    for P in randoms[40:]]
    polys = [P for P in corpus.values() if is_compact(P)] + [cut_cube]
    polys += randoms
    for P in polys:
        for j in range(1, P.nfacets + 1):
            cert = pr.divisor_inverse_certificate(P, j)
            assert cert.multiplicities == inverse_multiplicities(P, j), (P, j)


def test_inverse_exponent_matches_the_fraction_sum(corpus):
    # t_exponent, one Fraction over the integer offsets, equals the sum of
    # m_k * lambda_k in Fractions: on the compact corpus, on 40 compact
    # random inputs (some with non-integer offsets) and on CP^4 with its
    # last vertex cut three times at 1/3.
    nested = polyhedron(4, [(tuple(int(i == k) for i in range(4)), 1)
                            for k in range(4)] + [((-1, -1, -1, -1), 1)])
    for _ in range(3):
        nested = catalog.blow_up(nested, len(enumerate_vertices(nested)) - 1,
                                 Fraction(1, 3))
    rng = random.Random(77)
    randoms = [catalog.random_delzant(rng, 2 + t % 3, 7, allow_noncompact=False)
               for t in range(40)]
    assert all(is_compact(P) for P in randoms)
    assert any(lam.denominator > 1 for P in randoms for lam in P.offsets)
    polys = [P for P in corpus.values() if is_compact(P)] + randoms + [nested]
    assert nested.nfacets == 8
    for P in polys:
        for j in range(1, P.nfacets + 1):
            cert = pr.divisor_inverse_certificate(P, j)
            assert cert.t_exponent == sum(
                (m * lam for m, lam in zip(cert.multiplicities, P.offsets)),
                Fraction(0)), (P, j)
            assert type(cert.t_exponent) is Fraction


def test_divisor_inverse_certificate_checks_the_multiplicities(
        cp2, monkeypatch):
    # The identity is checked on m itself: a vector with sum m_k nu_k != 0,
    # one with a negative entry and one with m_j = 0 are each refused.
    for vector in [(1, 0, 0), (2, -1, 1), (0, 1, 1)]:
        monkeypatch.setattr(pr, "_inverse_multiplicities",
                            lambda P, m=vector: [m] * P.nfacets)
        with pytest.raises(VerificationError, match="failed to verify"):
            pr.divisor_inverse_certificate(cp2, 1)


def test_divisor_inverse_certificate_builds_no_cone_monoid(corpus,
                                                           monkeypatch):
    monkeypatch.setattr(pr, "monoid_for", None)
    for name in ("cp1", "cp2", "cp3", "cp1xcp1", "hirzebruch_f2"):
        P = corpus[name]
        for j in range(1, P.nfacets + 1):
            pr.divisor_inverse_certificate(P, j)


def test_divisor_inverse_noncompact_rejected(corpus):
    for name in ("c1", "c2", "c3", "o_minus_1"):
        with pytest.raises(PreconditionError, match="not compact"):
            pr.divisor_inverse_certificate(corpus[name], 1)


def test_bfield_trivial(o_minus_1):
    rep = pr.apply_bfield(o_minus_1, [1, 1, 1])
    plain = pr.classical_presentation(o_minus_1)
    assert rep.classical.structure == plain.structure
    assert rep.ring == "Z"
    assert [str(r) for r in rep.deformed_relations] == ["v1*v3 = T*v2"]


def test_bfield_rescales_relation(o_minus_1):
    rep = pr.apply_bfield(o_minus_1, [2, 1, 1])
    assert rep.ring == "Q"
    assert [str(r) for r in rep.deformed_relations] == ["v1*v3 = 2*T*v2"]
    assert rep.classical.ranks == (1, 1, 0)


def test_bfield_signs_over_z(o_minus_1):
    rep = pr.apply_bfield(o_minus_1, [-1, -1, -1])
    assert rep.ring == "Z"
    assert rep.classical.ranks == (1, 1, 0)
    assert rep.quantum is not None


def p_o_plus_o2():
    """P(O + O(2)) over the projective plane, every offset 1."""
    return polyhedron(3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((-1, -1, 2), 1),
                          ((0, 0, 1), 1), ((0, 0, -1), 1)])


def test_bfield_keeps_the_plain_basis(corpus):
    # over Q a greedy pick would take v4 where Z needs v3; the rescaled
    # quotients share the basis picked over Z
    P = p_o_plus_o2()
    rep = pr.apply_bfield(P, (2, 1, 1, 1, 1))
    names = ("1", "v5", "v3", "v3*v5", "v3^2", "v3^2*v5")
    assert rep.classical.basis_names() == names
    assert rep.quantum.basis_names() == names
    F2 = corpus["hirzebruch_f2"]
    rep = pr.apply_bfield(F2, (2, 1, 1, 1))
    assert rep.classical.basis == pr.classical_presentation(F2).basis


def test_bfield_rejects_zero(o_minus_1):
    with pytest.raises(PreconditionError):
        pr.apply_bfield(o_minus_1, [0, 1, 1])


def test_bfield_classical_is_an_elimination_over_q(corpus):
    # on the corpus only hirzebruch_f2 has a constant with e_g != e_a + e_b
    rng = random.Random(27)
    units = (1, -1, 2, Fraction(1, 3), Fraction(-3, 2))
    for name, P in dict(corpus, hexagon=hexagon(), dp8=dp8()).items():
        plain = pr.classical_presentation(P)
        N = P.nfacets
        for rho in ((-1,) * N, tuple(units[j % 5] for j in range(N)),
                    tuple(rng.choice(units) for _ in range(N))):
            rep = pr.apply_bfield(P, rho)
            cp = rep.classical
            assert rep.ring == cp.ring == \
                ("Z" if all(r in (1, -1) for r in rho) else "Q"), name
            assert (cp.ranks, cp.basis) == (plain.ranks, plain.basis), name
            assert cp.linear_relations == tuple(
                tuple(nu[i] * r for nu, r in zip(P.normals, rho))
                for i in range(P.dim)), name
            assert cp.structure == deformed_classical_structure(
                P, tuple(map(Fraction, rho))), (name, rho)


BFIELD_ENTRY_POINTS = {
    "quantum": lambda P, rho: pr.quantum_presentation(P, _rho=rho),
    "apply_bfield": pr.apply_bfield,
    "jacobian": lambda P, rho: jacobian_freeness(P, rho=rho),
}


@pytest.mark.parametrize("entry", sorted(BFIELD_ENTRY_POINTS))
@pytest.mark.parametrize("rho", [(2,), (2, 1, 1, 1), (0.5, 1, 1),
                                 (True, 1, 1), (0, 1, 1)],
                         ids=["short", "long", "float", "bool", "zero"])
def test_bfield_units_follow_one_rule(entry, rho):
    # one exact nonzero entry per facet, whichever entry point reads them;
    # an equal exact rho computed before does not let an inexact one in
    P = catalog.load_example("cp2")
    run = BFIELD_ENTRY_POINTS[entry]
    run(P, (1, 1, 1))
    with pytest.raises(PreconditionError):
        run(P, rho)


def test_basis_independence_audit(corpus):
    for name in ("o_minus_1", "cp2", "hirzebruch_f2"):
        report = pr.basis_independence_audit(corpus[name], seed=3, trials=2)
        assert report.passed, report.details


def test_quantum_cp1xcp1_full_table(corpus):
    # hand-derived ring: Z[T, a, b] / (a^2 - T^2, b^2 - T^2) with basis
    # {1, a, b, ab}; all sixteen products follow
    Q = pr.quantum_presentation(corpus["cp1xcp1"])
    degs = Q.basis_degrees
    one = degs.index(0)
    a, b = [i for i, d in enumerate(degs) if d == 1]
    ab = degs.index(2)

    def entry(i, j):
        return Q.structure[i][j]

    t2 = (0, 0, 1)
    t4 = (0, 0, 0, 0, 1)
    # squares
    assert entry(a, a)[one] == t2 and not any(entry(a, a)[k] for k in (a, b, ab))
    assert entry(b, b)[one] == t2
    assert entry(ab, ab)[one] == t4 and not any(
        entry(ab, ab)[k] for k in (a, b, ab))
    # mixed degree-1 product is the top class
    assert entry(a, b)[ab] == (1,) and not any(
        entry(a, b)[k] for k in (one, a, b))
    # top class times a degree-1 class: T^2 times the other one
    assert entry(ab, a)[b] == t2 and not any(
        entry(ab, a)[k] for k in (one, a, ab))
    assert entry(ab, b)[a] == t2


def test_del_pezzo_one_full_pipeline():
    # blowup of the projective plane at a torus-fixed point, monotone offsets
    from toricqh.polyhedra import polyhedron
    P = polyhedron(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1)])
    cp = pr.classical_presentation(P)
    assert cp.ranks == (1, 2, 1)
    assert cp.total_rank == 4
    rels = pr.quantum_sr_relations(P)
    assert [str(r) for r in rels] == ["v1*v2 = T*v4", "v3*v4 = T^2"]
    Q = pr.quantum_presentation(P)
    assert len(Q.basis) == 4
    assert Q.verified_ranks == (1, 3, 4, 4, 4)
    # exceptional class: v4 reduces to a plain basis element
    ctx = mo.monoid_for(Q.normalized)
    v4 = mo.element_from_monomial(ctx.generator(4))
    coords = pr.reduce_to_basis(v4, Q)
    assert sum(1 for p in coords if p) == 1


# Planted faults: each error path of the presentations, in the library and
# through the command line, which prints one error line and exits 4.

def _failing_cli(capsys, name, command):
    """The error line of ``command`` on the corpus file ``name``, which
    must exit 4 with no report."""
    path = str(resources.files("toricqh").joinpath("data", f"{name}.json"))
    code = cli.main(["--input", path, "--command", command])
    out, err = capsys.readouterr()
    assert (code, out) == (4, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_torsion_in_a_graded_quotient_is_an_error(monkeypatch, capsys):
    # twice every linear form: the degree-1 quotient gains Z/2 summands
    real = topology.graded_rows

    def doubled(*args):
        for d, (index, rows) in enumerate(real(*args)):
            if d == 1:
                rows = ({c: 2 * v for c, v in row.items()} for row in rows)
            yield index, rows

    monkeypatch.setattr(topology, "graded_rows", doubled)
    message = "torsion in the classical quotient at degree 1"
    with pytest.raises(VerificationError, match=message):
        pr.classical_presentation(catalog.load_example("cp2"))
    assert message in _failing_cli(capsys, "cp2", "classical")


def test_a_slice_without_a_basis_is_an_error(monkeypatch, capsys):
    # the greedy basis loses its last class, and the claimed quantum basis
    # loses its last element
    real_extend, real_layer = linalg.extend_to_basis, pr._graded_layer

    def losing_the_last(*args):
        kept, inverse = real_extend(*args)
        return kept[:-1], inverse

    with monkeypatch.context() as m:
        m.setattr(linalg, "extend_to_basis", losing_the_last)
        message = ("the slice monomials hold no basis of the classical "
                   "quotient at degree 0 (rank 1)")
        with pytest.raises(VerificationError, match=re.escape(message)):
            pr.classical_presentation(catalog.load_example("cp2"))
        assert message in _failing_cli(capsys, "cp2", "classical")

    def short_claim(index, keys, rows, integral, where, candidates,
                    claimed=False, first_idx=0):
        if claimed:
            candidates = candidates[:-1]
        return real_layer(index, keys, rows, integral, where, candidates,
                          claimed, first_idx)

    monkeypatch.setattr(pr, "_graded_layer", short_claim)
    message = ("the claimed monomials hold no basis of the quantum quotient "
               "at T-degree 4 (rank 3)")
    with pytest.raises(VerificationError, match=re.escape(message)):
        pr.quantum_presentation(catalog.load_example("cp2"))
    assert message in _failing_cli(capsys, "cp2", "quantum")


def test_a_fractional_coefficient_over_z_is_an_error(monkeypatch, capsys):
    real = pr.QuotientLayer.coords
    monkeypatch.setattr(pr.QuotientLayer, "coords", lambda self, vec: {
        g: Fraction(c, 2) for g, c in real(self, vec).items()})
    message = "non-integral coefficient 1/2 over Z"
    with pytest.raises(VerificationError, match=message):
        pr.classical_presentation(catalog.load_example("cp2"))
    assert message in _failing_cli(capsys, "cp2", "classical")
    assert pr._coerce_ring(Fraction(4, 2), "Z") == 2


def test_a_quantum_relation_of_height_zero_is_an_error(monkeypatch, capsys):
    # every height comes out 0
    real = mo.ConeMonoid.decompose
    monkeypatch.setattr(mo.ConeMonoid, "decompose",
                        lambda self, c: (Fraction(0), real(self, c)[1]))
    message = ("nonface (1, 2, 3) produced height 0; expected a strictly "
               "positive height")
    with pytest.raises(VerificationError, match=re.escape(message)):
        pr.quantum_sr_relations(catalog.load_example("cp2"))
    assert message in _failing_cli(capsys, "cp2", "quantum")


def test_a_facet_without_a_certificate_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(pr, "_inverse_multiplicities",
                        lambda P: (None,) * P.nfacets)
    message = "no inverse certificate found for facet 1 within the search"
    with pytest.raises(VerificationError, match=message):
        pr.divisor_inverse_certificate(catalog.load_example("cp2"), 1)
    assert message in _failing_cli(capsys, "cp2", "invert")


def _audit_report(capsys):
    path = str(resources.files("toricqh").joinpath("data", "cp2.json"))
    code = cli.main(["--input", path, "--command", "audit", "--format",
                     "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    report = json.loads(out)["basis_independence"]
    assert report["passed"] is False
    return report["details"]


def test_audit_reports_a_presentation_that_moves(monkeypatch, capsys):
    """An audit trial fails when the classical presentation of the
    relabelled polyhedron changes (planted: the relabelling returns
    CP^1 x CP^1), and, with the classical one intact, when the quantum one
    does (planted: every quantum presentation after the first has its
    table dropped); ``audit`` then exits 4."""
    with monkeypatch.context() as m:
        m.setattr(pr, "relabel_lattice",
                  lambda P, U: catalog.load_example("cp1xcp1"))
        report = pr.basis_independence_audit(catalog.load_example("cp2"))
        assert not report.passed and report.trials == 3
        assert all(line.startswith(f"trial {t}: classical presentation "
                                   f"changed under relabeling [[")
                   for t, line in enumerate(report.details))
        assert report.details == tuple(_audit_report(capsys))

    real, calls = pr.quantum_presentation, []

    def moving(P, *args, **kwargs):
        calls.append(P)
        Q = real(P, *args, **kwargs)
        return Q if len(calls) == 1 else replace(Q, structure=())

    for run in (lambda: pr.basis_independence_audit(
            catalog.load_example("cp2")).details, lambda: _audit_report(capsys)):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(pr, "quantum_presentation", moving)
            details = run()
        assert len(details) == 3
        assert all(line.startswith(f"trial {t}: quantum presentation "
                                   f"changed under relabeling [[")
                   for t, line in enumerate(details))


def test_relation_text_writes_a_minus_one_as_a_sign(o_minus_1):
    # rho = (-1, 1, 1) puts -1 on v1*v3 = T*v2: a sign, never "-1*"
    rep = pr.apply_bfield(o_minus_1, [-1, 1, 1])
    assert [str(r) for r in rep.deformed_relations] == ["v1*v3 = -T*v2"]
    rel = pr.QuantumSRRelation((1, 2), Fraction(2), (0, 0), Fraction(-1))
    assert str(rel) == "v1*v2 = -T^2"
    assert str(replace(rel, height=Fraction(0))) == "v1*v2 = -1"
    assert str(replace(rel, coefficient=Fraction(2, 3))) == "v1*v2 = 2/3*T^2"
    assert str(replace(rel, coefficient=Fraction(1))) == "v1*v2 = T^2"


def test_certificate_text_takes_the_t_power_of_a_monomial():
    for exponent, power in ((1, "T"), (3, "T^3"), (Fraction(3, 2), "T^(3/2)")):
        cert = pr.InverseCertificate(2, (1, 2, 0), Fraction(exponent))
        assert str(cert) == f"v1*v2^2 = {power}"
