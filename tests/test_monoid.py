import itertools
import random
from fractions import Fraction

import pytest

import reference
from toricqh import catalog
from toricqh import monoid as mo
from toricqh.errors import LatticeError, PreconditionError
from toricqh.polyhedra import enumerate_vertices, polyhedron


def brute_force_intersecting_decompositions(P, lam, nu):
    """Every intersecting decomposition of (lam, nu) with integer exponents,
    found by exhaustive search.  Independent oracle for the canonical one."""
    N = P.nfacets
    bounds = [int(lam / P.offsets[j]) for j in range(N)]
    found = []
    for t in itertools.product(*(range(b + 1) for b in bounds)):
        weight = sum((tj * lamj for tj, lamj in zip(t, P.offsets)), Fraction(0))
        if weight > lam:
            continue
        if tuple(sum(tj * P.normals[j][i] for j, tj in enumerate(t))
                 for i in range(P.dim)) != tuple(nu):
            continue
        support = {j + 1 for j, tj in enumerate(t) if tj}
        if support and not any(support <= v.incident
                               for v in enumerate_vertices(P)):
            continue
        found.append((lam - weight, t))
    return found


def test_theta_values(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v_a = next(v for v in ctx.vertices if v.point == (-1, 0))
    assert mo.theta(v_a, (Fraction(2), (1, 1))) == 1
    # theta of (1, 0) is 1 at every vertex
    for v in ctx.vertices:
        assert mo.theta(v, (Fraction(1), (0, 0))) == 1
    # theta of (lambda_j, nu_j) vanishes at vertices on the facet
    for v in ctx.vertices:
        for j in v.incident:
            assert mo.theta(v, (o_minus_1.offset(j), o_minus_1.normal(j))) == 0


def test_theta_linear(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    rng = random.Random(3)
    for _ in range(50):
        c1 = (Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)),
              (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        c2 = (Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)),
              (rng.randrange(-3, 4), rng.randrange(-3, 4)))
        total = (c1[0] + c2[0], tuple(a + b for a, b in zip(c1[1], c2[1])))
        for v in ctx.vertices:
            assert mo.theta(v, total) == mo.theta(v, c1) + mo.theta(v, c2)


def test_heights(o_minus_1, cp2):
    assert mo.height(o_minus_1, (Fraction(2), (1, 1))) == 1
    for j in range(1, 4):
        assert mo.height(o_minus_1,
                         (o_minus_1.offset(j), o_minus_1.normal(j))) == 0
    assert mo.height(cp2, (Fraction(3), (0, 0))) == 3


def test_cone_membership(o_minus_1):
    assert mo.cone_membership(o_minus_1, (Fraction(1), (0, 0)))
    assert not mo.cone_membership(o_minus_1, (Fraction(0), (-1, 0)))
    for j in range(1, 4):
        assert mo.cone_membership(
            o_minus_1, (o_minus_1.offset(j), o_minus_1.normal(j)))
    # non-negative thetas but nu outside the normal cone
    assert not mo.cone_membership(o_minus_1, (Fraction(5), (-1, 0)))


@pytest.mark.parametrize("c", [
    (1, ()), (Fraction(1), (0, 0, 0)), (0.1, (0, 0)), (1.0, (0, 0)),
    (True, (0, 0)), (False, (1, 0)), (1, (0.5, 0)), (2, (1.0, 1)),
    (1, (True, 0))],
    ids=["short_nu", "long_nu", "float", "integral_float", "true", "false",
         "float_in_nu", "integral_float_in_nu", "bool_in_nu"])
def test_cone_api_rejects_inexact_or_wrong_length(o_minus_1, c):
    # A fresh monoid, and the session-wide one with a warm cache: a nu with
    # an integral float or a bool equals a cached key, (1, (True, 0)) that
    # of (1, (1, 0)), so ``monomial`` checks nu before the lookup.
    warm = mo.monoid_for(o_minus_1)
    for lam, nu in ((1, (1, 0)), (2, (1, 1)), (0, (0, 0))):
        warm.monomial(lam, nu)
    for ctx in (mo.ConeMonoid(o_minus_1), warm):
        calls = [lambda: mo.cone_membership(o_minus_1, c),
                 lambda: mo.height(o_minus_1, c),
                 lambda: mo.intersecting_sum(o_minus_1, c),
                 lambda: mo.theta(ctx.vertices[0], c),
                 lambda: ctx.monomial(*c)]
        for call in calls:
            with pytest.raises(PreconditionError):
                call()
        with pytest.raises(PreconditionError):
            ctx.t_power(0.5)


def test_intersecting_sum_examples(o_minus_1, cp2):
    s, t = mo.intersecting_sum(o_minus_1, (Fraction(2), (1, 1)))
    assert (s, t) == (1, (0, 1, 0))  # v1*v3 = T*v2
    s, t = mo.intersecting_sum(o_minus_1, (Fraction(1), (1, 1)))
    assert (s, t) == (0, (0, 1, 0))
    s, t = mo.intersecting_sum(cp2, (Fraction(3), (0, 0)))
    assert (s, t) == (3, (0, 0, 0))


def test_intersecting_sum_rejects_outside():
    P = polyhedron(1, [((1,), 1)])
    with pytest.raises(PreconditionError):
        mo.intersecting_sum(P, (Fraction(0), (-1,)))


def test_lattice_failure_on_non_delzant():
    P = polyhedron(2, [((1, 0), 1), ((1, 2), 1)])
    # (lam, nu) in the cone but with a fractional expression at the bad vertex
    with pytest.raises((LatticeError, PreconditionError)):
        mo.intersecting_sum(P, (Fraction(1), (1, 1)))


@pytest.mark.parametrize("name", ["o_minus_1", "cp2", "cp1xcp1",
                                  "hirzebruch_f2"])
def test_intersecting_sum_uniqueness_brute_force(name, corpus):
    P = corpus[name]
    ctx = mo.monoid_for(P)
    rng = random.Random(name)
    for _ in range(100):
        t = [rng.randrange(0, 3) for _ in range(P.nfacets)]
        s = Fraction(rng.randrange(0, 5), rng.choice([1, 2]))
        lam = s + sum((tj * lamj for tj, lamj in zip(t, P.offsets)), Fraction(0))
        nu = tuple(sum(tj * P.normals[j][i] for j, tj in enumerate(t))
                   for i in range(P.dim))
        cands = brute_force_intersecting_decompositions(P, lam, nu)
        # fractional heights shift s but not t, so demand exactly one
        assert len(cands) == 1
        s_found, t_found = cands[0]
        assert (s_found, tuple(t_found)) == ctx.decompose((lam, nu))


@pytest.mark.parametrize("name", ["o_minus_1", "cp2", "cp1xcp1"])
def test_height_superadditive(name, corpus):
    P = corpus[name]
    ctx = mo.monoid_for(P)
    rng = random.Random(42)
    for _ in range(1000):
        pair = []
        for _ in range(2):
            t = [rng.randrange(0, 3) for _ in range(P.nfacets)]
            s = Fraction(rng.randrange(0, 4))
            m = ctx.from_exponents(t, height=s)
            pair.append(m)
        a, b = pair
        assert (a * b).height >= a.height + b.height


def test_height_zero_iff_intersecting_support(corpus):
    for P in corpus.values():
        vs = enumerate_vertices(P)
        for k in range(1, P.nfacets + 1):
            for J in itertools.combinations(range(1, P.nfacets + 1), k):
                lam = sum((P.offset(j) for j in J), Fraction(0))
                nu = tuple(sum(P.normal(j)[i] for j in J)
                           for i in range(P.dim))
                h = mo.height(P, (lam, nu))
                intersecting = any(set(J) <= v.incident for v in vs)
                assert (h == 0) == intersecting


def test_monomial_identity_is_lam_nu(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v1, v2, v3 = ctx.generators()
    prod = v1 * v3
    t_v2 = ctx.t_power(1) * v2
    assert prod == t_v2  # same point of the monoid, different factorizations
    assert prod.exponents == (0, 1, 0)
    assert prod.height == 1


def test_ring_axioms(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v1, v2, v3 = (mo.element_from_monomial(g) for g in ctx.generators())
    one = mo.element_from_monomial(ctx.one())
    x = v1 + v2
    assert x * one == x
    assert (v1 + v2) * (v1 - v2) == v1 * v1 - v2 * v2
    assert (v1 * v3).terms == {ctx.monomial(Fraction(2), (1, 1)): Fraction(1)}
    assert mo.multiply(v1, v3) == v1 * v3


def test_truncate(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v1, v2, v3 = (mo.element_from_monomial(g) for g in ctx.generators())
    x = v1 * v3 + v2
    assert mo.truncate(x, 1) == v2
    assert mo.truncate(x, 100) == x
    t = mo.element_from_monomial(ctx.t_power(1))
    assert mo.truncate(t, 1).is_zero()
    assert mo.truncate(mo.truncate(x, 1), 1) == mo.truncate(x, 1)


@pytest.mark.parametrize("seed", range(4))
def test_truncate_is_ring_congruence(seed, o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    rng = random.Random(seed)
    g = Fraction(rng.randrange(1, 4))

    def rand_elt():
        out = ctx.zero()
        for _ in range(rng.randrange(1, 4)):
            t = [rng.randrange(0, 2) for _ in range(3)]
            m = ctx.from_exponents(t, height=Fraction(rng.randrange(0, 3)))
            out = out + mo.element_from_monomial(m) * rng.randrange(-3, 4)
        return out

    for _ in range(25):
        x, y = rand_elt(), rand_elt()
        lhs = mo.truncate(x * y, g)
        rhs = mo.truncate(mo.truncate(x, g) * mo.truncate(y, g), g)
        assert lhs == rhs


def test_gamma_membership_variants(o_minus_1):
    for j in range(1, 4):
        assert mo.gamma_r_membership(
            o_minus_1, (o_minus_1.offset(j), o_minus_1.normal(j)))
    # monotone monoid needs integral T-weight
    assert not mo.monotone_gamma_membership(o_minus_1, (Fraction(1, 2), (1, 0)))
    assert mo.monotone_gamma_membership(o_minus_1, (Fraction(1), (1, 0)))
    # (0, nu_1) is not expressible
    assert not mo.cone_membership(o_minus_1, (Fraction(0), (1, 0)))
    hm = mo.build_height_monoid(o_minus_1, [], Fraction(5, 2))
    assert mo.gamma_membership(o_minus_1, (Fraction(2), (1, 1)), hm)
    assert not mo.gamma_membership(o_minus_1, (Fraction(5, 2), (1, 1)), hm)


def test_height_monoid_o_minus_1(o_minus_1):
    hm = mo.build_height_monoid(o_minus_1, [], Fraction(5, 2))
    assert hm.elements == (0, 1, 2)


def test_height_monoid_element_set_is_built_once(o_minus_1):
    hm = mo.build_height_monoid(o_minus_1, [], Fraction(5, 2))
    assert hm.element_set is hm.element_set
    assert hm.element_set == frozenset(hm.elements)
    # the cached set is no field: equality and hashing see the fields only
    other = mo.build_height_monoid(o_minus_1, [], Fraction(5, 2))
    assert other == hm and hash(other) == hash(hm)


def test_height_monoid_tiny_cutoff(cp2):
    hm = mo.build_height_monoid(cp2, [], Fraction(1, 10))
    assert hm.elements == (0,)


def test_height_monoid_cp1_with_extra(cp1):
    hm = mo.build_height_monoid(cp1, [Fraction(1, 2)], 2)
    assert hm.elements == (0, Fraction(1, 2), 1, Fraction(3, 2))


def test_height_generators_are_the_vertex_thetas(corpus):
    rng = random.Random(71)
    randoms = []
    while len(randoms) < 20:
        P = catalog.random_delzant(rng, 2 + len(randoms) % 2, 6)
        if any(lam.denominator > 1 for lam in P.offsets):
            randoms.append(P)
    for P in [*corpus.values(), *randoms]:
        thetas = {mo.theta(v, (lam, nu)) for v in enumerate_vertices(P)
                  for lam, nu in zip(P.offsets, P.normals)}
        hm = mo.build_height_monoid(P, [], Fraction(1, 2))
        assert hm.generators == tuple(sorted(thetas))


def test_height_levels_match_the_fraction_walk(corpus):
    # the integer walk over one common denominator gives the generators
    # and levels of the walk on Fractions
    rng = random.Random(393)
    randoms = [catalog.random_delzant(rng, 1 + i % 3, 7) for i in range(40)]
    cutoffs = (Fraction(1, 2), 1, 2, 3, Fraction(7, 3))
    for P in [*corpus.values(), *randoms]:
        for extra in ((), (Fraction(1, 3), Fraction(5, 2))):
            for g in cutoffs:
                hm = mo.build_height_monoid(P, extra, g)
                assert (hm.generators, hm.elements) == \
                    reference.height_levels(P, extra, g), (P, extra, g)
                assert all(type(x) is Fraction
                           for x in (*hm.generators, *hm.elements))


def test_height_monoid_rejects_negative(cp1):
    with pytest.raises(PreconditionError):
        mo.build_height_monoid(cp1, [Fraction(-1)], 1)


def test_enumerate_gamma_degree(o_minus_1, cp1):
    assert [m.nu for m in mo.enumerate_gamma_degree(o_minus_1, 0)] == [(0, 0)]
    k1 = {m.nu for m in mo.enumerate_gamma_degree(o_minus_1, 1)}
    assert k1 == {(0, 0), (1, 0), (1, 1), (0, 1)}
    k2 = [m.nu for m in mo.enumerate_gamma_degree(cp1, 2)]
    assert k2 == [(-2,), (-1,), (0,), (1,), (2,)]


def test_enumerate_gamma_degree_requires_monotone():
    P = polyhedron(1, [((1,), 2)])
    with pytest.raises(PreconditionError):
        mo.enumerate_gamma_degree(P, 1)


def test_log_derivative(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v1, v2, v3 = (mo.element_from_monomial(g) for g in ctx.generators())
    W = v1 + v2 + v3
    outs = mo.log_derivative_generators(W)
    assert outs[0] == v1 + v2
    assert outs[1] == v2 + v3
    t = mo.element_from_monomial(ctx.t_power(1))
    assert all(x.is_zero() for x in mo.log_derivative_generators(t))


def test_log_derivative_square(cp1):
    ctx = mo.monoid_for(cp1)
    v1 = mo.element_from_monomial(ctx.generator(1))
    (out,) = mo.log_derivative_generators(v1 * v1)
    assert out == (v1 * v1) * 2


def test_log_derivative_matches_weighted_sum(o_minus_1):
    # a structured superpotential with declared multiplicities: W_j collects
    # each monomial scaled by its j-th exponent
    ctx = mo.monoid_for(o_minus_1)
    rng = random.Random(5)
    terms = {}
    mults = {}
    for _ in range(4):
        t = tuple(rng.randrange(0, 3) for _ in range(3))
        m = ctx.from_exponents(t)
        terms[m] = Fraction(rng.randrange(1, 5))
        mults[m] = t
    W = ctx.element(terms)
    parts = [ctx.element({m: c * mults[m][j] for m, c in terms.items()})
             for j in range(3)]
    expected = [ctx.zero(), ctx.zero()]
    for j in range(3):
        for i in range(2):
            expected[i] = expected[i] + parts[j] * o_minus_1.normals[j][i]
    outs = mo.log_derivative_generators(W)
    assert outs == expected


def test_serialization_round_trip(o_minus_1):
    ctx = mo.monoid_for(o_minus_1)
    v1, v2, v3 = (mo.element_from_monomial(g) for g in ctx.generators())
    x = v1 * v3 * Fraction(7, 3) - v2 * 2 + mo.element_from_monomial(
        ctx.t_power(Fraction(5, 2)))
    data = mo.filtered_to_json(x)
    # sorted by (height, lex nu)
    assert [d["lambda"] for d in data] == ["1", "2", "5/2"]
    y = mo.filtered_from_json(ctx, data)
    assert y == x
    assert mo.filtered_to_json(y) == data


def test_signed_sum_writes_each_term_once():
    assert mo.signed_sum([]) == mo.signed_sum([(0, "v1")]) == "0"
    assert mo.signed_sum([(1, "1")]) == "1"
    assert mo.signed_sum([(-1, "1")]) == "-1"
    assert mo.signed_sum([(2, "1"), (0, "v1"), (-1, "v2"),
                          (Fraction(-1, 3), "T*v3"), (1, "v4")]) == \
        "2 - v2 - 1/3*T*v3 + v4"
    assert mo.signed_sum([(-2, "v1"), (Fraction(5, 2), "1")]) == "-2*v1 + 5/2"


def test_filtered_element_text_writes_a_constant_as_its_value(cp2):
    # a constant term is its coefficient, never "2*1"
    ctx = mo.monoid_for(cp2)
    one, T, v1 = ctx.one(), ctx.t_power(1), ctx.generator(1)
    assert str(ctx.element({one: 2})) == "2"
    assert str(ctx.element({one: -1})) == "-1"
    assert str(ctx.element({one: Fraction(-3, 2)})) == "-3/2"
    assert str(ctx.element({one: 2, T: -1, v1: 3})) == "2 + 3*v1 - T"
    assert str(ctx.zero()) == "0"


def test_filtered_element_leaves_zero_coefficients_out(cp2):
    # a zero coefficient makes no term: the element is the zero element,
    # of no height, and writes no term
    ctx = mo.monoid_for(cp2)
    one, T = ctx.one(), ctx.t_power(1)
    zero = mo.FilteredElement(ctx, {one: 0})
    assert zero.is_zero() and zero.height() is None and zero == ctx.zero()
    assert mo.filtered_to_json(zero) == [] and str(zero) == "0"
    assert mo.filtered_from_json(
        ctx, [{"lambda": "0", "nu": [0, 0], "coeff": "0"}]) == zero
    x = mo.FilteredElement(ctx, {one: Fraction(0), T: Fraction(3, 2)})
    assert x.terms == {T: Fraction(3, 2)} and x.height() == 1
    assert mo.filtered_to_json(x) == [
        {"lambda": "1", "nu": [0, 0], "coeff": "3/2"}]

