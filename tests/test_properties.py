"""Property tests over seeded random Delzant polyhedra (hypothesis).

The integer ``ConeMonoid.decompose`` is checked against a rational
reference: ``reference.solve_rational`` on the incident normals at the first
vertex of least theta_v.  The classical structure constants over Z must
make a commutative, associative ring with unit e_0, and the classical ranks
must agree over Z, Q and F_p, since the cohomology is free.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

import reference
from toricqh import catalog, linalg
from toricqh import presentation as pr
from toricqh import topology as tp
from toricqh import monoid as mo

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@cache
def cone_monoid(seed, dim):
    return mo.ConeMonoid(catalog.random_delzant(random.Random(seed), dim,
                                                dim + 3))


def reference_decompose(ctx, lam, nu):
    P = ctx.P
    ths = [mo.theta(v, (lam, nu)) for v in ctx.vertices]
    v = ctx.vertices[ths.index(min(ths))]
    labels = sorted(v.incident)  # Delzant: exactly dim of them
    A = [[P.normal(j)[i] for j in labels] for i in range(P.dim)]
    x = reference.solve_rational(A, list(nu))
    t = [0] * P.nfacets
    for xj, j in zip(x, labels):
        assert xj.denominator == 1 and xj >= 0
        t[j - 1] = int(xj)
    return min(ths), tuple(t)


@st.composite
def cone_points(draw, P):
    """A point h*(1, 0) + sum_j t_j*(lambda_j, nu_j) of the integral monoid."""
    t = draw(st.lists(st.integers(0, 3), min_size=P.nfacets,
                      max_size=P.nfacets))
    h = draw(st.fractions(0, 4, max_denominator=6))
    lam = h + sum(tj * lj for tj, lj in zip(t, P.offsets))
    nu = tuple(sum(tj * n[i] for tj, n in zip(t, P.normals))
               for i in range(P.dim))
    return lam, nu


@hypothesis.settings(derandomize=True, database=None, max_examples=40,
                     deadline=None)
@hypothesis.given(seed=st.integers(0, 7), dim=st.integers(2, 4),
                  data=st.data())
def test_integer_decompose_matches_rational_reference(seed, dim, data):
    ctx = cone_monoid(seed, dim)
    P = ctx.P
    lam, nu = data.draw(cone_points(P))
    s, t = ctx.decompose((lam, nu))
    assert (s, t) == reference_decompose(ctx, lam, nu)
    assert s == min(ctx.thetas((lam, nu)))
    assert isinstance(s, Fraction)
    # theta_v is linear, so a product's height is the least summed theta
    m1 = ctx.monomial(lam, nu)
    m2 = ctx.monomial(*data.draw(cone_points(P)))
    assert (m1 * m2).height == min(
        a + b for a, b in zip(ctx.thetas(m1), ctx.thetas(m2)))


@cache
def classical_table(seed, dim):
    P = catalog.random_delzant(random.Random(seed), dim, dim + 3)
    return pr.classical_presentation(P).structure


@hypothesis.settings(derandomize=True, database=None, max_examples=40,
                     deadline=None)
@hypothesis.given(seed=st.integers(0, 39), dim=st.integers(2, 3))
def test_classical_ring_laws(seed, dim):
    s = classical_table(seed, dim)
    idx = range(len(s))
    for a in idx:
        assert s[0][a] == s[a][0] == tuple(int(k == a) for k in idx)
        for b in idx:
            assert s[a][b] == s[b][a]
            for c in idx:
                left = [sum(s[a][b][k] * s[k][c][l] for k in idx) for l in idx]
                right = [sum(s[a][k][l] * s[b][c][k] for k in idx)
                         for l in idx]
                assert left == right, (a, b, c)


@hypothesis.settings(derandomize=True, database=None, max_examples=20,
                     deadline=None)
@hypothesis.given(seed=st.integers(0, 39), dim=st.integers(2, 3))
def test_classical_ranks_agree_over_every_ring(seed, dim):
    P = catalog.random_delzant(random.Random(seed), dim, dim + 3)
    ranks = {ring: pr.classical_presentation(P, ring).ranks
             for ring in ("Z", "Q", "F3", "F32003")}
    assert len(set(ranks.values())) == 1, ranks
    # Each degree over each field: the Stanley-Reisner monomials modulo the
    # linear forms times the previous degree, ranked by that field alone.
    K = tp.build_nerve(P)
    keys = tp.SRKeys([tuple(int(k == j) for k in range(P.nfacets))
                      for j in range(P.nfacets)], len(ranks["Z"]) - 1)
    slices = tp.sr_slices(K, keys)
    # no leads: every row of every degree
    walk = tp.graded_rows(slices, keys.steps, P.normals)
    for d, (expected, (index, rows)) in enumerate(zip(ranks["Z"], walk)):
        rows = list(rows)
        for p in (None, 3, 32003):
            assert len(index) - linalg.rank(rows, p) == expected, (d, p)
