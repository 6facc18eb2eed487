"""An independent Groebner-basis oracle for the classical and quantum rings.

The ring is built here from the facet data alone, without the package's
vertex walk, nonfaces, cone decompositions or elimination: over
Q[v_1..v_N, T], the n linear forms sum_j nu_j[i] * rho_j * v_j and one
relation v^J - T^h * v^t per minimal nonface J.  The faces are the facet
sets that meet at a vertex, and the vertices come from every n facets with
independent normals whose common point satisfies the other inequalities;
the nonfaces follow by brute force over label subsets.  The target t is
read off the maximal cone (the normals of a vertex) that holds
sum_{j in J} nu_j, and h = sum_{j in J} lambda_j - sum_k t_k lambda_k.
sympy's grevlex Groebner basis then reduces every quantum and every
classical (T = 0) structure constant to 0, and at T = 0 and at T = 1 the
quotient has as many standard monomials as the rank.
"""

import itertools
from fractions import Fraction

import pytest

import reference
from toricqh import catalog
from toricqh import presentation as pr
from toricqh.polyhedra import polyhedron

sympy = pytest.importorskip("sympy")


def _rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _vertex_facets(P):
    """The facet label sets of the vertices of P, the points where <x, nu_j>
    + lambda_j >= 0 holds for every j, by brute force over n facets."""
    out = []
    for S in itertools.combinations(range(P.nfacets), P.dim):
        A = sympy.Matrix([P.normals[j] for j in S])
        if A.det() == 0:
            continue
        x = A.solve(sympy.Matrix([-_rational(P.offsets[j]) for j in S]))
        slack = [sum(a * b for a, b in zip(nu, x)) + _rational(lam)
                 for nu, lam in zip(P.normals, P.offsets)]
        if all(s >= 0 for s in slack):
            out.append(frozenset(j + 1 for j, s in enumerate(slack) if s == 0))
    return out


def _ring(P, rho):
    """(generators v_1..v_N, T, relations) of the quantum ring of P."""
    N, n = P.nfacets, P.dim
    v = sympy.symbols(f"v1:{N + 1}")
    T = sympy.Symbol("T")
    vertices = _vertex_facets(P)
    faces = {S for V in vertices for k in range(len(V) + 1)
             for S in map(frozenset, itertools.combinations(sorted(V), k))}
    rels = [sum(P.normals[j][i] * _rational(rho[j]) * v[j] for j in range(N))
            for i in range(n)]
    for k in range(1, N + 1):
        for J in map(frozenset, itertools.combinations(range(1, N + 1), k)):
            if J in faces or any(J - {j} not in faces for j in J):
                continue
            s = [sum(P.normals[j - 1][i] for j in J) for i in range(n)]
            for V in vertices:
                cone = sorted(V)
                c = sympy.Matrix([P.normals[j - 1] for j in cone]).T.solve(
                    sympy.Matrix(s))
                if all(x >= 0 for x in c):
                    break
            else:
                raise AssertionError(f"no cone holds the sum over {sorted(J)}")
            t = dict(zip(cone, c))
            h = sum(_rational(P.offsets[j - 1]) for j in J) - sum(
                x * _rational(P.offsets[j - 1]) for j, x in t.items())
            assert h > 0 and all(x.is_integer for x in c)
            rels.append(sympy.prod(v[j - 1] for j in J)
                        - T ** h * sympy.prod(v[j - 1] ** x
                                              for j, x in t.items()))
    return v, T, rels


def _standard_monomials(G, nvars):
    """The number of monomials that no leading monomial of G divides, for
    a zero-dimensional ideal."""
    leads = [p.monoms(order="grevlex")[0] for p in G.polys]
    seen, frontier = set(), [(0,) * nvars]
    while frontier:
        e = frontier.pop()
        if e in seen or any(all(a >= b for a, b in zip(e, m)) for m in leads):
            continue
        seen.add(e)
        frontier.extend(e[:i] + (e[i] + 1,) + e[i + 1:] for i in range(nvars))
    return len(seen)


def _check(P, rho=None, structure=None):
    """Reduce every structure constant of P's quantum presentation (or
    ``structure`` in its place) and of its classical table to 0, and count
    the standard monomials at T = 0 and T = 1."""
    Q = pr.quantum_presentation(P, _rho=rho)
    Pn = Q.normalized
    v, T, rels = _ring(Pn, rho or (1,) * Pn.nfacets)
    e = [sympy.prod(x ** k for x, k in zip(v, b)) for b in Q.basis]
    quantum = sympy.groebner(rels, *v, T, order="grevlex")
    classical, at_one = (sympy.groebner([r.subs(T, t) for r in rels], *v,
                                        order="grevlex") for t in (0, 1))
    structure = structure or Q.structure
    for a, b in itertools.combinations_with_replacement(range(len(e)), 2):
        product = sum(_rational(c) * T ** k * e[g]
                      for g, poly in enumerate(structure[a][b])
                      for k, c in enumerate(poly))
        assert quantum.reduce(e[a] * e[b] - product)[1] == 0, (a, b)
        product = sum(_rational(c) * e[g]
                      for g, c in enumerate(Q.classical.structure[a][b]))
        assert classical.reduce(e[a] * e[b] - product)[1] == 0, (a, b)
    # neither quotient is 0, so the reductions above say something
    assert _standard_monomials(classical, len(v)) == \
        _standard_monomials(at_one, len(v)) == len(Q.basis)


def _simplex(n):
    return polyhedron(n, [(tuple(int(i == j) for i in range(n)), 1)
                          for j in range(n)] + [((-1,) * n, 1)])


INPUTS = {
    "cp2": lambda: catalog.load_example("cp2"),
    "cp3": lambda: catalog.load_example("cp3"),
    "cp1xcp1": lambda: catalog.load_example("cp1xcp1"),
    "o_minus_1": lambda: catalog.load_example("o_minus_1"),
    "c2": lambda: catalog.load_example("c2"),
    "c3": lambda: catalog.load_example("c3"),
    "hex": reference.hexagon,
    "dp8": reference.dp8,
    "cp4": lambda: _simplex(4),
    "hex_x_cp1": lambda: reference.product(reference.hexagon(), _simplex(1)),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_structure_constants_reduce_to_zero(name):
    _check(INPUTS[name]())


def test_structure_constants_reduce_to_zero_under_a_bfield():
    _check(catalog.load_example("cp2"), rho=(2, -1, Fraction(1, 3)))


def test_oracle_catches_a_planted_structure_constant():
    # +e_0 in e_1 * e_2 on the hexagon
    P = reference.hexagon()
    table = [list(map(list, row))
             for row in pr.quantum_presentation(P).structure]
    cell = [list(poly) for poly in table[1][2]]
    cell[0] = [cell[0][0] + 1] + cell[0][1:] if cell[0] else [1]
    table[1][2] = table[2][1] = cell
    with pytest.raises(AssertionError, match=r"\(1, 2\)"):
        _check(P, structure=table)
