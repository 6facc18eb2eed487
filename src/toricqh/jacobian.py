"""Finite-cutoff freeness verification for generalised Jacobian quotients.

The truncated coefficient ring R is the monoid algebra of the admissible
heights below a cutoff g; the truncated monoid ring S is spanned by the
monomials of height below g.  The quotient of S by the ideal generated by
the n components of sum_j nu_j * (rho_j v_j + perturbation_j) should be a
free R-module on the classical basis, so its dimension over the ground field
must equal (number of vertices) * dim R, with the shifted basis elements
T^gamma * e_i independent.

S itself is infinite-dimensional (every height-zero monomial survives), so
the computation works on a finite slice: the monomials T^gamma * v^t, for
the admissible levels gamma and the Stanley-Reisner monomials v^t (exactly
the monomials of height zero), whose T-weight (the exponent lambda of T) is
at most a cap chosen large enough for all reductions to close.  The cap is
recorded in the report.  If an attempt fails to confirm freeness the cap is
escalated, at most twice; when the last attempt still fails the report says
not free.  Such a verdict can therefore be an artifact of too small a slice:
``escalations == 2`` together with ``free == False`` means "not confirmed
at this cap", not a proof of non-freeness.

The slice runs in integers: every weight and height is scaled by one common
denominator, monomials are keyed by (scaled lam, nu), and the height of a
product is read off the summed integer theta vectors of its factors.  The
slice is enumerated by ``topology.sr_walk``, which sums the generators'
integer (weight, nu, theta) vectors face by face and stops at the cap; unit
entries for the facets of the first vertex carry the exponents that the
Koszul skip below reads.

Relation rows.  With h_j = rho_j v_j + perturbation_j the relations are
written in the lattice basis of the first vertex v0, whose facets are
s_1 < ... < s_n (``polyhedra.vertex_coordinates(P, 0)``):

    c'_k = h_{s_k} + sum_{l not in S} w_lk h_l,

with w_l the integer coordinates of nu_l in the basis nu_{s_1..s_n}.  The
change of basis lies in GL_n(Z), so the c'_k generate the same ideal as the
n components of sum_j nu_j h_j, over Z, Q and every F_p, and have the same
monomials: rel_weight, the largest T-weight of a relation term, is
unchanged.  Every row c'_k * m with w(m) <= w_max = cap - rel_weight would
span the relations inside the slice.  Rows are skipped by the Koszul rule
of ``topology.graded_rows`` (c'_k * m when v_{s_t} divides m for some
t < k), whose identity and induction on (k, -theta_{v0}) carry over with
c'_t = rho_{s_t} v_{s_t} + r_t: every perturbation term has positive
height, so theta_{v0} still grows on the rows c'_k * y.  This slice is
bounded by weight, not by degree, so a row is skipped only where the
identity stays inside the window: its rows are relations times monomials
of weight at most w(m) - lambda_{s_t} + rel_weight, which must be at most
w_max.  Truncation at height g is a ring quotient, so the identity
survives it, and rho_{s_t} is a unit over Q and, as checked on entry,
modulo p.  Each relation is normalized once by ``linalg.normalize``
(scaled to integers over Q, reduced to residues over F_p) and its rows go
to the eliminator as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from . import linalg, topology
from .errors import PreconditionError
from .monoid import (build_height_monoid, element_from_monomial, monoid_for,
                     scaled)
from .polyhedra import (DelzantPolyhedron, exact_parameter, require_delzant,
                        vertex_coordinates)
from .presentation import classical_presentation


@dataclass(frozen=True)
class JacobianReport:
    cutoff: Fraction
    field: str
    rho: tuple[Fraction, ...]
    monoid_generators: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]          # admissible heights below the cutoff
    weight_cap: Fraction                  # T-weight bound of the working slice
    escalations: int
    dim_r: int
    rank: int                             # number of classical basis elements m
    dim_s: int                            # dimension of the working slice of S
    dim_quotient: int
    basis: tuple[tuple[int, ...], ...]
    free: bool
    note: str


def jacobian_freeness(P: DelzantPolyhedron, perturbations=None, rho=None,
                      g=1, p: int | None = None) -> JacobianReport:
    """Verify freeness of the truncated generalised Jacobian quotient.

    perturbations: optional list of N filtered elements of strictly positive
    height, added to the rescaled generators rho_j * v_j.  g: truncation
    cutoff.  p: None for Q, else a prime.
    """
    field = topology.field_name(p)
    require_delzant(P)
    g = exact_parameter(g, "cutoff")
    if g <= 0:
        raise PreconditionError("cutoff must be positive")
    ctx = monoid_for(P)
    N, n = P.nfacets, P.dim
    rho = tuple(exact_parameter(r, "B-field entry")
                for r in (rho if rho is not None else (1,) * N))
    if len(rho) != N or any(r == 0 for r in rho):
        raise PreconditionError("need one nonzero unit per facet")
    if p is not None:
        for j, r in enumerate(rho, start=1):
            if r.numerator % p == 0 or r.denominator % p == 0:
                raise PreconditionError(f"B-field entry {j} ({r}) is not a "
                                        f"unit modulo {p}")

    if perturbations is None:
        perturbations = [ctx.zero()] * N
    perturbations = list(perturbations)
    if len(perturbations) != N:
        raise PreconditionError(f"expected {N} perturbations")
    pert_heights = []
    pert_weight = Fraction(0)
    for j, pert in enumerate(perturbations):
        if pert.is_zero():
            continue
        if pert.monoid is not ctx:
            raise PreconditionError("perturbations must live over this "
                                    "polyhedron's monoid")
        if p is not None and any(c.denominator % p == 0
                                 for c in pert.terms.values()):
            raise PreconditionError(f"perturbation {j + 1} has a coefficient "
                                    f"with denominator divisible by {p}")
        h = pert.height()
        if h <= 0:
            raise PreconditionError(f"perturbation {j + 1} has height {h}; the "
                                    f"leading-term condition needs height > 0")
        pert_heights.extend(m.height for m in pert.terms)
        pert_weight = max(pert_weight, max(m.lam for m in pert.terms))

    G = build_height_monoid(P, pert_heights, g)
    levels = G.elements
    dim_r = len(levels)

    cp = classical_presentation(P)
    basis = cp.basis
    m = len(basis)

    hs = [element_from_monomial(ctx.generator(j + 1)) * rho[j]
          + perturbations[j] for j in range(N)]
    _, coords = vertex_coordinates(P, 0)
    relations = []  # c'_k in the basis of the first vertex
    for k in range(n):
        rel = ctx.zero()
        for h, w in zip(hs, coords):
            if w[k]:
                rel = rel + h * w[k]
        relations.append(rel)

    lam_max = max(P.offsets)
    lam_min = min(P.offsets)
    step = max(lam_max, pert_weight)
    inner_cap = n * lam_max + g
    cap = inner_cap + (dim_r - 1) * max(Fraction(0), step - lam_min) + \
        max(Fraction(0), pert_weight - lam_min)

    escalations = 0
    while True:
        result = _attempt(P, ctx, levels, g, relations, cap, inner_cap, basis, p)
        dim_s, dim_quotient, independent = result
        free = dim_quotient == m * dim_r and independent
        if free or escalations >= 2:
            break
        cap = cap + inner_cap + (dim_r - 1) * step
        escalations += 1

    note = ("dim_s counts the monomials of T-weight at most the inner window "
            f"{inner_cap}; dim_quotient is the dimension of their span in the "
            "quotient, computed with reduction slack up to the weight cap.  "
            "Freeness is verified at this finite cutoff only.")
    return JacobianReport(g, field, rho, G.generators, levels, cap, escalations,
                          dim_r, m, dim_s, dim_quotient, basis, free, note)


def _attempt(P, ctx, levels, g, relations, cap, inner_cap, basis, p):
    """One elimination on the slice of T-weight <= cap: T^gamma * v^t over
    the levels gamma and the Stanley-Reisner monomials v^t, each asserted to
    have height zero (which holds exactly when the support of t is a face).
    ``relations`` are the c'_k of the first vertex's basis, in order; the
    Koszul skip of the module docstring needs that basis.

    Everything is scaled by one integer D' (``scale``): a monomial is carried
    as (height * D', lam * D', nu) with its integer vector of theta_v * D'.
    theta_v is linear, so the height of a product is the least entry of the
    summed vectors, and products never need a decomposition of their own.
    """
    nerve = topology.build_nerve(P)
    rel_weight = max((mm.lam for rel in relations for mm in rel.terms),
                     default=Fraction(0))
    scale = lcm(ctx.scale, g.denominator, cap.denominator,
                inner_cap.denominator, *(x.denominator for x in levels),
                *(mm.lam.denominator for rel in relations for mm in rel.terms))
    k = scale // ctx.scale
    n = P.dim

    def carry(w, nu):  # (lam * D', nu, theta_v * D' for every vertex v)
        return w, nu, [w + k * x for x in ctx.pairings(nu)]

    # generator v_j as one integer vector (lam, nu, theta_v for every v) * D'
    vectors = [(w, *nu, *th) for w, nu, th in
               (carry(k * lam, nu) for lam, nu in
                zip(ctx.scaled_offsets, P.normals))]
    cap_s = scaled(cap, scale)
    rel_w = scaled(rel_weight, scale)
    w_max = cap_s - rel_w
    # the walk also sums the exponents t_{s_1..s_n} of the facets s_t of
    # the first vertex, from unit entries after the theta block
    lead = vertex_coordinates(P, 0)[0]
    width = len(vectors[0])
    labels = [(i, width + i, vectors[s - 1][0]) for i, s in enumerate(lead)]
    heights = [scaled(gamma, scale) for gamma in levels]
    monomials = []  # (height, lam, nu, theta, relations with a row here)
    for vec in topology.sr_walk(
            nerve, [(*v, *(int(s == j + 1) for s in lead))
                    for j, v in enumerate(vectors)], cap_s):
        w, nu, th = vec[0], tuple(vec[1:n + 1]), vec[n + 1:width]
        assert min(th) == 0, f"a monomial of nu {nu} is not of height zero"
        for h in heights:  # ascending
            if w + h > cap_s:
                break
            built = 0 if w + h > w_max else next(
                (i + 1 for i, pos, lam in labels
                 if vec[pos] and w + h - lam + rel_w <= w_max), n)
            monomials.append((h, w + h, nu, [x + h for x in th], built))
    monomials.sort(key=lambda x: x[:3])
    index = {(w, nu): i for i, (_, w, nu, _, _) in enumerate(monomials)}
    # canonical decompositions are unique: no two (level, t) share a key
    assert len(index) == len(monomials)

    g_s = scaled(g, scale)
    elim = linalg.Eliminator(p)
    for i, rel in enumerate(relations):
        # distinct terms times one monomial land in distinct columns, so each
        # normalized coefficient is a row entry as it is
        terms = [(*carry(scaled(mm.lam, scale), mm.nu), c)
                 for mm, c in linalg.normalize(rel.terms, p).items()]
        for _, w, nu, th, built in monomials:
            if i >= built:
                continue
            row = {index[(w + w1, tuple(map(add, nu, nu1)))]: c
                   for w1, nu1, th1, c in terms
                   if min(map(add, th, th1)) < g_s}
            if row:
                elim.add_row(row)

    # The quotient dimension is measured on the inner window only: monomials
    # near the outer cap lack the products that would reduce them and must
    # not be counted.
    inner_w = scaled(inner_cap, scale)
    inner_units = [{i: 1} for i, (_, w, _, _, _) in enumerate(monomials)
                   if w <= inner_w]
    dim_s = len(inner_units)
    window = elim.fork()
    dim_quotient = sum(window.add_row(u) for u in inner_units)

    sums = [[sum(e * x for e, x in zip(t, col)) for col in zip(*vectors)]
            for t in basis]
    keys = [(v[0] + h, tuple(v[1:n + 1])) for h in heights for v in sums]
    assert all(w <= inner_w for w, _ in keys)
    with_basis = elim.fork()
    independent = all(with_basis.add_row({index[c]: 1}) for c in keys)
    return dim_s, dim_quotient, independent

