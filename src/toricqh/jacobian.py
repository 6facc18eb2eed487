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
denominator D', and the monomial T^h * v^t is keyed by one integer of
``topology.SRKeys`` over the scaled vectors (lam, nu) of the N generators
and of T, ordered by theta_{v0}, v0 being the first vertex.  The keys are
linear, so the column of a product is the sum of two keys.  The slice is
enumerated by ``topology.sr_walk``, which sums the generators'
(weight, key) face by face and stops at the cap; unit entries for the
facets of the first vertex carry the exponents that the Koszul skip below
reads, and the theta_v of every vertex give the height of a product that
the slice does not hold.

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

The window by pivot count.  The quotient dimension is measured on an
inner window, the monomials of T-weight at most n * max(lambda) + g: near
the outer cap a monomial lacks the products that would reduce it.  The
shifted basis T^gamma * e_i lies in the window.  The slice's columns run by
region, then by key: first the monomials outside the window, then the rest
of the window, then the basis.  Within a region they follow theta_{v0},
which is 0 on v_{s_k} and positive on every other term of c'_k (the facets
outside S miss v0, and every perturbation term has positive height), so a
row's lead product v_{s_k} * m precedes its other terms there, as in
``topology.graded_rows``.  Over Q and F_p the eliminator pivots each row on
its least column, so a pivot row is zero left of its pivot.  Hence, for
the span R of the relation rows and a set C of columns that come after all
others, dim(R meet span C) is the number of pivots in C.  With C the
window, dim_quotient is the window's size less its pivots; with C the
basis, the basis is independent in the quotient exactly when no pivot lies
on it.  One elimination of the relation rows gives both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from . import linalg, topology
from .errors import PreconditionError, VerificationError
from .monoid import (build_height_monoid, element_from_monomial, monoid_for,
                     scaled)
from .polyhedra import (DelzantPolyhedron, exact_parameter, exact_units,
                        require_delzant, vertex_coordinates)
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
    rho = exact_units(rho if rho is not None else (1,) * N, N)
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
    the levels gamma and the Stanley-Reisner monomials v^t, which have
    height zero exactly when the support of t is a face.  ``relations`` are
    the c'_k of the first vertex's basis, in order; the Koszul skip and the
    lead order of the module docstring need that basis.

    Keys.  Everything is scaled by one integer D' (``scale``).  A monomial
    is keyed by ``topology.SRKeys`` over the vectors (lam, nu) * D' of the
    N generators and of T, ordered by theta_{v0} * D', one step of T per
    unit of D' * height, with ``top`` the scaled cap.  Every generator has
    scaled weight at least 1, so a monomial of T-weight at most the cap, in
    the slice or a product that a row reaches, is a sum of at most ``top``
    steps: its key is unique and sorts as its vector does.  The walk
    carries the key, a level adds a multiple of the step of T, and the
    column of m times a relation term is ``index.get(key(m) + key(term))``.

    Truncation.  Every monomial of the slice has height below g, so a
    product that the slice does not hold must have height at least g,
    which makes it zero in the truncation.  That is checked on these misses
    only, from the theta_v vectors of m (carried by the walk) and of the
    term, and VerificationError is raised for a product of height below g.

    Rows and window.  The columns run by (region, key) and the window is
    read off the pivots, as the module docstring explains.  The rows
    c'_k * m, for k below the Koszul bound of m, go to one eliminator in the
    column order of m, without being stored.
    """
    nerve = topology.build_nerve(P)
    rel_weight = max((mm.lam for rel in relations for mm in rel.terms),
                     default=Fraction(0))
    scale = lcm(ctx.scale, g.denominator, cap.denominator,
                inner_cap.denominator, *(x.denominator for x in levels),
                *(mm.lam.denominator for rel in relations for mm in rel.terms))
    k = scale // ctx.scale
    n = P.dim
    cap_s = scaled(cap, scale)
    weights = [k * lam for lam in ctx.scaled_offsets]
    # theta_{v0} * D' of (lam * D' = w, nu) is w + k * <v0 * D, nu>
    keys = topology.SRKeys([*((w, *nu) for w, nu in zip(weights, P.normals)),
                            (1,) + (0,) * n], cap_s,
                           (1, *(k * x for x in ctx.scaled_points[0])))
    *steps, t_step = keys.steps
    rel_w = scaled(rel_weight, scale)
    w_max = cap_s - rel_w
    # The walk sums (weight, key), the exponents t_{s_1..s_n} of the first
    # vertex's facets (unit entries) and theta_v * D' for every vertex v.
    # In the Koszul window of the module docstring, v_{s_t} dividing m skips
    # the rows c'_k * m with k > t when w(m) <= limit_t.
    lead = vertex_coordinates(P, 0)[0]
    limits = [(t + 1, 2 + t, w_max - rel_w + weights[s - 1])
              for t, s in enumerate(lead)]
    heights = [(h, h * t_step) for h in (scaled(x, scale) for x in levels)]
    # The window holds the monomials of T-weight at most the inner cap; the
    # basis columns T^gamma * e_i lie in it and come last.
    inner_w = scaled(inner_cap, scale)
    basis_cols = {sum(map(mul, t, steps)) + lift
                  for _, lift in heights for t in basis}
    # (region, key, weight, relations with a row here, height, theta_v * D'
    # of v^t), weight and height scaled by D'
    monomials = []
    for vec in topology.sr_walk(
            nerve, [(w, step, *(int(s == j + 1) for s in lead),
                     *(w + k * x for x in ctx.pairings(nu)))
                    for j, (w, step, nu) in enumerate(
                        zip(weights, steps, P.normals))], cap_s):
        w, key, th = vec[0], vec[1], vec[2 + n:]
        assert min(th) == 0, f"the monomial of key {key} is not of height zero"
        skips = [(t, limit) for t, pos, limit in limits if vec[pos]]
        for h, lift in heights:  # ascending
            x = w + h
            if x > cap_s:
                break
            built = 0 if x > w_max else n
            for t, limit in skips:
                if x <= limit:
                    built = t
                    break
            shifted = key + lift
            region = 2 if shifted in basis_cols else int(x <= inner_w)
            monomials.append((region, shifted, x, built, h, th))
    monomials.sort()
    index = {key: i for i, (_, key, *_) in enumerate(monomials)}
    # canonical decompositions are unique: no two (level, t) share a key
    assert len(index) == len(monomials)

    g_s = scaled(g, scale)

    def vanishes(h, th, theta):
        """Check that a product missing from the slice, of T^h * v^t (theta
        vector ``th`` at h = 0) by a term (``theta``), has height >= g."""
        height = h + min(map(add, th, theta))
        if height < g_s:
            raise VerificationError(
                f"the Jacobian slice misses a product of height "
                f"{Fraction(height, scale)} below the cutoff {g}")

    # distinct terms times one monomial land in distinct columns, so each
    # normalized coefficient is a row entry as it is
    terms = [[(keys.encode((w, *mm.nu)), c,
               [w + k * x for x in ctx.pairings(mm.nu)])
              for mm, c in linalg.normalize(rel.terms, p).items()
              for w in [scaled(mm.lam, scale)]] for rel in relations]
    elim = linalg.Eliminator(p)
    for _, key, _, built, h, th in monomials:
        for rel in terms[:built]:
            row = {}
            for step, c, theta in rel:
                col = index.get(key + step)
                if col is None:
                    vanishes(h, th, theta)
                else:
                    row[col] = c
            if row:
                elim.add_row(row)

    # A pivot row is zero left of its pivot, so the pivots in a tail of the
    # columns count the relations that the tail spans.
    placed = [x for region, _, x, *_ in monomials if region == 2]
    assert len(placed) == len(basis) * len(heights) and \
        max(placed) <= inner_w, "the basis columns must lie in the window"
    first_window = sum(region == 0 for region, *_ in monomials)
    first_basis = len(monomials) - len(placed)
    dim_s = len(monomials) - first_window
    dim_quotient = dim_s - sum(c >= first_window for c in elim.pivots)
    independent = all(c < first_basis for c in elim.pivots)
    return dim_s, dim_quotient, independent
