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

The slice runs in integers: weights and heights are scaled by one common
denominator D', and T^h * v^t is keyed by one integer of
``topology.SRKeys`` over the scaled (lam, nu) of the N generators and of T
(one step per unit of D' * height), ordered by theta_{v0}, v0 the first
vertex, with ``top`` the largest scaled cap.  Every generator has scaled
weight at least 1, so every monomial that a row reaches is a sum of at most
``top`` steps: its key is unique and sorts as its vector does, and keys are
linear, so the key of a product is the sum of two keys.
``topology.sr_walk`` enumerates the slice face by face up to the cap,
summing (weight, key) and theta_v for every vertex v, and names the face
of each monomial, which the Koszul skip below reads.  Every slice
monomial has height below g, so a product that the slice does not hold must
have height at least g, which makes it zero in the truncation; each miss is
checked, and VerificationError is raised for one of height below g.

Relation rows.  With h_j = rho_j v_j + perturbation_j the relations are
written in the lattice basis of the first vertex v0, whose facets are
s_1 < ... < s_n (``polyhedra.vertex_coordinates(P, 0)``):

    c'_k = h_{s_k} + sum_{l not in S} w_lk h_l,

with w_l the integer coordinates of nu_l in the basis nu_{s_1..s_n}.  The
change of basis lies in GL_n(Z), so the c'_k generate the same ideal as the
n components of sum_j nu_j h_j, over Z, Q and every F_p, and have the same
monomials: rel_weight, the largest T-weight of a relation term, is
unchanged.  Each c'_k is a map {(lam, nu): coefficient}, summed from the
w_l, the units rho_j on v_j = (lambda_j, nu_j) and the perturbations'
terms (``_relations``): a row needs only (lam, nu), so no monomial is
decomposed.  The candidate basis is the classical one, read from the
certified layers (``presentation.classical_layers``) without the
structure table.  Every row c'_k * m with w(m) <= w_max = cap - rel_weight
would span the relations inside the slice.  Rows are skipped by the Koszul
rule of ``topology.graded_rows`` (c'_k * m when v_{s_t} divides m for some
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
region, then by key (``SRKeys.column``): first the monomials outside the
window, then the rest of the window, then the basis.  Within a region they
follow theta_{v0}, which is 0 on v_{s_k} and positive on every other term
of c'_k (the facets outside S miss v0, and every perturbation term has
positive height), so a row's lead product v_{s_k} * m precedes its other
terms there, as in ``topology.graded_rows``.  Over Q and F_p the
eliminator pivots each row on its least column, so a pivot row is zero
left of its pivot.  Hence, for the span R of the relation rows and a set C
of columns that come after all others, dim(R meet span C) is the number of
pivots in C.  With C the window, dim_quotient is the window's size less its
pivots; with C the basis, the basis is independent in the quotient exactly
when no pivot lies on it.  One elimination of the relation rows gives both.

Growth.  One slice serves a call: keyed for the largest cap the call may
reach, its columns never move, and each escalation adds to the same
eliminator only the rows c'_k * m of the monomials above the last cap's
w_max; one below it has its rows, as every Koszul limit rises with the cap.
The counts equal those of a slice built fresh at the new cap, as both span
the same R and dim(R meet span C) depends on R alone: a row added at a
smaller cap is the same vector at the larger one (its products lie within
the smaller cap, where the slices agree, or have height at least g at
both), every row either slice adds is c'_k * m with w(m) <= w_max at the
larger cap, and one that the larger cap's Koszul bound skips lies, by the
identity above, in the span of the rows that it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul

from . import linalg, topology
from .errors import PreconditionError, VerificationError
from .monoid import FilteredElement, build_height_monoid, monoid_for, scaled
from .polyhedra import (DelzantPolyhedron, exact_parameter, exact_units,
                        require_delzant, vertex_coordinates)
from .presentation import classical_layers


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
    height, added to the rescaled generators rho_j * v_j; anything else in
    it raises PreconditionError.  g: truncation cutoff.  p: None for Q,
    else a prime.
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
        if not isinstance(pert, FilteredElement):
            raise PreconditionError(f"perturbation {j + 1} must be a filtered "
                                    f"element, got {pert!r}")
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

    basis = classical_layers(P).basis
    m = len(basis)
    relations = _relations(P, rho, perturbations)

    lam_max, lam_min = max(P.offsets), min(P.offsets)
    step = max(lam_max, pert_weight)
    inner_cap = n * lam_max + g
    first = inner_cap + (dim_r - 1) * max(Fraction(0), step - lam_min) + \
        max(Fraction(0), pert_weight - lam_min)
    caps = [first + i * (inner_cap + (dim_r - 1) * step) for i in range(3)]
    piece = _Slice(P, ctx, levels, g, relations, caps, inner_cap, basis, p)
    for escalations, cap in enumerate(caps):  # at most two escalations
        dim_s, dim_quotient, independent = piece.grow(cap)
        free = dim_quotient == m * dim_r and independent
        if free:
            break

    note = ("dim_s counts the monomials of T-weight at most the inner window "
            f"{inner_cap}; dim_quotient is the dimension of their span in the "
            "quotient, computed with reduction slack up to the weight cap.  "
            "Freeness is verified at this finite cutoff only.")
    return JacobianReport(g, field, rho, G.generators, levels, cap, escalations,
                          dim_r, m, dim_s, dim_quotient, basis, free, note)


def _relations(P, rho, perturbations) -> list[dict]:
    """The c'_k = sum_j w_jk h_j of the first vertex's basis, in order, as
    maps {(lam, nu): coefficient} with the zero terms left out, for
    h_j = rho_j v_j + perturbation_j and v_j = (lambda_j, nu_j)."""
    _, coords = vertex_coordinates(P, 0)
    hs = [[((lam, nu), r), *(((mm.lam, mm.nu), c)
                             for mm, c in pert.terms.items())]
          for lam, nu, r, pert in zip(P.offsets, P.normals, rho,
                                      perturbations)]
    relations = []
    for k in range(P.dim):
        rel = {}
        for h, w in zip(hs, coords):
            if w[k]:
                for key, c in h:
                    total = rel.get(key, 0) + c * w[k]
                    if total:
                        rel[key] = total
                    else:
                        rel.pop(key, None)
        relations.append(rel)
    return relations


class _Slice:
    """The slice of one call, grown by ``grow`` to each of ``caps`` in
    turn.  ``relations`` are the c'_k of the first vertex's basis, in
    order, as the maps of ``_relations``; the Koszul skip and the lead
    order need that basis.  ``columns`` maps the key of a monomial to its
    column."""

    def __init__(self, P, ctx, levels, g, relations, caps, inner_cap, basis,
                 p):
        self.nerve = topology.build_nerve(P)
        self.scale = scale = lcm(
            ctx.scale, g.denominator, inner_cap.denominator,
            *(x.denominator for x in (*caps, *levels)),
            *(lam.denominator for rel in relations for lam, _ in rel))
        k = scale // ctx.scale
        weights = [k * lam for lam in ctx.scaled_offsets]
        # theta_{v0} * D' of (lam * D' = w, nu) is w + k * <v0 * D, nu>
        self.keys = keys = topology.SRKeys(
            [*((w, *nu) for w, nu in zip(weights, P.normals)),
             (1,) + (0,) * P.dim], scaled(max(caps), scale),
            (1, *(k * x for x in ctx.scaled_points[0])))
        *steps, t_step = keys.steps
        self.rel_w = max((scaled(lam, scale) for rel in relations
                          for lam, _ in rel), default=0)
        # The walk sums (weight, key) and theta_v * D' for every vertex v.
        # In the Koszul window, v_{s_t} dividing m (s_t in the face of m)
        # skips the rows c'_k * m with k > t when
        # w(m) <= w_max - rel_weight + lambda_{s_t}.
        self.leads = [(t + 1, s, weights[s - 1])
                      for t, s in enumerate(vertex_coordinates(P, 0)[0])]
        self.vectors = [(w, step, *(w + k * x for x in ctx.pairings(nu)))
                        for w, step, nu in zip(weights, steps, P.normals)]
        self.heights = [(h, h * t_step)
                        for h in (scaled(x, scale) for x in levels)]
        # the window: T-weight at most the inner cap; the basis lies in it
        self.inner_w = scaled(inner_cap, scale)
        self.basis_keys = {sum(map(mul, t, steps)) + lift
                           for _, lift in self.heights for t in basis}
        assert len(self.basis_keys) == len(basis) * len(levels)
        self.g_s = scaled(g, scale)
        # distinct terms times one monomial land in distinct columns, so
        # each normalized coefficient is a row entry as it is
        self.terms = [[(keys.encode((w, *nu)), c,
                        [w + k * x for x in ctx.pairings(nu)])
                       for (lam, nu), c in linalg.normalize(rel, p).items()
                       for w in [scaled(lam, scale)]]
                      for rel in relations]
        self.elim = linalg.Eliminator(p)
        self.columns = {}
        # the last cap, scaled, and the number of columns in each region
        self.cap, self.sizes = -1, [0, 0, 0]

    def grow(self, cap: Fraction) -> tuple[int, int, bool]:
        """Grow the slice to the T-weight ``cap``, one of its caps and at
        least the last, and return (dim_s, dim_quotient, independent)."""
        columns, g_s = self.columns, self.g_s
        for _, key, h, vec, built in self._walk(scaled(cap, self.scale)):
            for rel in self.terms[:built]:
                row = {}
                for step, c, theta in rel:
                    col = columns.get(key + step)
                    if col is not None:
                        row[col] = c
                    elif (low := h + min(map(add, vec[2:], theta))) < g_s:
                        raise VerificationError(
                            f"the Jacobian slice misses a product of height "
                            f"{Fraction(low, self.scale)} below the cutoff "
                            f"{Fraction(g_s, self.scale)}")
                if row:
                    self.elim.add_row(row)
        sizes, keys = self.sizes, self.keys
        assert sizes[2] == len(self.basis_keys), \
            "the basis columns must lie in the window"

        # A pivot row is zero left of its pivot, so the pivots in a tail of
        # the columns count the relations that the tail spans.
        window, basis = (keys.column(keys.origin, r) for r in (1, 2))
        pivots, dim_s = self.elim.pivots, sizes[1] + sizes[2]
        return (dim_s, dim_s - sum(c >= window for c in pivots),
                max(pivots, default=0) < basis)

    def _walk(self, cap_s: int) -> list:
        """Walk the slice to the scaled cap ``cap_s``, give its new
        monomials their columns, and return, in the column order of m,
        (column, key, height, walk vector, k bound) for every m above the
        last w_max, whose rows c'_k * m the cap adds."""
        old, w_max = self.cap, cap_s - self.rel_w
        old_w_max, self.cap = old - self.rel_w, cap_s
        columns, sizes = self.columns, self.sizes
        basis_keys, inner_w, n = self.basis_keys, self.inner_w, len(self.leads)
        shifts = [self.keys.column(0, r) for r in range(3)]
        limits = [(t, s, w_max - self.rel_w + w) for t, s, w in self.leads]
        pending = []
        for face, vec in topology.sr_walk(self.nerve, self.vectors, cap_s):
            w, key = vec[0], vec[1]
            assert w <= old or min(vec[2:]) == 0, \
                f"the monomial of key {key} is not of height zero"
            for h, lift in self.heights:  # ascending
                x = w + h
                if x > cap_s:
                    break
                if x <= old_w_max:
                    continue
                built = 0 if x > w_max else n
                for t, s, limit in limits:
                    if s in face and x <= limit:
                        built = t
                        break
                shifted = key + lift
                if x > old:  # new: 0 outside the window, 1 in it, 2 basis
                    region = (x <= inner_w) + (shifted in basis_keys)
                    col = columns[shifted] = shifted + shifts[region]
                    sizes[region] += 1
                else:
                    col = columns[shifted]
                if built:
                    pending.append((col, shifted, h, vec, built))
        # canonical decompositions are unique: no two (level, t) share a key
        assert len(columns) == sum(sizes)
        # in the column order of m, as in ``topology.graded_rows``: in the
        # walk's order, some inputs touched 4 times the pivot-row entries
        pending.sort(key=itemgetter(0))
        return pending
