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

The set-up runs in integers.  The cutoff, the offsets, rho and the
perturbations' coefficients, T-weights and heights are read through their
numerators and denominators, over one common denominator L of the offsets,
the vertices, g and the perturbation T-weights: the height levels
(``monoid.scaled_height_levels``, the integer core of
``build_height_monoid``), the inner window and the three caps (``_caps``)
and the relations (``_relations``).  The slice takes them times L
(``_SetUp``), and only the values that the report carries are made
Fractions.

The slice runs in integers: weights and heights are scaled by L, and
T^h * v^t is keyed by one integer of ``topology.SRKeys`` over the scaled
(lam, nu) of the N generators and of T (one step per unit of L * height),
ordered by theta_{v0}, v0 the first vertex, with ``top`` the largest
scaled cap.  Every generator has scaled
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
unchanged.  Each c'_k is a map {(lam * L, nu): coefficient}, summed from
the w_l, the units rho_j on v_j = (lambda_j, nu_j) and the perturbations'
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
modulo p.  Each relation is normalized once, to the integers that
``linalg.normalize`` makes of its rational coefficients (scaled to
integers over Q, reduced to residues over F_p), and its rows go to the
eliminator as they are.

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
from math import gcd, lcm
from operator import add, itemgetter, mul

from . import linalg, topology
from .errors import PreconditionError, VerificationError
from .monoid import (FilteredElement, monoid_for, scaled,
                     scaled_height_levels)
from .polyhedra import (DelzantPolyhedron, exact_parameter, exact_units,
                        is_integer, require_delzant, vertex_coordinates)
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
    height, with exact coefficients, added to the rescaled generators
    rho_j * v_j; anything else in it raises PreconditionError.  g:
    truncation cutoff.  p: None for Q, else a prime.
    """
    field = topology.field_name(p)
    require_delzant(P)
    g = exact_parameter(g, "cutoff")
    if g.numerator <= 0:
        raise PreconditionError("cutoff must be positive")
    ctx = monoid_for(P)
    N, n = P.nfacets, P.dim
    rho = exact_units(rho if rho is not None else (1,) * N, N)
    if p is not None:
        for j, r in enumerate(rho, start=1):
            if r.numerator % p == 0 or r.denominator % p == 0:
                raise PreconditionError(f"B-field entry {j} ({r}) is not a "
                                        f"unit modulo {p}")
    terms = _perturbation_terms(ctx, perturbations, p)
    monomials = [mm for pert in terms for mm, _ in pert]

    # The set-up runs in integers over L, the common denominator of the
    # offsets, the vertices, g and the perturbation terms' T-weights.
    L = lcm(ctx.scale, g.denominator, *(mm.lam.denominator
                                        for mm in monomials))
    g_L = scaled(g, L)
    generators, levels = scaled_height_levels(
        ctx, [scaled(mm.height, L) for mm in monomials], g_L, L)
    dim_r = len(levels)

    basis = classical_layers(P).basis
    m = len(basis)
    relations = _relations(ctx, rho, terms, L, p)

    pert_weight = max((scaled(mm.lam, L) for mm in monomials), default=0)
    inner, caps = _caps(n, [L // ctx.scale * x for x in ctx.scaled_offsets],
                        pert_weight, g_L, dim_r)
    set_up = _SetUp(L, g_L, inner, tuple(caps), levels, tuple(relations))
    piece = _Slice(P, ctx, set_up, basis, p)
    for escalations, cap in enumerate(set_up.caps):  # at most two escalations
        dim_s, dim_quotient, independent = piece.grow(cap)
        free = dim_quotient == m * dim_r and independent
        if free:
            break

    note = ("dim_s counts the monomials of T-weight at most the inner window "
            f"{Fraction(inner, L)}; dim_quotient is the dimension of their "
            "span in the quotient, computed with reduction slack up to the "
            "weight cap.  Freeness is verified at this finite cutoff only.")
    return JacobianReport(g, field, rho,
                          tuple(Fraction(x, L) for x in generators),
                          tuple(Fraction(h, L) for h in levels),
                          Fraction(cap, L), escalations, dim_r, m,
                          dim_s, dim_quotient, basis, free, note)


def _caps(n: int, offsets, pert_weight: int, g: int, dim_r: int):
    """(inner window, caps) in the integers of the scaled ``offsets``: the
    inner window n * max(lambda) + g, and three caps, the first with room
    beyond it for dim_r - 1 steps of the largest offset or perturbation
    T-weight over the least offset, each next one an inner window and
    dim_r - 1 such steps more."""
    lam_max, lam_min = max(offsets), min(offsets)
    step = max(lam_max, pert_weight)
    inner = n * lam_max + g
    first = inner + (dim_r - 1) * max(0, step - lam_min) + \
        max(0, pert_weight - lam_min)
    return inner, [first + i * (inner + (dim_r - 1) * step) for i in range(3)]


def _perturbation_terms(ctx, perturbations, p) -> list[tuple]:
    """The (monomial, coefficient) terms of each perturbation, for None no
    terms, after the checks of ``jacobian_freeness``: N filtered elements
    over ``ctx``, each coefficient an int or a Fraction (over F_p with a
    denominator prime to p), each term of positive height."""
    N = ctx.P.nfacets
    if perturbations is None:
        return [()] * N
    try:
        perturbations = list(perturbations)
    except TypeError:
        raise PreconditionError(f"perturbations must be a list of {N} "
                                f"filtered elements, got {perturbations!r}"
                                ) from None
    if len(perturbations) != N:
        raise PreconditionError(f"expected {N} perturbations")
    terms = []
    for j, pert in enumerate(perturbations, start=1):
        if not isinstance(pert, FilteredElement):
            raise PreconditionError(f"perturbation {j} must be a filtered "
                                    f"element, got {pert!r}")
        terms.append(tuple(pert.terms.items()))
        if pert.is_zero():
            continue
        if pert.monoid is not ctx:
            raise PreconditionError("perturbations must live over this "
                                    "polyhedron's monoid")
        for c in pert.terms.values():
            if type(c) is not Fraction and not is_integer(c):
                raise PreconditionError(f"perturbation {j} has the "
                                        f"coefficient {c!r}, which is not "
                                        f"exact (int or Fraction)")
            if p is not None and c.denominator % p == 0:
                raise PreconditionError(f"perturbation {j} has a coefficient "
                                        f"with denominator divisible by {p}")
        if not all(mm.height.numerator > 0 for mm in pert.terms):
            raise PreconditionError(f"perturbation {j} has height "
                                    f"{pert.height()}; the leading-term "
                                    f"condition needs height > 0")
    return terms


def _relations(ctx, rho, terms, L: int, p) -> list[dict]:
    """The c'_k = sum_j w_jk h_j of the first vertex's basis, in order, as
    maps {(lam * L, nu): coefficient} with the zero terms left out, for
    h_j = rho_j v_j + perturbation_j, v_j = (lambda_j, nu_j) and the terms
    ``terms`` of the perturbations.

    The coefficients are summed as integers over E, the common denominator
    of rho and the perturbations' coefficients, so a term is left out
    exactly where its rational sum is zero, and come out as
    ``linalg.normalize`` makes them from the rational sums: over Q divided
    by the gcd G of E and the relation's sums (the relation times E / G),
    over F_p as residues in 1..p-1 (E is a unit modulo p)."""
    P = ctx.P
    _, coords = vertex_coordinates(P, 0)
    E = lcm(*(r.denominator for r in rho),
            *(c.denominator for pert in terms for _, c in pert))
    hs = [[((L // ctx.scale * lam, nu), r.numerator * (E // r.denominator)),
           *(((scaled(mm.lam, L), mm.nu), c.numerator * (E // c.denominator))
             for mm, c in pert)]
          for lam, nu, r, pert in zip(ctx.scaled_offsets, P.normals, rho,
                                      terms)]
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
        if p is None:
            G = gcd(E, *rel.values())
            relations.append({key: c // G for key, c in rel.items()})
        else:
            inverse = pow(E, -1, p)
            relations.append({key: r for key, c in rel.items()
                              if (r := c * inverse % p)})
    return relations


@dataclass(frozen=True)
class _SetUp:
    """What the slice of one call reads, in integers over the common
    denominator ``scale`` (L): the cutoff g, the inner window, the caps in
    order and the levels, each times L, and the relations c'_k as maps
    {(lam * L, nu): row coefficient} (``_relations``)."""
    scale: int
    g: int
    inner: int
    caps: tuple[int, ...]
    levels: tuple[int, ...]
    relations: tuple[dict, ...]


class _Slice:
    """The slice of one call, grown by ``grow`` to each of the set-up's
    caps in turn.  Its relations are the c'_k of the first vertex's basis,
    in order; the Koszul skip and the lead order need that basis.
    ``columns`` maps the key of a monomial to its column."""

    def __init__(self, P, ctx, set_up: _SetUp, basis, p):
        self.nerve = topology.build_nerve(P)
        self.scale = set_up.scale
        k = set_up.scale // ctx.scale
        weights = [k * lam for lam in ctx.scaled_offsets]
        # theta_{v0} * L of (lam * L = w, nu) is w + k * <v0 * D, nu>
        self.keys = keys = topology.SRKeys(
            [*((w, *nu) for w, nu in zip(weights, P.normals)),
             (1,) + (0,) * P.dim], max(set_up.caps),
            (1, *(k * x for x in ctx.scaled_points[0])))
        *steps, t_step = keys.steps
        self.rel_w = max((w for rel in set_up.relations for w, _ in rel),
                         default=0)
        # The walk sums (weight, key) and theta_v * L for every vertex v.
        # In the Koszul window, v_{s_t} dividing m (s_t in the face of m)
        # skips the rows c'_k * m with k > t when
        # w(m) <= w_max - rel_weight + lambda_{s_t}.
        self.leads = [(t + 1, s, weights[s - 1])
                      for t, s in enumerate(vertex_coordinates(P, 0)[0])]
        self.vectors = [(w, step, *(w + k * x for x in ctx.pairings(nu)))
                        for w, step, nu in zip(weights, steps, P.normals)]
        self.heights = [(h, h * t_step) for h in set_up.levels]
        # the window: T-weight at most the inner cap; the basis lies in it
        self.inner_w = set_up.inner
        self.basis_keys = {sum(map(mul, t, steps)) + lift
                           for _, lift in self.heights for t in basis}
        assert len(self.basis_keys) == len(basis) * len(set_up.levels)
        self.g_s = set_up.g
        # distinct terms times one monomial land in distinct columns, so
        # each coefficient is a row entry as it is
        self.terms = [[(keys.encode((w, *nu)), c,
                        [w + k * x for x in ctx.pairings(nu)])
                       for (w, nu), c in rel.items()]
                      for rel in set_up.relations]
        self.elim = linalg.Eliminator(p)
        self.columns = {}
        # the last cap, scaled, and the number of columns in each region
        self.cap, self.sizes = -1, [0, 0, 0]

    def grow(self, cap: int) -> tuple[int, int, bool]:
        """Grow the slice to the T-weight ``cap`` (times L), one of its
        caps and at least the last, and return (dim_s, dim_quotient,
        independent)."""
        columns, g_s = self.columns, self.g_s
        for _, key, h, vec, built in self._walk(cap):
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
