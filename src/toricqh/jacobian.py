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
product is read off the summed integer theta vectors of its factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from . import linalg, topology
from .errors import PreconditionError
from .monoid import (build_height_monoid, element_from_monomial, monoid_for,
                     scaled)
from .polyhedra import DelzantPolyhedron, exact_parameter, require_delzant
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

    relations = []
    for i in range(n):
        rel = ctx.zero()
        for j in range(N):
            coeff = P.normals[j][i]
            if coeff:
                hj = element_from_monomial(ctx.generator(j + 1)) * rho[j] \
                    + perturbations[j]
                rel = rel + hj * Fraction(coeff)
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

    def carry(w, nu):  # (lam * D', nu, theta_v * D' for every vertex v)
        return w, nu, [w + k * x for x in ctx.pairings(nu)]

    weights = [k * w for w in ctx.scaled_offsets]
    columns = list(zip(*P.normals))

    def key(t):  # v^t, straight from its exponent vector
        return carry(sum(map(mul, t, weights)),
                     tuple(sum(map(mul, t, col)) for col in columns))

    cap_s = scaled(cap, scale)
    heights = [scaled(gamma, scale) for gamma in levels]
    monomials = []
    for d in range(cap_s // min(weights) + 1):
        for t in topology.sr_monomials(nerve, d):
            w, nu, th = key(t)
            assert min(th) == 0, f"v^{t} is not of height zero"
            for h in heights:  # ascending
                if w + h > cap_s:
                    break
                monomials.append((h, w + h, nu, [x + h for x in th]))
    monomials.sort(key=lambda x: x[:3])
    index = {(w, nu): i for i, (_, w, nu, _) in enumerate(monomials)}
    # canonical decompositions are unique: no two (level, t) share a key
    assert len(index) == len(monomials)

    g_s = scaled(g, scale)
    w_max = scaled(cap - rel_weight, scale)
    elim = linalg.Eliminator(p)
    for rel in relations:
        terms = [(*carry(scaled(mm.lam, scale), mm.nu), c)
                 for mm, c in rel.terms.items()]
        for _, w, nu, th in monomials:
            if w > w_max:
                continue
            row = {}
            for w1, nu1, th1, c in terms:
                if min(map(add, th, th1)) >= g_s:
                    continue
                col = index[(w + w1, tuple(map(add, nu, nu1)))]
                val = row.get(col)
                val = c if val is None else val + c
                if val:
                    row[col] = val
                else:
                    del row[col]
            if row:
                elim.add_row(row)

    # The quotient dimension is measured on the inner window only: monomials
    # near the outer cap lack the products that would reduce them and must
    # not be counted.
    inner_w = scaled(inner_cap, scale)
    inner_units = [{i: 1} for i, (_, w, _, _) in enumerate(monomials)
                   if w <= inner_w]
    dim_s = len(inner_units)
    window = elim.fork()
    dim_quotient = sum(window.add_row(u) for u in inner_units)

    keys = [(w + h, nu) for h in heights for w, nu, _ in map(key, basis)]
    assert all(w <= inner_w for w, _ in keys)
    with_basis = elim.fork()
    independent = all(with_basis.add_row({index[c]: 1}) for c in keys)
    return dim_s, dim_quotient, independent
