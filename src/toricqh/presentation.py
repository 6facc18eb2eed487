"""Ring presentations: classical cohomology, monotone quantum cohomology,
quantum Stanley-Reisner relations, divisor-inverse certificates, unit
(B-field) deformations and the basis-independence audit.

All graded verification is done over the integers: each graded quotient is
eliminated once by ``linalg.Eliminator``, whose unit pivots certify it
torsion-free (a column echelon decides a residual block without unit
entries), so that ranks and structure constants are simultaneously valid
over any coefficient ring.  Torsion is a hard error; it would contradict the
freeness facts these presentations rest on and therefore signals invalid
input or an implementation bug.  Under a non-unit B-field the quantum
elimination runs over Q.

The quantum presentation eliminates one layer, the top T-degree
bound = 2n + margin, and its T-degree k pieces A_k below follow from it
(``quantum_presentation``): (1) A/TA is the classical ring, verified free
on the basis e_g, so by induction on k, A_k is spanned by the
T^(k - deg e_g) * e_g with deg e_g <= k; (2) multiplying by T^(bound - k)
maps that set into the verified basis of A_bound, so it is independent
and A_k is free on it; (3) the column of nu in A_bound is T^(bound - k)
times the monomial of T-degree k at nu, so that monomial's coordinates
are the column's, 0 on every e_g of degree above k.

The slices come from ``topology.sr_slices`` and the relation rows from
``topology.graded_rows`` in the lattice basis of the first vertex, so
they, and their cost, do not depend on the lattice basis of the input.
The rows of a slice are built only when they are read: the classical
layers read their n + 1 slices, the quantum one its top slice alone.
A slice monomial is keyed by an integer of ``topology.SRKeys``, which
encodes its exponent vector (classical) or its nu (quantum) in the first
vertex's lead order (``topology.graded_rows``); each layer keeps its
``SRKeys`` to find the column of a vector.  Over Z the rows are nonzero
ints and go to the eliminator as they are; over Q they are scaled to
integers by ``linalg.normalize``.

Basis convention: within each degree, monomials are scanned in ascending
graded-lexicographic order on exponent vectors (``SRKeys.lex``, not the
column order) and kept when their image modulo the kept ones in the
quotient Z^r (r a Betti number) is nonzero and primitive.  No automorphism
of Z^r changes that test, so the basis does not depend on the column
order.  The inverse of the kept r x r matrix turns quotient coordinates
into coefficients on the basis, so a structure constant is one reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from operator import add, mul

from . import linalg, topology
from .errors import PreconditionError, VerificationError
from .monoid import FilteredElement, format_monomial, monoid_for, signed_sum
from .polyhedra import (DelzantPolyhedron, exact_parameter, exact_units,
                        integer_offsets, integer_parameter, is_compact,
                        is_integer, memoized, minimal_nonfaces,
                        monotone_normalization, relabel_lattice,
                        require_delzant, vertex_coordinates)

TPoly = tuple  # coefficient tuple, index = exponent of T


def _tpoly(pairs) -> TPoly:
    """Build a coefficient tuple from (exponent, coefficient) pairs."""
    pairs = [(e, c) for e, c in pairs if c]
    if not pairs:
        return ()
    out = [0] * (max(e for e, _ in pairs) + 1)
    for e, c in pairs:
        out[e] += c
    return tuple(out)


def tpoly_str(p: TPoly, unit: str = "") -> str:
    """The T-polynomial p times the monomial string ``unit`` ("" or "1"
    for none), as a ``signed_sum``."""
    unit = "" if unit == "1" else unit
    terms = []
    for e, c in enumerate(p):
        t = "" if e == 0 else "T" if e == 1 else f"T^{e}"
        terms.append((c, "*".join(x for x in (t, unit) if x) or "1"))
    return signed_sum(terms)


def _symmetric(r, cell):
    """The r x r table, as tuples, whose entries (a, b) and (b, a) are
    cell(a, b) for a <= b: one product per unordered pair of a
    commutative ring's basis."""
    table = [[None] * r for _ in range(r)]
    for a in range(r):
        for b in range(a, r):
            table[a][b] = table[b][a] = cell(a, b)
    return tuple(map(tuple, table))


# ---------------------------------------------------------------------------
# Graded quotients

@dataclass(frozen=True)
class QuotientLayer:
    """One graded piece: a monomial slice modulo the linear-form images.

    ``index`` maps the integer key of each slice monomial (see ``keys``)
    to its column.  ``echelon`` is the settled elimination of the relation
    rows; the basis classes sit at ``basis_cols`` and carry the global
    basis indices ``basis_idx``; ``inverse`` holds the columns of the
    inverse of their quotient coordinates, so a vector's coefficients on
    the basis are its quotient coordinates times ``inverse``.
    """
    index: dict                             # slice monomial key -> column
    keys: topology.SRKeys
    echelon: linalg.Eliminator
    basis_cols: tuple[int, ...]
    basis_idx: tuple[int, ...]
    inverse: tuple

    def column(self, vec) -> int:
        """The column of the slice monomial keyed by the vector ``vec``."""
        return self.index[self.keys.encode(vec)]

    def coords(self, vec) -> dict:
        """Nonzero coefficients {global basis index: c} of a slice vector
        (sparse dict column -> value) on the basis classes."""
        y = self.echelon.reduce(vec)
        out = {}
        for g, col in zip(self.basis_idx, self.inverse):
            c = sum(a * b for a, b in zip(y, col))
            if c:
                out[g] = c
        return out


def _graded_layer(index, keys, rows, integral, where, candidates,
                  claimed=False, first_idx=0) -> QuotientLayer:
    """Eliminate the relation rows of one slice and fix its basis.

    Without ``claimed`` the basis is picked greedily: the first columns of
    ``candidates``, in order, whose classes extend to a free basis of the
    quotient (over Z) or to a basis (over Q).  With ``claimed`` the
    candidates must be such a basis.  ``first_idx`` is the global index of
    the first basis element; ``where`` names the slice in error messages.
    """
    elim = linalg.Eliminator(integral=integral)
    for row in rows:
        elim.add_row(row if integral else linalg.normalize(row))
    if not elim.settle(len(index)):
        raise VerificationError(f"torsion in {where}")
    kept, inverse = linalg.extend_to_basis(
        (elim.reduce({col: 1}) for col in candidates), elim.dim, integral)
    if len(kept) != elim.dim or (claimed and len(candidates) != elim.dim):
        raise VerificationError(f"the {'claimed' if claimed else 'slice'} "
                                f"monomials hold no basis of {where} (rank "
                                f"{elim.dim})")
    return QuotientLayer(index, keys, elim,
                         tuple(candidates[i] for i in kept),
                         tuple(range(first_idx, first_idx + len(kept))),
                         tuple(map(tuple, inverse)))


# ---------------------------------------------------------------------------
# Classical presentation

@dataclass(frozen=True)
class RingPresentation:
    ring: str
    dim: int
    nfacets: int
    linear_relations: tuple[tuple[int, ...], ...]   # rows: coefficients of Z_j
    nonfaces: tuple[tuple[int, ...], ...]           # monomial relations (labels)
    ranks: tuple[int, ...]                          # ranks in degrees 0..dim
    basis: tuple[tuple[int, ...], ...]              # exponent vectors, by degree
    structure: tuple                                # structure[a][b] = coeff tuple

    @property
    def total_rank(self) -> int:
        return len(self.basis)

    def basis_degrees(self) -> tuple[int, ...]:
        return tuple(sum(e) for e in self.basis)

    def basis_names(self) -> tuple[str, ...]:
        return tuple(format_monomial(0, e) for e in self.basis)


@dataclass(frozen=True)
class ClassicalLayers:
    """The certified graded quotients of the classical presentation: one
    ``QuotientLayer`` per degree 0..dim, the greedy basis (exponent
    vectors, by degree) and the rank in each degree."""
    layers: tuple[QuotientLayer, ...]
    basis: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]


@memoized
def classical_layers(P: DelzantPolyhedron) -> ClassicalLayers:
    """The graded quotients of the classical cohomology, certified.

    Works degree by degree up to dim = n: the degree-d monomials with face
    support, modulo the images of the linear forms c_i times degree d-1
    (``topology.vertex_rows``).  The quotient at degree n+1 is 0, certified
    from the degree-n layer by ``topology.top_class_certificate``: there the
    quotient is 0 or generated, over Z, by the class of the first vertex's
    facet monomial, and VerificationError is raised where the certificate
    fails.  The quotient ring is generated in degree 1, so every higher
    degree is 0 as well.  All quotients are verified torsion-free over Z,
    and the rank in every degree must equal the nerve's h-vector
    (``topology.h_vector``), or VerificationError is raised.  Kept on P, so
    the classical, quantum and Jacobian calls on one polyhedron share it.
    P must pass ``require_delzant``, which the callers check.
    """
    n = P.dim
    keys, leads, walk = topology.vertex_rows(P, n)

    layers = []
    basis = []
    for d, (index, rows) in enumerate(walk):
        keyed = list(index)
        layer = _graded_layer(index, keys, rows, True,
                              f"the classical quotient at degree {d}",
                              [index[m] for m in sorted(keyed, key=keys.lex)],
                              first_idx=len(basis))
        layers.append(layer)
        basis.extend(keys.decode(keyed[col]) for col in layer.basis_cols)
    if not topology.top_class_certificate(layer.echelon, layer.index,
                                          keys.steps, leads):
        raise VerificationError(f"classical cohomology is not certified to "
                                f"vanish in degree {n + 1} > {n}")

    ranks = tuple(len(layers[d].basis_cols) for d in range(n + 1))
    h = topology.h_vector(topology.sr_hilbert_function(P, n), n)
    if ranks != h:
        raise VerificationError(f"classical ranks {list(ranks)} != h-vector "
                                f"{list(h)} of the nerve")
    return ClassicalLayers(tuple(layers), tuple(basis), ranks)


@memoized
def classical_presentation(P: DelzantPolyhedron,
                           ring: str = "Z") -> RingPresentation:
    """Stanley-Reisner presentation of the classical cohomology.

    The basis and ranks are those of the certified layers of
    ``classical_layers``; this adds the structure table and the minimal
    nonfaces.  A product of two basis elements past degree n has structure
    constants 0 without a slice, as the quotient vanishes there.  The
    requested coefficient ring only changes how the table is reported.
    Under a unit B-field the table is this one rescaled, as
    ``apply_bfield`` states.
    """
    require_delzant(P)
    ring = _ring_label(ring)
    classical = classical_layers(P)
    structure = _classical_structure(classical.layers, classical.basis, ring)
    return RingPresentation(ring, P.dim, P.nfacets, tuple(zip(*P.normals)),
                            minimal_nonfaces(P), classical.ranks,
                            classical.basis, structure)


def _classical_structure(layers, basis, ring):
    # the degree-d slice holds every face-supported monomial, so a product
    # outside it is 0
    def cell(a, b):
        m = tuple(map(add, basis[a], basis[b]))
        d = sum(m)
        coeffs = [0] * len(basis)
        if d < len(layers):
            layer = layers[d]
            col = layer.index.get(layer.keys.encode(m))
            if col is not None:
                for g, c in layer.coords({col: 1}).items():
                    coeffs[g] = c
        return tuple(_coerce_ring(c, ring) for c in coeffs)
    return _symmetric(len(basis), cell)


def _rescaled(plain: RingPresentation, rho) -> RingPresentation:
    """The plain classical presentation in the generators rho_j * v_j, for
    nonzero Fraction units rho, by the rule of ``apply_bfield``."""
    ring = "Z" if all(abs(r) == 1 for r in rho) else "Q"
    coeff = tuple(int(r) if r.denominator == 1 else r for r in rho)
    weight = [prod(map(pow, rho, e)) for e in plain.basis]
    structure = _symmetric(len(weight), lambda a, b: tuple(
        _coerce_ring(c * weight[g] / (weight[a] * weight[b]), ring)
        for g, c in enumerate(plain.structure[a][b])))
    linear = tuple(tuple(map(mul, row, coeff))
                   for row in plain.linear_relations)
    return replace(plain, ring=ring, linear_relations=linear,
                   structure=structure)


def _coerce_ring(c, ring):
    if ring == "Z":
        if c.denominator != 1:
            raise VerificationError(f"non-integral coefficient {c} over Z")
        return int(c)
    if ring == "Q":
        return Fraction(c)
    p = int(ring[1:])
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _ring_label(ring) -> str:
    """"Z", "Q" or "F{p}" for the coefficient ring named "Z", "Q" or "Fp"
    (either case); PreconditionError for any other name, or a p that
    ``linalg.field_prime`` refuses."""
    if ring in ("Z", "z"):
        return "Z"
    if ring in ("Q", "q"):
        return "Q"
    if isinstance(ring, str) and ring.lower().startswith("f"):
        return f"F{linalg.field_prime(ring[1:])}"
    raise PreconditionError(f"unknown coefficient ring {ring!r}")


# ---------------------------------------------------------------------------
# Quantum Stanley-Reisner relations

@dataclass(frozen=True)
class QuantumSRRelation:
    nonface: tuple[int, ...]      # facet labels of the product on the left
    height: Fraction              # exponent of T on the right
    target: tuple[int, ...]       # exponent vector of the right-hand monomial
    coefficient: Fraction = Fraction(1)

    def __str__(self) -> str:
        lhs = "*".join(f"v{j}" for j in self.nonface)
        rhs = signed_sum([(self.coefficient,
                           format_monomial(self.height, self.target))])
        return f"{lhs} = {rhs}"


def quantum_sr_relations(P: DelzantPolyhedron) -> tuple[QuantumSRRelation, ...]:
    """One relation per minimal nonface J: the product of the v_j over J
    equals T^h times the canonical intersecting monomial, h > 0."""
    require_delzant(P)
    ctx = monoid_for(P)
    out = []
    for J in minimal_nonfaces(P):
        lam = sum((P.offset(j) for j in J), Fraction(0))
        nu = tuple(sum(P.normal(j)[i] for j in J) for i in range(P.dim))
        s, t = ctx.decompose((lam, nu))
        if s <= 0:
            raise VerificationError(f"nonface {J} produced height {s}; expected "
                                    f"a strictly positive height")
        out.append(QuantumSRRelation(J, s, t))
    return tuple(out)


# ---------------------------------------------------------------------------
# Quantum presentation (monotone case)

@dataclass(frozen=True)
class QuantumPresentation:
    normalized: DelzantPolyhedron
    translation: tuple[Fraction, ...]
    scale: Fraction
    ring: str
    rho: tuple[Fraction, ...]
    degree_bound: int
    classical: RingPresentation
    linear_relations: tuple[tuple, ...]
    qsr_relations: tuple[QuantumSRRelation, ...]
    basis: tuple[tuple[int, ...], ...]
    basis_degrees: tuple[int, ...]
    verified_ranks: tuple[int, ...]
    structure: tuple                         # structure[a][b][i] = TPoly
    layer: QuotientLayer                     # T-degree degree_bound

    def basis_names(self) -> tuple[str, ...]:
        return tuple(format_monomial(0, e) for e in self.basis)

    def monomial_coords(self, k: int, nu, c=1) -> list:
        """Coordinates as T-polynomials on the basis of c times the monomial
        of T-degree k and lattice part ``nu`` of the normalized monoid: what
        ``reduce_to_basis`` gives for that one term, each T-polynomial with
        one term at most.  They are read off the one layer, of T-degree
        ``degree_bound``, whose column at nu is that monomial times
        T^(degree_bound - k) (``quantum_presentation``, step 3).
        PreconditionError for a k outside 0..degree_bound, a (k, nu)
        that is no monomial of the monoid or a c that is not exact
        (``exact_parameter``); an int c stays an int."""
        integer_parameter(k, "T-degree", 0, self.degree_bound)
        if not is_integer(c):
            c = exact_parameter(c, "coefficient")
        if not monoid_for(self.normalized).contains((k, nu)):
            raise PreconditionError(f"no monomial of T-degree {k} has lattice "
                                    f"part {tuple(nu)}")
        return _top_coords(self.layer, self.basis_degrees, k, {tuple(nu): c})


def _top_coords(layer, degs, k, terms) -> list:
    """The coordinates as T-polynomials on the basis, of degrees ``degs``,
    of the element x = sum of the c * (k, nu) over ``terms`` {nu: c} of
    T-degree k: c' * T^(k - deg e_g) for the coefficient c' on e_g of
    T^(bound - k) * x in the top ``layer``.  VerificationError for a
    c' != 0 with deg e_g > k, which step 3 of ``quantum_presentation``
    rules out."""
    coords = layer.coords({layer.column(nu): c for nu, c in terms.items()})
    if any(degs[g] > k for g in coords):
        raise VerificationError(f"the top layer puts an element of T-degree "
                                f"{k} on a basis element of higher degree")
    return [(0,) * (k - d) + (coords[g],) if g in coords else ()
            for g, d in enumerate(degs)]


@memoized
def quantum_presentation(P: DelzantPolyhedron, margin: int = 0,
                         _rho=None) -> QuantumPresentation:
    """Monotone quantum cohomology presentation with integer structure
    constants.

    Normalizes the polyhedron first (all offsets 1).  The quotient A_k of
    the T-degree k slice by the images of the linear forms is free of rank
    #{g : deg e_g <= k}, on the T^(k - deg e_g) * e_g, for every k up to
    bound = 2*dim + margin; only A_bound is eliminated.  The walk of
    ``topology.vertex_rows`` steps through the keys of every slice, and
    builds the relation rows of the top one alone, whose Koszul bounds
    read the keys of the slice two below it.  Slice k sits in slice k + 1
    as T times it, under the same nu keys, which makes this a theorem
    about the input:

    1. A/TA is the classical ring, which ``classical_presentation`` has
       verified free on the e_g over Z (over Q under a non-unit B-field).
       So by induction on k, A_k is spanned by the T^(k - deg e_g) * e_g
       with deg e_g <= k.
    2. The elimination verifies the T^(bound - deg e_g) * e_g to be a
       basis of A_bound; torsion or another rank is a hard error.
       Multiplying by T^(bound - k) maps the spanning set of A_k into that
       basis, so the set is independent and A_k is free of the rank listed
       in ``verified_ranks``.
    3. The column of nu in A_bound is T^(bound - k) * x for the monomial x
       of T-degree k and lattice part nu, so the coordinates of x are
       those of that column, 0 on every e_g with deg e_g > k (checked:
       VerificationError otherwise).

    Units ``_rho`` (``exact_units``) rescale the generators: the classical
    part as ``apply_bfield`` states, and the rows, which are then
    eliminated over Q unless every unit is +-1.
    """
    require_delzant(P)
    norm = monotone_normalization(P)
    if norm is None:
        raise PreconditionError("polyhedron is not monotone: the offsets cannot "
                                "be equalized by a translation")
    integer_parameter(margin, "margin", 0)
    Pn = norm.rescaled
    N, n = Pn.nfacets, Pn.dim
    rho = exact_units((1,) * N if _rho is None else _rho, N)
    classical = classical_presentation(Pn)
    if _rho is not None:
        classical = _rescaled(classical, rho)
    ring = classical.ring
    # keep the fast integer pipeline when the units are +-1
    rho_coeff = tuple(int(r) if r.denominator == 1 else r for r in rho)
    basis = classical.basis
    degs = classical.basis_degrees()
    columns = list(zip(*Pn.normals))
    basis_nu = [tuple(sum(map(mul, e, col)) for col in columns) for e in basis]

    bound = 2 * n + margin
    keys, _, walk = topology.vertex_rows(Pn, bound, rho_coeff, by_nu=True)
    for index, rows in walk:  # only the top slice's rows are read, and built
        pass
    layer = _graded_layer(index, keys, rows, ring == "Z",
                          f"the quantum quotient at T-degree {bound}",
                          [index[keys.encode(nu)] for nu in basis_nu], True)
    return QuantumPresentation(
        Pn, norm.translation, norm.offset, ring, rho, bound, classical,
        classical.linear_relations, quantum_sr_relations(Pn), basis, degs,
        tuple(sum(d <= k for d in degs) for k in range(bound + 1)),
        _quantum_structure(layer, degs, basis_nu, ring), layer)


def _quantum_structure(layer, degs, basis_nu, ring):
    def cell(a, b):
        nu = tuple(map(add, basis_nu[a], basis_nu[b]))
        coords = _top_coords(layer, degs, degs[a] + degs[b], {nu: 1})
        return tuple(poly[:-1] + (_coerce_ring(poly[-1], ring),) if poly
                     else () for poly in coords)
    return _symmetric(len(degs), cell)


def reduce_to_basis(x: FilteredElement, Q: QuantumPresentation):
    """Exact coordinates of a filtered element (over the normalized monoid) as
    T-polynomials on the quantum basis, read off the one layer: the terms
    of each T-degree k as one vector, at T-power k - deg e_g
    (``QuantumPresentation.monomial_coords``)."""
    if x.monoid is not monoid_for(Q.normalized):
        raise PreconditionError("element must live over the normalized "
                                "monotone monoid of this presentation")
    by_degree: dict[int, dict] = {}
    for m, c in x.terms.items():
        if m.lam.denominator != 1:
            raise PreconditionError(f"monomial with non-integral T-weight "
                                    f"{m.lam} is outside the monotone monoid")
        k = int(m.lam)
        if k > Q.degree_bound:
            raise PreconditionError(f"degree overflow: T-weight {k} exceeds the "
                                    f"presentation bound {Q.degree_bound}")
        by_degree.setdefault(k, {})[m.nu] = c
    pairs = [[] for _ in Q.basis]
    for k, terms in sorted(by_degree.items()):
        for p, poly in zip(pairs, _top_coords(Q.layer, Q.basis_degrees, k,
                                              terms)):
            p.extend(enumerate(poly))
    return [_tpoly(p) for p in pairs]


# ---------------------------------------------------------------------------
# Kodaira-Spencer table, divisor inverses, B-fields, audits

def kodaira_spencer_table(Q: QuantumPresentation) -> dict:
    """Coordinates of the images of the divisor classes and of the classical
    basis monomials: a complete description of the presentation isomorphism
    on generators.  The image H_j = rho_j * v_j is the monomial of T-degree
    1 at nu_j times rho_j, read off the one layer
    (``QuantumPresentation.monomial_coords``)."""
    table = {"generators": {}, "basis_monomials": {}}
    for j, (nu, r) in enumerate(zip(Q.normalized.normals, Q.rho), 1):
        table["generators"][f"H{j}"] = Q.monomial_coords(
            1, nu, int(r) if r.denominator == 1 else r)
    for g, e in enumerate(Q.basis):
        coords = [() for _ in Q.basis]
        coords[g] = (1,)
        table["basis_monomials"][format_monomial(0, e)] = coords
    return table


@dataclass(frozen=True)
class InverseCertificate:
    label: int
    multiplicities: tuple[int, ...]   # m with m_j >= 1 and sum m_k nu_k = 0
    t_exponent: Fraction              # sum m_k lambda_k

    def __str__(self) -> str:
        return (f"{format_monomial(0, self.multiplicities)} = "
                f"{format_monomial(self.t_exponent, ())}")


def divisor_inverse_certificate(P: DelzantPolyhedron, j: int) -> InverseCertificate:
    """A monoid identity certifying that v_j divides a power of T.

    The certificate is the multiplicity vector m with m_j >= 1 and
    sum m_k nu_k = 0 whose (total degree, m) is least, m compared
    lexicographically: the first one a search through the weak compositions
    of total 2, 3, ... in lexicographic order meets.  Compactness guarantees
    one exists; totals of 40 * N and more are not searched.  The vectors of
    all facets come from one solve in the lattice basis of the first vertex,
    kept on P (``_inverse_multiplicities``), which finds the same vectors.
    The identity v_j * prod v_k^(m_k - delta_jk) = T^(sum m_k lambda_k) is
    then verified in integers: the product of the v_k^(m_k) is the cone
    point (sum m_k lambda_k, sum m_k nu_k), which is that power of T exactly
    when sum m_k nu_k = 0, every m_k >= 0 and m_j >= 1.  The exponent is
    one Fraction, (sum m_k L_k) / D over the integer offsets L of
    ``polyhedra.integer_offsets``.
    """
    require_delzant(P)
    integer_parameter(j, "facet label", 1, P.nfacets)
    if not is_compact(P):
        raise PreconditionError(
            "polyhedron is not compact: the toric divisor classes generate a "
            "proper subring and no inverse certificate exists")
    m = _inverse_multiplicities(P)[j - 1]
    if m is None:
        raise VerificationError(f"no inverse certificate found for facet {j} "
                                f"within the search bound; input inconsistent "
                                f"with compactness")
    if (len(m) != P.nfacets or min(m) < 0 or m[j - 1] < 1
            or any(sum(map(mul, m, column)) for column in zip(*P.normals))):
        raise VerificationError("certificate failed to verify as a monoid "
                                "identity")
    D, L = integer_offsets(P)
    return InverseCertificate(j, m, Fraction(sum(map(mul, m, L)), D))


@memoized
def _inverse_multiplicities(P: DelzantPolyhedron):
    """For every facet j, the least (total, m) of ``divisor_inverse_certificate``
    with total below 40 * N, as m alone, or None where there is none.

    The solve is in the basis of the first vertex, with facets S = (s_1, ...,
    s_n) and w_l the coordinates of nu_l (``vertex_coordinates(P, 0)``), in
    which w_{s_k} is the k-th unit vector.  So sum m_k nu_k = 0 exactly when
    m_S = -sum_{l not in S} m_l w_l: the N - n free multiplicities fix m,
    and m is a solution when that m_S is non-negative.  The free parts are
    enumerated by exact sum B = 0, 1, ..., and each facet keeps its least
    (total, m) over the solutions met.  A solution of total T has free sum
    at most T, so once every facet's best total is at most B, no solution
    not yet met can beat it, and the search stops: each facet gets the
    vector the composition search finds.  Compact input has N > n.
    """
    N = P.nfacets
    S, coords = vertex_coordinates(P, 0)
    free = [l for l in range(N) if l + 1 not in S]
    order = free + [s - 1 for s in S]
    minus_w = [[-x for x in coords[l]] for l in free]
    best = [None] * N
    need = 40 * N - 1  # no facet can use a larger total
    for free_sum in range(40 * N):
        for parts, m_lead in _weighted_compositions(free_sum, minus_w):
            total = free_sum + sum(m_lead)
            if total > need or min(m_lead) < 0:
                continue
            m = [0] * N
            for l, x in zip(order, parts + tuple(m_lead)):
                m[l] = x
            found = (total, tuple(m))
            for k, mk in enumerate(m):
                if mk and (best[k] is None or found < best[k]):
                    best[k] = found
        if None not in best:
            need = max(b[0] for b in best)
            if need <= free_sum:
                break
    return tuple(b and b[1] for b in best)


def _weighted_compositions(total, vectors):
    """The pairs (c, sum_i c_i * vectors[i]) over the weak compositions c
    of ``total`` into len(vectors) >= 1 parts, c a tuple, built part by
    part for all compositions at once."""
    level = [((), [0] * len(vectors[0]), total)]
    for v in vectors[:-1]:
        level = [(parts + (c,), [a + c * x for a, x in zip(acc, v)], left - c)
                 for parts, acc, left in level for c in range(left + 1)]
    last = vectors[-1]
    return [(parts + (left,), [a + left * x for a, x in zip(acc, last)])
            for parts, acc, left in level]


@dataclass(frozen=True)
class BFieldReport:
    rho: tuple[Fraction, ...]
    ring: str
    classical: RingPresentation
    quantum: QuantumPresentation | None
    deformed_relations: tuple[QuantumSRRelation, ...]


def apply_bfield(P: DelzantPolyhedron, rho) -> BFieldReport:
    """Rescale the generators by units rho_j (``exact_units``).

    v_j -> rho_j * v_j fixes the Stanley-Reisner ideal, so the classical
    table is the plain one with entry (a, b; g) times rho^(e_g - e_a - e_b),
    on the plain basis and ranks, over Z when every rho_j is +-1 and over Q
    otherwise; the linear relations become nu_j * rho_j.  The quantum table
    (monotone P) is no such rescaling and is eliminated with the units.  The
    quantum Stanley-Reisner relations pick up the scalar
    prod_(j in J) rho_j / prod_j rho_j^(t_j) in the rescaled generators.
    """
    rho = exact_units(rho, P.nfacets)
    deformed = _rescaled(classical_presentation(P), rho)
    quantum = quantum_presentation(P, _rho=rho) \
        if monotone_normalization(P) is not None else None

    relations = []
    for rel in quantum_sr_relations(P):
        num = prod(rho[j - 1] for j in rel.nonface)
        den = prod(map(pow, rho, rel.target))
        relations.append(QuantumSRRelation(rel.nonface, rel.height, rel.target,
                                           num / den))
    return BFieldReport(rho, deformed.ring, deformed, quantum,
                        tuple(relations))


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    trials: int
    details: tuple[str, ...]


def basis_independence_audit(P: DelzantPolyhedron, seed: int = 0,
                             trials: int = 3) -> AuditReport:
    """Recompute the presentations after random unimodular changes of the
    lattice basis; ranks, basis exponent vectors and structure constants must
    be identical (exponent vectors are written in the facet generators, which
    do not move)."""
    integer_parameter(trials, "trials", 1)
    rng = random.Random(integer_parameter(seed, "seed", 0))
    base = classical_presentation(P)
    base_q = quantum_presentation(P) if monotone_normalization(P) else None
    details = []
    ok = True
    for t in range(trials):
        U = linalg.random_unimodular(P.dim, rng)
        P2 = relabel_lattice(P, U)
        cp = classical_presentation(P2)
        if (cp.ranks, cp.basis, cp.structure) != (base.ranks, base.basis,
                                                  base.structure):
            ok = False
            details.append(f"trial {t}: classical presentation changed under "
                           f"relabeling {U}")
            continue
        if base_q is not None:
            qp = quantum_presentation(P2)
            if (qp.basis, qp.verified_ranks, qp.structure) != \
                    (base_q.basis, base_q.verified_ranks, base_q.structure):
                ok = False
                details.append(f"trial {t}: quantum presentation changed under "
                               f"relabeling {U}")
                continue
        details.append(f"trial {t}: invariant under relabeling")
    return AuditReport(ok, trials, tuple(details))
