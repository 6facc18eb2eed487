"""The disc-area cone, height filtration, and filtered monoid-ring arithmetic.

A cone element is a pair ``(lam, nu)`` with ``lam`` rational and ``nu`` an
integer vector: a point of Q (+) Z^n which may or may not lie in the cone
spanned by the facet data (lambda_j, nu_j) together with (1, 0).  Membership,
heights and canonical intersecting-sum decompositions live on a
:class:`ConeMonoid` bound to a fixed polyhedron; monomials certified by a
decomposition support exact ring arithmetic through
:class:`FilteredElement`.  lam must be exact and nu must be dim integers;
anything else (a float or bool among them) raises PreconditionError.

The cone is the dual of P homogenised: (t, x) pairs non-negatively with
every (lambda_j, nu_j) and with (1, 0) iff t >= 0 and x lies in t * P
(for t = 0, in the recession cone of P).  P is the hull of its vertices
plus the cone of the rays that ``polyhedra.enumerate_vertices`` records on
them, so (lam, nu) lies in the cone iff theta_v = lam + <v, nu> >= 0 at
every vertex v and <nu, r> >= 0 for every ray r; no LP is solved.

Monomial identity is the pair (lam, nu), never the exponent vector that
happens to express it: two products of generators landing on the same cone
point are the same monomial, which is precisely how quantum Stanley-Reisner
relations arise.

The cone arithmetic runs in integers.  Each :class:`ConeMonoid` scales the
vertex coordinates and the offsets by their common denominator D once, so
theta_v(lam, nu) * D = lam * D + <v * D, nu> with an integer pairing, and
takes the basis of each vertex from the record that the vertex walk of
``polyhedra.enumerate_vertices`` leaves on it (``polyhedra.vertex_basis``:
the labels, integer adjugate and determinant of the normals it expresses
in), so no solve runs here; a decomposition then costs integer dot products
and one d x d integer matrix-vector product.  Membership and the sign test
of a decomposition read lam through its numerator and denominator, and the
height levels are walked in integers (``scaled_height_levels``).  Public
values (``lam``, ``height``) stay exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import LatticeError, PreconditionError, SchemaError
from .polyhedra import (DelzantPolyhedron, Vertex, enumerate_vertices,
                        exact_fraction, exact_parameter, format_point,
                        integer_offsets, integer_parameter, is_integer,
                        memoized)


def scaled(x: Fraction, D: int) -> int:
    """x * D for a fraction x whose denominator divides D."""
    return x.numerator * (D // x.denominator)


def _lam_nu(c):
    """(lam, nu) of a monomial or a pair, lam a Fraction or an int that is
    no bool, read through ``numerator`` and ``denominator``; a float or bool
    lam, or a value that is no pair, raises PreconditionError."""
    if isinstance(c, Monomial):
        return c.lam, c.nu
    try:
        lam, nu = c
        nu = tuple(nu)
    except (TypeError, ValueError):
        raise PreconditionError(f"a cone element is a pair (lam, nu), got "
                                f"{c!r}") from None
    if type(lam) is not Fraction and not is_integer(lam):
        lam = exact_parameter(lam, "lambda")
    return lam, nu


def _check_nu(nu, n: int, what: str = "nu") -> None:
    if len(nu) != n or not all(is_integer(x) for x in nu):
        raise PreconditionError(f"{what} must be {n} integers, got {nu!r}")


def theta(v: Vertex, c) -> Fraction:
    """The linear functional lam + <v, nu> attached to a vertex."""
    lam, nu = _lam_nu(c)
    _check_nu(nu, len(v.point))
    return lam + sum(a * b for a, b in zip(v.point, nu))


@dataclass(frozen=True)
class Monomial:
    """A cone element certified to lie in the integral monoid, with its
    canonical decomposition height * (1,0) + sum_j exponents[j] * (lam_j, nu_j)
    cached at construction."""

    lam: Fraction
    nu: tuple[int, ...]
    height: Fraction = field(compare=False)
    exponents: tuple[int, ...] = field(compare=False)
    monoid: "ConeMonoid" = field(compare=False, repr=False)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(j + 1 for j, t in enumerate(self.exponents) if t)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return self.monoid.monomial(self.lam + other.lam,
                                    tuple(a + b for a, b in zip(self.nu, other.nu)))

    def __str__(self) -> str:
        return format_monomial(self.height, self.exponents)


def format_monomial(height, exponents) -> str:
    parts = []
    if height:
        parts.append("T" if height == 1 else
                     f"T^{height}" if height.denominator == 1 else f"T^({height})")
    for j, t in enumerate(exponents, start=1):
        if t == 1:
            parts.append(f"v{j}")
        elif t:
            parts.append(f"v{j}^{t}")
    return "*".join(parts) if parts else "1"


def signed_sum(terms) -> str:
    """The sum of the (coefficient, monomial string) pairs ``terms``, with
    the monomial "1" for a constant: c * m as "m", "-m", "c" (m "1") or
    "c*m", zero terms left out, " + -" written " - ", and "0" when no term
    is left.  Every sum of terms in a report is written by this rule."""
    parts = [m if c == 1 else f"-{m}" if c == -1 else f"{c}" if m == "1"
             else f"{c}*{m}" for c, m in terms if c]
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class ConeMonoid:
    """Cone membership, heights and decompositions for one polyhedron.

    Construction computes, once and in integers: the common denominator
    ``scale`` (D) of the offsets and the vertex coordinates, the scaled
    vertex points v * D (``scaled_points``) and offsets lambda_j * D
    (``scaled_offsets``), from the integers over a common denominator that
    ``polyhedra.integer_offsets`` and each vertex (``Vertex.scaled``) hold,
    with no Fraction read; and for each vertex the lattice basis a
    decomposition expresses in: the vertex's basis record
    (``polyhedra.vertex_basis``), the incident labels with the integer
    adjugate and determinant of their normals.  It also collects the rays
    of P (``rays``) from the vertices.
    """

    def __init__(self, P: DelzantPolyhedron):
        self.P = P
        self.vertices = enumerate_vertices(P)
        if not self.vertices:
            raise PreconditionError("polyhedron has no vertex; the cone machinery "
                                    "needs the standing vertex assumption")
        self._monomials: dict[tuple[Fraction, tuple[int, ...]], Monomial] = {}
        D0, L = integer_offsets(P)
        self.scale = D = lcm(D0, *(v.scaled[1] for v in self.vertices))
        self.scaled_points = [tuple([x * (D // q) for x in y])
                              for y, q in (v.scaled for v in self.vertices)]
        self.scaled_offsets = tuple([x * (D // D0) for x in L])
        self._bases = [v.basis for v in self.vertices]
        self.rays = tuple(sorted({r for v in self.vertices for r in v.rays}))
        self._normal_columns = list(zip(*P.normals))

    def thetas(self, c) -> list[Fraction]:
        return [theta(v, c) for v in self.vertices]

    def pairings(self, nu) -> list[int]:
        """<v * D, nu> for every vertex v, so theta_v = lam + pairing / D."""
        return [sum(map(mul, pt, nu)) for pt in self.scaled_points]

    def contains(self, c) -> bool:
        """Membership in the cone: theta_v >= 0 at every vertex v and
        <nu, r> >= 0 for every ray r of P."""
        lam, nu = _lam_nu(c)
        _check_nu(nu, self.P.dim)
        return (lam.numerator * self.scale
                + min(self.pairings(nu)) * lam.denominator >= 0
                and all(sum(map(mul, r, nu)) >= 0 for r in self.rays))

    def height(self, c) -> Fraction:
        s, _ = self.decompose(c)
        return s

    def decompose(self, c) -> tuple[Fraction, tuple[int, ...]]:
        """Canonical intersecting sum (s, t): s is the height, the support of
        t meets in a common face, and the reconstruction is exact.

        The expression is taken at the first vertex of least theta_v.  A
        successful expression is itself a membership certificate, so the
        ray test of ``contains`` only runs on the error path, to tell apart
        "outside the cone" from a lattice failure (non-Delzant input).
        """
        lam, nu = _lam_nu(c)
        _check_nu(nu, self.P.dim)
        D = self.scale
        dots = self.pairings(nu)
        low = min(dots)
        num = lam.numerator * D + low * lam.denominator
        if num < 0:
            raise PreconditionError(f"({lam}, {nu}) is not in the cone")
        s = Fraction(num, lam.denominator * D)
        k = dots.index(low)
        t = self._express_at_vertex(k, nu)
        if t is None:
            if self.contains((lam, nu)):
                raise LatticeError(
                    f"no non-negative integral expression of {nu} in the normals "
                    f"incident to vertex {format_point(self.vertices[k].point)}; "
                    f"the input is not Delzant")
            raise PreconditionError(f"({lam}, {nu}) is not in the cone")
        # lam - s = sum_j t_j * lambda_j, scaled by D
        assert -low == sum(map(mul, t, self.scaled_offsets))
        return s, t

    def _express_at_vertex(self, k: int, nu) -> tuple[int, ...] | None:
        """Non-negative integer exponents of nu on the normals of vertex k,
        or None: x = adjugate * nu / det must be integral and >= 0."""
        labels, adj, det = self._bases[k]
        t = [0] * self.P.nfacets
        for j, row in zip(labels, adj):
            x, r = divmod(sum(map(mul, row, nu)), det)
            if r or x < 0:
                return None
            t[j - 1] = x
        return tuple(t)

    def monomial(self, lam, nu) -> Monomial:
        lam, nu = _lam_nu((lam, nu))
        # checked before the lookup: (1, (True, 0)) equals a cached key
        _check_nu(nu, self.P.dim)
        if type(lam) is not Fraction:
            lam = Fraction(lam)
        m = self._monomials.get((lam, nu))
        if m is None:
            s, t = self.decompose((lam, nu))
            m = Monomial(lam, nu, s, t, self)
            self._monomials[(lam, nu)] = m
        return m

    def generator(self, j: int) -> Monomial:
        """The distinguished monomial v_j carrying (lambda_j, nu_j)."""
        return self.monomial(self.P.offset(j), self.P.normal(j))

    def generators(self) -> list[Monomial]:
        return [self.generator(j) for j in range(1, self.P.nfacets + 1)]

    def one(self) -> Monomial:
        return self.monomial(0, (0,) * self.P.dim)

    def t_power(self, q) -> Monomial:
        q = exact_parameter(q, "T-exponent")
        if q < 0:
            raise PreconditionError("negative T-exponents are outside the monoid")
        return self.monomial(q, (0,) * self.P.dim)

    def from_exponents(self, t, height=0) -> Monomial:
        """T^height * prod_j v_j^t_j, for N integers t and an exact height."""
        _check_nu(t, self.P.nfacets, "exponents")
        h = exact_parameter(height, "height")
        lam = h + Fraction(sum(map(mul, t, self.scaled_offsets)), self.scale)
        return self.monomial(lam, tuple(sum(map(mul, t, col))
                                        for col in self._normal_columns))

    def zero(self) -> "FilteredElement":
        return FilteredElement(self, {})

    def element(self, terms) -> "FilteredElement":
        """Build a filtered element from {monomial: coefficient}, each
        coefficient exact (``exact_parameter``), the zero ones left out."""
        return FilteredElement(self, {m: exact_parameter(c, "coefficient")
                                      for m, c in terms.items()})


@memoized
def monoid_for(P: DelzantPolyhedron) -> ConeMonoid:
    """The cone monoid of P, built once per polyhedron object and kept on it;
    a value-equal polyhedron built separately has a monoid of its own."""
    return ConeMonoid(P)


class FilteredElement:
    """Finite sum of rational coefficients times monomials of one monoid.

    Each key must be a monomial of ``monoid`` and each coefficient an int
    (no bool) or a Fraction; anything else raises PreconditionError.  The
    zero coefficients are left out.  ``+``, ``-`` and ``*`` of elements
    of two monoids raise PreconditionError."""

    __slots__ = ("monoid", "terms")

    def __init__(self, monoid: ConeMonoid, terms: dict[Monomial, Fraction]):
        for m, c in terms.items():
            if not (isinstance(m, Monomial) and m.monoid is monoid):
                raise PreconditionError(f"the term {m!r} is not a monomial "
                                        f"of this monoid")
            if type(c) is not Fraction and not is_integer(c):
                raise PreconditionError(f"the coefficient {c!r} is not exact "
                                        f"(int or Fraction)")
        self.monoid = monoid
        self.terms = {m: c for m, c in terms.items() if c.numerator}

    def is_zero(self) -> bool:
        return not self.terms

    def height(self) -> Fraction | None:
        """Minimum height over the support; None for the zero element (the
        paper's convention would be +infinity)."""
        return min((m.height for m in self.terms), default=None)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].height, kv[0].nu))

    def _same_monoid(self, other) -> None:
        if other.monoid is not self.monoid:
            raise PreconditionError("operands live in different monoid "
                                    "contexts")

    def __add__(self, other):
        if not isinstance(other, FilteredElement):
            return NotImplemented
        self._same_monoid(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c = terms.get(m, 0) + c
            if c:
                terms[m] = c
            else:
                terms.pop(m, None)
        return FilteredElement(self.monoid, terms)

    def __neg__(self):
        return FilteredElement(self.monoid, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.monoid.zero()
            return FilteredElement(self.monoid,
                                   {m: c * other for m, c in self.terms.items()})
        if isinstance(other, Monomial):
            other = FilteredElement(self.monoid, {other: Fraction(1)})
        if not isinstance(other, FilteredElement):
            return NotImplemented
        self._same_monoid(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                c = terms.get(m, 0) + c1 * c2
                if c:
                    terms[m] = c
                else:
                    terms.pop(m, None)
        return FilteredElement(self.monoid, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FilteredElement) and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return signed_sum((c, str(m)) for m, c in self.sorted_terms())


def element_from_monomial(m: Monomial) -> FilteredElement:
    return FilteredElement(m.monoid, {m: Fraction(1)})


def cone_membership(P: DelzantPolyhedron, c) -> bool:
    return monoid_for(P).contains(c)


def height(P: DelzantPolyhedron, c) -> Fraction:
    return monoid_for(P).height(c)


def intersecting_sum(P: DelzantPolyhedron, c) -> tuple[Fraction, tuple[int, ...]]:
    return monoid_for(P).decompose(c)


def gamma_r_membership(P: DelzantPolyhedron, c) -> bool:
    """Membership in the integral monoid: nu integral (by representation) and
    the pair lies in the cone."""
    return monoid_for(P).contains(c)


def gamma_membership(P: DelzantPolyhedron, c, monoid: "HeightMonoid") -> bool:
    """The height-restricted monoid: additionally the height must be one of
    the enumerated values of the given height monoid (below its cutoff)."""
    ctx = monoid_for(P)
    if not ctx.contains(c):
        return False
    h = ctx.height(c)
    return h < monoid.cutoff and h in monoid.element_set


def monotone_gamma_membership(P: DelzantPolyhedron, c) -> bool:
    """Membership in the monotone monoid generated by (1, nu_j) and (1, 0).

    Requires a normalized polyhedron (all offsets 1): then membership is cone
    membership together with integrality of the T-exponent.
    """
    if any(lam != 1 for lam in P.offsets):
        raise PreconditionError("monotone monoid needs all offsets equal to 1; "
                                "normalize first")
    lam, nu = _lam_nu(c)
    return lam.denominator == 1 and lam >= 0 and monoid_for(P).contains((lam, nu))


def multiply(x: FilteredElement, y: FilteredElement) -> FilteredElement:
    return x * y


def truncate(x: FilteredElement, g) -> FilteredElement:
    """Drop all monomials of height >= g."""
    g = exact_parameter(g, "truncation cutoff")
    if g <= 0:
        raise PreconditionError("truncation cutoff must be positive")
    return FilteredElement(x.monoid,
                           {m: c for m, c in x.terms.items() if m.height < g})


@dataclass(frozen=True)
class HeightMonoid:
    """The discrete monoid of admissible heights, enumerated below a cutoff."""

    generators: tuple[Fraction, ...]
    cutoff: Fraction
    elements: tuple[Fraction, ...]

    @cached_property
    def element_set(self) -> frozenset[Fraction]:
        """The elements as a set, for membership tests.  Cached."""
        return frozenset(self.elements)


def build_height_monoid(P: DelzantPolyhedron, extra, g) -> HeightMonoid:
    """Monoid generated by all values theta_v(lambda_j, nu_j), read off the
    cone monoid's integers, plus the given extra heights, enumerated on
    [0, g).  The values are integers over one common denominator of the
    cone monoid's scale, g and the extra heights
    (``scaled_height_levels``); only the result is made Fractions."""
    g = exact_parameter(g, "cutoff")
    if g.numerator <= 0:
        raise PreconditionError("cutoff must be positive")
    try:
        extra = [exact_parameter(x, "extra height") for x in extra]
    except TypeError:
        raise PreconditionError(f"the extra heights must be a list of exact "
                                f"values, got {extra!r}") from None
    if any(x.numerator < 0 for x in extra):
        raise PreconditionError("extra heights must be non-negative")
    ctx = monoid_for(P)
    D = lcm(ctx.scale, g.denominator, *(x.denominator for x in extra))
    gens, elements = scaled_height_levels(
        ctx, [scaled(x, D) for x in extra], scaled(g, D), D)
    return HeightMonoid(tuple(Fraction(x, D) for x in gens), g,
                        tuple(Fraction(s, D) for s in elements))


def scaled_height_levels(ctx: ConeMonoid, extra, top: int, D: int):
    """(generators, elements) of the height monoid as sorted integers over
    D, a multiple of ``ctx.scale``: the values theta_v(lambda_j, nu_j) * D
    and the ``extra`` heights, already scaled by D, and every sum of
    positive ones below ``top`` (the cutoff times D), walked depth first."""
    k = D // ctx.scale
    gens = {k * (lam + dot)
            for lam, nu in zip(ctx.scaled_offsets, ctx.P.normals)
            for dot in ctx.pairings(nu)}
    gens.update(extra)
    gens = sorted(gens)
    positive = [x for x in gens if x > 0]
    elements = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for x in positive:
            s = base + x
            if s >= top:
                break
            if s not in elements:
                elements.add(s)
                frontier.append(s)
    return tuple(gens), tuple(sorted(elements))


def enumerate_gamma_degree(P: DelzantPolyhedron, k: int) -> list[Monomial]:
    """All monomials (k, nu) of the monotone monoid, sorted lexicographically
    by nu.  Requires all offsets equal to 1.  The definitional reference for
    the quantum slices, which are built from ``topology.sr_slices``."""
    if any(lam != 1 for lam in P.offsets):
        raise PreconditionError("degree slices need a normalized monotone "
                                "polyhedron (all offsets 1)")
    integer_parameter(k, "degree", 0)
    ctx = monoid_for(P)
    reachable = {(0,) * P.dim}
    for _ in range(k):
        extra = {tuple(a + b for a, b in zip(nu, normal))
                 for nu in reachable for normal in P.normals}
        reachable |= extra
    return [ctx.monomial(Fraction(k), nu) for nu in sorted(reachable)]


def log_derivative_generators(W: FilteredElement) -> list[FilteredElement]:
    """Coordinatewise logarithmic derivatives: the i-th output scales each
    monomial by the i-th component of its nu vector."""
    n = W.monoid.P.dim
    outs = []
    for i in range(n):
        terms = {m: c * m.nu[i] for m, c in W.terms.items() if m.nu[i]}
        outs.append(FilteredElement(W.monoid, terms))
    return outs


def filtered_to_json(x: FilteredElement) -> list[dict]:
    """Serialize sorted by (height, lex nu); round-trips bit-exactly."""
    return [{"lambda": str(m.lam), "nu": list(m.nu), "coeff": str(c)}
            for m, c in x.sorted_terms()]


def filtered_from_json(ctx: ConeMonoid, data) -> FilteredElement:
    if not isinstance(data, list):
        raise SchemaError("a filtered element must be a list of terms")
    terms: dict[Monomial, Fraction] = {}
    for item in data:
        try:
            lam = exact_fraction(item["lambda"], "lambda")
            nu = tuple(item["nu"])
            coeff = exact_fraction(item["coeff"], "coeff")
        except (KeyError, TypeError, SchemaError) as exc:
            raise SchemaError(f"bad term {item!r}: {exc}") from exc
        if not all(is_integer(v) for v in nu) or len(nu) != ctx.P.dim:
            raise SchemaError(f"bad nu vector in term {item!r}")
        m = ctx.monomial(lam, nu)
        if m in terms:
            raise SchemaError(f"duplicate monomial ({lam}, {nu}) in serialized element")
        terms[m] = coeff
    return FilteredElement(ctx, terms)
