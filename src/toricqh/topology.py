"""Nerve complexes, simplicial homology, the Cohen-Macaulay criterion and the
regular-sequence verification.

Homology is computed over Q or over a prime field from the ranks of the
boundary maps, each ranked by exact elimination (``linalg.Eliminator``).
``reisner_cm_check`` is Reisner's Cohen-Macaulay criterion: reduced
homology of the complex and of every face link must vanish below the
dimension of the respective complex; it stays the library's search for a
witness.  The ``cm`` command decides Cohen-Macaulayness by
``regular_sequence_check`` alone, whose verdict is Reisner's both ways (see
``cli.cmd_cm``), and ranks no link.  Where the check passes it ranks no
face layer of the nerve either: the h-vector gives the nerve's homology.

The Stanley-Reisner monomials are enumerated by two walks of one shape.
``sr_slices`` walks integer keys of ``SRKeys``, linear in the exponents,
into degree slices, over which ``graded_rows`` builds the "linear form
times monomial" rows, in one lead order, for the classical, quantum and
regular-sequence quotients.  It hands out each slice's rows as a one-pass
iterator that builds them when first read, and reads each monomial's
Koszul bound backwards, off the keys of the slice two below; so the
quantum presentation, which eliminates its top slice alone, builds no
other rows.  ``sr_walk`` walks integer vectors bounded by their first
entry, for the Jacobian slice, which reads each monomial's T-weight and
heights off its vector and its Koszul skip off its face.

The classical and regular-sequence quotients vanish in degree n+1 on
Delzant input.  ``top_class_certificate`` proves it from the degree-n
elimination alone: there the quotient is 0, or spanned by the class of the
first vertex's facet monomial Z_S.  So those quotients walk and rank their
slices up to degree n only, and the degree-(n+1) slice, the largest, is
never built; where the certificate fails, VerificationError is raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import add, mul, sub

from . import linalg
from .errors import PreconditionError, VerificationError
from .polyhedra import (DelzantPolyhedron, enumerate_vertices,
                        integer_parameter, is_compact, memoized,
                        require_delzant, vertex_coordinates)


@dataclass(frozen=True)
class NerveComplex:
    """Simplicial complex on facet labels 1..ground, stored by maximal faces.

    The face family is the downward closure; the empty face always belongs.
    The complex is immutable, so its sorted face list is built on first
    use and kept on it.
    """

    ground: int
    maximal: tuple[frozenset[int], ...]

    @property
    def dim(self) -> int:
        return max((len(m) for m in self.maximal), default=0) - 1

    def is_face(self, J) -> bool:
        J = frozenset(J)
        return any(J <= m for m in self.maximal) or not J

    @cached_property
    def sorted_faces(self) -> tuple[tuple[int, ...], ...]:
        """Every face as a sorted label tuple, ordered by size and then
        lexicographically, so entry 0 is the empty face.  Cached."""
        faces = {()}
        for m in self.maximal:
            labels = sorted(m)
            for k in range(1, len(labels) + 1):
                faces.update(itertools.combinations(labels, k))
        return tuple(sorted(faces, key=lambda f: (len(f), f)))

    def faces_by_dim(self) -> list[list[tuple[int, ...]]]:
        """Entry d holds the sorted (d-1)-dimensional faces as sorted tuples,
        so entry 0 is [()] and entry 1 lists the vertices."""
        by_size: list[list] = [[] for _ in range(self.dim + 2)]
        for f in self.sorted_faces:
            by_size[len(f)].append(f)
        return by_size


def make_complex(ground: int, faces) -> NerveComplex:
    """Normalize an arbitrary face family into maximal-face form."""
    fs = [frozenset(f) for f in faces]
    maximal = [f for f in fs if not any(f < g for g in fs)]
    canon = sorted(set(maximal), key=lambda f: (len(f), sorted(f)))
    return NerveComplex(ground, tuple(canon))


@memoized
def build_nerve(P: DelzantPolyhedron) -> NerveComplex:
    """Nerve of the facet family: faces are the facet subsets with nonempty
    intersection.

    Because the polyhedron is pointed, every nonempty face of the polyhedron
    contains a vertex, so the nerve is the downward closure of the vertex
    incidence sets.  Requires a passed Delzant check; built once per
    polyhedron object and kept on it.
    """
    require_delzant(P)
    return make_complex(P.nfacets, [v.incident for v in enumerate_vertices(P)])


def field_name(p: int | None) -> str:
    """The report name of the coefficient field: "Q" for p None, else
    "F{p}".  Raises PreconditionError unless p is None or an int that
    ``linalg.field_prime`` accepts."""
    if p is None:
        return "Q"
    if isinstance(p, str):  # a field is named by its size, not its digits
        raise PreconditionError(f"the field size {p[:12]!r} is not a prime")
    return f"F{linalg.field_prime(p)}"


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers in degrees -1 .. dim."""

    dim: int
    ranks: tuple[int, ...]  # ranks[i] is the reduced Betti number in degree i-1

    def nonzero(self) -> dict[int, int]:
        return {i - 1: r for i, r in enumerate(self.ranks) if r}


def reduced_homology(K: NerveComplex, p: int | None = None) -> HomologyProfile:
    """Reduced simplicial homology ranks over Q (p None) or over F_p, of
    the face layers ``K.faces_by_dim``."""
    field_name(p)
    return HomologyProfile(K.dim, _reduced_betti(K.faces_by_dim(), p))


def _reduced_betti(layers, p) -> tuple[int, ...]:
    """Reduced Betti numbers in degrees -1 .. len(layers) - 2 of the complex
    whose faces of size d, as sorted tuples, are ``layers[d]``.

    The Betti number in degree d - 1 is |layers[d]| minus the ranks of the
    boundary maps out of and into layer d.  Rank d, that of the map from
    layer d to layer d - 1, is the eliminator's rank of its matrix, whose
    rows, +-1 (-1 as p - 1 over F_p), go to it as built; the vertices' rows
    hit the empty face.
    """
    branks = [0] * (len(layers) + 1)
    signs = (1, -1 if p is None else p - 1)
    for d in range(1, len(layers)):
        index = {f: i for i, f in enumerate(layers[d - 1])}
        elim = linalg.Eliminator(p)
        for f in layers[d]:
            elim.add_row({index[f[:i] + f[i + 1:]]: signs[i % 2]
                          for i in range(d)})
        branks[d] = elim.rank
    return tuple(len(layer) - branks[d] - branks[d + 1]
                 for d, layer in enumerate(layers))


def _stars(K: NerveComplex, wanted) -> dict[tuple[int, ...], list]:
    """The link faces of every face F in ``wanted`` (sorted label tuples):
    G - F as a sorted tuple for every face G containing F, in the order of
    ``K.sorted_faces`` (so by size, the empty face first).

    One walk over ``K.sorted_faces`` splits each face G into its subsets F
    and their complements, sum of 2^|G| steps for all stars at once.
    """
    stars = {F: [] for F in wanted}
    for G in K.sorted_faces:
        splits = [((), ())]
        for x in G:
            splits = ([(F + (x,), R) for F, R in splits]
                      + [(F, R + (x,)) for F, R in splits])
        for F, R in splits:
            star = stars.get(F)
            if star is not None:
                star.append(R)
    return stars


def link(K: NerveComplex, J) -> NerveComplex:
    """The link of a face: all faces disjoint from J whose union with J is
    a face.  Raises PreconditionError unless J is a face, given as a
    collection of labels."""
    try:
        J = tuple(sorted(set(J)))
    except TypeError:
        raise PreconditionError(f"a face must be a collection of labels, "
                                f"got {J!r}") from None
    if not K.is_face(J):
        raise PreconditionError(f"{list(J)} is not a face of the complex")
    return make_complex(K.ground, _stars(K, [J])[J])


@dataclass(frozen=True)
class CMReport:
    passed: bool
    field: str
    witness: str | None = None


def reisner_cm_check(K: NerveComplex, p: int | None = None) -> CMReport:
    """Reisner's criterion: reduced homology of the complex and of every face
    link vanishes in all degrees strictly below the dimension of that complex.

    Every link, K itself for the empty face included, is listed by one
    walk over ``K.sorted_faces`` (G containing F gives G - F, so the star
    of the empty face is K's face list), which lists it by size, so its
    dimension is that of its last face.  Links of dimension <= 0 cannot
    fail, so they are not ranked.  Reduced homology starts in degree -1, so
    a (-1)-dimensional link has no degree below its dimension.  A
    0-dimensional link has only degree -1 below it, and that group is
    nonzero only for the complex {empty face}, while the link has a vertex.
    Every other link is ranked by one routine.  Faces are visited in
    ``K.sorted_faces`` order and degrees upwards, so the witness is the
    first failure in that order.
    """
    field = field_name(p)
    stars = _stars(K, K.sorted_faces)
    for face in K.sorted_faces:
        star = stars[face]
        dim = len(star[-1]) - 1
        if dim <= 0:
            continue
        layers = [[] for _ in range(dim + 2)]
        for f in star:
            layers[len(f)].append(f)
        for degree, rank in enumerate(_reduced_betti(layers, p)[:dim + 1],
                                      start=-1):
            if rank:
                return CMReport(False, field,
                                f"link of {list(face)} has reduced homology of "
                                f"rank {rank} in degree {degree} < dim {dim}")
    return CMReport(True, field)


@dataclass(frozen=True)
class ProfileReport:
    compact: bool
    expected: str
    match: bool
    actual: tuple[int, ...]


def sphere_or_ball_profile(P: DelzantPolyhedron, p: int | None = None) -> ProfileReport:
    """Compare the nerve's homology with that of S^(n-1) (compact case) or of
    a point (non-compact case).  Homology-level only: homeomorphism itself is
    not decided."""
    return _sphere_or_ball(P, reduced_homology(build_nerve(P), p).ranks)


def _sphere_or_ball(P: DelzantPolyhedron, ranks) -> ProfileReport:
    """The ``sphere_or_ball_profile`` of P whose nerve has the reduced Betti
    numbers ``ranks`` in degrees -1 .. n-1 (n = dim P, at least 1)."""
    n, ranks = P.dim, tuple(ranks)
    nonzero = HomologyProfile(n - 1, ranks).nonzero()
    if is_compact(P):
        return ProfileReport(True, f"S^{n - 1}", nonzero == {n - 1: 1}, ranks)
    return ProfileReport(False, f"B^{n - 1}", nonzero == {}, ranks)


def sr_walk(K: NerveComplex, vectors, cap: int):
    """Yield, for every exponent vector t whose support is a face and whose
    weight sum_j t_j * vectors[j][0] is at most ``cap``, the pair (face,
    vector): the support of t as a sorted label tuple, and the summed
    vector sum_j t_j * vectors[j] as a new list.

    This is the walk of the Jacobian slice, bounded by T-weight, which
    reads more than a key off each monomial; ``sr_slices`` makes the same
    walk on integer keys.  The exponent of a label is positive exactly
    when the label is in the face.

    ``vectors[j]`` is an integer vector for label j + 1 whose first entry,
    the weight, is positive.  One walk per face of ``K.sorted_faces``
    starts at the sum of the face's vectors (every exponent on the face at
    least 1) and raises one exponent at a time, never at an earlier label
    than the last one raised, so each t is reached once, by one vector
    addition, made only when the raised weight stays within the cap.  The
    order is by face and then by the walk; callers sort what they need.
    """
    width = len(vectors[0])
    for labels in K.sorted_faces:
        face = [vectors[lbl - 1] for lbl in labels]
        acc = [0] * width
        for v in face:
            acc = list(map(add, acc, v))
        if acc[0] > cap:
            continue
        stack = [(acc, 0)]
        while stack:
            acc, first = stack.pop()
            yield labels, acc
            room = cap - acc[0]
            for pos in range(first, len(face)):
                if face[pos][0] <= room:
                    stack.append((list(map(add, acc, face[pos])), pos))


class SRKeys:
    """Linear integer keys for the Stanley-Reisner monomials of degree at
    most ``top``, and the one owner of the column order of a slice.

    The monomial v^t is keyed by its vector x = sum_j t_j * vectors[j],
    behind the digit <order, x> of a linear ``order`` functional if given
    (the lead order of ``graded_rows``): the key reads (<order, x>, x) as
    base-``base`` digits, the first most significant, each in a window
    [low_i, low_i + base) fixed by ``top`` (taken as at least 1) and the
    signs of the entries.  On vectors within the windows it is injective
    and keeps their lexicographic order, and it is linear, so multiplying
    by Z_j adds ``steps[j]`` to every key.  ``encode`` and ``decode`` take
    and give x, and ``lex`` sorts keys as x does; nothing outside this
    class knows the format.  A slice whose columns run by region, then by
    key, takes ``column(key, region)``, linear in the key, from
    ``column(origin, r)`` on for region r (``origin`` is the least key).
    """

    def __init__(self, vectors, top: int, order=None):
        # the steps are keys of degree 1, so the windows hold degree 1 too
        reach = max(top, 1)
        self.order = order
        full = list(map(self._digits, vectors))
        columns = list(zip(*full))
        self.top = top
        self.low = tuple(reach * min(0, *col) for col in columns)
        self.base = 1 + max(reach * max(0, *col) - lo
                            for col, lo in zip(columns, self.low))
        self.steps = tuple(map(self._horner, full))
        self.origin = self._horner(self.low)
        self._plain = self.base ** len(vectors[0])
        self._span = self.base ** len(self.low)

    def _digits(self, vec) -> tuple:
        order = () if self.order is None else (sum(map(mul, self.order, vec)),)
        return (*order, *vec)

    def _horner(self, vec) -> int:
        key = 0
        for x in vec:
            key = key * self.base + x
        return key

    def encode(self, vec) -> int:
        """The key of a plain integer vector; ValueError outside the
        windows, where keys would no longer be unique."""
        vec = self._digits(vec)
        if len(vec) != len(self.low) or not all(
                0 <= x - lo < self.base for x, lo in zip(vec, self.low)):
            raise ValueError(f"{tuple(vec)} is outside the key windows")
        return self._horner(vec)

    def decode(self, key: int) -> tuple[int, ...]:
        """The plain vector of a key, as a tuple."""
        rest = key - self.origin
        digits = []
        for lo in reversed(self.low):
            rest, digit = divmod(rest, self.base)
            digits.append(lo + digit)
        if rest:
            raise ValueError(f"{key} is not a key of these windows")
        digits.reverse()
        return tuple(digits if self.order is None else digits[1:])

    def lex(self, key: int) -> int:
        """An integer that sorts keys as their plain vectors sort
        lexicographically: the key without its order digit."""
        return (key - self.origin) % self._plain

    def column(self, key: int, region: int) -> int:
        return key - self.origin + region * self._span


def sr_slices(K: NerveComplex, keys: SRKeys) -> list[list[int]]:
    """The degree slices 0..keys.top of the Stanley-Reisner ring: entry d
    holds, sorted, the keys of the exponent vectors t of degree d whose
    support is a face.

    Sorted keys are the vectors sum_j t_j * vectors[j] in lexicographic
    order; unit vectors give the exponent vectors themselves.  The walk is
    ``sr_walk``'s with weight 1 per label, on plain integers: a face of at
    most ``keys.top`` labels starts at the sum of its steps, and each
    stack entry (degree, key, first) raises one exponent, at label
    position ``first`` or later, by one integer addition.  The faces come
    by size, so the walk stops at the first face larger than the top.
    """
    top = keys.top
    slices = [[] for _ in range(top + 1)]
    for labels in K.sorted_faces:
        size = len(labels)
        if size > top:
            break
        face = [keys.steps[lbl - 1] for lbl in labels]
        stack = [(size, sum(face), 0)]
        while stack:
            degree, key, first = stack.pop()
            slices[degree].append(key)
            if degree < top:
                degree += 1
                for pos in range(first, size):
                    stack.append((degree, key + face[pos], pos))
    for keyed in slices:
        keyed.sort()
    return slices


def sr_hilbert_function(P: DelzantPolyhedron, maxdeg: int) -> list[int]:
    """Dimensions of the Stanley-Reisner ring per degree, 0..maxdeg, counted
    by face size: a face with k vertices carries C(d-1, k-1) monomials of
    degree d, so each degree sums one binomial per size, times the number
    of faces of that size."""
    integer_parameter(maxdeg, "maxdeg", 0)
    sizes = list(map(len, build_nerve(P).sorted_faces))  # sorted by size
    return [1] + [sum(sizes.count(k) * comb(d - 1, k - 1)
                      for k in range(1, sizes[-1] + 1))
                  for d in range(1, maxdeg + 1)]


def h_vector(hilbert, n: int) -> tuple[int, ...]:
    """The coefficients of (1-t)^n * H(t) in degrees 0..len(hilbert) - 1,
    for the values ``hilbert`` of ``sr_hilbert_function`` and n = dim P:
    the h-vector of the nerve, then 0.  The quotient by a regular sequence
    of n linear forms has these dimensions, so the classical ranks and the
    quotients of ``regular_sequence_check`` are checked against them."""
    h = list(hilbert)
    for _ in range(n):  # times (1 - t)
        h = h[:1] + list(map(sub, h[1:], h))
    return tuple(h)


def graded_rows(slices, steps, weights, leads=()):
    """Yield, slice by slice, the column index {key: column} of the slice
    and the rows c_k * m over it, for the forms c_k = sum_j weights[j][k] Z_j
    and the monomials m of the slice before (none for the first).

    The rows of a slice are a one-pass iterator that builds them when it is
    first read, so a caller that reads only the top slice (the quantum
    presentation) builds no other rows; a caller that reads every slice
    makes one pass over each slice before.  The iterator reads the indices
    of its slice and of the two below, so callers leave them as yielded.

    Keys are the integers of ``SRKeys`` and each slice lists them in column
    order, so the column order is the key order.  Z_j adds ``steps[j]`` to
    a key, and the steps are distinct, so no two entries of a row add up.
    Products missing from the next slice are 0 there and dropped.  Each
    slice's rows come sorted by least column.  ``leads`` are the variables
    s_0, s_1, ... of a vertex basis S, in which the forms read
    c_k = rho_k Z_{s_k} + sum_{l not in S} w_lk Z_l, rho_k a unit.

    Lead order (Faugere's F5, ISSAC 2002).  Let the ``SRKeys`` order
    functional be smaller on every Z_s, s in S, than on every Z_l, l not in
    S: -1 on S and 0 off it on exponents, <v0, nu> on nu at the first
    vertex v0 of a normalized polyhedron, theta_{v0} in the Jacobian slice.
    Then in the row c_k * m the lead product Z_{s_k} * m is the least
    column when the slice holds it.  The eliminator pivots each row on its
    least column, over Z its least unit entry, so a sorted row whose lead
    lies past every earlier pivot becomes a pivot row with no reduction.
    No rank or reported number depends on the order of rows or columns.

    Koszul rule (F5).  The row c_k * m is skipped when Z_{s_t} divides m for
    some t < k; with no leads every row is kept.  m is divisible by Z_{s_t}
    exactly when m - step(s_t) is a key of the slice two below, so each m
    is read backwards: c_k * m is kept for k <= t at the least such t, and
    for every k where there is none.  This needs slices closed under
    division, as the Stanley-Reisner slices and the monotone T-degree
    slices are, keyed by exponents or by nu alike.

    Sound: with m = Z_{s_t} * m',
      rho_t c_k m = c_t (c_k m') - sum_{l not in S} w_lt c_k (Z_l m').
    The first term is a sum of rows c_t * x with t < k.  The others are rows
    c_k * y with theta(y) > theta(m), for theta = theta_{v0}, the pairing
    with the first vertex: 0 on Z_S and positive on every other Z_l.  So
    induction on (k, -theta) puts every skipped row in the span of the kept
    ones, over Z, Q and F_p, in the Stanley-Reisner ring and in the
    monotone monoid ring alike.
    """
    assert len(set(steps)) == len(steps)
    divisors = [steps[j] for j in leads]
    # each form's nonzero terms (Z_j's step, w_jk), by label
    terms = [[(step, w[k]) for step, w in zip(steps, weights) if w[k]]
             for k in range(len(weights[0]))]
    below = before = {}  # the indices of the slices two below and before
    for keys in slices:
        index = {m: i for i, m in enumerate(keys)}
        assert len(index) == len(keys)
        yield index, _slice_rows(index, before, below, divisors, terms)
        below, before = before, index


def _slice_rows(index, before, below, divisors, terms):
    """The rows of ``graded_rows`` into the slice of ``index``, built on
    the first read: c_k * m for the keys m of ``before``, keeping c_0 ..
    c_t at the least t with m - divisors[t] in ``below``."""
    rows = []
    for m in before:
        kept = len(terms)
        for t, step in enumerate(divisors, 1):
            if m - step in below:
                kept = t
                break
        for form in terms[:kept]:
            row = {}
            for step, w in form:
                col = index.get(m + step)
                if col is not None:
                    row[col] = w
            if row:
                rows.append(row)
    rows.sort(key=min)
    yield from rows


def vertex_rows(P: DelzantPolyhedron, top: int, rho=None,
                p: int | None = None, by_nu: bool = False):
    """(keys, leads, walk): the ``graded_rows`` up to degree ``top``, in the
    lead order, of the forms in the first vertex's basis, which Delzant
    makes unimodular, times the units rho_j and mod p if given.  The slices
    are the Stanley-Reisner ones keyed by exponents or, ``by_nu`` on a
    normalized monotone P, the T-degree ones keyed by nu: T times the slice
    before and the Stanley-Reisner slice (no two t share a nu)."""
    S, coords = vertex_coordinates(P, 0)
    N = P.nfacets
    weights = [[c * r if p is None else c * r % p for c in w]
               for w, r in zip(coords, rho or (1,) * N)]
    leads = [s - 1 for s in S]
    if by_nu:  # the offsets are 1, so v0 is integral: y over q = 1
        keys = SRKeys(P.normals, top, list(enumerate_vertices(P)[0].scaled[0]))
        slices = itertools.accumulate(sr_slices(build_nerve(P), keys),
                                      lambda nus, new: sorted(nus + new))
    else:
        keys = SRKeys([tuple(int(k == j) for k in range(N))
                       for j in range(N)], top,
                      [-int(j in leads) for j in range(N)])
        slices = sr_slices(build_nerve(P), keys)
    return keys, leads, graded_rows(slices, keys.steps, weights, leads)


def top_class_certificate(elim: linalg.Eliminator, index, steps,
                          face) -> bool:
    """Certify that the quotient by the forms of ``graded_rows`` vanishes
    one degree above the slice of ``index``, without that slice.

    ``elim`` holds the rows into the slice, over Z (``elim.integral``)
    settled on its columns; ``index``, ``steps`` and the leads ``face`` =
    S, a maximal face, are as for ``graded_rows``.  Then Z_l Z_S is in
    I_Delta for l not in S, and
      Z_{s_k} Z_S = rho_k^-1 (c_k Z_S - sum_{l not in S} w_lk Z_l Z_S)
    lies in (c) + I_Delta.  The quotient is generated in degree 1, so when
    its piece in the slice's degree is 0 or spanned by the class of Z_S,
    its next piece is 0.

    The class spans when the quotient, of dimension len(index) - rank,
    is 1-dimensional and the class is a generator.  Over a field that
    means nonzero: e_{Z_S} does not reduce to 0 against the pivot rows
    (``elim.remainder``), which needs no settled eliminator and leaves it
    as it is.  Over Z the coordinate of Z_S (``elim.reduce``) must be +-1,
    whether the quotient was settled by unit pivots or through the column
    echelon of a residual block.
    """
    dim = len(index) - elim.rank
    if dim == 0:
        return True
    col = index.get(sum(steps[j] for j in face))
    if dim != 1 or col is None:
        return False
    if elim.integral:
        (x,) = elim.reduce({col: 1})
        return x in (1, -1)
    return bool(elim.remainder({col: 1}))


@dataclass(frozen=True)
class RegSeqReport:
    passed: bool
    field: str
    quotient_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]
    hilbert: tuple[int, ...]  # sr_hilbert_function values 0..maxdeg


def regular_sequence_check(P: DelzantPolyhedron, p: int | None = None,
                           maxdeg: int | None = None) -> RegSeqReport:
    """Verify that the n linear combinations c_i = sum_j nu_j[i] Z_j cut the
    Stanley-Reisner ring by a regular sequence, via Hilbert functions.

    For each degree d the quotient of the degree-d slice by the images
    c_i * (degree d-1 slice) must have dimension equal to the d-th
    coefficient of (1-t)^n * H_SR(t), ``h_vector``.

    The rows and columns are the first vertex's (``vertex_rows``), in the
    lead order of ``graded_rows``, reduced mod p once.

    One walk builds the slices up to degree n, for any ``maxdeg``, and
    they are ranked up to the first degree whose quotient is 0: the
    quotient ring is generated in degree 1, so every higher degree is 0
    too.  On Delzant input the normals at every vertex form a Z-basis, so
    over Q and over every F_p the forms are a linear system of parameters
    (Kind and Kleinschmidt, Math. Z. 167, 1979), and the quotient is
    spanned by the face monomials, of degree at most n.  So the quotient
    vanishes in degree n+1, which, where degree n is not 0 and ``maxdeg``
    > n, ``top_class_certificate`` certifies from the degree-n pivots
    without settling them, or VerificationError is raised.  The expected
    values are computed for every degree up to ``maxdeg``, so the verdict
    compares the full sequences; the report keeps the Hilbert function
    they come from.
    For ``maxdeg`` > n every report thus proves the forms a system of
    parameters, so a passed check proves them a regular sequence on a
    Cohen-Macaulay ring and a failed one proves the ring not
    Cohen-Macaulay, which ``cli.cmd_cm`` relies on.
    """
    field = field_name(p)
    if maxdeg is None:
        maxdeg = P.dim + 2
    integer_parameter(maxdeg, "maxdeg", P.dim)
    n = P.dim
    hilbert = tuple(sr_hilbert_function(P, maxdeg))
    expected = h_vector(hilbert, n)

    keys, leads, walk = vertex_rows(P, n, p=p)
    dims = []
    for index, rows in walk:
        elim = linalg.Eliminator(p)
        for row in rows:
            elim.add_row(row)
        dims.append(len(index) - elim.rank)
        if dims[-1] == 0:
            break
    # a zero degree below n+1 needs no certificate: every higher one is zero
    if maxdeg > n and dims[-1]:
        if not top_class_certificate(elim, index, keys.steps, leads):
            raise VerificationError(f"the regular-sequence quotient over "
                                    f"{field} is not certified to vanish in "
                                    f"degree {n + 1}")
    dims += [0] * (maxdeg + 1 - len(dims))
    return RegSeqReport(tuple(dims) == expected, field, tuple(dims), expected,
                        hilbert)
