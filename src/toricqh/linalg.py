"""Exact integer and rational linear algebra.

Matrices are plain lists of lists; integer matrices hold Python ints
(arbitrary precision), rational ones hold fractions.Fraction.  Everything is
exact: no floats appear anywhere in this package.

``Eliminator`` is the one elimination engine of the package: every graded
quotient, every rank and the one rational solve (the monotone
normalization, ``polyhedra.monotone_normalization``) go through it.  Over
Q and F_p it pivots each row on its least column.  Over Z it pivots only
on entries +-1, so an elimination in which every pivot is a unit certifies
a free quotient.  Over each ring it then reads off the coordinates of any
vector in the quotient.

``column_echelon`` is the one dense integer reduction: Euclid on columns,
row after row.  Its unimodular T gives ``integer_kernel`` (the columns of T
past the rank), the residual certificate of ``Eliminator.settle`` over Z
(the rows left without a unit entry) and the Euclid step of
``extend_to_basis``, which completes a greedy basis by column operations
and returns its inverse with it.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import PreconditionError

IntMatrix = list[list[int]]


def identity(k: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def random_unimodular(n: int, rng: random.Random) -> IntMatrix:
    """Random determinant +-1 matrix from a short word of elementary moves."""
    U = identity(n)
    for _ in range(4 * n):
        kind = rng.randrange(3)
        i, jj = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != jj:
            f = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                U[i][col] += f * U[jj][col]
        elif kind == 1:
            U[i], U[jj] = U[jj], U[i]
        else:
            U[i] = [-x for x in U[i]]
    # det U = +-1 exactly when the integral quotient Z^n / (row lattice)
    # is free of dimension 0
    check = Eliminator(integral=True)
    for row in U:
        check.add_row(normalize(row))
    assert check.settle(n) and check.dim == 0
    return U


def column_echelon(rows, cols):
    """Column Euclid of integer ``rows`` against the columns ``cols`` of a
    unimodular T: returns the columns of T * E, E unimodular, and the rank
    s of the rows, with rows * T * E zero from column s on.

    Each row in turn is reduced on the columns s..: while two of its
    entries there are nonzero, the least in absolute value reduces the
    others (with the same column operations on T).  The one left, their
    gcd up to sign, is moved to column s, and s grows by one.  A row that
    made column j is zero past j, so the first s columns of rows * T * E
    are independent.
    """
    cols, s = list(cols), 0
    for v in rows:
        w = [0] * s + [sum(map(mul, v, col)) for col in cols[s:]]
        tail = [j for j in range(s, len(cols)) if w[j]]
        while len(tail) > 1:
            i = min(tail, key=lambda j: abs(w[j]))
            for j in tail:
                if j != i:
                    q = w[j] // w[i]
                    w[j] -= q * w[i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
            tail = [j for j in tail if w[j]]
        if tail:
            cols[s], cols[tail[0]] = cols[tail[0]], cols[s]
            s += 1
    return cols, s


def integer_kernel(M: IntMatrix) -> list[list[int]]:
    """Basis of the saturated lattice {x in Z^cols : M*x = 0}.

    By ``column_echelon``, M * T is zero past its rank s and independent
    before it, so x = T*y is in the kernel iff y vanishes before s, and T
    is unimodular: its columns past s are a basis of the lattice.
    """
    cols, s = column_echelon(M, identity(len(M[0]) if M else 0))
    return cols[s:]


class Eliminator:
    """Sparse exact row echelon over Q, F_p or Z (``integral``), grown one
    row at a time.

    ``add_row`` takes rows as ``normalize`` returns them: sparse dicts of
    nonzero ints, over F_p residues in 1..p-1.  It reduces a row against
    the pivot rows and reports whether it became a pivot row.  ``p`` is a
    prime that ``field_prime`` accepts, and ``integral`` takes none;
    anything else raises PreconditionError.

    Over a field (F_p, or Q unless ``integral``) every nonzero entry is a
    pivot, so a row pivots on its least column: while a pivot row sits
    there, that row is subtracted (mod p, or fraction-free over Q), and
    what is left is stored on its least column, over F_p scaled to lead 1,
    over Q divided by its content with a positive lead.  A pivot row is
    zero left of its pivot.

    Over Z a row pivots only on an entry +-1, its least such column, and is
    reduced against the pivot rows in the order they were made, so a pivot
    row is zero on every earlier pivot column.  A row without a unit entry
    waits in a residual block instead; ``settle`` retries it against the
    later pivots and hands what is still stuck to ``column_echelon``.  The
    quotient Z^ncols / L by the row lattice is certified free by unit
    pivots alone when the residual block ends empty (Dumas, Saunders and
    Villard, J. Symb. Comput. 32, 2001).  Otherwise the block's rows * T
    are zero past its rank s, so the block's part of the quotient is
    Z^s / C plus Z^(cols - s), for C the row lattice of the first s
    columns: it is free iff those s independent columns are saturated,
    that is iff ``extend_to_basis`` keeps all of them.

    Over a field, ``remainder`` decides whether a vector lies in the row
    span from the pivot rows as they stand.  After ``settle(ncols)``,
    ``reduce`` maps a vector to its coordinates in the quotient (Z^dim,
    Q^dim or F_p^dim, dim = ncols - rank): a free column is one
    coordinate, and a pivot column's image is read off its pivot row by
    back substitution, over a field in descending pivot column, over Z
    last pivot first.
    """

    def __init__(self, p: int | None = None, integral: bool = False):
        if integral and p is not None:
            raise PreconditionError(f"an eliminator over Z takes no field "
                                    f"size, got {p!r}")
        self.p = p if p is None else field_prime(p)
        self.integral = integral
        self.pivots: dict[int, dict[int, int]] = {}  # pivot column -> row
        self.order: dict[int, int] = {}   # over Z: pivot column -> creation
        self.residual: list[dict[int, int]] = []
        self.rank = 0
        self.dim = 0
        self.images: dict[int, list] = {}

    def add_row(self, row: dict[int, int]) -> bool:
        """Reduce a normalized row (see ``normalize``), which the
        eliminator takes over, and report whether it became a pivot row."""
        if self.integral:
            return self._insert_unit(row)
        return self._insert_lead(row)

    def remainder(self, row: dict[int, int]) -> dict[int, int]:
        """Over a field: a copy of ``row`` reduced against the pivot rows
        until its least column holds no pivot (over Q fraction-free, so
        up to a nonzero integer factor).  It is {} exactly when the row
        lies in their span: a nonzero combination of pivot rows has a pivot
        as its least column.  Needs no ``settle`` and changes nothing."""
        if self.integral:
            raise PreconditionError("remainder reduces over a field only")
        cur = dict(row)
        self._reduce_lead(cur)
        return cur

    def _reduce_lead(self, cur: dict[int, int]) -> int | None:
        """Reduce ``cur`` in place on its least column while a pivot row
        sits there; return that column, None when ``cur`` becomes 0."""
        pivots, p = self.pivots, self.p
        while cur:
            col = min(cur)
            piv = pivots.get(col)
            if piv is None:
                return col
            f = cur[col]
            if p is None and piv[col] != 1:  # fraction-free: a*cur - f*piv
                a = piv[col]
                g = gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    for c in cur:
                        cur[c] *= a
            for c, v in piv.items():
                x = cur.get(c, 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    cur[c] = x
                else:
                    del cur[c]
        return None

    def _insert_lead(self, cur: dict[int, int]) -> bool:
        col = self._reduce_lead(cur)
        if col is None:
            return False
        a, p = cur[col], self.p
        # a row with lead 1 is stored as it is: over Q its content is 1
        if a != 1 and p is not None:
            inv = pow(a, -1, p)
            cur = {c: v * inv % p for c, v in cur.items()}
        elif a != 1:
            g = gcd(*cur.values())
            if a < 0:
                g = -g
            if g != 1:
                cur = {c: v // g for c, v in cur.items()}
        self.pivots[col] = cur
        self.rank += 1
        return True

    def _insert_unit(self, cur: dict[int, int]) -> bool:
        pivots, order = self.pivots, self.order
        # Eliminate the pivot columns in the order the pivots were made: a
        # pivot row is zero on every earlier pivot column.
        heap = [(order[c], c) for c in cur if c in pivots]
        heapq.heapify(heap)
        while heap:
            c0 = heapq.heappop(heap)[1]
            f = cur.get(c0)
            if not f:
                continue
            for c, v in pivots[c0].items():
                x = cur.get(c, 0) - f * v
                if not x:
                    del cur[c]
                    continue
                if c not in cur and c in pivots:
                    heapq.heappush(heap, (order[c], c))
                cur[c] = x
        if not cur:
            return False
        col = min((c for c, v in cur.items() if v == 1 or v == -1),
                  default=None)
        if col is None:
            self.residual.append(cur)
            return False
        if cur[col] == -1:
            cur = {c: -v for c, v in cur.items()}
        pivots[col] = cur
        order[col] = len(order)
        self.rank += 1
        return True

    def settle(self, ncols: int) -> bool:
        """Finish the echelon on columns 0..ncols-1 after the last row.

        Returns the freeness certificate of the quotient (always True over
        a field) and, when it holds, prepares ``reduce``.  Either way
        ``rank`` is then the rank of the rows.
        """
        block = []
        if self.integral:
            while self.residual:
                rows, self.residual = self.residual, []
                if not any([self._insert_unit(row) for row in rows]):
                    break
            if self.residual:
                block = sorted({c for row in self.residual for c in row})
                rows = [[row.get(c, 0) for c in block]
                        for row in self.residual]
                T, s = column_echelon(rows, identity(len(block)))
                self.rank += s
                image = [[sum(map(mul, row, col)) for row in rows]
                         for col in T[:s]]
                if len(extend_to_basis(image, len(rows))[0]) != s:
                    return False
        self.dim = r = ncols - self.rank
        skip = set(block)
        free = [c for c in range(ncols) if c not in self.pivots
                and c not in skip]
        images = {c: [int(k == t) for t in range(r)]
                  for k, c in enumerate(free)}
        for i, c in enumerate(block):
            images[c] = [0] * len(free) + [col[i] for col in T[s:]]
        for c in sorted(self.pivots, reverse=True, key=self.order.__getitem__
                        if self.integral else None):
            row = self.pivots[c]
            acc = [0] * r
            for d, v in row.items():
                if d != c:
                    for t, x in enumerate(images[d]):
                        if x:
                            acc[t] -= v * x
            a = row[c]
            if self.p is not None:
                acc = [x % self.p for x in acc]
            elif a != 1:
                acc = [Fraction(x) / a for x in acc]
            images[c] = acc
        self.images = images
        return True

    def reduce(self, vec: dict) -> list:
        """Coordinates in the quotient of a sparse vector {column: value}
        over the settled columns."""
        out = [0] * self.dim
        for c, v in vec.items():
            if v:
                for t, x in enumerate(self.images[c]):
                    if x:
                        out[t] += v * x
        if self.p is not None:
            out = [x % self.p for x in out]
        return out


def normalize(row, p: int | None = None) -> dict[int, int]:
    """A row as ``Eliminator.add_row`` takes it: a new sparse dict of the
    nonzero entries, over Q scaled by the lcm of the denominators to
    integers, over F_p reduced to residues in 1..p-1.

    ``row`` is a dict {column: value} or a dense list, with int or
    Fraction values.  Over F_p a denominator divisible by p raises
    ZeroDivisionError.  A caller that builds many rows from a few fixed
    coefficient vectors normalizes those once instead of every row.
    """
    items = row.items() if isinstance(row, dict) else enumerate(row)
    if p is None:
        nonzero = [(c, v) for c, v in items if v]
        scale = lcm(*(v.denominator for _, v in nonzero))
        return {c: v.numerator * (scale // v.denominator) for c, v in nonzero}
    out = {}
    for c, v in items:
        if isinstance(v, Fraction):
            den = v.denominator % p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator divisible by {p} in mod-{p} reduction")
            v = v.numerator * pow(den, -1, p)
        v %= p
        if v:
            out[c] = v
    return out


def rank(rows, p: int | None = None) -> int:
    """Exact matrix rank over Q (p None) or over the field with p elements.

    Rows may be dense lists or sparse dicts {column: value}; values int or
    Fraction (over F_p, denominators must be prime to p).  A p that is no
    prime raises PreconditionError (``Eliminator``).
    """
    elim = Eliminator(p)
    for row in rows:
        elim.add_row(normalize(row, elim.p))
    return elim.rank


def extend_to_basis(vectors, r: int, integral: bool = True):
    """Greedy basis completion in Z^r (integral) or Q^r.

    Scans ``vectors`` in order and keeps each one that, together with the
    ones kept before, still extends to a basis: its image modulo the kept
    vectors must be nonzero and, over Z, primitive.  Stops once r are kept.
    Returns the kept indices and the columns of T with B * T = identity for
    B the kept vectors as rows, so x * T are the coordinates of x on them.

    T is built by column operations: after k vectors are kept they map to
    the first k unit vectors, and columns k.. span their quotient.  Over Z
    the ``column_echelon`` of a vector on those columns leaves the gcd of
    its image on column k, and the vector is kept when that is +-1.
    """
    cols = identity(r)
    kept = []
    for idx, v in enumerate(vectors):
        k = len(kept)
        if k == r:
            break
        if integral:
            tail, s = column_echelon([v], cols[k:])
            g = s and sum(map(mul, v, tail[0]))
            if g not in (1, -1):
                continue
            cols[k:] = tail
            cols[k] = [g * x for x in cols[k]]
            w = [sum(map(mul, v, col)) for col in cols[:k]]
        else:
            w = [sum(map(mul, v, col)) for col in cols]
            t = next((j for j in range(k, r) if w[j]), None)
            if t is None:
                continue
            pivot = [Fraction(x) / w[t] for x in cols[t]]
            cols[t], w[t] = cols[k], w[k]
            cols[k] = pivot
        for j, x in enumerate(w):
            if j != k and x:
                cols[j] = [a - x * b for a, b in zip(cols[j], cols[k])]
        kept.append(idx)
    return kept, cols


# Miller-Rabin with the 13 primes 2..41 as bases decides primality exactly
# below MILLER_RABIN_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
# Prime fields are accepted up to PRIME_DIGITS decimal digits, below it.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981
PRIME_DIGITS = 24


def field_prime(p: int | str) -> int:
    """The size p of a prime field, an int or a string of ASCII digits.

    Raises PreconditionError unless p is a prime of at most
    ``PRIME_DIGITS`` decimal digits.  The digits of a string are counted
    before ``int`` reads them: it is slow on long strings and refuses very
    long ones."""
    if isinstance(p, str):
        if not (p.isascii() and p.isdigit()):
            shown = p if len(p) <= 12 else p[:12] + "..."
            raise PreconditionError(f"the field size {shown!r} is not a prime")
        digits = p.lstrip("0") or "0"
        if len(digits) > PRIME_DIGITS:
            raise PreconditionError(
                f"the field size is too large: {len(digits)} digits, at most "
                f"{PRIME_DIGITS}")
        p = int(digits)
    elif isinstance(p, int) and p >= 10 ** PRIME_DIGITS:
        raise PreconditionError(f"the field size is too large: more than "
                                f"{PRIME_DIGITS} digits")
    if not isinstance(p, int) or not is_prime(p):
        raise PreconditionError(f"the field size {p!r} is not a prime")
    return p


def is_prime(p: int) -> bool:
    """Deterministic primality of p < MILLER_RABIN_LIMIT by the Miller-Rabin
    test with ``MILLER_RABIN_BASES``.  The bases are proven exact only
    below that limit, so a larger p without a factor among them raises
    ValueError."""
    if p < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    if p >= MILLER_RABIN_LIMIT:
        raise ValueError("primality at or above MILLER_RABIN_LIMIT is not "
                         "decided exactly")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
