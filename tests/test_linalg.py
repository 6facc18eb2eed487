import math
import random
from fractions import Fraction

import pytest

import reference
from reference import mat_mul
from toricqh import linalg
from toricqh.errors import PreconditionError


def test_snf_identity():
    S, U, V = reference.smith_normal_form([[1, 0], [0, 1]])
    assert S == [[1, 0], [0, 1]]


def test_snf_divisibility_fixup():
    # elementary reduction by hand: diag(2, 3) has invariant factors (1, 6)
    M = [[2, 0], [0, 3]]
    S, U, V = reference.smith_normal_form(M)
    assert [S[0][0], S[1][1]] == [1, 6]
    assert mat_mul(mat_mul(U, M), V) == S


def test_snf_zero():
    S, U, V = reference.smith_normal_form([[0]])
    assert S == [[0]]


@pytest.mark.parametrize("seed", range(8))
def test_normal_forms_random_recomposition(seed):
    rng = random.Random(seed)
    m, n = rng.randrange(1, 5), rng.randrange(1, 5)
    M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
    S, U2, V = reference.smith_normal_form(M)
    assert mat_mul(mat_mul(U2, M), V) == S
    assert abs(reference.determinant(U2)) == 1
    assert abs(reference.determinant(V)) == 1
    diag = [S[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    if m == n:
        det_m = reference.determinant(M)
        prod = 1
        for d in diag:
            prod *= d
        assert abs(prod) == abs(det_m)


def test_solve_identity():
    b = [Fraction(3), Fraction(-7, 2)]
    assert reference.solve_rational([[1, 0], [0, 1]], b) == b


def test_solve_inconsistent():
    assert reference.solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_substitution():
    A = [[1, 0], [1, 1]]
    b = [Fraction(-1), Fraction(-1)]
    x = reference.solve_rational(A, b)
    assert x == [Fraction(-1), Fraction(0)]
    assert linalg.mat_vec(A, x) == b


@pytest.mark.parametrize("seed", range(6))
def test_solve_random_substitution(seed):
    rng = random.Random(100 + seed)
    m, n = rng.randrange(1, 5), rng.randrange(1, 5)
    A = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(m)]
    x = reference.solve_rational(A, b)
    if x is not None:
        assert linalg.mat_vec(A, x) == b


def test_integer_kernel_full_rank():
    assert linalg.integer_kernel([[1, 0], [0, 1]]) == []


def test_integer_kernel_line():
    basis = linalg.integer_kernel([[1, 1]])
    assert len(basis) == 1
    x = basis[0]
    assert x[0] + x[1] == 0
    # primitive generator of the kernel lattice
    S, _, _ = reference.smith_normal_form([x])
    assert S[0][0] == 1


def test_integer_kernel_zero_matrix():
    basis = linalg.integer_kernel([[0, 0]])
    assert len(basis) == 2
    assert abs(reference.determinant(basis)) == 1


def _smith_kernel(M):
    """The columns of V past the rank, for the Smith form U*M*V = S."""
    S, _, V = reference.smith_normal_form(M)
    r = sum(1 for i in range(min(len(S), len(V))) if S[i][i])
    return [list(col) for col in zip(*V)][r:]


@pytest.mark.parametrize("seed", range(5))
def test_integer_kernel_saturated(seed):
    # A saturated basis of the lattice the Smith form gives: both bases are
    # saturated, of the same rank and together span no more.
    rng = random.Random(200 + seed)
    for _ in range(40):
        m, n = rng.randrange(1, 4), rng.randrange(1, 5)
        M = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        basis = linalg.integer_kernel(M)
        for x in basis:
            assert all(v == 0 for v in linalg.mat_vec(M, x))
        assert len(basis) == n - linalg.rank(M)
        if basis:
            S, _, _ = reference.smith_normal_form(basis)
            assert all(S[i][i] == 1 for i in range(len(basis)))
            assert reference.rank(basis + _smith_kernel(M)) == len(basis)


@pytest.mark.parametrize("seed", range(6))
def test_adjugate_matches_cofactors(seed):
    rng = random.Random(400 + seed)
    n = 1 + seed % 4
    M = [[0] * n]
    while not reference.determinant(M):
        M = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
    cofactors = [[(-1) ** (i + j) * reference.determinant(
        [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j])
        for j in range(n)] for i in range(n)]
    assert reference.adjugate(M) == cofactors


def test_adjugate_rejects_a_singular_matrix():
    with pytest.raises(ValueError):
        reference.adjugate([[1, 2], [2, 4]])


def test_random_unimodular_has_determinant_one():
    for seed in range(300):
        n = 1 + seed % 7
        U = linalg.random_unimodular(n, random.Random(seed))
        assert len(U) == n and reference.determinant(U) in (1, -1)


def test_rank_rational_and_mod_p():
    for rank in (linalg.rank, reference.rank):
        assert rank([[2, 4], [1, 2]]) == 1
        assert rank([{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}]) == 1
        # 2 == 0 mod 2 changes the rank
        assert rank([[2, 1], [0, 3]], p=2) == 1
        assert rank([[2, 1], [0, 3]]) == 2


def test_normalize_over_q_scales_to_integers_and_drops_zeros():
    assert linalg.normalize([Fraction(1, 2), 0, Fraction(-2, 3)]) == \
        {0: 3, 2: -4}
    assert linalg.normalize({3: 2, 5: 0, 7: -4}) == {3: 2, 7: -4}
    assert linalg.normalize([0, Fraction(0)]) == {}
    assert linalg.normalize([2, Fraction(4, 2), 0]) == {0: 2, 1: 2}
    row = {0: 1}
    assert linalg.normalize(row) == row and linalg.normalize(row) is not row


def test_normalize_over_fp_gives_residues():
    # -1/2 = -3 = 2 mod 5, and 5 and 10/3 vanish mod 5
    assert linalg.normalize([-1, 5, 7, Fraction(-1, 2), Fraction(10, 3)],
                            5) == {0: 4, 2: 2, 3: 2}
    assert linalg.normalize({1: Fraction(1, 2), 4: -3}, 3) == {1: 2}


def test_normalize_rejects_denominators():
    with pytest.raises(ZeroDivisionError):
        linalg.normalize([1, Fraction(1, 3)], 3)


@pytest.mark.parametrize("row,free", [([2, 3], True), ([2, 4], False)])
def test_integral_certificate_smith_fallback(row, free):
    # No entry is a unit, so the row waits in the residual block and its
    # column echelon decides: Z^2 / (2, 3) is free, Z^2 / (2, 4) has torsion.
    elim = linalg.Eliminator(integral=True)
    assert not elim.add_row(linalg.normalize(row))
    assert elim.settle(2) is free
    S, _, _ = reference.smith_normal_form([row])
    assert (S[0][0] == 1) is free
    if free:
        assert (elim.rank, elim.dim) == (1, 1)
        assert elim.reduce(dict(enumerate(row))) == [0]
        images = {abs(elim.reduce({c: 1})[0]) for c in range(2)}
        assert images == {2, 3}


@pytest.mark.parametrize("row,free", [([2, 3], True), ([2, 4], False)])
def test_integral_certificate_matches_sympy(row, free):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix
    S = normalforms.smith_normal_form(Matrix([row]), domain=ZZ)
    elim = linalg.Eliminator(integral=True)
    elim.add_row(linalg.normalize(row))
    assert elim.settle(2) is (S[0, 0] == 1)


def _settle_against_smith(rows, n):
    """Settle ``rows`` (dense, n columns) over Z and check the verdict and
    the rank against the reference Smith form and, for a free quotient,
    that the coordinates kill every row and map onto Z^dim.  Returns the
    verdict and whether a residual block was left."""
    elim = linalg.Eliminator(integral=True)
    for row in rows:
        elim.add_row(linalg.normalize(row))
    free = elim.settle(n)
    S, _, _ = reference.smith_normal_form(rows)
    diag = [S[i][i] for i in range(min(len(S), n)) if S[i][i]]
    assert free is all(d == 1 for d in diag), rows
    assert elim.rank == len(diag), rows
    if free:
        assert elim.dim == n - elim.rank
        for row in rows:
            assert not any(elim.reduce(dict(enumerate(row)))), rows
        images = [elim.reduce({c: 1}) for c in range(n)]
        S, _, _ = reference.smith_normal_form(images)
        assert [S[i][i] for i in range(elim.dim)] == [1] * elim.dim, rows
    return free, bool(elim.residual)


def _unitless_matrix(rng):
    """A random integer matrix with few unit entries, so that its rows wait
    in the residual block, and rank-deficient a third of the time."""
    m, n = rng.randrange(1, 5), rng.randrange(1, 6)
    pool = (0, 0, 2, -2, 3, -3, 4, 5, -6, 9)
    M = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        a, b = rng.choice((1, -2, 3)), rng.choice((0, 1, -1))
        M[-1] = [a * x + b * y for x, y in zip(M[0], M[-2])]
    if rng.random() < 0.2:
        M[rng.randrange(m)][rng.randrange(n)] = rng.choice((1, -1))
    return M


@pytest.mark.parametrize("seed", range(4))
def test_residual_certificate_matches_smith(seed):
    # Free and torsion quotients both occur, through the residual block.
    rng = random.Random(400 + seed)
    seen = {_settle_against_smith(M, len(M[0]))
            for M in (_unitless_matrix(rng) for _ in range(750))}
    assert {(True, True), (False, True)} <= seen


def test_residual_certificate_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix
    rng = random.Random(404)
    for _ in range(120):
        M = _unitless_matrix(rng)
        elim = linalg.Eliminator(integral=True)
        for row in M:
            elim.add_row(linalg.normalize(row))
        factors = normalforms.invariant_factors(Matrix(M), domain=ZZ)
        nonzero = [d for d in factors if d]
        assert elim.settle(len(M[0])) is all(abs(d) == 1 for d in nonzero), M
        assert elim.rank == len(nonzero), M


def test_residual_blocks_of_random_presentations(monkeypatch):
    # The blocks that the presentations of random Delzant polyhedra leave
    # after the retry against later pivots, checked as matrices of their own.
    from toricqh import catalog
    from toricqh import presentation as pr
    from toricqh.polyhedra import monotone_normalization
    rng = random.Random(23)
    polys = [catalog.random_delzant(rng, 2 + i % 3, 7 + i % 3)
             for i in range(200)]
    blocks = []
    real = linalg.Eliminator.settle

    def watching(self, ncols):
        free = real(self, ncols)
        if self.residual:
            cols = sorted({c for row in self.residual for c in row})
            blocks.append([[row.get(c, 0) for c in cols]
                           for row in self.residual])
        return free

    monkeypatch.setattr(linalg.Eliminator, "settle", watching)
    for P in polys:
        pr.classical_presentation(P)
        if monotone_normalization(P) is not None:
            pr.quantum_presentation(P)
    monkeypatch.undo()
    assert len(blocks) >= 5
    for M in blocks:
        assert _settle_against_smith(M, len(M[0])) == (True, True)


def test_extend_to_basis_over_z_and_q():
    # 2 and 3 span Q^1 but are not primitive in Z^1; 1 is.
    kept, T = linalg.extend_to_basis([[2], [3], [1]], 1, integral=True)
    assert kept == [2] and T == [[1]]
    kept, T = linalg.extend_to_basis([[2], [3], [1]], 1, integral=False)
    assert kept == [0] and T == [[Fraction(1, 2)]]
    # (2, 3) is primitive without a unit entry; B * T is the identity
    kept, T = linalg.extend_to_basis([[2, 3], [4, 6], [1, 1]], 2)
    assert kept == [0, 2]
    B = [[2, 3], [1, 1]]
    assert mat_mul(B, [list(row) for row in zip(*T)]) == linalg.identity(2)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for p in range(10 ** 4 + 1):
        assert linalg.is_prime(p) == sympy.isprime(p), p
    # 10^18 + 3 and 2^64 - 59 are prime.  The composites: a Carmichael
    # number, products of two large primes, a strong pseudoprime to the
    # bases 2..37 (Sorenson and Webster) and one to the bases 2..23.
    big = [10 ** 18 + 3, 2 ** 64 - 59, 561, 41041,
           (10 ** 9 + 7) * (10 ** 9 + 9), (2 ** 61 - 1) * (2 ** 19 - 1),
           318665857834031151167461, 3825123056546413051,
           10 ** 24 - 1, 10 ** 24 + 7]
    for p in big:
        assert linalg.is_prime(p) == sympy.isprime(p), p
    assert linalg.is_prime(10 ** 18 + 3) and linalg.is_prime(2 ** 64 - 59)
    # exact only below the Miller-Rabin bound of its 13 bases
    with pytest.raises(ValueError):
        linalg.is_prime(sympy.nextprime(linalg.MILLER_RABIN_LIMIT))
    assert 10 ** linalg.PRIME_DIGITS < linalg.MILLER_RABIN_LIMIT


@pytest.mark.parametrize("seed", range(6))
def test_integral_rank_matches_prime_fields(seed):
    # On the lattices of the classical quotients, a free Z-quotient means
    # the rank is the same over Q and over every prime field.
    from toricqh import catalog, topology
    rng = random.Random(300 + seed)
    dim = 2 + seed % 2
    P = catalog.random_delzant(rng, dim, dim + 4)
    K = topology.build_nerve(P)
    N = P.nfacets
    keys = topology.SRKeys([tuple(int(k == j) for k in range(N))
                            for j in range(N)], dim + 1)
    slices = topology.sr_slices(K, keys)
    # no leads: every row of every degree
    for d, (index, rows) in enumerate(
            topology.graded_rows(slices, keys.steps, P.normals)):
        rows = list(rows)
        elim = linalg.Eliminator(integral=True)
        for row in rows:
            elim.add_row(linalg.normalize(row))
        assert elim.settle(len(index))
        for p in (None, 2, 3, 32003):
            assert reference.rank(rows, p) == elim.rank, (d, p)
        assert all(not any(elim.reduce(row)) for row in rows)


FIELDS = (None, 2, 3, 32003)


def _random_sparse_rows(rng):
    """1 to 40 sparse rows with entries in -3..3, so some are 0 mod p."""
    ncols = rng.randrange(1, 25)
    rows = []
    for _ in range(rng.randrange(1, 41)):
        cols = rng.sample(range(ncols), rng.randrange(1, min(ncols, 6) + 1))
        rows.append({c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in cols})
    # a few combinations of earlier rows, so the rank falls short
    for _ in range(rng.randrange(4)):
        a, b = rng.choice(rows), rng.choice(rows)
        f = rng.choice([-2, -1, 1, 3])
        row = {c: a.get(c, 0) + f * b.get(c, 0) for c in set(a) | set(b)}
        rows.append({c: v for c, v in row.items() if v})
    return ncols, [row for row in rows if row]


@pytest.mark.parametrize("seed", range(40))
def test_field_elimination_matches_dense_reference(seed):
    """Over Q and F_p a row pivots on its least column.  The rank agrees
    with dense Gaussian elimination in any row order, the pivot rows are
    in lead echelon form, and after ``settle`` every added row reduces to
    0, every free column is a unit coordinate and dim = ncols - rank."""
    rng = random.Random(900 + seed)
    ncols, rows = _random_sparse_rows(rng)
    for p in FIELDS:
        expected = reference.rank(rows, p)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for order in (rows, shuffled):
            elim = linalg.Eliminator(p)
            for row in order:
                elim.add_row(linalg.normalize(row, p))
            assert elim.rank == expected, (p, order)
        for c, row in elim.pivots.items():
            assert min(row) == c
            if p is None:
                assert row[c] > 0 and math.gcd(*row.values()) == 1
            else:
                assert row[c] == 1 and all(0 < v < p for v in row.values())
        assert elim.settle(ncols)
        assert elim.dim == ncols - elim.rank
        for row in rows:
            assert not any(elim.reduce(linalg.normalize(row, p))), (p, row)
        free = [c for c in range(ncols) if c not in elim.pivots]
        for t, c in enumerate(free):
            assert elim.reduce({c: 1}) == [int(k == t)
                                          for k in range(elim.dim)]


@pytest.mark.parametrize("seed", range(20))
def test_remainder_decides_span_membership_without_settling(seed):
    """Over Q and F_p, ``remainder`` of a vector is nonzero exactly when the
    vector raises the dense rank of the rows added so far, and it changes
    neither the pivot rows nor the rank.  Over Z it is refused."""
    rng = random.Random(1300 + seed)
    ncols, rows = _random_sparse_rows(rng)
    half = rows[:len(rows) // 2]
    for p in FIELDS:
        elim = linalg.Eliminator(p)
        for row in half:
            elim.add_row(linalg.normalize(row, p))
        pivots = {c: dict(row) for c, row in elim.pivots.items()}
        base = reference.rank(half, p)
        probes = rows[len(half):] + [{c: 1} for c in range(ncols)]
        for vec in probes:
            vec = linalg.normalize(vec, p)
            rest = elim.remainder(vec)
            assert bool(rest) == (reference.rank(half + [vec], p) > base)
            assert not rest or min(rest) not in elim.pivots
        assert elim.pivots == pivots and elim.rank == base
    with pytest.raises(PreconditionError):
        linalg.Eliminator(integral=True).remainder({0: 1})
