"""Exact rational linear programming, the reference the tests compare the
package's LP-free answers against.

A small dense two-phase simplex over fractions.Fraction with Bland's rule,
which guarantees termination.  The instances are tiny (dim rows, tens of
columns), so there is no attempt at revised-simplex sophistication.

``solve`` takes the standard form; ``feasible`` and ``minimize`` take
systems in free variables (the primal forms of irredundancy, compactness
and facet intersections), and ``nonnegative_combination_exists`` asks
whether a vector lies in the cone of the facet normals.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [x - f * y for x, y in zip(r, tableau[row])]
    basis[row] = col


def _iterate(tableau, basis, obj, ncols):
    """Run Bland-rule simplex until optimal or unbounded.  Mutates in place."""
    m = len(tableau)
    while True:
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(m):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best[0] or (ratio == best[0]
                                                       and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        row = best[1]
        _pivot(tableau, basis, row, col)
        f = obj[col]
        for j in range(len(obj)):
            obj[j] -= f * tableau[row][j]


def solve(A, b, c) -> tuple[str, Fraction | None]:
    """min c*u subject to A*u = b, u >= 0.

    Returns (status, optimal value).  The value is None unless status is
    OPTIMAL.
    """
    m = len(A)
    k = len(c)
    assert all(len(row) == k for row in A)
    tableau = []
    for row, rhs in zip(A, b):
        row = [Fraction(x) for x in row]
        rhs = Fraction(rhs)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tableau.append(row + [_ZERO] * m + [rhs])
    for i in range(m):
        tableau[i][k + i] = Fraction(1)
    basis = [k + i for i in range(m)]

    # Phase 1: minimise the sum of the artificial variables.
    obj = [_ZERO] * k + [Fraction(1)] * m + [_ZERO]
    for i in range(m):
        obj = [x - y for x, y in zip(obj, tableau[i])]
    status = _iterate(tableau, basis, obj, k + m)
    assert status == OPTIMAL  # phase 1 is always bounded below by 0
    if -obj[-1] != 0:
        return INFEASIBLE, None

    # Drive any artificials still basic (at level 0) out, dropping redundant rows.
    keep = []
    for i in range(m):
        if basis[i] < k:
            keep.append(i)
            continue
        col = next((j for j in range(k) if tableau[i][j] != 0), None)
        if col is not None:
            _pivot(tableau, basis, i, col)
            keep.append(i)
    tableau = [tableau[i][:k] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 on the real objective.
    obj = [Fraction(x) for x in c] + [_ZERO]
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            obj = [x - f * y for x, y in zip(obj, tableau[i])]
    status = _iterate(tableau, basis, obj, k)
    if status != OPTIMAL:
        return status, None
    return OPTIMAL, -obj[-1]


def _split_free_variables(ineqs, eqs, nvars):
    """Standard-form data for a system in free variables.

    ineqs are pairs (a, r) meaning <a, x> >= r and eqs mean <a, x> = r.
    Free x is split as x = xp - xm and each inequality gets a slack.
    """
    nineq = len(ineqs)
    A, b = [], []
    for idx, (a, r) in enumerate(list(ineqs) + list(eqs)):
        row = [Fraction(x) for x in a] + [-Fraction(x) for x in a]
        slack = [_ZERO] * nineq
        if idx < nineq:
            slack[idx] = Fraction(-1)
        A.append(row + slack)
        b.append(Fraction(r))
    return A, b, 2 * nvars + nineq


def feasible(ineqs, eqs, nvars: int) -> bool:
    """Is {x : <a,x> >= r for (a,r) in ineqs, <a,x> = r for (a,r) in eqs} nonempty?"""
    A, b, k = _split_free_variables(ineqs, eqs, nvars)
    status, _ = solve(A, b, [_ZERO] * k)
    return status == OPTIMAL


def minimize(objective, ineqs, eqs, nvars: int) -> tuple[str, Fraction | None]:
    """Exact minimum of <objective, x> over the same system."""
    A, b, k = _split_free_variables(ineqs, eqs, nvars)
    c = ([Fraction(x) for x in objective] + [-Fraction(x) for x in objective]
         + [_ZERO] * len(ineqs))
    return solve(A, b, c)


def nonnegative_combination_exists(columns, target) -> bool:
    """Does target lie in the cone of non-negative combinations of columns?"""
    if not columns:
        return all(x == 0 for x in target)
    dim = len(target)
    A = [[col[i] for col in columns] for i in range(dim)]
    status, _ = solve(A, list(target), [_ZERO] * len(columns))
    return status == OPTIMAL
