from fractions import Fraction

import lp


def test_feasible_simple():
    # x >= 0, x <= 1
    assert lp.feasible([([1], 0), ([-1], -1)], [], 1)
    # x >= 2, x <= 1 is empty
    assert not lp.feasible([([1], 2), ([-1], -1)], [], 1)


def test_feasible_with_equalities():
    # x + y = 1, x >= 0, y >= 0
    assert lp.feasible([([1, 0], 0), ([0, 1], 0)], [([1, 1], 1)], 2)
    # x + y = -1 with x, y >= 0 is empty
    assert not lp.feasible([([1, 0], 0), ([0, 1], 0)], [([1, 1], -1)], 2)


def test_minimize_optimal_value():
    # min x subject to x >= 3/2
    status, value = lp.minimize([1], [([1], Fraction(3, 2))], [], 1)
    assert status == lp.OPTIMAL
    assert value == Fraction(3, 2)


def test_minimize_unbounded():
    status, value = lp.minimize([1], [([-1], -5)], [], 1)
    assert status == lp.UNBOUNDED
    assert value is None


def test_minimize_no_constraints_is_unbounded():
    status, _ = lp.minimize([1, -1], [], [], 2)
    assert status == lp.UNBOUNDED


def test_minimize_infeasible():
    status, _ = lp.minimize([1], [([1], 1), ([-1], 0)], [], 1)
    assert status == lp.INFEASIBLE


def test_degenerate_cycling_guard():
    # classic degenerate system; Bland's rule must terminate
    ineqs = [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1), ([1, 1], 0)]
    assert lp.feasible(ineqs, [], 2)


def test_nonnegative_combination():
    cols = [(1, 0), (1, 1), (0, 1)]
    assert lp.nonnegative_combination_exists(cols, (2, 1))
    assert not lp.nonnegative_combination_exists(cols, (-1, 0))
    assert lp.nonnegative_combination_exists([], (0, 0))
    assert not lp.nonnegative_combination_exists([], (1, 0))


def test_exact_fraction_arithmetic():
    # min x st 3x >= 1 gives exactly 1/3, no rounding
    status, value = lp.minimize([1], [([3], 1)], [], 1)
    assert status == lp.OPTIMAL
    assert value == Fraction(1, 3)
