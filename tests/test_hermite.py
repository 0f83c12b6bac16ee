import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.errors import NumericsError
from qsc.hermite import ladder, row_chunks, tabulate
from qsc.state import Grid, default_grid

PI4 = math.pi ** -0.25

# frozen from a 30-digit mpmath evaluation of the closed form
ORACLE_VALUES = {
    (1, 1.0): 0.64428836511347518,
    (7, 2.5): -0.19825280491742293,
    (50, 3.7): -0.051686678508137491,
    (200, 15.0): 0.13205466913907389,
    (1000, 40.0): 0.17225052073279227,
}


def mp_hermite_fn(n, x):
    with mp.workdps(30):
        val = (1 / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
               * mp.e ** (-mp.mpf(x) ** 2 / 2) * mp.hermite(n, mp.mpf(x)))
        return float(val)


# Every eigenfunction value in the package is a row of a basis table, and
# every derivative is the ladder of its coefficients times table rows.
# ``u`` reads row n of a table built up to n at x (a float or an array);
# ``du`` applies the ladder (``lad``) to the unit vector e_n and multiplies
# by rows 0..n+1 of a table built up to n + 1.  Both check the production
# code.

def u(n, x):
    return tabulate(np.atleast_1d(x), n).values[n]


def lad(d):
    return ladder(d, np.empty(d.shape[:-1] + (d.shape[-1] + 1,), d.dtype))


def du(n, x):
    return lad(np.eye(n + 1)[n]) @ tabulate(np.atleast_1d(x), n + 1).values


def test_ground_state_value():
    assert u(0, 0.0) == pytest.approx([PI4], rel=1e-12)


def test_odd_parity_node():
    assert u(1, 0.0)[0] == 0.0


@pytest.mark.parametrize("key,expected", sorted(ORACLE_VALUES.items()))
def test_frozen_oracle_values(key, expected):
    n, x = key
    assert u(n, x) == pytest.approx([expected], rel=1e-10)


@pytest.mark.parametrize("n,x", [(3, 0.31), (12, -4.2), (77, 6.25), (150, 1.0)])
def test_against_live_oracle(n, x):
    assert u(n, x) == pytest.approx([mp_hermite_fn(n, x)], rel=1e-11, abs=1e-250)


# exp(-x^2/2) leaves the normal floats at |x| = 37.14, past which a column
# carries a binary exponent of its own
BOUNDARY_POINTS = [-37.5, -37.2, -37.1, -36.9, 36.9, 37.1, 37.2, 37.5]


@pytest.mark.parametrize("x", BOUNDARY_POINTS)
def test_both_routes_at_their_boundary(x):
    values = tabulate(np.array([x]), 700).values[:, 0]
    for n in (0, 1, 50, 700):
        assert values[n] == pytest.approx(mp_hermite_fn(n, x), rel=1e-11,
                                          abs=0.0), n


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_mixed_table_columns_are_one_point_tables(order):
    # a column depends on its own point only, whichever route it takes and
    # wherever it sits among the other points
    xs = np.array(sorted(BOUNDARY_POINTS + [-60.0, -5.0, 0.0, 5.0, 60.0]))
    if order == "shuffled":
        xs = np.random.default_rng(3).permutation(xs)
    values = tabulate(xs, 700).values
    for j, x in enumerate(xs):
        assert np.array_equal(values[:, j],
                              tabulate(np.array([x]), 700).values[:, 0]), x


def scalar_recurrence(xs, row0, n_max):
    """Rows 0..n_max from ``row0``, one Python float at a time: row n + 1 is
    (x a) u_n - u_{n-1} b, with a = sqrt(2/(n+1)) and b = sqrt(n/(n+1))."""
    lo, hi, rows = [0.0] * len(xs), list(row0), [list(row0)]
    for n in range(n_max):
        a, b = math.sqrt(2.0 / (n + 1.0)), math.sqrt(n / (n + 1.0))
        lo, hi = hi, [(x * a) * h - l * b for x, h, l in zip(xs, hi, lo)]
        rows.append(hi)
    return np.array(rows)


# just inside |x| = 37.1406467, past which exp(-x^2/2) / pi**0.25 leaves
# the normal floats and a column carries a binary exponent
NEAR_EDGE = [s * (37.1406466 - k * 1e-7) for k in range(3) for s in (-1, 1)]


@pytest.mark.parametrize("points,n_max,mixed", [
    (np.array(NEAR_EDGE + [-37.1, -5.0, -0.0, 0.0, 1e-300, 2.5, 36.9]), 700,
     False),
    (default_grid(385).half_points, 386, False),  # the table of fock:385
    (default_grid(1200).half_points, 1201, True),  # of fock:1200, a third far
], ids=["edge", "fock_385", "fock_1200"])
def test_near_rows_follow_the_scalar_recurrence(points, n_max, mixed):
    # the recurrence rounds as the scalar loop does, in the same order, bit
    # for bit, at every point where u_0 is normal: a faster loop may not
    # move a rounding, and far columns in the same table may not either
    near = PI4 * np.exp(-0.5 * points * points) > 2.0 ** -1022
    # u_0 is normal up to |x| = 37.64, but a column carries an exponent from
    # g = log(pi**-0.25) - x^2/2 <= -690 on, |x| >= 37.1406467
    near &= math.log(PI4) - 0.5 * points * points > -690.0
    assert mixed or np.all(near)
    assert not mixed or 0 < np.count_nonzero(near) < points.shape[0]
    values = tabulate(points, n_max).values[:, near]
    expected = scalar_recurrence(points[near].tolist(), values[0].tolist(),
                                 n_max)
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


def test_far_columns_share_the_one_table():
    # default_grid(1200) reaches x = 55, so a third of its half points carry
    # a binary exponent; their rows are scaled in place in the table itself,
    # never through a second table of their own (665 x 1202 cells here)
    points = default_grid(1200).half_points
    tabulate(points, 1201)              # warm up numpy's own allocations
    tracemalloc.start()
    try:
        table = tabulate(points, 1201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(points > 37.2) > 600
    assert peak <= table.values.nbytes + 16 * points.nbytes


def mp_u(n, x):
    """u_n(x) to 40 digits, from the closed form."""
    with mp.workdps(40):
        x = mp.mpf(x)
        return (mp.hermite(n, x) * mp.exp(-x * x / 2)
                / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)))


@pytest.mark.parametrize("n_terms", [1200, 2000])
def test_far_columns_match_mpmath(n_terms):
    # 40 seeded (n, x) in the columns past |x| = 37.14 of an evaluator
    # table; below 1e-290 a value has lost digits to the subnormals
    points = default_grid(n_terms).half_points
    values = tabulate(points, n_terms + 1).values
    far = np.flatnonzero(points > 37.14)
    assert far.size > 600
    rng = np.random.default_rng(n_terms)
    checked = 0
    for n, j in zip(rng.integers(0, n_terms + 2, 40), rng.choice(far, 40)):
        expected = mp_u(int(n), float(points[j]))
        if abs(expected) > 1e-290:
            checked += 1
            assert values[n, j] == pytest.approx(float(expected), rel=1e-12,
                                                 abs=0.0), (n, points[j])
    assert checked >= 10


def test_one_far_point_deep_into_the_rows():
    # u_0(60) is 1.4e-782, far below the floats, while u_1500 and u_3000
    # are of order 1e-38 and 0.1: twenty chunks of exponent hand-over
    values = tabulate(np.array([60.0]), 3000).values[:, 0]
    assert np.all(np.isfinite(values))
    assert values[0] == 0.0
    for n in (1500, 3000):
        assert values[n] == pytest.approx(float(mp_u(n, 60.0)), rel=1e-12,
                                          abs=0.0), n


@pytest.mark.parametrize("points,n_max", [
    # x * x overflows past |x| = 1.3e154
    ([2e154, 1e200, 3e300, -3e300], 50),
    # s grows by about 809 of the 901 bits a chunk allows here
    ([1e3, -1e6], 300),
], ids=["square_overflows", "chunk_bound"])
def test_huge_points_give_zero_rows(points, n_max):
    # every finite point up to |x| = 1e300 gives finite rows, all 0.0 here,
    # and no floating-point warning
    points = np.array(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = tabulate(points, n_max).values
    assert np.all(np.isfinite(values))
    assert np.all(values == 0.0)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        tabulate(np.zeros(1), -1)


def test_derivative_at_origin():
    assert du(0, 0.0)[0] == 0.0
    assert du(1, 0.0) == pytest.approx([math.sqrt(2.0) * PI4], rel=1e-12)


def test_derivative_ground_state_slope():
    # u_0' = -x u_0
    assert du(0, 1.0) == pytest.approx(-u(0, 1.0), rel=1e-12)
    assert du(0, 1.0) == pytest.approx([-0.455580672], rel=1e-8)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 50])
def test_derivative_matches_finite_difference(n):
    h = 1e-5
    x = np.linspace(-10.0, 10.0, 41)
    fd = (u(n, x + h) - u(n, x - h)) / (2 * h)
    np.testing.assert_allclose(du(n, x), fd, rtol=0.0, atol=1e-7)


@given(x=st.floats(-10.0, 10.0), n=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_ladder_identity_property(n, x):
    # rows n - 1 and n + 1 of tables of their own
    lhs = du(n, x)[0]
    rhs = (math.sqrt(n / 2.0) * (u(n - 1, x)[0] if n else 0.0)
           - math.sqrt((n + 1) / 2.0) * u(n + 1, x)[0])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_table_three_point_grid():
    table = tabulate(Grid(extent=1.0, count=3).points, 0)
    np.testing.assert_allclose(table.values[0],
                               [0.455580672, 0.751125544, 0.455580672],
                               rtol=1e-8)


def test_table_parity_exact():
    grid = Grid(extent=8.0, count=256)
    table = tabulate(grid.points, 6)
    for n in range(7):
        sign = (-1) ** n
        assert np.array_equal(table.values[n], sign * table.values[n][::-1])


@pytest.mark.parametrize("n_max,count", [(66, 4096), (386, 4096),
                                         (1001, 4096), (300, 4097)])
def test_table_parity_on_the_default_grid(n_max, count):
    # the folded evaluator table rests on u_n(-x) = (-1)^n u_n(x) as float
    # equality: the left half is the mirrored right half, sign (-1)^n.  At
    # n = 1001 tail points underflow to +0.0 on both sides, so compare as
    # floats, not bits
    grid = default_grid(n_max, grid_points=count)
    values = tabulate(grid.points, n_max).values
    left = count // 2
    for n in range(n_max + 1):
        assert np.array_equal(values[n][:left],
                              (-1) ** n * values[n][::-1][:left]), n


def test_table_parity_on_clenshaw_curtis_nodes():
    # the 129 nodes of the box projection at N = 386 are odd-symmetric too
    from qsc.catalog import _clenshaw_curtis
    nodes = _clenshaw_curtis(128)[0]
    assert nodes.shape == (129,) and np.array_equal(nodes, -nodes[::-1])
    values = tabulate(nodes, 386).values
    for n in range(387):
        assert np.array_equal(values[n][:64],
                              (-1) ** n * values[n][::-1][:64]), n


def test_table_ladder_identity():
    # row n of ladder(I) @ values is u_n', against the identity on rows
    grid = default_grid(32, grid_points=512)
    table = tabulate(grid.points, 32)
    derivs = lad(np.eye(32)) @ table.values
    for n in range(32):
        lower = table.values[n - 1] if n else np.zeros(grid.count)
        rows = (math.sqrt(n / 2.0) * lower
                - math.sqrt((n + 1) / 2.0) * table.values[n + 1])
        np.testing.assert_allclose(derivs[n], rows, atol=1e-10)


def test_table_row_norms():
    grid = default_grid(10)
    table = tabulate(grid.points, 10)
    for n in range(11):
        norm = np.trapezoid(table.values[n] ** 2, dx=grid.dx)
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_orthonormality():
    grid = default_grid(40)
    table = tabulate(grid.points, 40)
    w = np.full(grid.count, grid.dx)
    w[0] = w[-1] = grid.dx / 2
    gram = (table.values * w) @ table.values.T
    np.testing.assert_allclose(gram, np.eye(41), atol=1e-7)


def test_no_overflow_large_n():
    xs = np.linspace(-60.0, 60.0, 7)
    assert np.all(np.isfinite(u(1000, xs)))
    table = tabulate(np.array([-60.0, 0.0, 60.0]), 1000)
    assert np.all(np.isfinite(table.values))


@pytest.mark.parametrize("n_max", [0, 1, 5])
def test_table_on_no_points(n_max):
    table = tabulate(np.zeros(0), n_max)
    assert table.values.shape == (n_max + 1, 0)


def test_ladder_reaches_one_row_up():
    # u_0' = -sqrt(1/2) u_1: a single coefficient has a two-term derivative
    np.testing.assert_array_equal(lad(np.array([1.0])),
                                  [0.0, -math.sqrt(0.5)])
    # d'_m = sqrt((m+1)/2) d_{m+1} - sqrt(m/2) d_{m-1}, row by row
    d0, d1, d2 = 0.5 + 1j, -2.0, 0.25j
    expected = [math.sqrt(0.5) * d1,
                d2 - math.sqrt(0.5) * d0,
                -d1,
                -math.sqrt(1.5) * d2]
    np.testing.assert_allclose(lad(np.array([[d0, d1, d2]] * 2)),
                               [expected] * 2, rtol=1e-15)


def test_table_cell_cap():
    with pytest.raises(NumericsError):
        tabulate(np.zeros(1 << 20), 1 << 10)


@pytest.mark.parametrize("points, n_max", [
    (default_grid(40).half_points, 41),
    (default_grid(1200, 4097).half_points, 1201),   # far columns
    (np.array([-60.0, 0.0, 37.1, 37.2, 60.0, 1e10]), 1000),
], ids=["near", "far_4097", "mixed"])
@pytest.mark.parametrize("rows", [1, 3, 4, 64, 143, 144])
def test_row_chunks_are_the_table_bit_for_bit(points, n_max, rows):
    # every chunk holds finished rows, and they join into the table,
    # whatever the chunk size and wherever the far columns hand their
    # exponent on (every 142 rows at the far_4097 points, where a buffer
    # of 143 rows is full as the first hand-over comes)
    chunks = [chunk.copy() for chunk in row_chunks(points, n_max, rows)]
    assert all(1 <= chunk.shape[0] <= max(rows, 3) for chunk in chunks)
    joined = np.concatenate(chunks)
    table = tabulate(points, n_max).values
    assert np.array_equal(joined.view(np.uint64), table.view(np.uint64))


def test_row_chunks_are_one_chunk_when_the_rows_fit():
    points = default_grid(6).half_points
    (only,) = row_chunks(points, 7, 8)
    assert only.shape == (8, points.shape[0])
    assert len(list(row_chunks(points, 7, 7))) == 2
