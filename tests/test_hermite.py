import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.errors import NumericsError
from qsc.hermite import ladder, tabulate
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
