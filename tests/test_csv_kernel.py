"""cli._csv_lines against float.__repr__, value by value.

The kernel writes each float of a block as the shortest decimal that reads
back, as repr does, from integer arithmetic; what it cannot certify it
leaves to float.__repr__. Every test here compares its bytes with repr's.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quadriclab import cli
from quadriclab.rotational import integrate_alpha, profile_curve

SPECIAL = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, 1.0, -1.0, 0.5, 0.1, 1e-5, 1e-4, 1e-6, 1e16, 1e-7,
]


def repr_lines(block: np.ndarray) -> bytes:
    """The reference: each row after its line end, its values' float.__repr__ joined by commas."""
    return "".join("\n" + ",".join(map(float.__repr__, row)) for row in block.tolist()).encode()


def assert_repr(values, cols: int = 1):
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    assert cli._csv_lines(block) == repr_lines(block)


def fast_share(values) -> float:
    return np.count_nonzero(cli._shortest_digits(np.asarray(values, dtype=np.float64).ravel())[2]) / np.size(values)


def neighbours(values, ulps: int = 3) -> np.ndarray:
    """Each value and the floats up to ulps steps either side of it."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 7)), elements=st.floats()))
@example(np.array([SPECIAL[:10], SPECIAL[10:]]))
def test_every_float_is_its_repr(block):
    assert cli._csv_lines(block) == repr_lines(block)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(1e-6, 1e16) | st.floats(-1e16, -1e-6)))
def test_every_float_in_the_fast_range_is_its_repr(values):
    assert_repr(values, cols=1)


def test_fast_and_fallback_values_share_a_block():
    # every row mixes values the kernel certifies with values repr writes
    rng = np.random.default_rng(7)
    fast = rng.choice([-1.0, 1.0], (64, 4)) * rng.uniform(1.0, 10.0, (64, 4)) * 10.0 ** rng.integers(-6, 8, (64, 4))
    slow = rng.choice([math.nan, math.inf, -math.inf, 5e-324, -1e-7, 1e300, 0.5, -2.0, sys.float_info.max], (64, 3))
    block = np.concatenate([fast[:, :2], slow, fast[:, 2:]], axis=1)
    certified = cli._shortest_digits(block.ravel())[2].reshape(block.shape)
    assert certified[:, [0, 1, 5, 6]].all() and not certified[:, 2:5].any()
    assert cli._csv_lines(block) == repr_lines(block)


def test_no_warning_on_any_input():
    values = np.array(SPECIAL + [-x for x in SPECIAL] + [np.nextafter(1e16, 0.0), 1e300, 2.0**-1074 * 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._csv_lines(values.reshape(-1, 1)) == repr_lines(values.reshape(-1, 1))
        cli._shortest_digits(values)


class TestScannedEdges:
    def test_powers_of_two(self):
        powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        assert_repr(neighbours(powers + [-p for p in powers]))

    def test_powers_of_ten(self):
        powers = [float(f"1e{e}") for e in range(-323, 309)]
        assert_repr(neighbours(powers + [-p for p in powers]))

    def test_short_decimals(self):
        # 0.5, 0.1, 1e-5 and the like: the nearest 15-digit decimal ends in zeros
        short = [float(f"{m}e{e}") for m in range(1, 1000) for e in range(-10, 19)]
        assert_repr(neighbours(short, ulps=1))
        assert fast_share([x for x in short if 1e-6 <= x < 1e16]) > 0.99

    @pytest.mark.parametrize("edge", [1e-4, 1e-5, 1e-6])
    def test_exponent_form_edges(self, edge):
        # repr switches to exponent form below 1e-4; the kernel's range ends at 1e-6
        values = neighbours([edge], ulps=2000)
        assert_repr(np.concatenate([values, -values]))
        rng = np.random.default_rng(11)
        assert_repr(edge * rng.uniform(0.5, 2.0, 4000))

    @pytest.mark.parametrize("magnitude", [1e12, 1e13, 1e14, 1e15])
    def test_exact_ties(self, magnitude):
        # eighths and sixteenths above 1e12: a·10**k often lies exactly halfway
        # between two 16- or 17-digit decimals, where repr rounds half to even
        values = magnitude + np.arange(4000) / 16
        assert_repr(np.concatenate([values, -values]), cols=8)

    @pytest.mark.parametrize("digits", [16, 17])
    def test_random_decimal_strings(self, digits):
        rng = np.random.default_rng(digits)
        texts = [
            f"{rng.integers(1, 10)}.{''.join(map(str, rng.integers(0, 10, digits - 1)))}e{e}"
            for e in rng.integers(-8, 18, 20000)
        ]
        values = np.array([float(t) for t in texts])
        assert_repr(np.concatenate([values, -values]), cols=8)


def test_ode_flows_leave_few_values_to_repr():
    # the four profiles of the ode-flow benchmark: n = 3, 4, 5 at 4000 steps and n = 3 at 16000
    for n, steps in [(3, 4000), (4, 4000), (5, 4000), (3, 16000)]:
        traj = integrate_alpha(n, np.pi / 12.0, 0.0, 0.8, steps)
        table = np.column_stack([traj.thetas, traj.alphas, traj.dalphas, profile_curve(traj)])
        assert fast_share(table) >= 0.999
