"""The profile flow on plain floats against its earlier loop forms.

The references below are the forms the flow had before its samples were held
as arrays: an RK4 loop that builds one ProfileState per step, the first
integral as a loop over those states, and the CSV writer that formats one row
at a time. The package must reproduce them bit for bit.
"""

import math
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadriclab import cli, rotational
from quadriclab.rotational import (
    GUARD_BAND,
    AlphaTrajectory,
    ProfileState,
    first_integral_residual,
    integrate_alpha,
    profile_curve,
    warp_constant,
)
from references import ref_stop_number


# ---------------------------------------------------------------------------
# reference loop forms
# ---------------------------------------------------------------------------

def _reference_rhs(n, alpha, dalpha):
    return (1.0 - dalpha * dalpha) / math.tan(n * alpha)


def reference_integrate(n, alpha0, dalpha0, span, steps):
    """(states, stopped_early, stop_reason) of the RK4 loop with numpy's scalar sin guard, from theta = 0."""
    t0, t1 = 0.0, float(span)
    h = (t1 - t0) / steps
    states = [ProfileState(t0, float(alpha0), float(dalpha0))]
    a, p = float(alpha0), float(dalpha0)
    for k in range(steps):
        k1a, k1p = p, _reference_rhs(n, a, p)
        k2a, k2p = p + 0.5 * h * k1p, _reference_rhs(n, a + 0.5 * h * k1a, p + 0.5 * h * k1p)
        k3a, k3p = p + 0.5 * h * k2p, _reference_rhs(n, a + 0.5 * h * k2a, p + 0.5 * h * k2p)
        k4a, k4p = p + h * k3p, _reference_rhs(n, a + h * k3a, p + h * k3p)
        a = a + h * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
        p = p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        theta = t0 + (k + 1) * h
        if abs(p) >= 1.0 - GUARD_BAND:
            return states, True, f"|alpha'| reached {ref_stop_number(abs(p))} at theta = {ref_stop_number(theta)}"
        if abs(np.sin(n * a)) <= GUARD_BAND:
            return states, True, f"sin(n alpha) vanished near theta = {ref_stop_number(theta)}"
        states.append(ProfileState(theta, a, p))
    return states, False, None


def reference_warp_constant(n, states):
    s0 = states[0]
    w0 = np.sqrt(1.0 - s0.dalpha**2)
    return float(w0 / np.sqrt(2.0) * np.abs(np.sin(n * s0.alpha)) ** (1.0 / n))


def reference_first_integral(n, states, c1=None):
    if c1 is None:
        c1 = reference_warp_constant(n, states)
    worst = 0.0
    for s in states:
        w = np.sqrt(1.0 - s.dalpha * s.dalpha)
        sn = np.sin(n * s.alpha)
        ds_dtheta = -w / (np.sqrt(2.0) * sn)
        dalpha_ds = s.dalpha / ds_dtheta
        warp = c1 * np.abs(sn) ** (-1.0 / n)
        lhs = warp * warp * (2.0 + dalpha_ds * dalpha_ds / (sn * sn))
        worst = max(worst, abs(lhs - 1.0))
    return worst


def reference_csv(traj, gammas) -> bytes:
    lines = ["theta,alpha,dalpha,gx,gy,gz\n"]
    for k in range(len(traj.thetas)):
        row = (
            traj.thetas[k],
            traj.alphas[k],
            traj.dalphas[k],
            gammas[k, 0],
            gammas[k, 1],
            gammas[k, 2],
        )
        lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines).encode()


def reference_row_list_writer(path, traj, gammas):
    """The writer before its rows were formatted in blocks: one list of Python floats per row."""
    with open(path, "w") as fh:
        fh.write("theta,alpha,dalpha,gx,gy,gz\n")
        rows = np.column_stack([traj.thetas, traj.alphas, traj.dalphas, gammas]).tolist()
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def written_csv(traj, gammas) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        with open(cli._write_profile_csv(SimpleNamespace(out=out), traj, gammas), "rb") as fh:
            return fh.read()


def _columns(states):
    return tuple(np.array([getattr(s, f) for s in states]) for f in ("theta", "alpha", "dalpha"))


def trajectory(n, states):
    """The trajectory over ProfileState records."""
    return AlphaTrajectory(n, *_columns(states))


def assert_same_flow(traj, reference):
    states, stopped_early, stop_reason = reference
    for got, want in zip((traj.thetas, traj.alphas, traj.dalphas), _columns(states)):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert traj.stopped_early is stopped_early
    assert traj.stop_reason == stop_reason


# ---------------------------------------------------------------------------
# drawn initial data
# ---------------------------------------------------------------------------

@st.composite
def flows(draw, max_steps=2000):
    """(n, alpha0, dalpha0, span, steps): 0 < alpha0 < pi/n, |dalpha0| < 0.9.

    The span runs forwards or backwards from theta = 0.
    """
    n = draw(st.integers(3, 6))
    alpha0 = draw(st.floats(0.0, np.pi / n, exclude_min=True, exclude_max=True))
    assume(abs(np.sin(n * alpha0)) > GUARD_BAND)
    dalpha0 = draw(st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True))
    length = draw(st.floats(0.01, 3.0))
    span = length if draw(st.booleans()) else -length
    return n, alpha0, dalpha0, span, draw(st.integers(1, max_steps))


class TestIntegrator:
    @settings(max_examples=60, deadline=None)
    @given(flows())
    @example(flow=(3, 1.0, 0.0, -1.0, 1))  # a negative span: theta_0 is 0.0, not 0 h = -0.0
    def test_matches_reference_loop(self, flow):
        assert_same_flow(integrate_alpha(*flow), reference_integrate(*flow))

    @pytest.mark.parametrize(
        "flow",
        [(3, 0.05, -0.99, 3.0, 2000), (3, 0.1, -0.99, 0.5, 2000), (4, np.pi / 12.0, 0.0, 0.8, 4000), (3, 0.3, 0.5, 2.0, 300)],
    )
    def test_numpy_sin_decides_the_guard(self, flow, monkeypatch):
        # the state's tan only screens the guard band: with a screen that
        # never clears (a tan whose magnitude reads 0 but which divides as
        # itself), numpy's sin is asked at every step and gives the same stops
        class NeverClears(float):
            def __abs__(self):
                return 0.0

        asked, sin = [], np.sin
        monkeypatch.setattr(rotational, "math", SimpleNamespace(tan=lambda x: NeverClears(math.tan(x))))
        monkeypatch.setattr(np, "sin", lambda x: asked.append(1) or sin(x))
        traj = integrate_alpha(*flow)
        # once for the initial data, once after each step taken
        assert len(asked) == len(traj.thetas) + traj.stopped_early
        assert_same_flow(traj, reference_integrate(*flow))

    @pytest.mark.parametrize(
        "flow, samples, reason",
        [
            ((3, 0.05, -0.99, 3.0, 2000), 34, "sin(n alpha) vanished near theta = 0.0510"),
            ((3, 0.1, 0.9, 3, 3), 2, "|alpha'| reached 1213.4546 at theta = 2.0000"),
        ],
    )
    def test_guard_exits(self, flow, samples, reason):
        traj = integrate_alpha(*flow)
        assert_same_flow(traj, reference_integrate(*flow))
        assert traj.stopped_early
        assert traj.stop_reason == reason
        assert len(traj.thetas) == len(traj.states) == samples

    def test_states_view_the_arrays(self):
        traj = integrate_alpha(4, np.pi / 12.0, 0.1, -0.3, 50)
        rebuilt = AlphaTrajectory(traj.n, *_columns(traj.states), traj.stop_reason)
        for columns in (_columns(traj.states), (rebuilt.thetas, rebuilt.alphas, rebuilt.dalphas)):
            for got, want in zip(columns, (traj.thetas, traj.alphas, traj.dalphas)):
                assert got.tobytes() == want.tobytes()
        assert (rebuilt.stopped_early, rebuilt.stop_reason) == (traj.stopped_early, traj.stop_reason)


class TestFirstIntegral:
    def test_n4_default_flow(self):
        # numpy's array power differs from the scalar power at some of these
        # samples on hosts whose numpy vectorizes it
        states, _, _ = reference_integrate(4, np.pi / 12.0, 0.0, 0.8, 4000)
        traj = integrate_alpha(4, np.pi / 12.0, 0.0, 0.8, 4000)
        assert first_integral_residual(traj) == reference_first_integral(4, states)

    @settings(max_examples=40, deadline=None)
    @given(flows(), st.booleans())
    def test_matches_reference_loop(self, flow, explicit_constant):
        n = flow[0]
        states, _, _ = reference_integrate(*flow)
        traj = integrate_alpha(*flow)
        c1 = reference_warp_constant(n, states) * 1.01 if explicit_constant else None
        assert warp_constant(traj) == reference_warp_constant(n, states)
        assert first_integral_residual(traj, c1) == reference_first_integral(n, states, c1)

    # (alpha, alpha', c1) found by a scan of the draws below: pow(alpha', 2.0)
    # is not alpha' * alpha', and the one-sample defect moves with it
    POW_SQUARE_SAMPLES = {
        3: [(0.7428537619381971, -0.8885638026509269, 0.7259770448010976),
            (0.9684585974643417, -0.7977291049780609, 0.5905101381088971)],
        4: [(0.09742023046115693, 0.6235200587218016, 0.4791082849765126),
            (0.32361854915178123, 0.8422721783503803, 0.3596864689143892)],
        5: [(0.17380452835699084, -0.8421897651196291, 0.5938930893974903),
            (0.3400449346165796, -0.8870427060490933, 0.37501424509486314)],
        6: [(0.4232269273939285, -0.7577077375846742, 0.6107990560925565),
            (0.08528286845622161, 0.5517694069548295, 0.5151165393058207)],
    }

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_sample_matches(self, n):
        # one-sample trajectories with a constant off the sample's own give
        # each sample's defect to full precision, so a power rounded another
        # way (numpy's array square, or Python's pow(x, 2.0)) shows at some of them
        rng = np.random.default_rng(n)
        drawn = zip(rng.uniform(0.02, 0.98, 800) * np.pi / n, rng.uniform(-0.9, 0.9, 800), rng.uniform(0.3, 0.8, 800))
        for alpha, dalpha, c1 in [*self.POW_SQUARE_SAMPLES[n], *drawn]:
            states = [ProfileState(0.0, alpha, dalpha)]
            got = first_integral_residual(trajectory(n, states), c1)
            assert got == reference_first_integral(n, states, c1)

    def test_nan_samples_are_skipped(self):
        # |alpha'| > 1 makes the second sample NaN: a running max never takes
        # a NaN, and neither does the array form
        states = [ProfileState(0.0, 0.2, 0.1), ProfileState(0.1, 0.21, 1.5)]
        with np.errstate(invalid="ignore"):
            want = reference_first_integral(3, states)
            assert first_integral_residual(trajectory(3, states)) == want


@pytest.fixture(scope="module")
def long_flow():
    """The 16,001-sample trajectory of ode --n 4 --steps 16000 and its curve points."""
    traj = integrate_alpha(4, np.pi / 12.0, 0.0, 0.8, 16000)
    return traj, profile_curve(traj)


def _head(traj, gammas, rows):
    return AlphaTrajectory(traj.n, traj.thetas[:rows], traj.alphas[:rows], traj.dalphas[:rows]), gammas[:rows]


class TestProfileCsv:
    """cli._write_profile_csv formats CSV_BLOCK_ROWS rows per write, bytewise the row-by-row reference."""

    B = cli.CSV_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_edges(self, long_flow, rows):
        traj, gammas = _head(*long_flow, rows)
        csv = written_csv(traj, gammas)
        assert csv == reference_csv(traj, gammas)
        assert csv.count(b"\n") == rows + 1

    def test_negative_span(self):
        # sample k at k h with h < 0 puts -0.0 in the first theta row, whose
        # repr keeps the sign
        traj = integrate_alpha(3, np.pi / 12.0, 0.0, -0.8, 2000)
        h = -0.8 / 2000
        signed = AlphaTrajectory(3, np.arange(len(traj.thetas)) * h, traj.alphas, traj.dalphas)
        for t in (traj, signed):
            gammas = profile_curve(t)
            assert written_csv(t, gammas) == reference_csv(t, gammas)
        assert written_csv(signed, profile_curve(signed)).split(b"\n")[1].startswith(b"-0.0,")

    def test_peak_memory_below_row_list_writer(self, long_flow, tmp_path):
        # the row-list writer holds 16,001 six-float lists at once; the block
        # writer holds the float table and one block of Python floats
        traj, gammas = long_flow

        def peak(write):
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ours = peak(lambda: cli._write_profile_csv(SimpleNamespace(out=str(tmp_path / "block")), traj, gammas))
        theirs = peak(lambda: reference_row_list_writer(tmp_path / "rows.csv", traj, gammas))
        assert (tmp_path / "block" / "profile.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert ours < 0.4 * theirs

    @settings(max_examples=25, deadline=None)
    @given(flows(max_steps=400))
    def test_rows_match_reference_writer(self, flow):
        traj = integrate_alpha(*flow)
        gammas = profile_curve(traj)
        assert written_csv(traj, gammas) == reference_csv(traj, gammas)

    def test_stopped_trajectory(self):
        traj = integrate_alpha(3, 0.05, -0.99, 3.0, 2000)
        assert traj.stopped_early
        gammas = profile_curve(traj)
        assert written_csv(traj, gammas) == reference_csv(traj, gammas)

    def test_ode_output(self, tmp_path):
        argv = ["--n", "4", "--alpha0", "0.3", "--dalpha0", "0.2", "--span", "0.7", "--steps", "3000"]
        assert cli.main(["ode", *argv, "--out", str(tmp_path)]) == 0
        states, stopped_early, _ = reference_integrate(4, 0.3, 0.2, 0.7, 3000)
        assert not stopped_early
        traj = trajectory(4, states)
        with open(os.path.join(tmp_path, "profile.csv"), "rb") as fh:
            assert fh.read() == reference_csv(traj, profile_curve(traj))

