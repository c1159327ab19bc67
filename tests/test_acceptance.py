"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion together with the worst observed residuals.
"""

import time

import numpy as np
import pytest

from quadriclab.cli import main as cli_main
from quadriclab.gaussmap import (
    FdSteps,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    second_fundamental_form,
    structure_operators,
)
from quadriclab.hypersurfaces import (
    ChartStencil,
    cartan_tube,
    product_spheres,
    round_sphere,
)
from quadriclab.quadric import (
    metric,
    product_structure,
    ricci_matrix,
)
from quadriclab.rotational import (
    build_rotational_chart,
    first_integral_residual,
    integrate_alpha,
    ode_equivalence_residual,
    ode_order_ratio,
    warped_curvature_check,
)
from quadriclab.verify import (
    check_prop1,
    codazzi_residual,
    curvature_from_metric,
    gauss_equation_residual,
    gauss_metric_fn,
    palmer_residual,
    sectional_from_metric,
)
from references import (
    box_sample,
    parallel_hypersurface,
    point_batch,
    quadric_distance,
    random_horizontal,
    random_stiefel,
    reconstruct_hypersurface,
)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def sample_points(chart, count, seed=1, margin=0.04):
    rng = np.random.default_rng(seed)
    return [box_sample(chart.box, rng, margin=margin) for _ in range(count)]


def isoparametric_catalog():
    return [
        round_sphere(3, 1.0 / np.sqrt(2.0)),
        round_sphere(2, 0.8),
        product_spheres(1, 2, 1.0 / np.sqrt(2.0)),
        product_spheres(1, 3, 0.55),
        cartan_tube(0.35),
    ]


@pytest.fixture(scope="module")
def rotational_chart():
    traj = integrate_alpha(3, np.pi / 12.0, 0.0, 0.8, 4000)
    return build_rotational_chart(traj)


def test_criterion_01_einstein_constant():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        p = random_stiefel(n, rng)
        ric = ricci_matrix(0.2 * n, p)
        worst = max(worst, float(np.abs(ric - 2 * n * np.eye(2 * n)).max()))
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"Ricci = 2n * metric for n in (2, 3, 4); worst residual {worst:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_02_sphere_gauss_map():
    start = time.monotonic()
    worst_gap = 0.0
    worst_k = 0.0
    steps = FdSteps()
    for n in (2, 3, 4):
        chart = round_sphere(n, 1.0 / np.sqrt(2.0))
        for x in sample_points(chart, 10, seed=n):
            pt = point_batch(chart, x, steps)
            spec = pt.spec0
            worst_gap = max(worst_gap, float(np.ptp(spec.thetas[0])))
            k = sectional_from_metric(
                pt.curvature[0], pt.jets.lift_metric[0], spec.frame_vel[0, 0], spec.frame_vel[0, 1]
            )
            worst_k = max(worst_k, abs(k - 2.0))
    elapsed = time.monotonic() - start
    report(
        2,
        worst_gap < 1e-8 and worst_k < 1e-3 and elapsed < 10.0,
        f"equal angles (spread {worst_gap:.2e}) and curvature 2 "
        f"(residual {worst_k:.2e}) at 10 points for n in (2, 3, 4); {elapsed:.2f} s",
    )


def test_criterion_03_flat_torus():
    chart = product_spheres(1, 2, 1.0 / np.sqrt(2.0))
    steps = FdSteps()
    metric_fn = gauss_metric_fn(chart, steps)
    worst = 0.0
    for x in sample_points(chart, 5):
        g = metric_fn(x)
        k = sectional_from_metric(
            curvature_from_metric(metric_fn, x, steps.metric, g),
            g,
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
        )
        worst = max(worst, abs(k))
    report(3, worst < 1e-3, f"torus Gauss map is flat; worst |K| = {worst:.2e}")


def test_criterion_04_cartan_tube():
    start = time.monotonic()
    chart = cartan_tube(0.35)
    steps = FdSteps()
    worst_gap = worst_h = worst_k = 0.0
    for x in sample_points(chart, 3):
        jet = gauss_map(chart, x, steps)
        pt = point_batch(chart, x, steps)
        spec = gauge_normalize(jet, angle_spectrum(jet))
        th = np.sort(spec.thetas)
        worst_gap = max(
            worst_gap,
            abs(th[1] - th[0] - np.pi / 3.0),
            abs(th[2] - th[1] - np.pi / 3.0),
        )
        ff = second_fundamental_form(jet, spec)
        worst_h = max(worst_h, abs(ff.h[0, 1, 2] ** 2 - 0.375))
        for i in range(3):
            for j in range(i + 1, 3):
                k = sectional_from_metric(
                    pt.curvature[0], pt.jets.lift_metric[0], spec.frame_vel[i], spec.frame_vel[j]
                )
                worst_k = max(worst_k, abs(k - 0.125))
    elapsed = time.monotonic() - start
    report(
        4,
        worst_gap < 1e-5 and worst_h < 1e-3 and worst_k < 1e-3 and elapsed < 60.0,
        f"angle gaps pi/3 ({worst_gap:.2e}), squared cubic component 3/8 "
        f"({worst_h:.2e}), curvature 1/8 on all planes ({worst_k:.2e}); "
        f"{elapsed:.2f} s",
    )


def test_criterion_05_minimality():
    steps = FdSteps()
    worst_h = worst_p = 0.0
    for chart in isoparametric_catalog():
        for x in sample_points(chart, 2):
            jet = gauss_map(chart, x, steps)
            ff = second_fundamental_form(jet, angle_spectrum(jet))
            worst_h = max(worst_h, float(np.linalg.norm(mean_curvature(ff))))
            worst_p = max(worst_p, float(palmer_residual(point_batch(chart, x, steps))["residual"][0]))
    report(
        5,
        worst_h < 1e-5 and worst_p < 1e-5,
        f"all isoparametric Gauss maps minimal: |H| <= {worst_h:.2e}, "
        f"gradient-formula residual <= {worst_p:.2e}",
    )


def test_criterion_06_curvature_angle_correspondence():
    steps = FdSteps()
    worst_canonical = 0.0
    worst_parallel = 0.0
    for chart in (round_sphere(3, 0.65), product_spheres(1, 3, 0.55), cartan_tube(0.35)):
        x = chart.box.center + 0.05
        jet = gauss_map(chart, x, steps)
        spec = angle_spectrum(jet, 0.0)
        lams = np.sort(jet.lambdas)[::-1]
        for lam, th in zip(lams, spec.thetas):
            worst_canonical = max(worst_canonical, abs(lam - 1.0 / np.tan(th)))
        for c in (0.1, 0.3):
            par = parallel_hypersurface(chart, c)
            lam_par = np.sort(ChartStencil(par, x, steps.first).shape_eigen[0])[::-1]
            for lam, th in zip(lam_par, spec.thetas):
                worst_parallel = max(worst_parallel, abs(lam - 1.0 / np.tan(th + c)))
    report(
        6,
        worst_canonical < 1e-5 and worst_parallel < 1e-5,
        f"lambda = cot(theta) canonically ({worst_canonical:.2e}) and "
        f"cot(theta + c) after offsets 0.1, 0.3 ({worst_parallel:.2e})",
    )


def test_criterion_07_reconstruction_round_trip():
    chart = round_sphere(3, 1.0 / np.sqrt(2.0))
    steps = FdSteps()
    x0 = np.array([0.1, -0.2, 0.15])
    spec = angle_spectrum(gauss_map(chart, x0, steps))
    lift = chart.lift
    worst_lam = 0.0
    worst_q = 0.0
    for t in (0.0, 0.3):
        rec = reconstruct_hypersurface(lift, chart.box, spec, t)
        for x in sample_points(chart, 3):
            lam = ChartStencil(rec, x, steps.first).shape_eigen[0]
            worst_lam = max(worst_lam, float(np.abs(lam - 1.0 / np.tan(np.pi / 4.0 + t)).max()))
            d = quadric_distance(gauss_map(rec, x, steps).lift, gauss_map(chart, x, steps).lift)
            worst_q = max(worst_q, d)
    report(
        7,
        worst_lam < 1e-4 and worst_q < 1e-6,
        f"reconstructed hypersurfaces have curvature cot(pi/4 + t) "
        f"({worst_lam:.2e}) and reproduce the quadric points ({worst_q:.2e})",
    )


def test_criterion_08_first_order_identities(rotational_chart):
    steps = FdSteps()
    worst_iso = 0.0
    for chart in isoparametric_catalog():
        x = chart.box.center + 0.05
        rep = check_prop1(point_batch(chart, x, steps, normalized=True))
        worst_iso = max(worst_iso, max(float(v[0]) for v in rep.values()))
    x = rotational_chart.box.center
    rep = check_prop1(point_batch(rotational_chart, x, steps, normalized=True))
    worst_rot = max(float(v[0]) for v in rep.values())
    report(
        8,
        worst_iso < 1e-8 and worst_rot < 1e-4,
        f"angle-gradient and frame-rotation identities: isoparametric "
        f"{worst_iso:.2e} (< 1e-8), rotational {worst_rot:.2e} (< 1e-4)",
    )


def test_criterion_09_gauss_codazzi(rotational_chart):
    steps = FdSteps()
    worst = 0.0
    charts = isoparametric_catalog() + [rotational_chart]
    for chart in charts:
        x = chart.box.center + (0.05 if chart.name != "rotational" else 0.0)
        pt = point_batch(chart, x, steps, normalized=True)
        worst = max(
            worst,
            float(gauss_equation_residual(pt)["gauss_equation"][0]),
            float(codazzi_residual(pt)["codazzi_equation"][0]),
        )
    ode_form = warped_curvature_check(rotational_chart, 3, rotational_chart.meta["c1"], steps)[
        "profile_second_order_ode"
    ]
    report(
        9,
        worst < 1e-3 and ode_form < 1e-3,
        f"Gauss/Codazzi residuals <= {worst:.2e} on all catalog entries; "
        f"rotational second-order profile equation {ode_form:.2e}",
    )


def test_criterion_10_ode_suite(rotational_chart):
    start = time.monotonic()
    traj = integrate_alpha(3, np.pi / 12.0, 0.0, 0.8, 4000)
    ratio = ode_order_ratio(3, np.pi / 12.0, 0.0, 0.8, 250)
    conserved = first_integral_residual(traj)
    equivalence = ode_equivalence_residual(traj)
    chart = rotational_chart
    rho_law = warped_curvature_check(chart, 3, chart.meta["c1"])["warp_factor_law"]
    series = chart.meta["alpha"]
    worst_pattern = 0.0
    for x in sample_points(chart, 3):
        lam = ChartStencil(chart, x, 1e-4).shape_eigen[0]
        alpha = series(x[0])[0]
        expected = np.sort([1.0 / np.tan(2 * alpha)] + [-1.0 / np.tan(alpha)] * 2)[::-1]
        worst_pattern = max(worst_pattern, float(np.abs(lam - expected).max()))
    elapsed = time.monotonic() - start
    ok = (
        12.0 <= ratio <= 20.0
        and conserved < 1e-6
        and equivalence < 1e-5
        and worst_pattern < 1e-3
        and rho_law < 1e-3
        and elapsed < 60.0
    )
    report(
        10,
        ok,
        f"order ratio {ratio:.1f} in [12, 20]; first integral {conserved:.2e}; "
        f"flow-form equivalence {equivalence:.2e}; curvature pattern "
        f"{worst_pattern:.2e}; warp law {rho_law:.2e}; {elapsed:.2f} s",
    )


def test_criterion_11_algebraic_suite():
    rng = np.random.default_rng(2024)
    worst_amb = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p = random_stiefel(n, rng)
        x = random_horizontal(p, rng, unit=True)
        y = random_horizontal(p, rng, unit=True)
        base = 0.0
        a2 = product_structure(base, p, product_structure(base, p, x))
        worst_amb = max(worst_amb, float(np.abs(a2 - x).max()))
        sym = metric(product_structure(base, p, x), y) - metric(
            x, product_structure(base, p, y)
        )
        worst_amb = max(worst_amb, abs(sym))
        anti = product_structure(base, p, 1j * x) + 1j * product_structure(base, p, x)
        worst_amb = max(worst_amb, float(np.abs(anti).max()))

    steps = FdSteps()
    charts = isoparametric_catalog()
    worst_bc = 0.0
    worst_sym = 0.0
    count = 0
    while count < 100:
        chart = charts[count % len(charts)]
        x = box_sample(chart.box, rng, margin=0.04)
        jet = gauss_map(chart, x, steps)
        phi = float(rng.uniform(0.0, 2 * np.pi))
        b, c = structure_operators(jet, phi)
        eye = np.eye(jet.dim)
        worst_bc = max(
            worst_bc,
            float(np.abs(b @ b + c @ c - eye).max()),
            float(np.abs(b @ c - c @ b).max()),
        )
        spec = angle_spectrum(jet, phi)
        ff = second_fundamental_form(jet, spec)
        worst_sym = max(worst_sym, ff.symmetry_defect)
        count += 1
    ok = worst_amb < 1e-8 and worst_bc < 1e-8 and worst_sym < 1e-8
    report(
        11,
        ok,
        f"100-sample algebraic suite: ambient structure {worst_amb:.2e}, "
        f"operator identities {worst_bc:.2e}, cubic symmetry {worst_sym:.2e}",
    )


def test_criterion_12_determinism(tmp_path):
    args = ["verify", "--example", "product", "--n", "2", "--grid", "2", "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(d1)]) == 0
    assert cli_main(args + ["--out", str(d2)]) == 0
    lines1 = [l for l in open(d1 / "verify_product_report.json") if "timestamp" not in l]
    lines2 = [l for l in open(d2 / "verify_product_report.json") if "timestamp" not in l]
    report(
        12,
        lines1 == lines2,
        "two identical configurations produce identical reports modulo timestamp",
    )
