"""Acceptance criteria, one test per criterion, full-scale parameters.

Each test prints one `[C-xx] PASS/FAIL` line (visible with `pytest -s` and in
failure reports).  Criterion 10's log-linear fit over separations {1..3} is
expected to fail at unit couplings: the measured spectral gap is about 4, so
the signal at those separations sits orders of magnitude below any reachable
noise floor; the test is kept faithful to the stated criterion and a
supplementary test demonstrates the identical pipeline at separations where
the signal exists.  See the repository notes for the full analysis.
"""

import math
import time

import numpy as np
import pytest

import sinhgordon as sg
from sinhgordon.correlations import (
    ShiftData,
    _cylinder_engine,
    _entries_to_process,
    two_point_panel,
)
from sinhgordon.errors import SignalLost
from sinhgordon.gff import (
    TimeGrid,
    fluctuation_grid,
    ou_step_coeffs,
    sample_path_batch,
)
from sinhgordon.gmc import Region, circle_spec, expected_mass, fourier_spec, \
    sample_region_masses
from sinhgordon.propagator import (
    default_c_quadrature,
    mehler_factor,
    partition_curve,
)
from sinhgordon.results import jackknife_func
from sinhgordon.smc import SmcSettings, smc_log_partition

pytestmark = pytest.mark.acceptance

P1 = sg.validate_params(1.0, 1.0, 1.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# C1: covariance panel, 1e5 replicas, closed forms within 3 s.e. + 0.02
# ---------------------------------------------------------------------------

def test_criterion_01_covariance_panel():
    t0 = time.perf_counter()
    n_total, batch, n_modes = 100_000, 2000, 64
    grid = TimeGrid(1 / 64, 64)
    nvec = np.arange(1, n_modes + 1)

    slice_probes = [((0.0, 0.0), (0.5, 0.0)), ((0.0, 0.0), (0.0, np.pi)),
                    ((0.25, np.pi / 2), (0.75, np.pi / 2)), ((0.5, 0.0), (0.5, np.pi))]
    y_probes = [((1.0, 0.0), (0.5, 0.0)), ((0.75, np.pi), (0.25, np.pi)),
                ((1.0, np.pi / 2), (1.0, 0.0))]
    h_probes = [((1.0, 0.0), (1.0, 0.0)), ((0.5, 0.0), (1.0, 0.0)),
                ((0.25, 0.0), (0.25, np.pi))]
    n_probes = len(slice_probes) + len(y_probes) + len(h_probes)
    assert n_probes >= 10
    prods = {i: [] for i in range(n_probes)}

    rng_master = np.random.SeedSequence(8101)
    children = rng_master.spawn(n_total // batch)
    for child in children:
        rng = np.random.default_rng(child)
        b, xs, ys = sample_path_batch(rng, batch, n_modes, grid)

        def fl(t, th):
            k = grid.index_of(t)
            return fluctuation_grid(xs[:, k, :], ys[:, k, :], np.array([th]))[:, 0]

        def harm(t, th):
            damp = np.exp(-nvec * t) / np.sqrt(nvec)
            return (xs[:, 0, :] * damp * np.cos(nvec * th)).sum(axis=1) + \
                   (ys[:, 0, :] * damp * np.sin(nvec * th)).sum(axis=1)

        i = 0
        for (t1, th1), (t2, th2) in slice_probes:
            prods[i].append(fl(t1, th1) * fl(t2, th2)); i += 1
        for (t1, th1), (t2, th2) in y_probes:
            y1 = fl(t1, th1) - harm(t1, th1)
            y2 = fl(t2, th2) - harm(t2, th2)
            prods[i].append(y1 * y2); i += 1
        for (t1, th1), (t2, th2) in h_probes:
            prods[i].append(harm(t1, th1) * harm(t2, th2)); i += 1

    kinds = ["slice"] * len(slice_probes) + ["dirichletY"] * len(y_probes) \
        + ["harmonic"] * len(h_probes)
    probes = slice_probes + y_probes + h_probes
    worst = -math.inf
    lines = []
    for i, (kind, ((t1, th1), (t2, th2))) in enumerate(zip(kinds, probes)):
        vals = np.concatenate(prods[i])
        emp = float(vals.mean())
        se = float(vals.std() / math.sqrt(vals.size))
        target = sg.covariance_oracle(kind, t1, th1, t2, th2)
        excess = abs(emp - target) - (3 * se + 0.02)
        worst = max(worst, excess)
        lines.append(f"{kind}({t1},{th1:.2f})x({t2},{th2:.2f}): emp={emp:.4f} "
                     f"oracle={target:.4f} se={se:.4f}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 0 and elapsed < 300
    report("C-01", ok, f"{n_probes} probes, worst excess over 3se+0.02 = {worst:.4f}, "
                       f"{elapsed:.0f}s (limit 300s)")
    assert worst <= 0, "\n".join(lines)
    assert elapsed < 300


# ---------------------------------------------------------------------------
# C2: exact one-step vs two-half-step transitions, 1e-12
# ---------------------------------------------------------------------------

def test_criterion_02_ou_exact_step_algebra():
    worst = 0.0
    for dt in (1 / 64, 1 / 8, 1.0):
        n = np.arange(1, 65)
        dec, std = ou_step_coeffs(n, dt)
        dec_h, std_h = ou_step_coeffs(n, dt / 2)
        worst = max(worst, np.abs(dec - dec_h ** 2).max())
        worst = max(worst, np.abs(std ** 2 - (std_h ** 2 * dec_h ** 2 + std_h ** 2)).max())
    report("C-02", worst <= 1e-12, f"max identity violation {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# C3: mean chaos mass against the analytic value, 2e4 replicas
# ---------------------------------------------------------------------------

def test_criterion_03_mean_mass():
    t0 = time.perf_counter()
    msgs, ok = [], True
    for gamma, seed in ((0.5, 301), (1.0, 302)):
        p = sg.validate_params(gamma, 1.0, 1.0)
        masses = sample_region_masses(Region(0.0, 1.0), fourier_spec(+1, 64), p,
                                      20_000, seed, dt=1 / 64, theta_cells=128)
        mean = masses.mean()
        se = masses.std() / math.sqrt(masses.size)
        target = expected_mass(Region(0.0, 1.0), p)
        pull = abs(mean - target) / se
        ok = ok and pull <= 3
        msgs.append(f"gamma={gamma}: mean={mean:.4f} target={target:.5f} pull={pull:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    report("C-03", ok, "; ".join(msgs) + f"; {elapsed:.0f}s (limit 600s)")
    assert ok


# ---------------------------------------------------------------------------
# C4: fourier(64) vs circle(1/16) masses of [0.5, 1.5] agree
# ---------------------------------------------------------------------------

def test_criterion_04_regularization_agreement():
    region = Region(0.5, 1.5)
    mf = sample_region_masses(region, fourier_spec(+1, 64), P1, 10_000, 401,
                              dt=1 / 64, theta_cells=128)
    mc = sample_region_masses(region, circle_spec(+1, 1 / 16), P1, 10_000, 402,
                              dt=1 / 64, theta_cells=128)
    se = math.hypot(mf.std() / 100.0, mc.std() / 100.0)
    pull = abs(mf.mean() - mc.mean()) / se
    report("C-04", pull <= 3, f"fourier={mf.mean():.4f} circle={mc.mean():.4f} "
                              f"pull={pull:.2f}")
    assert pull <= 3


# ---------------------------------------------------------------------------
# C5: scaling relation at R=2
# ---------------------------------------------------------------------------

def test_criterion_05_mass_scaling():
    rep = sg.scaling_check(Region(0.0, 1.0), sg.validate_params(1.0, 1.0, 2.0),
                           n_samples=10_000, seed=501, dt=1 / 64, theta_cells=128)
    ok = rep["pass"] and abs(rep["target_ratio"] - 2 ** 2.5) < 1e-12
    report("C-05", ok, f"ratio={rep['ratio']:.4f} target={rep['target_ratio']:.6f} "
                       f"combined_se={rep['combined_se']:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# C6: Mehler normalization and kernel symmetry
# ---------------------------------------------------------------------------

def test_criterion_06_free_kernel_normalization():
    from scipy.integrate import quad as sp_quad
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        for n in (1, 2, 8):
            val, _ = sp_quad(lambda xp, s=t * n: mehler_factor(s, 0.9, xp)
                             * math.exp(-xp * xp / 2) / math.sqrt(2 * math.pi),
                             -12, 12, limit=200)
            worst = max(worst, abs(val - 1.0))
    f1 = sg.sample_circle_field(16, "stationary", seed=61)
    f2 = sg.sample_circle_field(16, "stationary", seed=62)
    sym = sg.free_kernel(0.5, f1, f2, 16, 1.0).value == sg.free_kernel(0.5, f2, f1, 16, 1.0).value
    ok = worst <= 1e-8 and sym
    report("C-06", ok, f"worst |integral-1| = {worst:.2e} (tol 1e-8), symmetry exact: {sym}")
    assert ok


# ---------------------------------------------------------------------------
# C7: Feynman-Kac representation cross-check at 1e4 replicas
# ---------------------------------------------------------------------------

def test_criterion_07_fk_cross_check():
    init = sg.sample_circle_field(64, "stationary", seed=701)
    grid = TimeGrid(1 / 16, 16)
    a = sg.feynman_kac(None, 1.0, (0.0, init), P1, grid, fourier_spec(+1, 64),
                       10_000, 702, theta_cells=128)
    b = sg.feynman_kac_circle_potential(None, 1.0, (0.0, init), P1, grid, 64, 128,
                                        10_000, 703)
    pull = abs(a.mean - b.mean) / math.hypot(a.std_error, b.std_error)
    report("C-07", pull <= 3, f"2d={a.mean:.5f}({a.std_error:.5f}) "
                              f"1d={b.mean:.5f}({b.std_error:.5f}) pull={pull:.2f}")
    assert pull <= 3


# ---------------------------------------------------------------------------
# C8: partition function couplings and the lowest eigenvalue
# ---------------------------------------------------------------------------

def test_criterion_08_partition_and_lambda0():
    t0 = time.perf_counter()
    quad = default_c_quadrature(1.0, n_nodes=65)
    t_list = [1.0, 1.5, 2.0, 3.0]
    # exact per-sample couplings (plain estimator)
    pts = partition_curve(t_list, P1, quad, 1 / 16, fourier_spec(+1, 64), 512, 801,
                          theta_cells=128)
    mono_t = all(np.all(pts[j + 1].samples <= pts[j].samples + 1e-15)
                 for j in range(len(pts) - 1))
    p2 = sg.validate_params(1.0, 2.0, 1.0)
    pts_mu2 = partition_curve([1.0], p2, quad, 1 / 16, fourier_spec(+1, 64), 512, 801,
                              theta_cells=128)
    mono_mu = np.all(pts_mu2[0].samples <= pts[0].samples + 1e-15)

    # lambda0 from the particle-flow normalizers
    settings = SmcSettings(n_particles=2048, n_runs=12)
    pairs = smc_log_partition(P1, t_list, 1 / 16, 64, 128, settings, seed=802)
    fit_all = sg.lambda0_fit(t_list, pairs)
    fit_drop = sg.lambda0_fit(t_list[1:], pairs[1:])
    positive = fit_all.value > 3 * fit_all.std_error
    windows_agree = abs(fit_all.value - fit_drop.value) <= \
        3 * math.hypot(fit_all.std_error, fit_drop.std_error)
    elapsed = time.perf_counter() - t0
    ok = mono_t and mono_mu and positive and windows_agree and elapsed < 3600
    report("C-08", ok,
           f"per-sample monotone in T: {mono_t}, in mu: {mono_mu}; "
           f"lambda0={fit_all.value:.3f}+-{fit_all.std_error:.3f} "
           f"(window B: {fit_drop.value:.3f}+-{fit_drop.std_error:.3f}); "
           f"{elapsed:.0f}s (limit 3600s)")
    assert ok


# ---------------------------------------------------------------------------
# C9: vertex estimator equivalence panel
# ---------------------------------------------------------------------------

def test_criterion_09_vertex_equivalence():
    t0 = time.perf_counter()
    t_half, dt, nm, tc = 0.75, 1 / 16, 64, 128
    quad = default_c_quadrature(1.0)
    tasks, labels = [], []
    for alpha in (0.25, 0.5, 1.0):
        entries = _entries_to_process(((alpha, 0.0, 0.0),), t_half, dt)
        entries_m = _entries_to_process(((-alpha, 0.0, 0.0),), t_half, dt)
        tasks.append({"kind": "vertex", "entries": entries,
                      "reg": fourier_spec(+1, nm), "total_alpha": alpha})
        tasks.append({"kind": "girsanov", "shift": ShiftData(entries, kernel=nm)})
        tasks.append({"kind": "vertex", "entries": entries_m,
                      "reg": fourier_spec(+1, nm), "total_alpha": -alpha})
        labels.append(alpha)
    res = _cylinder_engine(P1, t_half, dt, nm, tc, quad, 24576, 901, tasks)
    den = res["den"]
    ok = True
    msgs = []
    for j, alpha in enumerate(labels):
        nd, ng, nneg = res["num"][3 * j], res["num"][3 * j + 1], res["num"][3 * j + 2]
        diff, se_diff = jackknife_func([nd, ng, den], lambda a, b, w: (a - b) / w)
        pull_eq = abs(diff) / se_diff
        diff_n, se_n = jackknife_func([nd, nneg, den], lambda a, b, w: (a - b) / w)
        pull_neg = abs(diff_n) / se_n
        ok = ok and pull_eq <= 3 and pull_neg <= 3
        msgs.append(f"a={alpha}: equiv pull={pull_eq:.2f}, negation pull={pull_neg:.2f}")

    # non-admissible weight: estimates sink toward 0 as the regularization is
    # refined; monotone within noise, strictly decreasing end to end
    alpha_bad = P1.q_const + 0.5
    vals, ses = [], []
    for nv in (8, 16, 32):
        ins = sg.make_insertions([(alpha_bad, 0.0, 0.0)], P1)
        r = sg.vertex_direct(ins, fourier_spec(+1, nv), t_half, P1, dt=dt,
                             n_modes=nm, theta_cells=96, n_samples=12000, seed=902)
        vals.append(r.mean)
        ses.append(r.std_error)
    steps_ok = all(vals[j + 1] < vals[j] + 3 * math.hypot(ses[j], ses[j + 1])
                   for j in range(2))
    trend = steps_ok and vals[2] < vals[0]
    ok = ok and trend
    elapsed = time.perf_counter() - t0
    report("C-09", ok, "; ".join(msgs) + f"; non-admissible trend {np.round(vals, 5)} "
                                         f"toward 0 within noise: {trend}; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# C10: two-point positivity (passes) and the stated decay fit (honest red)
# ---------------------------------------------------------------------------

STATED_SEPARATIONS = [1.0, 1.5, 2.0, 2.5, 3.0]


def _stated_curve():
    return sg.two_point_covariance((0.5, 0.0), (0.5, 0.0), STATED_SEPARATIONS, 2.0,
                                   P1, dt=1 / 16, n_modes=48, theta_cells=96,
                                   n_samples=49152, seed=1001, smc_runs=12)


def test_criterion_10_positivity():
    rows = _stated_curve()
    ok = all(r["covariance"] >= -3 * r["std_error"] for r in rows)
    detail = ", ".join(f"{r['separation']}: {r['covariance']:.1e}({r['std_error']:.1e})"
                       for r in rows)
    report("C-10a", ok, f"covariance >= -3 s.e. at every stated separation: {detail}")
    assert ok


def test_criterion_10_decay_fit_at_stated_separations():
    """Faithful to the stated criterion; expected to fail at unit couplings.

    The measured spectral gap is ~4.0 (see the supplementary test), so the
    covariance at separations 1..3 is 5e-3 down to 2e-6: below any reachable
    noise floor.  The criterion is asserted as written; the failure is the
    honest outcome, not a defect of the pipeline (which the supplementary
    test validates on the same estimator at separations with signal).
    """
    rows = _stated_curve()
    try:
        fit = sg.spectral_gap_fit(STATED_SEPARATIONS,
                                  [(r["covariance"], r["std_error"]) for r in rows])
    except SignalLost as exc:
        report("C-10b", False,
               f"log-linear fit over {STATED_SEPARATIONS} impossible: {exc}; "
               "measured gap ~4.0 puts the signal below the noise floor here")
        pytest.fail(
            "criterion as stated is unattainable at gamma=1, mu=1: "
            f"{exc} (spectral gap ~4.0; see notes/decisions ledger)")
    ok = fit.r_squared > 0.9 and fit.value > 3 * fit.std_error
    report("C-10b", ok, f"rate={fit.value:.3f}+-{fit.std_error:.3f} R2={fit.r_squared:.3f}")
    assert ok


def test_criterion_10_supplementary_measurable_separations():
    """Same pipeline, separations where the signal exists: full fit + two-pair
    rate agreement (demonstrates the machinery the stated criterion targets)."""
    t0 = time.perf_counter()
    seps = [0.25, 0.375, 0.5, 0.625, 0.75]
    panel = two_point_panel([((0.5, 0.0), (0.5, 0.0)), ((0.6, 0.0), (0.6, 0.0))],
                            seps, 1.0, P1, dt=1 / 32, n_modes=48, theta_cells=96,
                            n_samples=196_608, seed=1002, smc_runs=16)
    fits = {}
    ok = True
    msgs = []
    for pi, rows in panel.items():
        pos = all(r["covariance"] >= -3 * r["std_error"] for r in rows)
        fit = sg.spectral_gap_fit(seps, [(r["covariance"], r["std_error"]) for r in rows])
        fits[pi] = fit
        good = pos and fit.r_squared > 0.9 and fit.value > 3 * fit.std_error
        ok = ok and good
        msgs.append(f"pair{pi}: rate={fit.value:.2f}+-{fit.std_error:.2f} "
                    f"R2={fit.r_squared:.3f}")
    agree_rates = abs(fits[0].value - fits[1].value) <= \
        3 * math.hypot(fits[0].std_error, fits[1].std_error)
    ok = ok and agree_rates
    elapsed = time.perf_counter() - t0
    report("C-10c", ok, "; ".join(msgs) + f"; rates agree: {agree_rates}; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# C11: one-point scaling at R=2
# ---------------------------------------------------------------------------

def test_criterion_11_one_point_scaling():
    rep = sg.scaling_one_point(0.5, 2.0, P1, t_half=2.0, dt=1 / 32, n_modes=48,
                               theta_cells=96, n_samples=32768, seed=1101)
    target = 2.0 ** 0.125
    ok = rep["pass"] and abs(target - 1.090508) < 1e-6
    report("C-11", ok, f"ratio={rep['ratio']:.4f}+-{rep['ratio_se']:.4f} "
                       f"target={target:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# C12: reference evaluator
# ---------------------------------------------------------------------------

def test_criterion_12_lz_evaluator():
    from sinhgordon.lz import lz_one_point_brute
    r0 = sg.lz_one_point(P1, 0.0)
    parity = abs(sg.lz_one_point(P1, 0.9).value - sg.lz_one_point(P1, -0.9).value)
    base = sg.lz_one_point(P1, 0.5, tol=1e-10)
    finer = sg.lz_one_point(P1, 0.5, tol=1e-11, t0=5e-3)
    brute = lz_one_point_brute(P1, 0.5)
    anchor = 0.89381227788042
    ok = (abs(r0.value - 1.0) <= 1e-10 and parity <= 1e-10
          and abs(base.value - finer.value) <= base.error_bound + finer.error_bound
          and abs(base.value - brute) <= 1e-8
          and abs(base.value - anchor) <= 1e-8)
    report("C-12", ok, f"alpha0={r0.value:.12f}, parity={parity:.1e}, "
                       f"two-method diff={abs(base.value - brute):.1e}, "
                       f"anchor diff={abs(base.value - anchor):.1e}")
    assert ok


# ---------------------------------------------------------------------------
# C13: directional-only reports for out-of-reach limits
# ---------------------------------------------------------------------------

def test_criterion_13_directional_reports_only():
    ref = sg.lz_one_point(P1, 0.5).value
    conv = [(ref + 0.2, 0.05), (ref + 0.05, 0.03), (ref + 0.01, 0.02)]
    rep = sg.mc_vs_lz_report(0.5, [1.0, 2.0, 4.0], conv, P1)
    assert rep["flag"] == "approaching"
    div = [(ref + 0.05, 0.05), (ref + 0.2, 0.03), (ref + 0.6, 0.02)]
    rep2 = sg.mc_vs_lz_report(0.5, [1.0, 2.0, 4.0], div, P1)
    assert rep2["flag"] == "not-approaching"
    probe = sg.lambda0_scaling_probe([1.0, 2.0, 4.0], [(3.0 * r * r, 0.0)
                                                       for r in (1.0, 2.0, 4.0)])
    assert probe.value == pytest.approx(2.0, abs=1e-12)
    ok = "pass" not in rep and "pass" not in rep2  # reports carry no verdict
    report("C-13", ok, f"mc-vs-lz flags: {rep['flag']}/{rep2['flag']}; "
                       f"synthetic R^2-law slope={probe.value:.3f} (directional only)")
    assert ok
