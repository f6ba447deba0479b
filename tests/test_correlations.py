import math

import numpy as np
import pytest

import sinhgordon as sg
import sinhgordon.correlations as corr
from sinhgordon.correlations import (
    ShiftData,
    _cylinder_engine,
    _entries_to_process,
    _image_turns,
    _register_columns,
    two_point_panel,
)
from sinhgordon.errors import (
    GridSpanMismatch,
    InadmissibleAlpha,
    InadmissibleInsertions,
    IndexOutOfRange,
    WindowOutsideCylinder,
)
from sinhgordon.gmc import circle_spec, fourier_spec
from sinhgordon.propagator import default_c_quadrature
from sinhgordon.results import jackknife_func, jackknife_ratio
from sinhgordon.smc import SmcSettings, smc_flow

from conftest import agree


# ---------------------------------------------------------------------------
# Insertion sets and shift data
# ---------------------------------------------------------------------------

def test_insertion_admissibility(unit_params):
    ins = sg.make_insertions([(0.5, 0.0, 0.0), (-2.4, 0.5, 1.0)], unit_params)
    assert ins.admissible  # Q = 2.5
    bad = sg.make_insertions([(2.5, 0.0, 0.0)], unit_params)
    assert not bad.admissible
    with pytest.raises(ValueError):
        sg.make_insertions([(0.5, 0.0, 1.0), (0.7, 0.0, 1.0)], unit_params)


def test_shift_boundary_matches_oracle_sum(unit_params):
    # at 256 modes the truncated kernel is the closed form at these times
    entries = ((0.5, 1.0, 0.3), (-0.25, 1.5, 2.0))
    shift = ShiftData(entries, kernel=256)
    thetas = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    h = shift.bulk(0.0, thetas)[0]
    for j, th in enumerate(thetas):
        manual = sum(a * sg.covariance_oracle("slice", 0.0, th, s_i, th_i)
                     for a, s_i, th_i in entries)
        assert h[j] == pytest.approx(manual, abs=1e-12)


def test_shift_bulk_matches_oracle_pointwise(unit_params):
    entries = ((0.7, 0.8, 1.1),)
    shift = ShiftData(entries, kernel=256)
    for t in (0.0, 0.4, 1.3, 2.0):
        for th in (0.0, 2.2):
            val = shift.bulk(t, np.array([th]))[0, 0]
            manual = 0.7 * sg.covariance_oracle("slice", t, th, 0.8, 1.1)
            assert val == pytest.approx(manual, abs=1e-12)


def test_shift_drift_and_decay():
    entries = ((0.5, 1.0, 0.0), (0.25, 2.0, 1.0))
    shift = ShiftData(entries, kernel=32)
    s = np.array([0.0, 0.5, 1.0, 3.0])
    drift = shift.drift(s)
    assert drift[0] == 0.0
    assert drift[-1] == pytest.approx(0.5 * 1.0 + 0.25 * 2.0)
    far = shift.bulk(40.0, np.array([0.0]))[0, 0]
    assert abs(far) < 1e-12


def test_shift_truncated_kernel_consistency():
    # the truncated kernel converges to the closed form as modes grow
    entries = ((0.6, 1.0, 0.4),)
    exact = 0.6 * sg.covariance_oracle("slice", 0.5, 1.0, 1.0, 0.4)
    coarse = ShiftData(entries, kernel=4).bulk(0.5, np.array([1.0]))[0, 0]
    approx = ShiftData(entries, kernel=256).bulk(0.5, np.array([1.0]))[0, 0]
    assert approx == pytest.approx(exact, abs=1e-10)
    assert abs(approx - exact) < abs(coarse - exact)


def test_scalar_log_single_and_pair():
    single = ShiftData(((0.5, 1.2, 0.0),), kernel=16)
    assert single.scalar_log() == pytest.approx(0.5 * 0.25 * 1.2, rel=1e-12)
    pair = ShiftData(((0.5, 1.0, 0.0), (0.3, 2.0, 1.0)), kernel=16)
    from sinhgordon.gff import truncated_slice_cov
    cov = float(truncated_slice_cov(16, 1.0, 1.0))
    expected = 0.5 * (0.25 * 1.0 + 0.09 * 2.0) + 0.5 * 0.3 * (1.0 + cov)
    assert pair.scalar_log() == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Vertex estimators
# ---------------------------------------------------------------------------

def test_vertex_zero_alpha_is_one(unit_params):
    ins = sg.make_insertions([(0.0, 0.0, 0.0)], unit_params)
    res = sg.vertex_direct(ins, None, 1.0, unit_params, dt=1 / 8, n_modes=12,
                           theta_cells=32, n_samples=256, seed=6)
    assert res.mean == pytest.approx(1.0, abs=1e-12)


def test_vertex_girsanov_without_insertions_is_one(unit_params):
    # with no shift, the shifted masses reduce through the same weight vector
    # as the denominator's, so the ratio is 1 exactly, whatever the draws
    ins = sg.make_insertions([], unit_params)
    for seed in (3, 4, 5, 6, 7):
        res = sg.vertex_girsanov(ins, 1.0, unit_params, dt=1 / 8, n_modes=8, theta_cells=16,
                                 n_samples=64, seed=seed)
        assert res.mean == 1.0, seed


def test_vertex_girsanov_requires_admissible(unit_params):
    bad = sg.make_insertions([(unit_params.q_const + 0.5, 0.0, 0.0)], unit_params)
    with pytest.raises(InadmissibleInsertions):
        sg.vertex_girsanov(bad, 1.0, unit_params, n_samples=16)


def test_vertex_insertion_must_sit_inside_window(unit_params):
    ins = sg.make_insertions([(0.5, 1.5, 0.0)], unit_params)
    with pytest.raises(WindowOutsideCylinder):
        sg.vertex_direct(ins, None, 1.0, unit_params, n_samples=16)


def _plain_direct(params, t, reg):
    ins = sg.make_insertions([(0.5, t, 0.0)], params)
    return sg.vertex_plain(ins, [("direct", reg)], 0.5, params, dt=1 / 16, n_modes=16,
                           theta_cells=16, n_samples=16)


@pytest.mark.parametrize("call, error, match", [
    (lambda p: _plain_direct(p, 0.0, fourier_spec(+1, 32)), IndexOutOfRange,
     "requested 32 modes, path has 16"),
    (lambda p: _plain_direct(p, 0.4375, circle_spec(+1, 0.125)), WindowOutsideCylinder,
     "averaging circle leaves the window"),
    (lambda p: smc_flow(p, [0.5], 1 / 16, 16, 16, SmcSettings(16, 2), 0,
                        register_groups=[((0.5, 0.0, 0.0),)]), WindowOutsideCylinder,
     "insertion time 0.0 outside the open cylinder"),
    (lambda p: smc_flow(p, [0.5], 1 / 16, 8, 16, SmcSettings(64, 2), 1,
                        register_groups=[((0.5, 1.0, 0.0),)]), WindowOutsideCylinder,
     "insertion time 1.0 outside the open cylinder"),
], ids=["fourier-cut-above-path-modes", "circle-leaves-window", "register-at-s-zero",
        "register-at-the-top-row"])
def test_vertex_reads_raise_typed_errors(unit_params, call, error, match):
    # both backends build their gmc.VertexReads, and so make its checks, before drawing
    with pytest.raises(error, match=match):
        call(unit_params)


def test_insertion_times_must_be_grid_nodes():
    assert _entries_to_process(((0.5, 0.0, 0.0),), 0.5, 1 / 32) == ((0.5, 0.5, 0.0),)
    with pytest.raises(GridSpanMismatch):
        _entries_to_process(((0.5, 0.01, 0.0),), 0.5, 1 / 32)


def test_girsanov_identity_numerator_level(unit_params):
    # E[direct numerator] == E[shifted numerator] exactly in law; tight check
    # through the per-path difference on shared paths
    entries = _entries_to_process(((0.6, 0.0, 0.3),), 0.5, 1 / 8)
    tasks = [
        {"kind": "vertex", "entries": entries, "reg": fourier_spec(+1, 6),
         "total_alpha": 0.6},
        {"kind": "girsanov", "shift": ShiftData(entries, kernel=6)},
    ]
    res = _cylinder_engine(sg.validate_params(1.0, 1.0, 1.0), 0.5, 1 / 8, 6, 16,
                           default_c_quadrature(1.0, n_nodes=17), 300000, 901, tasks)
    diff, se = jackknife_func([res["num"][0], res["num"][1], res["den"]],
                              lambda a, b, w: (a - b) / w)
    assert abs(diff) <= 4.0 * se


def test_vertex_direct_vs_girsanov_statistical(unit_params):
    ins = sg.make_insertions([(0.5, 0.0, 0.0)], unit_params)
    d = sg.vertex_direct(ins, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=8000, seed=7)
    g = sg.vertex_girsanov(ins, 1.0, unit_params, dt=1 / 16, n_modes=32,
                           theta_cells=64, n_samples=8000, seed=8)
    assert agree(d.mean, d.std_error, g.mean, g.std_error)


def test_vertex_smc_matches_plain(unit_params):
    # the particle-flow register of the same insertion agrees with the plain estimator
    ins = sg.make_insertions([(0.5, 0.0, 0.0)], unit_params)
    a = sg.vertex_direct(ins, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=12000, seed=9)
    entries = _entries_to_process(ins.entries, 1.0, 1 / 16)
    num, den = _register_columns(unit_params, 1.0, [entries], dt=1 / 16, n_modes=32,
                                 theta_cells=64, n_samples=12000, n_runs=12, seed=10,
                                 workers=1)
    b_mean, b_se = jackknife_ratio(num[0], den)
    assert agree(a.mean, a.std_error, b_mean, b_se)


def test_vertex_negation_coupling_exact(unit_params):
    ins_p = sg.make_insertions([(0.5, 0.1875, 1.0)], unit_params)
    ins_m = sg.make_insertions([(-0.5, 0.1875, 1.0)], unit_params)
    a = sg.vertex_direct(ins_p, None, 1.0, unit_params, dt=1 / 16, n_modes=16,
                         theta_cells=32, n_samples=512, seed=11)
    b = sg.vertex_direct(ins_m, None, 1.0, unit_params, dt=1 / 16, n_modes=16,
                         theta_cells=32, n_samples=512, seed=11, mirror=True)
    assert a.mean == b.mean


def test_vertex_rotation_invariance(unit_params):
    ins_a = sg.make_insertions([(0.5, 0.0, 0.0)], unit_params)
    ins_b = sg.make_insertions([(0.5, 0.0, 2.0)], unit_params)
    a = sg.vertex_direct(ins_a, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=8000, seed=12)
    b = sg.vertex_direct(ins_b, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=8000, seed=13)
    assert agree(a.mean, a.std_error, b.mean, b.std_error)


def test_vertex_time_translation_invariance(unit_params):
    ins_a = sg.make_insertions([(0.5, -0.25, 0.0)], unit_params)
    ins_b = sg.make_insertions([(0.5, +0.25, 0.0)], unit_params)
    a = sg.vertex_direct(ins_a, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=8000, seed=14)
    b = sg.vertex_direct(ins_b, None, 1.0, unit_params, dt=1 / 16, n_modes=32,
                         theta_cells=64, n_samples=8000, seed=15)
    assert agree(a.mean, a.std_error, b.mean, b.std_error)


def test_girsanov_multi_insertion_pair_factor(unit_params):
    # two-insertion sets exercise the pairwise interaction constant
    ins = sg.make_insertions([(0.5, -0.25, 0.0), (0.5, 0.25, 0.0)], unit_params)
    d = sg.vertex_direct(ins, None, 1.0, unit_params, dt=1 / 16, n_modes=24,
                         theta_cells=48, n_samples=20000, seed=16)
    g = sg.vertex_girsanov(ins, 1.0, unit_params, dt=1 / 16, n_modes=24,
                           theta_cells=48, n_samples=20000, seed=17)
    assert agree(d.mean, d.std_error, g.mean, g.std_error)


# ---------------------------------------------------------------------------
# One path pass for several vertex estimators
# ---------------------------------------------------------------------------

# three chunks, the last one short
SHARED = dict(dt=1 / 8, n_modes=12, theta_cells=32, n_samples=600, seed=31)


def _same_result(shared, single):
    assert (shared.mean, shared.std_error) == (single.mean, single.std_error)
    assert shared.diagnostics == single.diagnostics


def test_vertex_plain_equals_separate_estimators(unit_params):
    ins = sg.make_insertions([(0.6, 0.25, 1.0)], unit_params)
    d, g = sg.vertex_plain(ins, [("direct", None), ("girsanov", None)], 0.75,
                           unit_params, workers=2, **SHARED)
    _same_result(d, sg.vertex_direct(ins, None, 0.75, unit_params, **SHARED))
    _same_result(g, sg.vertex_girsanov(ins, 0.75, unit_params, **SHARED))
    assert d.wall_ms == g.wall_ms  # both report the shared pass


def test_vertex_plain_circle_direct_entry(unit_params):
    ins = sg.make_insertions([(0.5, 0.0, 0.0)], unit_params)
    circle = circle_spec(+1, 0.125)
    # the plain Fourier entry reads the sampler's 12 modes on the insertion's
    # row, like the circle points there: its result must not depend on them
    c, g, f, d = sg.vertex_plain(ins, [("direct", circle), ("girsanov", None),
                                       ("direct", fourier_spec(+1, 8)), ("direct", None)],
                                 0.75, unit_params, **SHARED)
    _same_result(c, sg.vertex_direct(ins, circle, 0.75, unit_params, **SHARED))
    _same_result(g, sg.vertex_girsanov(ins, 0.75, unit_params, **SHARED))
    _same_result(f, sg.vertex_direct(ins, fourier_spec(+1, 8), 0.75, unit_params, **SHARED))
    _same_result(d, sg.vertex_direct(ins, None, 0.75, unit_params, **SHARED))


def test_vertex_plain_rejects_mirrored_girsanov(unit_params):
    ins = sg.make_insertions([(0.5, 0.0, 0.0)], unit_params)
    with pytest.raises(ValueError, match="mirror"):
        sg.vertex_plain(ins, [("direct", None), ("girsanov", None)], 0.75, unit_params,
                        mirror=True, **SHARED)
    with pytest.raises(InadmissibleInsertions):
        sg.vertex_plain(sg.make_insertions([(3.0, 0.0, 0.0)], unit_params),
                        [("girsanov", None)], 0.75, unit_params, **SHARED)


# ---------------------------------------------------------------------------
# Two-point covariance
# ---------------------------------------------------------------------------

def test_two_point_zero_alpha_vanishes(unit_params):
    rows = sg.two_point_covariance((0.0, 0.0), (0.0, 0.0), [0.5], 1.0, unit_params,
                                   dt=1 / 8, n_modes=12, theta_cells=32,
                                   n_samples=512, seed=18, smc_runs=4)
    assert rows[0]["covariance"] == pytest.approx(0.0, abs=1e-12)


def test_two_point_positive_and_decaying(unit_params):
    rows = sg.two_point_covariance((0.5, 0.0), (0.5, 0.0), [0.25, 0.75], 1.0,
                                   unit_params, dt=1 / 32, n_modes=48,
                                   theta_cells=96, n_samples=40000, seed=19,
                                   smc_runs=10)
    c_short, c_long = rows[0], rows[1]
    assert c_short["covariance"] > 0
    assert c_short["covariance"] - 3 * c_short["std_error"] > -1e-9
    # decay: |cov| smaller at the larger separation, at combined error
    assert (c_short["covariance"] - c_long["covariance"]
            > -3 * math.hypot(c_short["std_error"], c_long["std_error"]))


@pytest.mark.parametrize("cells, n_img", [(96, 8), (128, 8), (100, 4), (33, 1)])
def test_image_turns_are_whole_cells(cells, n_img):
    turns = _image_turns(cells)
    assert turns.size == n_img == math.gcd(cells, 8) and turns[0] == 0.0
    in_cells = turns / (2.0 * math.pi / cells)
    np.testing.assert_allclose(in_cells, np.round(in_cells), rtol=0.0, atol=1e-9)


def test_two_point_panel_carries_every_image(unit_params, monkeypatch):
    # at 100 cells each (pair, separation) carries its pair, first and second
    # groups at the 4 common turns, both insertions turned together
    seen = []
    real = corr._register_columns

    def spy(params, t_half, groups, **kwargs):
        seen.append(groups)
        return real(params, t_half, groups, **kwargs)

    monkeypatch.setattr(corr, "_register_columns", spy)
    two_point_panel([((0.5, 0.1), (0.4, 0.2))], [0.25, 0.5], 1.0, unit_params, dt=1 / 8,
                    n_modes=8, theta_cells=100, n_samples=256, seed=3, smc_runs=2)
    groups = seen[0]
    assert len(groups) == 2 * 4 * 3
    turns = _image_turns(100)
    for j in range(2):
        pairs = groups[12 * j:12 * (j + 1):3]
        assert [(p[0][2], p[1][2]) for p in pairs] == [(0.1 + t, 0.2 + t) for t in turns]


def test_two_point_images_only_permute(unit_params):
    # turning both insertions by one image maps the set of images to itself:
    # the same panel, up to the order of the image sums
    kw = dict(dt=1 / 8, n_modes=12, theta_cells=32, n_samples=512, seed=23, smc_runs=4)
    turn = 2.0 * math.pi / _image_turns(32).size
    pairs = [((0.5, 0.0), (0.5, 0.0)), ((0.6, 0.0), (0.4, 0.0))]
    base = two_point_panel(pairs, [0.25, 0.5], 1.0, unit_params, **kw)
    turned = two_point_panel([((a1, turn), (a2, turn)) for (a1, _), (a2, _) in pairs],
                             [0.25, 0.5], 1.0, unit_params, **kw)
    for pi in base:
        for got, want in zip(turned[pi], base[pi]):
            for key in ("covariance", "std_error", "product_moment"):
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key


def test_two_point_separation_fits_window(unit_params):
    with pytest.raises(WindowOutsideCylinder):
        sg.two_point_covariance((0.5, 0.0), (0.5, 0.0), [3.0], 1.0, unit_params,
                                n_samples=16)


# ---------------------------------------------------------------------------
# One-point scaling
# ---------------------------------------------------------------------------

def test_scaling_one_point_r1_exact(unit_params):
    rep = sg.scaling_one_point(0.5, 1.0, unit_params, t_half=1.0, dt=1 / 16,
                               n_modes=16, theta_cells=32, n_samples=2000, seed=20)
    assert rep["ratio"] == 1.0
    assert rep["target_ratio"] == 1.0
    assert rep["pass"]


def test_scaling_one_point_takes_a_seed_sequence(unit_params):
    # a SeedSequence seed names the same two substreams as its int entropy
    kw = dict(t_half=0.75, dt=1 / 8, n_modes=8, theta_cells=16, n_samples=300)
    assert (sg.scaling_one_point(0.5, 2.0, unit_params, seed=np.random.SeedSequence(7), **kw)
            == sg.scaling_one_point(0.5, 2.0, unit_params, seed=7, **kw))


@pytest.mark.parametrize("radius, calls", [(1.0, 1), (2.0, 2)])
def test_scaling_one_point_runs_r1_once(unit_params, monkeypatch, radius, calls):
    import sinhgordon.correlations as corr
    seen = []
    real = corr._register_columns

    def counted(*args, **kwargs):
        seen.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(corr, "_register_columns", counted)
    rep = sg.scaling_one_point(0.5, radius, unit_params, t_half=1.0, dt=1 / 8, n_modes=8,
                               theta_cells=16, n_samples=300, seed=22)
    assert len(seen) == calls
    if radius == 1.0:
        assert rep["ratio"] == 1.0


def test_scaling_one_point_alpha_zero(unit_params):
    rep = sg.scaling_one_point(0.0, 2.0, unit_params, t_half=1.0, dt=1 / 16,
                               n_modes=16, theta_cells=32, n_samples=1000, seed=21)
    assert rep["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)


def test_scaling_one_point_inadmissible(unit_params):
    with pytest.raises(InadmissibleAlpha):
        sg.scaling_one_point(3.0, 2.0, unit_params, n_samples=16)


def test_refinement_report_flags():
    from sinhgordon.correlations import refinement_report
    conv = refinement_report([8, 16, 32], [(1.10, 0.01), (1.05, 0.01), (1.049, 0.01)])
    assert conv["converged_flag"]
    assert conv["richardson_extrapolation"] == pytest.approx(1.048, abs=1e-9)
    rough = refinement_report([8, 16], [(2.0, 0.001), (1.0, 0.001)])
    assert not rough["converged_flag"]
    assert len(conv["sequence"]) == 3


@pytest.mark.parametrize("resolutions", [[8, 8], [8, 16, 16], [16, 8]])
def test_refinement_report_needs_strictly_increasing_resolutions(resolutions):
    from sinhgordon.correlations import refinement_report
    with pytest.raises(ValueError, match="strictly increasing"):
        refinement_report(resolutions, [(1.0 + 0.1 * i, 0.1) for i in range(len(resolutions))])
