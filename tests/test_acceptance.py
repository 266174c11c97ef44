"""End-to-end acceptance runs at the frozen desk-scale operating points.

Each test is one criterion; run with -v for a per-criterion pass/fail line.
The expensive sweeps are shared through module-scoped fixtures, so the whole
module is a single pass over the four experiment configurations.
"""

from dataclasses import replace

import numpy as np
import pytest

from uwbsim import acr, harness, ldpc, msdd, reference
from uwbsim.harness import default_config

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def oracle_report():
    return reference.run_oracle_check(n_instances=200, seed=0)


@pytest.fixture(scope="module")
def tc1_stats():
    return harness.run_testcase1(default_config(1))


@pytest.fixture(scope="module")
def tc2_points():
    return harness.run_testcase2(default_config(2))


@pytest.fixture(scope="module")
def tc3_points():
    cfg = replace(default_config(3), eg_modes=("perfect",))
    return harness.run_testcase3(cfg)


@pytest.fixture(scope="module")
def tc3_eg_points():
    cfg = replace(default_config(3), m_list=(3,), schemes=("mmsdd",))
    return harness.run_testcase3(cfg)


@pytest.fixture(scope="module")
def tc4_run():
    return harness.run_testcase4(default_config(4))


def _by_key(points):
    return {(p.scheme, p.m, p.eg_mode, p.snr_db): p for p in points}


def _separated(a, b):
    """True when a sits below b with non-overlapping 95% intervals."""
    return a.ber + a.ci95_halfwidth < b.ber - b.ci95_halfwidth


def test_criterion_1_app_beliefs_match_enumeration(oracle_report):
    # 200 random instances, N=8, M in 1..3, random energies and variances
    assert oracle_report["n_instances"] == 200
    assert oracle_report["app_max_rel_err"] <= 1e-9
    assert oracle_report["app_pass"]


def test_criterion_2_block_extrinsics_match_enumeration(oracle_report):
    assert oracle_report["block_max_abs_err"] <= 1e-12
    assert oracle_report["block_pass"]


def test_criterion_3_correlation_noise_is_gaussian(tc1_stats):
    s = tc1_stats[0]
    assert s.n_samples >= 100_000
    assert abs(s.variance / s.sigma_n_sq_theory - 1.0) <= 0.05
    assert s.ks_stat <= 0.01


def test_criterion_4_energy_estimate_mse_behaves(tc2_points):
    mse = {(p.snr_db, p.m): p.mse for p in tc2_points}
    snrs = sorted({p.snr_db for p in tc2_points})
    ms = sorted({p.m for p in tc2_points})
    assert snrs == [4.0, 7.0, 10.0, 13.0, 16.0]
    for m in ms:
        curve = [mse[(s, m)] for s in snrs]
        assert all(a > b for a, b in zip(curve, curve[1:]))
    for s in (10.0, 13.0, 16.0):
        assert mse[(s, 7)] <= mse[(s, 2)]


def test_criterion_5_uncoded_ber_ordering(tc3_points):
    pts = _by_key(tc3_points)
    snrs = sorted({p.snr_db for p in tc3_points})
    for p in tc3_points:
        assert p.bit_errors >= 100, (p.scheme, p.m, p.snr_db)
    chains = []
    for s in snrs:
        dd = pts[("dd", 1, "perfect", s)]
        m2 = pts[("mmsdd", 2, "perfect", s)]
        m3 = pts[("mmsdd", 3, "perfect", s)]
        m7 = pts[("mmsdd", 7, "perfect", s)]
        b2 = pts[("bmsdd", 2, "perfect", s)]
        b3 = pts[("bmsdd", 3, "perfect", s)]
        assert m7.ber <= m3.ber <= m2.ber <= dd.ber, s
        assert m2.ber <= b2.ber and m3.ber <= b3.ber, s
        chains.append((dd, m2, m3, m7, b2, b3))
    # every claimed gain is resolved somewhere on the grid
    assert any(_separated(m7, m3) for dd, m2, m3, m7, b2, b3 in chains)
    assert any(_separated(m3, m2) for dd, m2, m3, m7, b2, b3 in chains)
    assert any(_separated(m2, dd) for dd, m2, m3, m7, b2, b3 in chains)
    assert any(_separated(m2, b2) for dd, m2, m3, m7, b2, b3 in chains)
    assert any(_separated(m3, b3) for dd, m2, m3, m7, b2, b3 in chains)


def test_criterion_6_estimated_energy_tracks_perfect(tc3_eg_points):
    pts = _by_key(tc3_eg_points)
    snrs = sorted({p.snr_db for p in tc3_eg_points})
    in_scope = 0
    for s in snrs:
        perfect = pts[("mmsdd", 3, "perfect", s)]
        est = pts[("mmsdd", 3, "estimated", s)]
        if perfect.ber < 1e-3:
            continue
        in_scope += 1
        gap = abs(est.ber - perfect.ber)
        assert gap <= est.ci95_halfwidth + perfect.ci95_halfwidth, s
    assert in_scope >= 3


def test_criterion_7_joint_sliding_window_beats_block(tc4_run):
    points, _ = tc4_run
    pts = _by_key(points)
    snrs = sorted({p.snr_db for p in points})
    compared = 0
    for s in snrs:
        mm = pts[("joint-mmsdd", 2, "perfect", s)]
        bm = pts[("joint-bmsdd", 2, "perfect", s)]
        if bm.bit_errors < 100:
            continue
        compared += 1
        assert mm.ber <= bm.ber, s
    assert compared >= 3
    mm_req = harness.interpolate_required_snr(
        [p for p in points if p.scheme == "joint-mmsdd"], 1e-3)
    bm_req = harness.interpolate_required_snr(
        [p for p in points if p.scheme == "joint-bmsdd"], 1e-3)
    assert np.isfinite(mm_req.mid) and np.isfinite(bm_req.mid)
    assert mm_req.mid < bm_req.mid
    # separation holds even at the confidence bounds
    assert mm_req.pessimistic < bm_req.optimistic


def _dec_curve(traces, snr):
    rows = sorted((t for t in traces
                   if t.snr_db == snr and t.scheme == "joint-mmsdd"),
                  key=lambda t: t.outer_iter)
    assert [t.outer_iter for t in rows] == list(range(1, len(rows) + 1))
    assert all(t.n_packets >= 200 for t in rows)
    return [t.p_c_dec for t in rows]


def _plateau_iter(curve, tol=1e-3):
    final = curve[-1]
    for i, v in enumerate(curve, start=1):
        if final - v <= tol:
            return i
    return len(curve)


def test_criterion_8_convergence_traces(tc4_run):
    _, traces = tc4_run
    tol = 1e-3
    waterfall = _dec_curve(traces, 12.4)
    above = _dec_curve(traces, 13.0)
    for curve in (waterfall, above):
        assert all(b >= a - tol for a, b in zip(curve, curve[1:]))
        assert curve[-1] - curve[-2] <= tol          # settled, not truncated
        assert _plateau_iter(curve, tol) <= 10
    assert _plateau_iter(above, tol) < _plateau_iter(waterfall, tol)


def test_criterion_9_structural_invariants(tmp_path):
    # trellis sizing: one row of run-product signs per state
    for m in range(1, 6):
        assert msdd._state_signs(m).shape == (2 ** m, m)
    # ramp-up padding count
    assert int(acr.pad_mask_for(40, 5).sum()) == 5 * 4 // 2
    # belief normalization on a random instance
    rng = np.random.default_rng(0)
    a = 1 - 2 * rng.integers(0, 2, 12)
    model = acr.NoiseModel(10, 1.0, 0.5, 2e9, 100e-9)
    samples = acr.generate_discrete(a, 3, model, rng)
    app, gamma = msdd.msdd_app(samples, 3, model.amplitude, model.sigma_n_sq)
    assert np.allclose(app.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    # code regularity and parity closure
    code = ldpc.default_code()
    assert np.all(code.H.sum(axis=0) == 3) and np.all(code.H.sum(axis=1) == 6)
    for _ in range(3):
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
        assert ldpc.check(code, cw)
    # byte-identical reruns of a small sweep
    cfg = replace(default_config(3), snr_db=(10.0,), m_list=(2,),
                  n_symbols=200, target_errors=10, max_bits=3000,
                  schemes=("dd", "mmsdd"), eg_modes=("perfect",))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    harness.run_testcase3(cfg, out_dir=str(d1))
    harness.run_testcase3(cfg, out_dir=str(d2))
    assert (d1 / "tc3_ber.csv").read_bytes() == (d2 / "tc3_ber.csv").read_bytes()
