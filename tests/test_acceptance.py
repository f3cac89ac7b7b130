"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with `pytest tests/test_acceptance.py
-v -s` to see the lines)."""

import json
import math
import time

import numpy as np
import pytest

from conftest import reference_recovery, strong_pair_spec, weak_pair_spec
from test_hamiltonian import random_spec
from test_placement import oracle_sedor

from spinmap.calibrate import g_factor_from_delta_b
from spinmap.cli import main as cli_main
from spinmap.hamiltonian import (
    deviation_sweep,
    sedor_correction_second_order,
    sedor_frequency_exact,
)
from spinmap.placement import (
    CouplingMeasurement,
    PlacementConfig,
    ambiguity_report,
    place_all,
    truth_recovery,
    _table_symmetry_ops,
)
from spinmap.refine import refine, residual_and_gradient
from spinmap.sequences import (
    SequenceParams,
    ddrf_phase_update,
    ddrf_resonance_condition,
    effective_rabi,
    rotation_angle,
)
from spinmap.spinphys import (
    SI29,
    HyperfineTensor,
    dipolar_alpha,
    dipolar_coupling,
    invert_hyperfine,
    nuclear_frequency_perturbative,
    nuclear_transition_frequency,
    transverse_field_from_misalignment,
)
from spinmap.synth import (
    ClusterStructure,
    NoiseModel,
    emit_couplings,
    emit_telegraph,
    generate_connected_cluster,
    generate_spread_cluster,
)
from spinmap.telegraph import analyze_trace, fit_rates


class _Clock:
    def __init__(self, number, name, limit=None):
        self.number = number
        self.name = name
        self.limit = limit
        self.t0 = time.perf_counter()

    def done(self):
        dt = time.perf_counter() - self.t0
        print(f"ACCEPTANCE {self.number:>2} PASS  {self.name}  ({dt:.2f} s)")
        if self.limit is not None:
            assert dt < self.limit, f"criterion {self.number} exceeded {self.limit} s"


def test_criterion_01_dipolar_formula():
    clock = _Clock(1, "dipolar formula correctness", limit=1.0)
    alpha = dipolar_alpha(SI29, SI29)
    rng = np.random.default_rng(101)
    for _ in range(200):
        r = rng.uniform(2.0, 12.0)
        # axial and equatorial angular factors, exact
        assert dipolar_coupling([0, 0, 0], [0, 0, r], SI29, SI29) == pytest.approx(
            2 * alpha / r**3, rel=1e-12
        )
        assert dipolar_coupling([0, 0, 0], [r, 0, 0], SI29, SI29) == pytest.approx(
            -alpha / r**3, rel=1e-12
        )
        # magic-angle zero
        dz = r / math.sqrt(3.0)
        rho = math.sqrt(r * r - dz * dz)
        phi = rng.uniform(0, 2 * math.pi)
        c = dipolar_coupling(
            [0, 0, 0], [rho * math.cos(phi), rho * math.sin(phi), dz], SI29, SI29
        )
        assert abs(c) < 1e-12 * abs(alpha) / r**3
        # inverse-cube scaling
        p1, p2 = rng.normal(0, 5, (2, 3))
        assert dipolar_coupling(2 * p1, 2 * p2, SI29, SI29) == pytest.approx(
            dipolar_coupling(p1, p2, SI29, SI29) / 8.0, rel=1e-12
        )
    clock.done()


def test_criterion_02_perturbation_vs_exact_bands(params):
    clock = _Clock(2, "perturbation-vs-exact deviation bands", limit=30.0)
    phis = np.linspace(0, 2 * math.pi, 13)[:-1]
    strong = deviation_sweep(strong_pair_spec(params), phis, transverse_field=2.3)
    # single-subspace deviations reach the ten-hertz scale over the sweep
    assert 4.0 < strong.max_single < 25.0
    # averaging the +-3/2 manifolds pulls the worst case into [1, 4] Hz
    assert 1.0 < strong.max_averaged < 4.0
    weak = deviation_sweep(weak_pair_spec(params), phis, transverse_field=2.3)
    assert weak.max_single <= 0.6
    clock.done()


def test_criterion_03_second_order_vs_exact():
    clock = _Clock(3, "second-order corrections vs exact diagonalization", limit=60.0)
    rng = np.random.default_rng(303)
    for _ in range(50):
        spec = random_spec(rng)
        czz = spec.c_zz
        for ms in (1.5, -1.5):
            f_exact = sedor_frequency_exact(spec, ms)
            exact_corr = f_exact - 0.5 * abs(czz)
            corr = sedor_correction_second_order(spec, ms)
            analytic = 0.5 * math.copysign(1.0, czz) * corr.total
            assert abs(analytic - exact_corr) <= max(0.2 * abs(analytic), 0.05)
        plus = sedor_correction_second_order(spec, 1.5)
        minus = sedor_correction_second_order(spec, -1.5)
        assert abs(plus.delta2_0 + minus.delta2_0) < 1e-9
        assert abs(plus.delta3_1 + minus.delta3_1) < 1e-9
    clock.done()


def test_criterion_04_placement_round_trip(table26):
    clock = _Clock(4, "placement round trip, 20 noisy seeds", limit=300.0)
    ops = _table_symmetry_ops(table26)
    config = PlacementConfig(tolerance_overrides={("Si1", "Si2"): 3.0})
    noise = NoiseModel("gaussian", 0.2, 3.0)
    unique_hits = 0
    rises = 0
    for seed in range(20):
        t0 = time.perf_counter()
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=seed, noise=noise
        )
        measurements = emit_couplings(cluster, table26, 3.0)
        solutions = place_all(measurements, table26, config)
        assert time.perf_counter() - t0 < 30.0  # single run budget
        hit, n_classes = reference_recovery(table26, ops, cluster, solutions)
        truth = {lab: table26.index_of_site(site) for lab, site in cluster.truth.items()}
        assert truth_recovery(solutions, truth) == (hit, n_classes)
        assert hit  # never wrong-and-confident
        if n_classes == 1:
            unique_hits += 1
            hist = solutions[0].branch_history
            assert hist[-1] == 1  # collapse to a single arrangement
            rises += max(hist) > 1
    assert unique_hits >= 19
    assert rises >= 10  # growth phase before the collapse, across the ensemble
    clock.done()


def test_criterion_05_ambiguity_honesty(table26):
    clock = _Clock(5, "ambiguity reported with exact site count", limit=60.0)
    noise = NoiseModel("none")
    cluster = generate_connected_cluster(
        table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=1, noise=noise
    )
    measurements = emit_couplings(cluster, table26, 3.0)
    loose = CouplingMeasurement("Si30", "Si1", 4.5, 0.2)
    solutions = place_all(measurements + [loose], table26, PlacementConfig())
    report = ambiguity_report(solutions)
    assert set(report) == {"Si30"}
    got = {site.key() for site in report["Si30"]}
    anchor = cluster.truth["Si1"]
    occupied = {
        site.key()
        for sol in solutions
        for lab, site in sol.assignment.items()
        if lab != "Si30"
    }
    expected = set()
    for i in table26.by_species["Si"]:
        site = table26.site(i)
        if site.key() in occupied or site.key() == anchor.key():
            continue
        if abs(oracle_sedor(site.position, "Si", anchor.position, "Si") - 4.5) <= 0.6:
            expected.add(site.key())
    assert got == expected
    assert len(got) > 1
    clock.done()


def test_criterion_06_refinement(table26):
    clock = _Clock(6, "refinement gradient, descent, displacement band", limit=120.0)
    noise = NoiseModel("gaussian", 0.2, 3.0)
    cluster = generate_connected_cluster(
        table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=3, noise=noise
    )
    measurements = emit_couplings(cluster, table26, 3.0)
    base = cluster.positions()
    rng = np.random.default_rng(606)
    labels = sorted(base)
    h = 1e-4
    for _ in range(100):
        pos = {lab: p + rng.normal(0, 0.12, 3) for lab, p in base.items()}
        _, grad = residual_and_gradient(pos, measurements)
        lab = labels[int(rng.integers(len(labels)))]
        num = np.zeros(3)
        for i in range(3):
            pp = {l: p.copy() for l, p in pos.items()}
            pm = {l: p.copy() for l, p in pos.items()}
            pp[lab][i] += h
            pm[lab][i] -= h
            num[i] = (
                residual_and_gradient(pp, measurements)[0]
                - residual_and_gradient(pm, measurements)[0]
            ) / (2 * h)
        assert np.abs(grad[lab] - num).max() <= 1e-5 * max(1.0, np.abs(num).max())
    # monotone descent: refined residual never exceeds the starting residual
    eps0, _ = residual_and_gradient(base, measurements)
    res = refine(base, measurements)
    assert res.residual <= eps0 + 1e-12
    # displacement statistics on weakly constrained noisy fixtures
    for seed in (1, 2, 3, 4, 5):
        cl = generate_spread_cluster(table26, seed=seed, noise=noise)
        meas = emit_couplings(cl, table26, 3.0)
        out = refine(cl.positions(), meas)
        assert out.displacements.max < 3.08
        assert 0.1 <= out.displacements.mean <= 1.5
    clock.done()


def test_criterion_07_hyperfine_inversion(field_1960):
    clock = _Clock(7, "hyperfine inversion round trip and Taylor scaling", limit=60.0)
    rng = np.random.default_rng(707)
    for _ in range(1000):
        a_zz = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(3, 6.7)
        a_perp = 10 ** rng.uniform(2, 5.3)
        hf = HyperfineTensor.from_perp(a_zz, a_perp)
        f_plus = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        f_minus = nuclear_transition_frequency(field_1960, SI29, hf, -1.5)
        got = invert_hyperfine(f_plus, f_minus, field_1960, SI29)
        assert got.a_zz == pytest.approx(a_zz, rel=1e-6)
        assert got.a_perp == pytest.approx(a_perp, rel=1e-6)
    # fourth-order scaling of the second-order expansion error
    errs, perps = [], np.logspace(math.log10(500), math.log10(5000), 9)
    for ap in perps:
        hf = HyperfineTensor.from_perp(1.14e6, float(ap))
        exact = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        approx = nuclear_frequency_perturbative(field_1960, SI29, hf, 1.5, 2)
        errs.append(abs(exact - approx))
    slope = float(np.polyfit(np.log(perps), np.log(errs), 1)[0])
    assert abs(slope - 4.0) < 0.3
    clock.done()


def test_criterion_08_calibration_arithmetic():
    clock = _Clock(8, "calibration and misalignment arithmetic", limit=10.0)
    res = g_factor_from_delta_b(-1.53, 0.6, 1960.9, -2.0028)
    assert res.g_factor == pytest.approx(-2.0012, abs=5e-5)
    assert res.g_uncertainty == pytest.approx(0.0006, abs=5e-5)
    assert transverse_field_from_misalignment(1960.9, 0.037, 0.0) == pytest.approx(
        1.3, abs=0.05
    )
    assert transverse_field_from_misalignment(1960.9, 0.0, 0.056) == pytest.approx(
        1.9, abs=0.05
    )
    assert transverse_field_from_misalignment(1960.9, 0.037, 0.056) == pytest.approx(
        2.3, abs=0.05
    )
    clock.done()


def test_criterion_09_telegraph_pipeline():
    clock = _Clock(9, "telegraph rate recovery over 100 seeds", limit=60.0)
    rates = (0.18, 0.85)
    hits = 0
    for seed in range(100):
        trace = emit_telegraph(rates, 3000.0, 600.0, True, 200.0, 0.005, seed)
        res = analyze_trace(trace, window=5, threshold=1295.0)
        ok_bd = abs(res.rate_bright_to_dark.rate - rates[0]) <= 3 * res.rate_bright_to_dark.stderr
        ok_db = abs(res.rate_dark_to_bright.rate - rates[1]) <= 3 * res.rate_dark_to_bright.stderr
        hits += ok_bd and ok_db
        est = fit_rates(res.bright_dwells)
        assert est.rate * res.bright_dwells.mean() == pytest.approx(1.0, abs=1e-9)
    assert hits >= 95
    clock.done()


def test_criterion_10_ddrf_calculators():
    clock = _Clock(10, "DDRF calculator identities", limit=30.0)
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        w0 = rng.uniform(1e6, 3e6)
        w1 = w0 + rng.uniform(-80e3, 80e3)
        wrf = rng.uniform(w0 - 40e3, w0 + 40e3)
        tau = rng.uniform(1e-6, 50e-6)
        delta = ddrf_phase_update(w0, w1, wrf, tau) - math.pi
        assert abs(ddrf_resonance_condition(delta, w0, w1, wrf, tau)) < 1e-9
        a = effective_rabi(650.0, w0, w1, wrf, tau)
        b = effective_rabi(650.0, w1, w0, wrf, tau)
        assert a == pytest.approx(-b, rel=1e-12, abs=1e-12)
    # rotation angle linear in the pulse count
    for n in (2, 8, 32):
        p = SequenceParams(20e-6, n, 400.0, 1.60e6, 1.60e6, 1.63e6)
        p1 = SequenceParams(20e-6, 2, 400.0, 1.60e6, 1.60e6, 1.63e6)
        assert rotation_angle(p).theta == pytest.approx(
            (n / 2) * rotation_angle(p1).theta, rel=1e-12
        )
    # resonance locus linear in the drive frequency
    w0, w1, tau = 1.60e6, 1.62e6, 20e-6
    center = 0.5 * (w0 + w1)
    wrf_grid = np.linspace(center - 8e3, center + 8e3, 33)
    deltas = np.linspace(-math.pi, math.pi, 2001)[1:]
    locus = []
    for wrf in wrf_grid:
        mism = np.abs([ddrf_resonance_condition(d, w0, w1, wrf, tau) for d in deltas])
        locus.append(deltas[int(np.argmin(mism))])
    slope, intercept = np.polyfit(wrf_grid, locus, 1)
    pred = slope * wrf_grid + intercept
    ss_res = float(np.sum((np.array(locus) - pred) ** 2))
    ss_tot = float(np.sum((np.array(locus) - np.mean(locus)) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.999
    clock.done()


def test_criterion_11_reproduce_determinism(tmp_path):
    clock = _Clock(11, "reproduce pipeline byte-identical", limit=120.0)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["reproduce", "--seed", "1", "--workdir", str(d1)]) == 0
    assert cli_main(["reproduce", "--seed", "1", "--workdir", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    report = json.loads((d1 / "report.json").read_text())
    assert report["recovered_truth"] and report["unique"]
    clock.done()
