import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_residual_and_gradient, reference_residual_and_jacobian
from spinmap.errors import InputError
from spinmap.lattice import reference_site_si1
from spinmap.placement import CouplingMeasurement, PlacementConfig, place_all
from spinmap.refine import (
    displacement_report,
    refine,
    residual_and_gradient,
)
from spinmap.spinphys import DEFAULT_PHYSICS, Physics

R = importlib.import_module("spinmap.refine")  # the package exports the function refine by this name
from spinmap.synth import (
    ClusterStructure,
    NoiseModel,
    emit_couplings,
    generate_connected_cluster,
    generate_spread_cluster,
)


def finite_difference_gradient(positions, measurements, label, h=1e-4):
    num = np.zeros(3)
    for i in range(3):
        pp = {l: np.array(p, dtype=float) for l, p in positions.items()}
        pm = {l: np.array(p, dtype=float) for l, p in positions.items()}
        pp[label][i] += h
        pm[label][i] -= h
        num[i] = (
            residual_and_gradient(pp, measurements)[0]
            - residual_and_gradient(pm, measurements)[0]
        ) / (2 * h)
    return num


@pytest.fixture(scope="module")
def noisy_case(table26):
    noise = NoiseModel("gaussian", 0.2, 3.0)
    cluster = generate_connected_cluster(
        table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=3, noise=noise
    )
    return cluster, emit_couplings(cluster, table26, 3.0)


class TestResidualAndGradient:
    def test_stationary_at_noiseless_truth(self, table26):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=2
        )
        meas = emit_couplings(cluster, table26, 3.0, NoiseModel("none"))
        eps, grad = residual_and_gradient(cluster.positions(), meas)
        assert eps == pytest.approx(0.0, abs=1e-15)
        scale = max(np.linalg.norm(g) for g in grad.values()) if grad else 0.0
        assert scale < 1e-8 * 100.0  # typical gradient scale ~ r * dC/dx ~ 100 Hz^2/A

    def test_matches_finite_differences_random(self, noisy_case):
        cluster, meas = noisy_case
        rng = np.random.default_rng(1)
        base = cluster.positions()
        for trial in range(10):
            pos = {l: p + rng.normal(0, 0.1, 3) for l, p in base.items()}
            _, grad = residual_and_gradient(pos, meas)
            label = sorted(pos)[int(rng.integers(len(pos)))]
            num = finite_difference_gradient(pos, meas, label)
            assert np.abs(grad[label] - num).max() <= 1e-5 * max(
                1.0, np.abs(num).max()
            )

    def test_translation_invariance(self, noisy_case):
        cluster, meas = noisy_case
        pos = cluster.positions()
        eps1, grad = residual_and_gradient(pos, meas)
        shift = np.array([0.7, -1.3, 2.1])
        eps2, _ = residual_and_gradient({l: p + shift for l, p in pos.items()}, meas)
        assert eps2 == pytest.approx(eps1, rel=1e-12)
        total = sum(grad.values())
        scale = max(np.linalg.norm(g) for g in grad.values())
        assert np.abs(total).max() < 1e-9 * max(scale, 1.0)

    def test_coincident_positions_rejected(self):
        pos = {"Si1": np.zeros(3), "Si2": np.zeros(3)}
        with pytest.raises(InputError):
            residual_and_gradient(pos, [CouplingMeasurement("Si1", "Si2", 5.0, 0.2)])


@pytest.fixture(scope="module")
def kernel_sites(table26, params):
    """Site indices around Si1 for drawn kernel cases: Si1 itself, sites on
    its vertical axis, sites in its layer and all sites within 9 A."""
    pos = table26.positions
    si1 = int(np.argmin(np.linalg.norm(pos - reference_site_si1(params).position, axis=1)))
    d = pos - pos[si1]
    r = np.linalg.norm(d, axis=1)
    near = (r > 0.5) & (r < 9.0)
    on_axis = near & (np.hypot(d[:, 0], d[:, 1]) < 1e-9)
    in_layer = near & (np.abs(d[:, 2]) < 1e-6)
    return si1, *(np.flatnonzero(m).tolist() for m in (on_axis, in_layer, near))


def kernel_inputs(base, measurements, physics, anchor="Si1"):
    labels = sorted(base)
    rows = R._position_rows(base, labels)
    terms = R._pair_terms(labels, measurements, physics)
    return labels, rows, terms, R._Parameterization(labels, rows, anchor, terms)


class TestKernel:
    """The array kernel against the scalar reference it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_scalar_reference(self, table26, kernel_sites, data):
        si1, on_axis, in_layer, near = kernel_sites
        physics = data.draw(st.sampled_from([DEFAULT_PHYSICS, Physics.from_gammas(-7.1e6, 11.3e6)]))
        n_si, n_c = data.draw(st.integers(3, 6)), data.draw(st.integers(1, 3))
        si2, idle = data.draw(st.lists(st.sampled_from(on_axis), min_size=2, max_size=2, unique=True))
        si3 = data.draw(st.sampled_from(in_layer))
        rest = data.draw(st.lists(st.sampled_from([i for i in near if i not in (si2, idle, si3)]),
                                  min_size=n_si - 3 + n_c, max_size=n_si - 3 + n_c, unique=True))
        # Si2 sits above Si1 (C_zz > 0) and Si3 beside it (C_zz < 0); the
        # idle spin is in no measurement and, on the axis, never the gauge
        ring = [f"Si{k}" for k in range(1, n_si + 1)] + [f"C{k}" for k in range(1, n_c + 1)]
        sites = dict(zip(ring, [si1, si2, si3, *rest]))
        sites[f"Si{n_si + 1}"] = idle
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shift, step = data.draw(st.sampled_from([0.0, 0.05, 0.2])), data.draw(st.sampled_from([0.0, 0.05, 0.2]))
        base = {lab: table26.positions[i] + (rng.uniform(-shift, shift, 3) if shift else 0.0)
                for lab, i in sites.items()}
        # a ring puts every measured spin, the anchor and the gauge spin
        # among them, on both sides of a pair; then Si3-Si1, chords, and a
        # measurement of an unassigned label
        pairs = list(zip(ring, ring[1:] + ring[:1])) + [("Si3", "Si1")]
        pairs += data.draw(st.lists(st.tuples(st.sampled_from(ring), st.sampled_from(ring))
                                    .filter(lambda p: p[0] != p[1]), max_size=6))
        pairs.append(("Si2", "C9"))
        meas = [CouplingMeasurement(a, b, float(rng.uniform(0.0, 200.0)), 0.2) for a, b in pairs]

        labels, rows, terms, param = kernel_inputs(base, meas, physics)
        signs = rng.choice([-1.0, 1.0], len(terms.f))
        x = rng.uniform(-step, step, param.n_params) if step else np.zeros(param.n_params)
        pos = param.apply(rows, x)
        r, jac = R._residual_vector_and_jacobian(pos, terms, signs, param)
        r0, jac0 = reference_residual_and_jacobian(base, x, meas, signs.tolist(), "Si1", physics)
        assert r.tobytes() == r0.tobytes()
        assert jac.shape == jac0.shape and jac.tobytes() == jac0.tobytes()
        eps, grad = residual_and_gradient(dict(zip(labels, pos)), meas, physics)
        eps0, grad0 = reference_residual_and_gradient(dict(zip(labels, pos)), meas, physics)
        assert float(eps).hex() == float(eps0).hex()
        assert all(grad[lab].tobytes() == grad0[lab].tobytes() for lab in labels)

        czz, _ = R._czz_with_gradient(pos, terms)
        assert (czz > 0).any() and (czz < 0).any()
        assert {side for _, side in param.gauge_rows} == {1.0, -1.0}

        base["Si3"] = base["Si2"].copy()  # Si2-Si3 is measured
        _, rows, terms, param = kernel_inputs(base, meas, physics)
        with pytest.raises(InputError, match="coincident"):
            R._residual_vector_and_jacobian(param.apply(rows, np.zeros(param.n_params)), terms, signs, param)
        with pytest.raises(InputError, match="coincident"):
            reference_residual_and_jacobian(base, np.zeros(param.n_params), meas, signs.tolist(), "Si1", physics)

    @pytest.mark.parametrize("z", [
        [5.0265, 7.539, -2.5, 10.05],  # every spin on Si1's vertical axis: no gauge spin
        [0.0, 2.7339560481105742, -3.764173524495381, 7.770498484676807],  # pow(z, 2) != z * z
    ], ids=["no-gauge", "z-squared"])
    def test_explicit_cases(self, z):
        xy = [(0.0, 0.0)] * 4 if z[0] else [(0.0, 0.0), (1.5, 0.5), (-2.0, 1.0), (0.5, -2.5)]
        base = {f"Si{k}": np.array([*p, zk]) for k, (p, zk) in enumerate(zip(xy, z), 1)}
        pairs = [("Si1", "Si2"), ("Si3", "Si2"), ("Si4", "Si1"), ("Si3", "Si4")]
        meas = [CouplingMeasurement(a, b, 40.0, 0.2) for a, b in pairs]
        _, rows, terms, param = kernel_inputs(base, meas, DEFAULT_PHYSICS)
        assert param.n_params == (9 if z[0] else 8)
        x = np.random.default_rng(0).uniform(-0.2, 0.2, param.n_params) * (z[0] != 0.0)
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        r, jac = R._residual_vector_and_jacobian(param.apply(rows, x), terms, signs, param)
        r0, jac0 = reference_residual_and_jacobian(base, x, meas, signs.tolist(), "Si1", DEFAULT_PHYSICS)
        assert r.tobytes() == r0.tobytes() and jac.tobytes() == jac0.tobytes()

    def test_jacobian_matches_finite_differences(self, noisy_case):
        cluster, meas = noisy_case
        rng = np.random.default_rng(7)
        for trial in range(3):
            base = {lab: p + rng.normal(0, 0.1, 3) for lab, p in cluster.positions().items()}
            labels, rows, terms, param = kernel_inputs(base, meas, DEFAULT_PHYSICS)
            assert param.n_params == 3 * (len(labels) - 1) - 1  # no anchor columns, 2 gauge ones
            signs = R._signs(R._czz_with_gradient(rows, terms)[0])
            x = rng.normal(0, 0.05, param.n_params)
            _, jac = R._residual_vector_and_jacobian(param.apply(rows, x), terms, signs, param)
            h = 1e-5
            for j in range(param.n_params):
                e = np.zeros(param.n_params)
                e[j] = h
                plus, minus = param.apply(rows, x + e), param.apply(rows, x - e)
                moved = np.flatnonzero((plus != minus).any(axis=1))
                assert len(moved) == 1 and moved[0] != param.anchor
                if moved[0] == param.gauge:  # radial in the anchor's plane, or vertical
                    shift = plus[param.gauge] - minus[param.gauge]
                    radial = rows[param.gauge, :2] - rows[param.anchor, :2]
                    if j == param.gauge_column:
                        assert shift[2] == 0.0
                        assert abs(shift[0] * radial[1] - shift[1] * radial[0]) < 1e-12
                    else:
                        assert j == param.gauge_column + 1 and not shift[:2].any()
                num = (
                    R._residual_vector_and_jacobian(plus, terms, signs, param)[0]
                    - R._residual_vector_and_jacobian(minus, terms, signs, param)[0]
                ) / (2 * h)
                assert np.abs(jac[:, j] - num).max() <= 1e-6 * max(1.0, np.abs(num).max())


class TestRefine:
    def test_noiseless_truth_is_fixed_point(self, table26):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=2
        )
        meas = emit_couplings(cluster, table26, 3.0, NoiseModel("none"))
        res = refine(cluster.positions(), meas)
        assert res.displacements.max < 1e-4
        assert res.residual < 1e-15

    def test_monotone_descent_and_residual_bound(self, noisy_case, table26):
        cluster, meas = noisy_case
        sols = place_all(meas, table26, PlacementConfig())
        eps0, _ = residual_and_gradient(sols[0].positions(), meas)
        res = refine(sols[0], meas)
        assert res.residual <= eps0 + 1e-12
        assert res.residual <= sols[0].residual + 1e-9

    def test_displacement_scale_on_noisy_data(self, table26):
        cluster = generate_spread_cluster(
            table26, seed=3, noise=NoiseModel("gaussian", 0.2, 3.0)
        )
        meas = emit_couplings(cluster, table26, 3.0)
        res = refine(cluster.positions(), meas)
        assert res.displacements.max < 3.08
        assert 0.1 <= res.displacements.mean <= 1.5

    def test_gauge_fixed_minimizer_unique(self, table26):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=4,
            noise=NoiseModel("gaussian", 0.2, 3.0),
        )
        meas = emit_couplings(cluster, table26, 3.0)
        res = refine(cluster.positions(), meas)
        assert not res.underdetermined
        assert math.isfinite(res.hessian_condition)

    def test_anchor_and_azimuth_frozen(self, noisy_case):
        cluster, meas = noisy_case
        base = cluster.positions()
        res = refine(base, meas)
        assert np.allclose(res.positions["Si1"], base["Si1"])

    def test_single_pair_underdetermined(self):
        pos = {"Si1": np.array([0.0, 0.0, 5.0265]), "Si2": np.array([0.0, 1.774, 7.539])}
        meas = [CouplingMeasurement("Si1", "Si2", 80.0, 0.2)]
        res = refine(pos, meas)
        assert res.residual == pytest.approx(0.0, abs=1e-12)
        assert res.underdetermined
        assert res.rank < res.n_parameters

    def test_noise_scaling_of_displacements(self, table26):
        # doubling the noise roughly doubles the RMS displacement; the same
        # measurement set and underlying draws are used at both amplitudes
        rms = {}
        for sigma in (0.1, 0.2):
            acc = []
            for seed in range(1, 21):
                cluster = generate_spread_cluster(table26, seed=seed)
                clean = emit_couplings(cluster, table26, 3.0, NoiseModel("none"))
                rng = np.random.default_rng((seed, 42))
                noisy = [
                    CouplingMeasurement(
                        m.spin_a,
                        m.spin_b,
                        m.f_ij + sigma * float(np.clip(rng.standard_normal(), -3, 3)),
                        sigma,
                    )
                    for m in clean
                ]
                res = refine(cluster.positions(), noisy)
                acc.extend(r[3] for r in res.displacements.rows.values())
            rms[sigma] = math.sqrt(np.mean(np.square(acc)))
        ratio = rms[0.2] / rms[0.1]
        assert 1.4 <= ratio <= 2.8

    @pytest.mark.parametrize("bad", [
        [float("nan"), 0.0, 6.0], [0.0, float("inf"), 6.0], [0.0, 1.774], "far",
    ])
    def test_bad_initial_position_rejected(self, bad):
        pos = {"Si1": np.array([0.0, 0.0, 5.0265]), "Si2": np.array([0.0, 1.774, 7.539]),
               "Si3": bad}
        meas = [CouplingMeasurement("Si1", "Si2", 80.0, 0.2),
                CouplingMeasurement("Si2", "Si3", 30.0, 0.2)]
        with pytest.raises(InputError, match="'Si3'"):
            refine(pos, meas)

    def test_requires_anchor_present(self):
        pos = {"Si2": np.zeros(3), "Si3": np.array([0.0, 0.0, 4.0])}
        with pytest.raises(InputError):
            refine(pos, [CouplingMeasurement("Si2", "Si3", 30.0, 0.2)])


class TestDisplacementReport:
    def test_identical_inputs_all_zero(self):
        pos = {"Si1": np.zeros(3), "Si2": np.array([1.0, 2.0, 3.0])}
        rep = displacement_report(pos, pos)
        assert all(r == (0.0, 0.0, 0.0, 0.0) for r in rep.rows.values())
        assert rep.mean == 0.0 and rep.max == 0.0

    def test_single_shift(self):
        a = {"Si1": np.zeros(3), "Si2": np.array([1.0, 2.0, 3.0])}
        b = {"Si1": np.array([1.0, 0.0, 0.0]), "Si2": np.array([1.0, 2.0, 3.0])}
        rep = displacement_report(a, b)
        assert rep.rows["Si1"] == (1.0, 0.0, 0.0, 1.0)
        assert rep.rows["Si2"] == (0.0, 0.0, 0.0, 0.0)
        assert rep.argmax == "Si1"
        assert rep.mean == pytest.approx(0.5)

    def test_summary_fields(self):
        # summary must name the spin carrying the largest displacement
        labels = [f"Si{i}" for i in range(1, 11)]
        norms = [0.35] * 8 + [0.9, 2.3]
        initial = {lab: np.zeros(3) for lab in labels}
        refined = {
            lab: np.array([n, 0.0, 0.0]) for lab, n in zip(labels, norms)
        }
        rep = displacement_report(initial, refined)
        assert rep.mean == pytest.approx(0.6)
        assert rep.max == pytest.approx(2.3)
        assert rep.argmax == "Si10"

    def test_label_mismatch_rejected(self):
        with pytest.raises(InputError):
            displacement_report({"Si1": np.zeros(3)}, {"Si2": np.zeros(3)})
