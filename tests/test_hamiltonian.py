import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strong_pair_spec, weak_pair_spec
from spinmap.errors import InputError, LabelingError, SingularityError
from spinmap.hamiltonian import (
    _BLOCK,
    EigenstateLabel,
    SpinSystemSpec,
    SweepRecord,
    SweepResult,
    _label,
    _sedor_lambda,
    all_labels,
    build_hamiltonian,
    deviation_sweep,
    eigenenergy_zeroth,
    label_eigenstates,
    sedor_correction_second_order,
    sedor_frequency_exact,
    spin_matrices,
    subspace_averaged_sedor,
)
from spinmap.spinphys import C13, SI29, FieldConfig, HyperfineTensor


def secular_diagonal_oracle(spec):
    """Diagonal of the secular Hamiltonian built independently with Kronecker
    products (shares nothing with eigenenergy_zeroth)."""
    sz3 = np.diag([1.5, 0.5, -0.5, -1.5])
    iz = np.diag([0.5, -0.5])
    e2, e4 = np.eye(2), np.eye(4)

    def k3(a, b, c):
        return np.kron(a, np.kron(b, c))

    bz = spec.field.b_z * 1e-4
    ge = spec.field.electron_gamma
    (sp1, hf1), (sp2, hf2) = spec.nuclei
    h = spec.d * k3(sz3 @ sz3, e2, e2)
    h += ge * bz * k3(sz3, e2, e2)
    h += sp1.gyromagnetic_ratio * bz * k3(e4, iz, e2)
    h += sp2.gyromagnetic_ratio * bz * k3(e4, e2, iz)
    h += hf1.a_zz * k3(sz3, iz, e2)
    h += hf2.a_zz * k3(sz3, e2, iz)
    h += spec.pair_tensor[2, 2] * k3(e4, iz, iz)
    return np.diag(h)


def _reference_hamiltonian(spec):
    """The 16x16 Hamiltonian assembled term by term from Kronecker products,
    in the same order of summation as build_hamiltonian."""
    sx, sy, sz = spin_matrices(1.5)
    ix, iy, iz = spin_matrices(0.5)
    one_e = np.eye(4, dtype=complex)
    one_n = np.eye(2, dtype=complex)

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    bx, by, bz = spec.field.b_vec_tesla
    ge = spec.field.electron_gamma
    h = spec.d * kron3(sz @ sz, one_n, one_n)
    h += ge * (bx * kron3(sx, one_n, one_n) + by * kron3(sy, one_n, one_n) + bz * kron3(sz, one_n, one_n))
    nuc_ops = [
        (kron3(one_e, ix, one_n), kron3(one_e, iy, one_n), kron3(one_e, iz, one_n)),
        (kron3(one_e, one_n, ix), kron3(one_e, one_n, iy), kron3(one_e, one_n, iz)),
    ]
    e_ops = (kron3(sx, one_n, one_n), kron3(sy, one_n, one_n), kron3(sz, one_n, one_n))
    for (species, hf), (jx, jy, jz) in zip(spec.nuclei, nuc_ops):
        gn = species.gyromagnetic_ratio
        h += gn * (bx * jx + by * jy + bz * jz)
        h += hf.a_zz * e_ops[2] @ jz
        h += hf.a_zx * (e_ops[2] @ jx + e_ops[0] @ jz)
        h += hf.a_zy * (e_ops[2] @ jy + e_ops[1] @ jz)
    for a in range(3):
        for b in range(3):
            cab = spec.pair_tensor[a, b]
            if cab != 0.0:
                h += cab * nuc_ops[0][a] @ nuc_ops[1][b]
    return h


def _entry(limit):
    """Zero or a signed value of magnitude in [1e-3, limit].

    Entries stay out of the subnormal range, where the exact power-of-two
    scalings inside the spin operators would round.
    """
    magnitude = st.floats(1e-3, limit)
    return st.one_of(st.just(0.0), st.builds(lambda s, m: s * m, st.sampled_from((1.0, -1.0)), magnitude))


@st.composite
def drawn_specs(draw):
    field = FieldConfig(
        b_z=draw(st.floats(1.0, 5000.0)), b_x=draw(_entry(10.0)), b_y=draw(_entry(10.0))
    )
    nuclei = tuple(
        (
            draw(st.sampled_from((SI29, C13))),
            HyperfineTensor(draw(_entry(5e6)), draw(_entry(2e5)), draw(_entry(2e5))),
        )
        for _ in range(2)
    )
    pair = np.array([[draw(_entry(5e3)) for _ in range(3)] for _ in range(3)])
    return SpinSystemSpec(draw(st.floats(0.0, 70e6)), field, nuclei, pair)


def random_spec(rng, d=35e6, b_perp=2.3, max_aperp=40e3):
    """Random two-nucleus spec in the experimentally relevant range.

    A_zz values are kept apart so same-species flip-flop degeneracies (which
    the pairwise perturbation treatment does not model) stay suppressed.
    """
    while True:
        azz1 = rng.uniform(-400e3, 400e3)
        azz2 = rng.uniform(-400e3, 400e3)
        if abs(azz1 - azz2) > 20e3:
            break
    sp2 = SI29 if rng.random() < 0.7 else C13
    hf1 = HyperfineTensor.from_perp(azz1, rng.uniform(0, max_aperp), rng.uniform(0, 2 * math.pi))
    hf2 = HyperfineTensor.from_perp(azz2, rng.uniform(0, max_aperp), rng.uniform(0, 2 * math.pi))
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    p1 = np.array([0.0, 0.0, 5.0265])
    p2 = p1 + v * rng.uniform(3.2, 8.0)
    phi_b = rng.uniform(0, 2 * math.pi)
    field = FieldConfig(1960.9, b_perp * math.cos(phi_b), b_perp * math.sin(phi_b))
    return SpinSystemSpec.from_geometry(d, field, (SI29, hf1, p1), (sp2, hf2, p2))


def _reference_label(spec, overlap_threshold):
    """Energies by basis index from one 16x16 eigensolve, labelled as
    label_eigenstates did before the sweep was batched."""
    evals, evecs = np.linalg.eigh(build_hamiltonian(spec))
    overlap = np.abs(evecs) ** 2
    assignment = np.argmax(overlap, axis=1)
    best = overlap[np.arange(16), assignment]
    if len(set(assignment.tolist())) != 16:
        raise LabelingError("eigenstate-to-label assignment is not one-to-one")
    if best.min() < overlap_threshold:
        idx = int(np.argmin(best))
        raise LabelingError(
            f"basis state {idx} has max overlap {best.min():.3f} < {overlap_threshold}"
        )
    return np.real(evals[assignment])


def _reference_sweep(spec_template, phis, transverse_field, overlap_threshold=0.6):
    """deviation_sweep as a loop of one build and one eigensolve per grid point."""
    field = replace(spec_template.field, b_x=transverse_field, b_y=0.0)
    (sp1, hf1), (sp2, hf2) = spec_template.nuclei
    f0 = 0.5 * abs(spec_template.c_zz)
    records = []
    for phi1, phi2 in itertools.product(phis, phis):
        nuclei = (
            (sp1, HyperfineTensor.from_perp(hf1.a_zz, hf1.a_perp, phi1)),
            (sp2, HyperfineTensor.from_perp(hf2.a_zz, hf2.a_perp, phi2)),
        )
        spec = SpinSystemSpec(spec_template.d, field, nuclei, spec_template.pair_tensor)
        e = _reference_label(spec, overlap_threshold)
        f_plus = 0.5 * abs(e[0] + e[3] - e[2] - e[1])
        f_minus = 0.5 * abs(e[12] + e[15] - e[14] - e[13])
        records.append(SweepRecord(phi1, phi2, "ms_plus_3_2", abs(f_plus - f0)))
        records.append(SweepRecord(phi1, phi2, "ms_minus_3_2", abs(f_minus - f0)))
        records.append(SweepRecord(phi1, phi2, "averaged", abs(0.5 * (f_plus + f_minus) - f0)))
    max_single = max(r.deviation for r in records if r.mode != "averaged")
    max_averaged = max(r.deviation for r in records if r.mode == "averaged")
    return SweepResult(tuple(records), max_single, max_averaged)


def _bits(x):
    return type(x), np.float64(x).tobytes()


def _sweep_outcome(sweep, *args):
    """A sweep's records and maxima, deviations by type and bytes, or the
    message of the LabelingError it raised."""
    try:
        result = sweep(*args)
    except LabelingError as exc:
        return str(exc)
    records = [(r.phi1, r.phi2, r.mode, _bits(r.deviation)) for r in result.records]
    return records, _bits(result.max_single), _bits(result.max_averaged)


class TestSpinMatrices:
    def test_commutation(self):
        for s in (0.5, 1.5):
            sx, sy, sz = spin_matrices(s)
            assert np.allclose(sx @ sy - sy @ sx, 1j * sz)
            casimir = sx @ sx + sy @ sy + sz @ sz
            assert np.allclose(casimir, s * (s + 1) * np.eye(sx.shape[0]))


class TestZerothOrder:
    def test_all_zero_spec(self, field_1960):
        spec = SpinSystemSpec(
            0.0,
            FieldConfig(1e-12),  # vanishing field
            ((SI29, HyperfineTensor(0.0)), (SI29, HyperfineTensor(0.0))),
            np.zeros((3, 3)),
        )
        for label in all_labels():
            assert abs(eigenenergy_zeroth(spec, label)) < 1e-4

    def test_pure_zfs_is_even_in_ms(self):
        spec = SpinSystemSpec(
            35e6,
            FieldConfig(1e-12),
            ((SI29, HyperfineTensor(0.0)), (SI29, HyperfineTensor(0.0))),
            np.zeros((3, 3)),
        )
        for ms, expect in ((1.5, 2.25 * 35e6), (0.5, 0.25 * 35e6)):
            for sign in (1, -1):
                lab = EigenstateLabel(sign * ms, 0.5, -0.5)
                assert eigenenergy_zeroth(spec, lab) == pytest.approx(expect, rel=1e-9)

    def test_matches_independent_diagonal(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng)
        diag = secular_diagonal_oracle(spec)
        for label in all_labels():
            assert eigenenergy_zeroth(spec, label) == pytest.approx(
                diag[label.basis_index], rel=1e-12
            )

    def test_invalid_label_rejected(self):
        with pytest.raises(InputError):
            EigenstateLabel(1.0, 0.5, 0.5)


class TestExactDiagonalization:
    def test_hermitian_real_spectrum_trace(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng)
        h = build_hamiltonian(spec)
        assert np.allclose(h, h.conj().T)
        evals = np.linalg.eigvalsh(h)
        assert np.isreal(evals).all()
        assert np.trace(h).real == pytest.approx(evals.sum(), rel=1e-9)

    def test_secular_limit_matches_zeroth_bit_for_bit(self):
        spec = SpinSystemSpec(
            35e6,
            FieldConfig(1960.9),
            ((SI29, HyperfineTensor(-4.8e6)), (C13, HyperfineTensor(120e3))),
            np.diag([0.0, 0.0, 140.0]),
        )
        energies = label_eigenstates(spec)
        for label in all_labels():
            lam0 = eigenenergy_zeroth(spec, label)
            assert energies[label.basis_index] == pytest.approx(lam0, rel=1e-10)

    def test_secular_limit_sedor_is_half_czz(self):
        spec = SpinSystemSpec(
            35e6,
            FieldConfig(1960.9),
            ((SI29, HyperfineTensor(-4.8e6)), (SI29, HyperfineTensor(250e3))),
            np.diag([0.0, 0.0, -371.22]),
        )
        for ms in (1.5, 0.5, -0.5, -1.5):
            assert sedor_frequency_exact(spec, ms) == pytest.approx(185.61, abs=1e-6)
        assert subspace_averaged_sedor(spec) == pytest.approx(185.61, abs=1e-6)

    def test_labeling_error_on_degenerate_nuclei(self):
        # identical species and A_zz make the flip-flop subspace degenerate
        spec = SpinSystemSpec(
            35e6,
            FieldConfig(1960.9),
            ((SI29, HyperfineTensor(100e3)), (SI29, HyperfineTensor(100e3))),
            np.array([[80.0, 0, 0], [0, 80.0, 0], [0, 0, 140.0]]),
        )
        with pytest.raises(LabelingError):
            sedor_frequency_exact(spec, 1.5)

    def test_global_phase_rotation_invariance_without_transverse_field(self, params):
        # rotating both hyperfine rows and the pair tensor about z leaves the
        # spectrum unchanged when the field is purely axial
        spec = strong_pair_spec(params, b_x=0.0)
        (sp1, hf1), (sp2, hf2) = spec.nuclei
        hf1 = HyperfineTensor.from_perp(hf1.a_zz, 40e3, 0.4)
        hf2 = HyperfineTensor.from_perp(hf2.a_zz, hf2.a_perp, 1.1)
        spec = SpinSystemSpec(spec.d, spec.field, ((sp1, hf1), (sp2, hf2)), spec.pair_tensor)
        f_ref = sedor_frequency_exact(spec, 1.5)
        chi = 0.813
        rot = np.array(
            [[math.cos(chi), -math.sin(chi), 0], [math.sin(chi), math.cos(chi), 0], [0, 0, 1]]
        )
        rotated = SpinSystemSpec(
            spec.d,
            spec.field,
            (
                (sp1, HyperfineTensor.from_perp(hf1.a_zz, hf1.a_perp, 0.4 + chi)),
                (sp2, HyperfineTensor.from_perp(hf2.a_zz, hf2.a_perp, 1.1 + chi)),
            ),
            rot @ spec.pair_tensor @ rot.T,
        )
        # agreement bounded by eigensolver precision eps * ||H|| ~ 2e-6 Hz
        assert sedor_frequency_exact(rotated, 1.5) == pytest.approx(f_ref, abs=1e-4)


class TestCachedOperators:
    @settings(max_examples=300, deadline=None)
    @given(drawn_specs())
    def test_build_hamiltonian_bit_identical_to_kron_assembly(self, spec):
        h = build_hamiltonian(spec)
        ref = _reference_hamiltonian(spec)
        assert np.array_equal(h, ref)
        # signed zeros too: eigh's Householder reflections read signs
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))

    def test_repeated_builds_do_not_share_state(self, params):
        spec = strong_pair_spec(params, b_x=2.3)
        first = build_hamiltonian(spec)
        first += 1.0
        assert np.array_equal(build_hamiltonian(spec), _reference_hamiltonian(spec))

    @pytest.mark.parametrize("m_s", [1.5, 0.5, -0.5, -1.5])
    def test_sedor_lambda_matches_label_form(self, params, m_s):
        energies = label_eigenstates(strong_pair_spec(params, b_x=2.3))
        random_energies = np.random.default_rng(3).normal(size=16)
        for e in (energies, random_energies):
            def at(m1, m2):
                return e[EigenstateLabel(m_s, m1, m2).basis_index]

            expected = at(0.5, 0.5) + at(-0.5, -0.5) - at(-0.5, 0.5) - at(0.5, -0.5)
            assert _sedor_lambda(m_s, e) == expected

    def test_sedor_lambda_rejects_unknown_projection(self):
        with pytest.raises(InputError):
            _sedor_lambda(1.0, np.zeros(16))


class TestSecondOrder:
    def test_all_zero_transverse_gives_zero_correction(self):
        spec = SpinSystemSpec(
            35e6,
            FieldConfig(1960.9),
            ((SI29, HyperfineTensor(-4.8e6)), (SI29, HyperfineTensor(250e3))),
            np.diag([0.0, 0.0, 140.0]),
        )
        corr = sedor_correction_second_order(spec, 1.5)
        assert corr.delta1 == 0.0
        assert corr.delta2_0 == 0.0
        assert corr.delta2_1 == 0.0
        assert corr.delta3_0 == 0.0
        assert corr.delta3_1 == 0.0
        # resummed nuclear term retains only the tiny C_zz denominator split
        assert abs(corr.total) < 1e-6

    def test_odd_terms_cancel_across_manifolds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = random_spec(rng)
            plus = sedor_correction_second_order(spec, 1.5)
            minus = sedor_correction_second_order(spec, -1.5)
            assert abs(plus.delta2_0 + minus.delta2_0) < 1e-9
            assert abs(plus.delta3_1 + minus.delta3_1) < 1e-9
            # even components are manifold-independent
            assert plus.delta2_1 == pytest.approx(minus.delta2_1, rel=1e-12)
            assert plus.delta3_0 == pytest.approx(minus.delta3_0, rel=1e-12)

    def test_electron_term_quadratic_scaling(self):
        field = FieldConfig(1960.9)
        pair = np.diag([0.0, 0.0, 140.0])

        def spec_with(scale):
            return SpinSystemSpec(
                35e6,
                field,
                (
                    (SI29, HyperfineTensor.from_perp(-120e3, scale * 80e3, 0.3)),
                    (SI29, HyperfineTensor.from_perp(260e3, scale * 60e3, 1.0)),
                ),
                pair,
            )

        full = sedor_correction_second_order(spec_with(1.0), 1.5).delta1
        half = sedor_correction_second_order(spec_with(0.5), 1.5).delta1
        assert 3.6 < full / half < 4.4

    @pytest.mark.parametrize("d", [35e6, 0.0])
    def test_total_matches_exact_oracle(self, d):
        rng = np.random.default_rng(10)
        for _ in range(15):
            spec = random_spec(rng, d=d)
            czz = spec.c_zz
            for ms in (1.5, -1.5):
                f_exact = sedor_frequency_exact(spec, ms)
                exact_corr = f_exact - 0.5 * abs(czz)
                corr = sedor_correction_second_order(spec, ms)
                analytic = 0.5 * math.copysign(1.0, czz) * corr.total
                assert abs(analytic - exact_corr) <= max(0.2 * abs(analytic), 0.05)

    def test_singularity_error_names_term(self, field_1960):
        g = SI29.gyromagnetic_ratio * field_1960.b_z_tesla
        spec = SpinSystemSpec(
            35e6,
            field_1960,
            (
                (SI29, HyperfineTensor.from_perp(-g / 1.5, 10e3)),  # nuclear denominator ~ 0
                (SI29, HyperfineTensor.from_perp(200e3, 10e3)),
            ),
            np.diag([0.0, 0.0, 0.5]),
        )
        with pytest.raises(SingularityError) as err:
            sedor_correction_second_order(spec, 1.5)
        assert "nucleus" in str(err.value)

    def test_rejects_half_manifolds(self, params):
        with pytest.raises(InputError):
            sedor_correction_second_order(strong_pair_spec(params), 0.5)


class TestDeviationSweep:
    def test_zero_perp_leaves_only_field_terms(self, params):
        spec = strong_pair_spec(params)
        (sp1, hf1), (sp2, hf2) = spec.nuclei
        spec = SpinSystemSpec(
            spec.d,
            spec.field,
            ((sp1, HyperfineTensor(hf1.a_zz)), (sp2, HyperfineTensor(hf2.a_zz))),
            spec.pair_tensor,
        )
        res = deviation_sweep(spec, [0.0], transverse_field=2.3)
        assert res.max_single < 1.0

    @pytest.mark.parametrize("d", [35e6, 0.0])
    def test_strong_pair_bands(self, params, d):
        spec = strong_pair_spec(params, d=d)
        phis = np.linspace(0, 2 * math.pi, 9)[:-1]
        res = deviation_sweep(spec, phis, transverse_field=2.3)
        assert 4.0 < res.max_single < 25.0
        assert 1.0 < res.max_averaged < 4.0

    def test_weak_pair_band(self, params):
        spec = weak_pair_spec(params)
        phis = np.linspace(0, 2 * math.pi, 9)[:-1]
        res = deviation_sweep(spec, phis, transverse_field=2.3)
        assert res.max_single <= 0.6

    def test_averaging_reduces_worst_case(self, params):
        spec = strong_pair_spec(params)
        phis = np.linspace(0, 2 * math.pi, 7)[:-1]
        res = deviation_sweep(spec, phis, transverse_field=2.3)
        assert res.max_averaged < res.max_single

    def test_empty_grid_rejected(self, params):
        with pytest.raises(InputError):
            deviation_sweep(strong_pair_spec(params), [])

    @pytest.mark.parametrize(
        "phis, field", [([0.0, math.nan], 2.3), ([math.inf], 2.3), ([0.0, 1.0], math.inf)]
    )
    def test_non_finite_input_rejected(self, params, phis, field):
        with pytest.raises(InputError):
            deviation_sweep(strong_pair_spec(params), phis, transverse_field=field)


class TestBlockedSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn_specs(),
        st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=7),
        st.sampled_from((0.0, 2.3)),
        st.sampled_from((0.6, 0.999)),
    )
    def test_bit_identical_to_per_point_sweep(self, spec, phis, field, threshold):
        # up to 49 grid points: several blocks, the last one partial
        assert _sweep_outcome(deviation_sweep, spec, phis, field, threshold) == _sweep_outcome(
            _reference_sweep, spec, phis, field, threshold
        )

    @pytest.mark.parametrize("swap, threshold", [(False, 0.999), (True, 0.9975)])
    def test_first_failing_point_raises_the_reference_message(self, params, swap, threshold):
        spec = strong_pair_spec(params)
        if swap:
            # only nucleus 1 has a transverse hyperfine term, so the overlap
            # follows phi1 and the first point below 0.9975 is grid point 21,
            # in the second block
            spec = SpinSystemSpec(spec.d, spec.field, spec.nuclei[::-1], spec.pair_tensor.T)
        phis = np.linspace(0, 2 * math.pi, 8)[:-1]
        expected = _sweep_outcome(_reference_sweep, spec, phis, 2.3, threshold)
        assert isinstance(expected, str) and expected.startswith("basis state")
        assert _sweep_outcome(deviation_sweep, spec, phis, 2.3, threshold) == expected

    def test_oracle_op_hands_68_matrices_to_eigh_in_blocks(self, params, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            sizes.append(math.prod(np.shape(a)[:-2]))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        # one benchmark oracle op: an 8x8 sweep and the exact frequency of
        # two random specs in both m_s = +-3/2 manifolds
        phis = 0.3 + 2 * math.pi * np.arange(8) / 8
        deviation_sweep(strong_pair_spec(params), phis, transverse_field=2.3)
        rng = np.random.default_rng(11)
        for spec in (random_spec(rng), random_spec(rng)):
            for ms in (1.5, -1.5):
                sedor_frequency_exact(spec, ms)
        assert sum(sizes) == 68
        assert max(sizes) <= _BLOCK
        assert len(sizes) == math.ceil(64 / _BLOCK) + 4

    def test_non_finite_hamiltonian_rejected_before_eigh(self, params, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh reached with a non-finite Hamiltonian")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        spec = replace(strong_pair_spec(params), d=math.inf)
        with np.errstate(invalid="ignore"), pytest.raises(InputError):
            label_eigenstates(spec)
        hs = np.stack([build_hamiltonian(strong_pair_spec(params))] * 3)
        hs[2, 5, 7] = complex(math.nan, 0.0)
        with pytest.raises(InputError):
            _label(hs, 0.6)


def test_spec_validation_rejects_wrong_nucleus_count(field_1960):
    with pytest.raises(InputError):
        SpinSystemSpec(0.0, field_1960, ((SI29, HyperfineTensor(0.0)),), np.zeros((3, 3)))
