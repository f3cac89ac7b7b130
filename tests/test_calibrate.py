import numpy as np
import pytest

from spinmap.calibrate import (
    MAX_GRID_POINTS,
    calibrate_from_scans,
    dft_comparison_report,
    field_correction_grid,
    field_scan_min_aperp,
    g_factor_from_delta_b,
)
from spinmap.errors import BoundaryError, CapacityError, InputError
from spinmap.spinphys import (
    SI29,
    FieldConfig,
    HyperfineTensor,
    invert_hyperfine,
    nuclear_transition_frequency,
)


def synth_pair(a_zz, a_perp, b_true_gauss, species=SI29):
    """Manifold frequency pair generated at the true field."""
    field = FieldConfig(b_true_gauss)
    hf = HyperfineTensor.from_perp(a_zz, a_perp)
    return (
        nuclear_transition_frequency(field, species, hf, 1.5),
        nuclear_transition_frequency(field, species, hf, -1.5),
    )


class TestFieldScan:
    def test_self_consistent_minimum_at_zero(self, field_1960):
        fp, fm = synth_pair(-150e3, 700.0, 1960.9)
        res = field_scan_min_aperp(
            fp, fm, HyperfineTensor.from_perp(-150e3, 700.0), field_1960, SI29
        )
        assert res.delta_b == pytest.approx(0.0, abs=0.02)
        assert res.a_perp == pytest.approx(700.0, rel=0.2)

    def test_in_plane_spin_fixture_si5(self, field_1960):
        # frequencies generated at a field 1.47 G below the assumed value;
        # scanning against the DFT transverse coupling finds that offset
        fp, fm = synth_pair(-150e3, 700.0, 1960.9 - 1.47)
        res = field_scan_min_aperp(
            fp, fm, HyperfineTensor.from_perp(-150e3, 700.0), field_1960, SI29
        )
        assert res.delta_b == pytest.approx(-1.47, abs=0.02)
        assert res.a_perp == pytest.approx(700.0, rel=0.2)

    def test_in_plane_spin_fixture_si14(self, field_1960):
        fp, fm = synth_pair(210e3, 400.0, 1960.9 - 1.59)
        res = field_scan_min_aperp(
            fp, fm, HyperfineTensor.from_perp(210e3, 400.0), field_1960, SI29
        )
        assert res.delta_b == pytest.approx(-1.59, abs=0.02)
        assert res.a_perp == pytest.approx(400.0, rel=0.3)

    def test_refined_minimum_is_local_minimum(self, field_1960):
        fp, fm = synth_pair(-150e3, 700.0, 1960.9 - 1.47)
        res = field_scan_min_aperp(
            fp, fm, HyperfineTensor.from_perp(-150e3, 700.0), field_1960, SI29
        )
        k = int(np.argmin(res.mismatch))
        assert res.mismatch[k + 1] - 2 * res.mismatch[k] + res.mismatch[k - 1] > 0

    def test_boundary_minimum_raises(self, field_1960):
        fp, fm = synth_pair(-150e3, 700.0, 1960.9 - 4.0)
        with pytest.raises(BoundaryError):
            field_scan_min_aperp(
                fp,
                fm,
                HyperfineTensor.from_perp(-150e3, 700.0),
                field_1960,
                SI29,
                delta_b_grid=np.arange(-2.0, 2.0, 0.01),
            )

    def test_azz_insensitive_aperp_sensitive(self, field_1960):
        # the longitudinal coupling enters at zeroth order and barely moves
        # with the assumed field; the transverse coupling soaks up the error
        fp, fm = synth_pair(-150e3, 20e3, 1960.9)
        db = 0.1
        out = {}
        for sign in (-1, 1):
            shifted = FieldConfig(1960.9 + sign * db)
            out[sign] = invert_hyperfine(fp, fm, shifted, SI29)
        d_azz = abs(out[1].a_zz - out[-1].a_zz) / (2 * db)
        d_aperp = abs(out[1].a_perp - out[-1].a_perp) / (2 * db)
        assert d_aperp / d_azz > 10


class TestFieldCorrectionGrid:
    def test_default_grid_bits(self, field_1960):
        grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
        assert field_correction_grid(5.0, 0.01).tobytes() == grid.tobytes()
        fp, fm = synth_pair(-150e3, 700.0, 1960.9)
        res = field_scan_min_aperp(
            fp, fm, HyperfineTensor.from_perp(-150e3, 700.0), field_1960, SI29
        )
        assert res.grid.tobytes() == grid.tobytes()

    def test_cap_checked_before_the_grid_is_laid_out(self, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange reached past the cap")

        assert field_correction_grid(1.0, 2.000001e-6).size == MAX_GRID_POINTS == 1_000_000
        monkeypatch.setattr(np, "arange", no_arange)
        # (1 + 1e-12 + 1) / 2e-6 is just above the cap; the last quotient overflows
        for span, step in ((1.0, 2e-6), (1e308, 1e-300)):
            with pytest.raises(CapacityError, match="MAX_GRID_POINTS"):
                field_correction_grid(span, step)

    def test_three_points_is_the_smallest_grid(self, monkeypatch):
        assert field_correction_grid(0.01, 0.01).size == 3
        monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("grid laid out"))
        for span, points in ((0.0099, 2), (0.001, 1)):
            with pytest.raises(InputError, match=f"give {points} grid points"):
                field_correction_grid(span, 0.01)


def test_aperp_sensitivity_decreases_with_field():
    hf = HyperfineTensor.from_perp(-150e3, 20e3)
    derivs = []
    for b in np.linspace(500.0, 4000.0, 8):
        field = FieldConfig(b)
        eps = 100.0
        hi = HyperfineTensor.from_perp(hf.a_zz, hf.a_perp + eps)
        lo = HyperfineTensor.from_perp(hf.a_zz, hf.a_perp - eps)
        d = (
            nuclear_transition_frequency(field, SI29, hi, 1.5)
            - nuclear_transition_frequency(field, SI29, lo, 1.5)
        ) / (2 * eps)
        derivs.append(abs(d))
    assert all(a > b for a, b in zip(derivs, derivs[1:]))


class TestGFactor:
    def test_reference_arithmetic(self):
        res = g_factor_from_delta_b(-1.53, 0.6, 1960.9, -2.0028)
        assert res.g_factor == pytest.approx(-2.0012, abs=5e-5)
        assert res.g_uncertainty == pytest.approx(0.0006, abs=5e-5)

    def test_zero_shift_is_identity(self):
        res = g_factor_from_delta_b(0.0, 0.3, 1960.9, -2.0028)
        assert res.g_factor == -2.0028

    def test_linearity_in_sign(self):
        plus = g_factor_from_delta_b(+1.53, 0.6, 1960.9, -2.0028)
        minus = g_factor_from_delta_b(-1.53, 0.6, 1960.9, -2.0028)
        assert plus.g_factor - (-2.0028) == pytest.approx(-(minus.g_factor - (-2.0028)))

    def test_rejects_nonpositive_field(self):
        with pytest.raises(InputError):
            g_factor_from_delta_b(-1.5, 0.6, 0.0, -2.0028)

    def test_combined_scan_average(self, field_1960):
        fp5, fm5 = synth_pair(-150e3, 700.0, 1960.9 - 1.47)
        fp14, fm14 = synth_pair(210e3, 400.0, 1960.9 - 1.59)
        scans = {
            "Si5": field_scan_min_aperp(
                fp5, fm5, HyperfineTensor.from_perp(-150e3, 700.0), field_1960, SI29
            ),
            "Si14": field_scan_min_aperp(
                fp14, fm14, HyperfineTensor.from_perp(210e3, 400.0), field_1960, SI29
            ),
        }
        res = calibrate_from_scans(scans, 0.6, field_1960)
        assert res.delta_b == pytest.approx(-1.53, abs=0.02)
        assert res.g_factor == pytest.approx(-2.0012, abs=1e-4)
        assert set(res.per_spin) == {"Si5", "Si14"}


class TestDftComparison:
    def test_identical_inputs(self):
        data = {"Si1": HyperfineTensor.from_perp(-4.8e6, 1e3)}
        rep = dft_comparison_report(data, data)
        assert rep.rows["Si1"]["a_zz_rel"] == 0.0
        assert rep.rows["Si1"]["a_perp_rel"] == 0.0
        assert rep.n_within_10pct == 1
        assert rep.n_over_30pct == 0
        assert rep.sign_mismatches == ()

    def test_uniform_ten_percent(self):
        dft = {f"Si{i}": HyperfineTensor.from_perp(100e3 * i, 10e3) for i in range(1, 5)}
        exp = {
            lab: HyperfineTensor.from_perp(1.1 * t.a_zz, t.a_perp)
            for lab, t in dft.items()
        }
        rep = dft_comparison_report(exp, dft)
        for row in rep.rows.values():
            assert row["a_zz_rel"] == pytest.approx(0.1)
        assert rep.n_within_10pct == 4

    def test_sign_mismatch_flagged(self):
        dft = {"Si2": HyperfineTensor(-50e3), "Si3": HyperfineTensor(80e3)}
        exp = {"Si2": HyperfineTensor(45e3), "Si3": HyperfineTensor(85e3)}
        rep = dft_comparison_report(exp, dft)
        assert rep.sign_mismatches == ("Si2",)

    def test_missing_labels_listed_not_fatal(self):
        dft = {"Si2": HyperfineTensor(-50e3)}
        exp = {"Si2": HyperfineTensor(-52e3), "Si9": HyperfineTensor(10e3)}
        rep = dft_comparison_report(exp, dft)
        assert rep.missing == ("Si9",)
        assert "Si2" in rep.rows
