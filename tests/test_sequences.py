import math

import numpy as np
import pytest

from spinmap.errors import InputError
from spinmap.sequences import (
    RotationAngle,
    SequenceParams,
    amplitude_for_angle,
    ddrf_phase_update,
    ddrf_resonance_condition,
    effective_rabi,
    rotation_angle,
    wrap_angle,
)


def reference_phase_update(w0, w1, wrf, tau):
    """Independent evaluation with explicit 2-pi bookkeeping."""
    x = math.pi + 2.0 * math.pi * (w0 + w1 - 2.0 * wrf) * tau
    x = math.remainder(x, 2.0 * math.pi)
    if x <= -math.pi:
        x += 2.0 * math.pi
    return x


class TestWrapAngle:
    def test_range_and_idempotence(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-50, 50, 200):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
            assert wrap_angle(w) == pytest.approx(w, abs=1e-15)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_zero(self):
        assert wrap_angle(0.0) == 0.0


class TestPhaseUpdate:
    def test_symmetric_drive_gives_pi(self):
        assert ddrf_phase_update(1.6e6, 1.7e6, 1.65e6, 20e-6) == math.pi

    def test_zero_tau_gives_pi(self):
        assert ddrf_phase_update(1.6e6, 1.7e6, 1.9e6, 0.0) == math.pi

    def test_matches_independent_bookkeeping(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w0 = rng.uniform(1e6, 3e6)
            w1 = w0 + rng.uniform(-50e3, 50e3)
            wrf = rng.uniform(w0 - 30e3, w0 + 30e3)
            tau = rng.uniform(1e-6, 50e-6)
            got = ddrf_phase_update(w0, w1, wrf, tau)
            assert got == pytest.approx(reference_phase_update(w0, w1, wrf, tau), abs=1e-9)


class TestResonanceCondition:
    def test_consistency_with_phase_update(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            w0 = rng.uniform(1e6, 3e6)
            w1 = w0 + rng.uniform(-50e3, 50e3)
            wrf = rng.uniform(w0 - 30e3, w0 + 30e3)
            tau = rng.uniform(1e-6, 50e-6)
            delta = ddrf_phase_update(w0, w1, wrf, tau) - math.pi
            assert abs(ddrf_resonance_condition(delta, w0, w1, wrf, tau)) < 1e-9

    def test_off_by_pi(self):
        w0, w1, wrf, tau = 1.6e6, 1.62e6, 1.61e6, 20e-6
        delta = ddrf_phase_update(w0, w1, wrf, tau) - math.pi
        assert abs(ddrf_resonance_condition(delta + math.pi, w0, w1, wrf, tau)) == pytest.approx(
            math.pi
        )

    def test_resonance_locus_is_linear(self):
        # the zero-mismatch phase increment is linear in the drive frequency
        w0, w1, tau = 1.60e6, 1.62e6, 20e-6
        center = 0.5 * (w0 + w1)
        wrf_grid = np.linspace(center - 8e3, center + 8e3, 41)
        deltas = np.linspace(-math.pi, math.pi, 2001)[1:]
        locus = []
        for wrf in wrf_grid:
            mism = [abs(ddrf_resonance_condition(d, w0, w1, wrf, tau)) for d in deltas]
            locus.append(deltas[int(np.argmin(mism))])
        slope, intercept = np.polyfit(wrf_grid, locus, 1)
        pred = slope * wrf_grid + intercept
        ss_res = float(np.sum((np.array(locus) - pred) ** 2))
        ss_tot = float(np.sum((np.array(locus) - np.mean(locus)) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.999
        assert slope == pytest.approx(-4.0 * math.pi * tau, rel=1e-3)


class TestEffectiveRabi:
    def test_equal_frequencies_give_zero(self):
        assert effective_rabi(500.0, 1.6e6, 1.6e6, 1.55e6, 20e-6) == 0.0

    def test_resonant_branch_dominates(self):
        w0, w1, tau = 1.60e6, 1.80e6, 20e-6  # (w1-w0) tau >> 1
        om = effective_rabi(500.0, w0, w1, w0, tau)
        assert abs(om) == pytest.approx(500.0, rel=0.05)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w0 = rng.uniform(1e6, 3e6)
            w1 = w0 + rng.uniform(-80e3, 80e3)
            wrf = rng.uniform(w0 - 40e3, w0 + 40e3)
            tau = rng.uniform(1e-6, 50e-6)
            a = effective_rabi(700.0, w0, w1, wrf, tau)
            b = effective_rabi(700.0, w1, w0, wrf, tau)
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InputError):
            effective_rabi(500.0, 1.6e6, 1.7e6, 1.6e6, 0.0)


class TestNonFinite:
    # a non-finite input, or finite inputs whose phase overflows, is an InputError
    @pytest.mark.parametrize("call, named", [
        pytest.param(lambda: ddrf_phase_update(1e308, 1e308, 0.0, 1.0), "phase",
                     id="phase-update-overflow"),
        pytest.param(lambda: ddrf_phase_update(1e308, 1e308, 1e308, 1.0), "phase",
                     id="phase-update-inf-minus-inf"),
        pytest.param(lambda: effective_rabi(1.0, 0.0, 1e308, -1e308, 1.0), "phase",
                     id="rabi-overflow"),
        pytest.param(lambda: ddrf_resonance_condition(math.nan, 1.0, 1.0, 1.0, 1.0), "delta",
                     id="resonance-nan"),
        pytest.param(lambda: ddrf_resonance_condition(0.0, 1.0, 1.0, 1.0, math.inf), "tau",
                     id="resonance-inf"),
        pytest.param(lambda: ddrf_resonance_condition(0.0, 1e308, 1e308, 0.0, 1.0), "phase",
                     id="resonance-overflow"),
    ])
    def test_input_error_names_the_value(self, call, named):
        with pytest.raises(InputError, match=f"^{named} must be finite"):
            call()


class TestRotationAngle:
    PARAMS = dict(omega_rf=1.6e6, omega_0=1.6e6, omega_1=1.63e6)

    def test_zero_pulses(self):
        p = SequenceParams(tau=20e-6, n_pulses=0, omega_rabi=500.0, **self.PARAMS)
        assert rotation_angle(p).theta == 0.0

    def test_linear_in_pulse_count(self):
        p16 = SequenceParams(tau=20e-6, n_pulses=16, omega_rabi=500.0, **self.PARAMS)
        p32 = SequenceParams(tau=20e-6, n_pulses=32, omega_rabi=500.0, **self.PARAMS)
        assert rotation_angle(p32).theta == pytest.approx(2 * rotation_angle(p16).theta)

    def test_sign_flag_present(self):
        p = SequenceParams(tau=20e-6, n_pulses=16, omega_rabi=500.0, **self.PARAMS)
        out = rotation_angle(p)
        assert isinstance(out, RotationAngle)
        assert out.sign_conditional_on_initial_state is True

    def test_amplitude_solve_roundtrip(self):
        # calibrated amplitude rotating the spin onto the equator (|pi/2|);
        # the sign of the quarter turn follows the conditional branch
        target = -math.pi / 2
        omega = amplitude_for_angle(target, 16, 20e-6, 1.6e6, 1.63e6, 1.6e6)
        assert omega > 0
        p = SequenceParams(
            tau=20e-6, n_pulses=16, omega_rabi=omega,
            omega_rf=1.6e6, omega_0=1.6e6, omega_1=1.63e6,
        )
        assert rotation_angle(p).theta == pytest.approx(target, rel=1e-9)
        assert abs(rotation_angle(p).theta) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_amplitude_solve_rejects_degenerate(self):
        with pytest.raises(InputError):
            amplitude_for_angle(math.pi / 2, 16, 20e-6, 1.6e6, 1.6e6, 1.55e6)

    def test_params_validation(self):
        with pytest.raises(InputError):
            SequenceParams(tau=-1e-6, n_pulses=16, omega_rabi=500.0, **self.PARAMS)
        with pytest.raises(InputError):
            SequenceParams(tau=20e-6, n_pulses=15, omega_rabi=500.0, **self.PARAMS)
        with pytest.raises(InputError):
            SequenceParams(tau=20e-6, n_pulses=16, omega_rabi=0.0, **self.PARAMS)
