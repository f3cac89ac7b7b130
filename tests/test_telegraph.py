import math

import numpy as np
import pytest

from spinmap.errors import CapacityError, FitError, InputError, InsufficientStatisticsError
from spinmap.synth import MAX_TELEGRAPH_BINS, emit_telegraph
from spinmap.telegraph import (
    TimeTrace,
    analyze_trace,
    dwell_times,
    fit_rates,
    moving_average,
    smooth_and_threshold,
)

RATES = (0.18, 0.85)  # bright->dark, dark->bright (Hz)


def clean_trace(seed=0, duration=200.0):
    return emit_telegraph(RATES, 3000.0, 600.0, True, duration, 0.005, seed)


class TestTimeTrace:
    def test_validation(self):
        with pytest.raises(InputError):
            TimeTrace(np.array([0.0, 0.1, 0.15]), np.zeros(3))  # non-uniform
        with pytest.raises(InputError):
            TimeTrace(np.array([0.0, -0.1]), np.zeros(2))  # decreasing
        with pytest.raises(InputError):
            TimeTrace(np.array([0.0, 0.1]), np.array([1.0, -2.0]))  # negative

    def test_dt(self):
        tr = TimeTrace(np.arange(5) * 0.005, np.ones(5))
        assert tr.dt == pytest.approx(0.005)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert (moving_average(v, 1) == v).all()

    def test_matches_direct_loop_with_shrunken_edges(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 10, 40)
        for w in (3, 5, 9):
            got = moving_average(v, w)
            h = w // 2
            ref = np.array(
                [v[max(0, i - h):min(v.size, i + h + 1)].mean() for i in range(v.size)]
            )
            assert np.allclose(got, ref)

    def test_rejects_even_or_long_windows(self):
        v = np.zeros(10)
        with pytest.raises(InputError):
            moving_average(v, 2)
        with pytest.raises(InputError):
            moving_average(v, 11)


class TestSmoothAndThreshold:
    def test_constant_above_threshold_all_bright(self):
        tr = TimeTrace(np.arange(100) * 0.005, np.full(100, 1500.0))
        assert smooth_and_threshold(tr, 5, 1295.0).all()

    def test_noiseless_states_recovered_with_window_one(self):
        tr = emit_telegraph(RATES, 2000.0, 600.0, False, 60.0, 0.005, seed=3)
        states = smooth_and_threshold(tr, 1, 1295.0)
        assert set(np.unique(tr.counts)) == {600.0, 2000.0}
        assert (states == (tr.counts == 2000.0)).all()

    def test_default_threshold_separates_default_rates(self):
        tr = clean_trace(seed=4)
        states = smooth_and_threshold(tr, 5, 1295.0)
        assert 0.05 < states.mean() < 0.95  # both states visited


class TestDwellTimes:
    def test_alternating_single_bins(self):
        states = np.tile([True, False], 12)
        bright, dark = dwell_times(states, 1e-3)
        assert np.allclose(bright, 1e-3)
        assert np.allclose(dark, 1e-3)
        # censored first and last runs are excluded
        assert bright.size + dark.size == states.size - 2

    def test_single_state_insufficient(self):
        with pytest.raises(InsufficientStatisticsError):
            dwell_times(np.ones(100, dtype=bool), 1e-3)

    def test_markov_dwell_means_near_inverse_rates(self):
        tr = clean_trace(seed=5)
        states = smooth_and_threshold(tr, 5, 1295.0)
        bright, dark = dwell_times(states, tr.dt)
        assert bright.mean() == pytest.approx(1.0 / RATES[0], rel=0.5)
        assert dark.mean() == pytest.approx(1.0 / RATES[1], rel=0.5)


class TestFitRates:
    def test_analytic_mle(self):
        est = fit_rates(np.full(100, 2.0))
        assert est.rate == pytest.approx(0.5)
        assert est.stderr == pytest.approx(0.05)

    def test_rate_mean_duality(self):
        rng = np.random.default_rng(6)
        d = rng.exponential(1.7, 200)
        est = fit_rates(d)
        assert est.rate * d.mean() == pytest.approx(1.0, abs=1e-9)

    def test_sampled_exponential_recovery(self):
        rng = np.random.default_rng(7)
        d = rng.exponential(1.0 / 0.85, 150)
        est = fit_rates(d)
        assert abs(est.rate - 0.85) <= 3 * est.stderr

    def test_histogram_mode_agrees_roughly(self):
        rng = np.random.default_rng(8)
        d = rng.exponential(1.0 / 0.5, 4000)
        mle = fit_rates(d, "mle")
        hist = fit_rates(d, "histogram")
        assert hist.rate == pytest.approx(mle.rate, rel=0.2)

    def test_histogram_fit_matches_curve_fit_reference(self):
        from scipy.optimize import curve_fit

        def model(t, a, r):
            return a * np.exp(-r * t)

        samples = [np.random.default_rng(8).exponential(1.0 / 0.5, 4000)]
        for seed in range(3):
            tr = emit_telegraph(RATES, seed=seed)
            samples += dwell_times(smooth_and_threshold(tr), tr.dt)
        samples += [np.random.default_rng(100 + s).exponential(1.3, n)
                    for n in (20, 200, 1000) for s in range(2)]
        for d in samples:
            got = fit_rates(d, "histogram")
            counts, edges = np.histogram(d, bins="fd")
            keep = counts > 0
            t, y = 0.5 * (edges[:-1] + edges[1:])[keep], counts[keep]
            popt, pcov = curve_fit(model, t, y, p0=(float(counts.max()), 1.0 / d.mean()),
                                   maxfev=10000)
            assert got.rate == pytest.approx(popt[1], rel=1e-4)
            assert got.stderr == pytest.approx(math.sqrt(pcov[1, 1]), rel=5e-4)
            e = np.exp(-got.rate * t)
            cost = np.sum((y - (y @ e) / (e @ e) * e) ** 2)
            assert cost <= np.sum((y - model(t, *popt)) ** 2)

    def test_histogram_that_rises_has_no_fit(self):
        d = 3.0 - np.random.default_rng(1).exponential(0.5, 500).clip(0.0, 2.9)
        with pytest.raises(FitError, match="500 dwells"):
            fit_rates(d, "histogram")

    def test_degenerate_histogram_rejected(self):
        with pytest.raises(InputError):
            fit_rates(np.full(50, 2.0), "histogram")

    def test_too_few_dwells(self):
        with pytest.raises(InsufficientStatisticsError):
            fit_rates(np.array([1.0, 2.0]))


class TestPipeline:
    def test_rates_recovered_within_three_se(self):
        hits = 0
        for seed in range(10):
            res = analyze_trace(clean_trace(seed=seed))
            ok_bd = abs(res.rate_bright_to_dark.rate - RATES[0]) <= 3 * res.rate_bright_to_dark.stderr
            ok_db = abs(res.rate_dark_to_bright.rate - RATES[1]) <= 3 * res.rate_dark_to_bright.stderr
            hits += ok_bd and ok_db
        assert hits >= 9

    def test_window_sweep_stability(self):
        # count rates far from threshold so even the unsmoothed trace
        # classifies reliably; the sweep then probes smoothing bias alone
        tr = emit_telegraph(RATES, 6000.0, 150.0, True, 200.0, 0.005, 11)
        rates = []
        for w in (1, 3, 5, 9):
            res = analyze_trace(tr, window=w)
            rates.append(
                (res.rate_bright_to_dark.rate, res.rate_bright_to_dark.stderr,
                 res.rate_dark_to_bright.rate, res.rate_dark_to_bright.stderr)
            )
        base = rates[2]  # window 5
        for r in rates:
            assert abs(r[0] - base[0]) <= 3 * math.hypot(r[1], base[1])
            assert abs(r[2] - base[2]) <= 3 * math.hypot(r[3], base[3])

    def test_switch_count_monotone_in_window(self):
        for seed in range(20):
            tr = emit_telegraph(RATES, 6000.0, 150.0, True, 100.0, 0.005, seed)
            previous = None
            for w in (1, 3, 5, 9):
                states = smooth_and_threshold(tr, w, 1295.0)
                switches = int(np.count_nonzero(np.diff(states)))
                if previous is not None:
                    assert switches <= previous
                previous = switches


class TestEmitTelegraph:
    def test_deterministic_under_seed(self):
        a = clean_trace(seed=9, duration=20.0)
        b = clean_trace(seed=9, duration=20.0)
        assert (a.counts == b.counts).all()
        assert (a.timestamps == b.timestamps).all()

    def test_rejects_coarse_dt(self):
        with pytest.raises(InputError):
            emit_telegraph((10.0, 10.0), 2000.0, 600.0, True, 10.0, 0.05, 0)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(InputError):
            emit_telegraph((0.0, 0.5), 2000.0, 600.0, True, 10.0, 0.005, 0)

    def test_two_bins_is_the_shortest_trace(self, monkeypatch):
        assert emit_telegraph(RATES, duration=0.01, dt=0.005).counts.size == 2
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drawn"))
        with pytest.raises(InputError, match=r"duration / dt = 0.007 / 0.005 gives 1 bins"):
            emit_telegraph(RATES, duration=0.007, dt=0.005)

    # just above the cap, and a bin count that overflows to inf
    @pytest.mark.parametrize("duration, dt", [(MAX_TELEGRAPH_BINS * 0.005 + 0.01, 0.005),
                                              (1e308, 1e-10)])
    def test_bin_cap_checked_before_drawing_or_allocating(self, monkeypatch, duration, dt):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocation or draw reached past the cap")

        monkeypatch.setattr(np, "empty", no_alloc)
        monkeypatch.setattr(np.random, "default_rng", no_alloc)
        with pytest.raises(CapacityError, match="MAX_TELEGRAPH_BINS"):
            emit_telegraph(RATES, 3000.0, 600.0, True, duration, dt, 0)
