"""Telegraph-signal analysis: smoothing, thresholding, dwell times, and
exponential rate fits for repetitive-readout photon time traces."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InputError, InsufficientStatisticsError

DEFAULT_THRESHOLD = 1295.0  # counts/s
DEFAULT_WINDOW = 5  # bins

# Most halvings and doublings of 1/mean(d) the histogram fit makes to bracket
# its rate.  Fitted rates of exponential samples lie within a factor of 5 of
# 1/mean(d); a factor of 2**64 runs out only where the cost keeps falling, as on
# a histogram that rises.
HISTOGRAM_BRACKET_STEPS = 64


@dataclass(frozen=True)
class TimeTrace:
    """Photon count-rate trace on a uniform time grid (s, counts/s)."""

    timestamps: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        if t.ndim != 1 or t.shape != c.shape or t.size < 2:
            raise InputError("trace needs matching 1-d timestamps and counts")
        steps = np.diff(t)
        if steps.min() <= 0:
            raise InputError("timestamps must be strictly increasing")
        if steps.max() - steps.min() > 1e-9:
            raise InputError("timestamps must be uniform to 1e-9 s")
        if c.min() < 0:
            raise InputError("counts must be >= 0")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "counts", c)

    @property
    def dt(self) -> float:
        return float(self.timestamps[1] - self.timestamps[0])


@dataclass(frozen=True)
class RateEstimate:
    rate: float  # Hz
    stderr: float  # Hz
    n: int


@dataclass(frozen=True)
class TelegraphResult:
    rate_bright_to_dark: RateEstimate
    rate_dark_to_bright: RateEstimate
    bright_dwells: np.ndarray
    dark_dwells: np.ndarray
    threshold: float
    smoothing_window: int


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; edge windows shrink to the available span."""
    if window < 1 or window % 2 == 0:
        raise InputError("window must be an odd positive bin count")
    v = np.asarray(values, dtype=float)
    if window > v.size:
        raise InputError(f"window {window} longer than trace ({v.size} bins)")
    if window == 1:
        return v.copy()
    half = window // 2
    cs = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(v.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, v.size)
    return (cs[hi] - cs[lo]) / (hi - lo)


def smooth_and_threshold(trace: TimeTrace, window: int = DEFAULT_WINDOW,
                         threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Boolean state sequence: True where the smoothed rate is bright
    (at or above threshold)."""
    return moving_average(trace.counts, window) >= threshold


def _runs(states: np.ndarray):
    """(value, length) run-length encoding."""
    s = np.asarray(states, dtype=bool)
    if s.size == 0:
        raise InputError("empty state sequence")
    edges = np.flatnonzero(np.diff(s)) + 1
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges, [s.size]])
    return [(bool(s[a]), int(b - a)) for a, b in zip(starts, ends)]


def dwell_times(states: np.ndarray, dt: float):
    """(bright dwells, dark dwells) in seconds.

    The first and last runs are censored by the trace edges and excluded.
    """
    if dt <= 0:
        raise InputError("dt must be positive")
    runs = _runs(states)[1:-1]
    bright = np.array([n * dt for v, n in runs if v])
    dark = np.array([n * dt for v, n in runs if not v])
    if bright.size < 3 or dark.size < 3:
        raise InsufficientStatisticsError(
            f"need >= 3 complete dwells per state, got {bright.size} bright / "
            f"{dark.size} dark"
        )
    return bright, dark


def fit_rates(dwells, method: str = "mle") -> RateEstimate:
    """Exponential rate from a dwell-time sample.

    mle: rate = 1/mean with standard error rate/sqrt(N).
    histogram: unweighted least-squares fit of a*exp(-r*t) to the occupied
    bins of the dwell-time histogram (Freedman-Diaconis bins), for parity
    with histogram-based analyses; FitError if no rate minimizes the cost.
    """
    d = np.asarray(dwells, dtype=float)
    if d.size < 3:
        raise InsufficientStatisticsError(f"need >= 3 dwells, got {d.size}")
    if d.min() <= 0:
        raise InputError("dwell times must be positive")
    if method == "mle":
        rate = 1.0 / d.mean()
        return RateEstimate(rate, rate / math.sqrt(d.size), int(d.size))
    if method != "histogram":
        raise InputError(f"unknown method {method!r}")
    if np.ptp(d) == 0:
        raise InputError("degenerate dwell sample (all equal); use mle")
    counts, edges = np.histogram(d, bins="fd")
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    if keep.sum() < 3:
        raise InsufficientStatisticsError("too few occupied histogram bins")
    t, y = centers[keep], counts[keep].astype(float)
    rate = _exponential_rate(t, y, 1.0 / d.mean(), d.size)
    e = np.exp(-rate * t)
    a = (y @ e) / (e @ e)
    resid = y - a * e
    # scipy curve_fit's default standard error, sqrt(s^2 [(J^T J)^-1]_rr) with
    # s^2 = RSS / (m - 2) and J = [e, -a t e], in closed form
    w = e * e
    spread = w @ (t - (t @ w) / w.sum()) ** 2
    err = math.sqrt((resid @ resid) / (t.size - 2) / (a * a * spread))
    return RateEstimate(float(rate), err, int(d.size))


def _exponential_rate(t, y, r0: float, n: int) -> float:
    """Rate r of the least-squares fit of a*exp(-r*t) to (t, y), by variable
    projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

    For fixed r the best a is (y.e)/(e.e) with e = exp(-r*t); the cost then
    falls while g(r) = (y.e)(t.e.e) - (t.e.y)(e.e) > 0 and rises while it is
    < 0.  The sign change is bracketed from r0 and bisected until the
    midpoint equals an end.
    """

    def g(r):
        e = np.exp(-r * t)
        return (y @ e) * (t @ (e * e)) - (t @ (e * y)) * (e @ e)

    lo = hi = r0
    for _ in range(HISTOGRAM_BRACKET_STEPS):
        if g(lo) <= 0:
            lo *= 0.5
        elif g(hi) >= 0:
            hi *= 2.0
        else:
            break
    else:
        raise FitError(f"histogram fit of {n} dwells: no rate within a factor of "
                       f"2**{HISTOGRAM_BRACKET_STEPS} of 1/mean minimizes the cost")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid


def analyze_trace(trace: TimeTrace, window: int = DEFAULT_WINDOW,
                  threshold: float = DEFAULT_THRESHOLD, method: str = "mle") -> TelegraphResult:
    """Full pipeline: smooth, threshold, dwell times, exponential rates."""
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold}")
    states = smooth_and_threshold(trace, window, threshold)
    bright, dark = dwell_times(states, trace.dt)
    return TelegraphResult(
        rate_bright_to_dark=fit_rates(bright, method),
        rate_dark_to_bright=fit_rates(dark, method),
        bright_dwells=bright,
        dark_dwells=dark,
        threshold=threshold,
        smoothing_window=window,
    )
