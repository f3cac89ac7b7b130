"""Magnetic-field correction, electron g-factor estimation, and
DFT-vs-experiment hyperfine comparison.

The field scan re-inverts a spin's two-manifold frequency pair under
trial field corrections dB and minimizes the mismatch to a DFT reference;
the averaged dB rescales the assumed electron g-factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, CapacityError, InputError, InversionError
from .spinphys import FieldConfig, HyperfineTensor, SpinSpecies, invert_hyperfine

# The default field-correction grid (G): -GRID_SPAN..GRID_SPAN in GRID_STEP.
GRID_SPAN = 5.0
GRID_STEP = 0.01

# Most points field_correction_grid lays out.  Each point costs one hyperfine
# inversion per spin, about 11 us on 2 CPUs, so a scan stays near 10 s per
# spin: 1,000 times the default grid.
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class CalibrationResult:
    delta_b: float  # G, signed correction
    delta_b_uncertainty: float  # G
    g_factor: float
    g_uncertainty: float
    per_spin: dict  # label -> minimizing delta_b (G)


@dataclass(frozen=True)
class FieldScanResult:
    delta_b: float  # refined argmin (G)
    a_perp: float  # Hz at the minimum
    a_zz: float  # Hz at the minimum
    grid: np.ndarray  # scanned dB values (G)
    mismatch: np.ndarray  # objective per grid point (Hz)


def field_correction_grid(span: float, step: float) -> np.ndarray:
    """Field corrections -span..span (G) in steps of step, both ends included."""
    for flag, value in (("--grid-span", span), ("--grid-step", step)):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{flag} must be finite and > 0, got {value}")
    stop = span + 1e-12
    points = (stop + span) / step  # np.arange lays out ceil(points)
    if points > MAX_GRID_POINTS:
        raise CapacityError(f"a field grid of span {span} G in steps of {step} G has "
                            f"{points:.4g} points, above the cap of {MAX_GRID_POINTS} "
                            f"(MAX_GRID_POINTS)")
    if points <= 2:  # np.arange lays out ceil(points) < 3
        raise InputError(f"--grid-span {span} G and --grid-step {step} G give "
                         f"{math.ceil(points)} grid points; the scan needs at least 3")
    return np.arange(-span, stop, step)


def field_scan_min_aperp(
    f_plus: float,
    f_minus: float,
    dft_reference: HyperfineTensor,
    field: FieldConfig,
    species: SpinSpecies,
    delta_b_grid=None,
    subspaces=(1.5, -1.5),
) -> FieldScanResult:
    """Scan field corrections dB, re-invert the hyperfine pair at each, and
    return the dB minimizing |A_perp - A_perp,dft| (suited to in-plane spins
    whose transverse coupling should be minimal).
    """
    if delta_b_grid is None:
        delta_b_grid = field_correction_grid(GRID_SPAN, GRID_STEP)
    grid = np.asarray(delta_b_grid, dtype=float)
    if grid.size < 3:
        raise InputError("delta_b_grid needs at least 3 points")
    mism = np.full(grid.size, np.inf)
    a_zz = np.full(grid.size, np.nan)
    a_perp = np.full(grid.size, np.nan)
    for i, db in enumerate(grid):
        try:
            shifted = FieldConfig(field.b_z + db, field.b_x, field.b_y, field.g_electron)
            hf = invert_hyperfine(
                f_plus, f_minus, shifted, species, subspaces, clamp_negative=True
            )
        except InputError:
            continue
        a_zz[i] = hf.a_zz
        a_perp[i] = hf.a_perp
        mism[i] = abs(hf.a_perp - dft_reference.a_perp)
    if not np.isfinite(mism).any():
        raise InversionError("hyperfine inversion failed on every grid point")
    k = int(np.argmin(mism))
    if k == 0 or k == grid.size - 1 or not np.isfinite(mism[[k - 1, k + 1]]).all():
        raise BoundaryError(
            f"scan minimum at grid boundary (dB = {grid[k]:.3f} G); widen the grid"
        )
    # parabolic sub-grid refinement around the discrete minimum
    h = grid[k + 1] - grid[k]
    denom = mism[k + 1] - 2 * mism[k] + mism[k - 1]
    if denom > 0:
        db_ref = grid[k] - 0.5 * h * (mism[k + 1] - mism[k - 1]) / denom
    else:
        db_ref = grid[k]
    return FieldScanResult(float(db_ref), float(a_perp[k]), float(a_zz[k]), grid, mism)


def g_factor_from_delta_b(
    delta_b: float, delta_b_unc: float, b: float, g_baseline: float
) -> CalibrationResult:
    """Rescale the baseline g-factor by the relative field correction dB/B."""
    if b <= 0:
        raise InputError("field must be positive")
    g = g_baseline * (1.0 + delta_b / b)
    g_unc = abs(g_baseline) * abs(delta_b_unc) / b
    return CalibrationResult(delta_b, delta_b_unc, g, g_unc, {})


def calibrate_from_scans(
    scans: dict, delta_b_unc: float, field: FieldConfig
) -> CalibrationResult:
    """Combine per-spin field-scan minima into one g-factor estimate."""
    if not scans:
        raise InputError("no field scans supplied")
    per_spin = {lab: res.delta_b for lab, res in sorted(scans.items())}
    mean_db = float(np.mean(list(per_spin.values())))
    base = g_factor_from_delta_b(mean_db, delta_b_unc, field.b_z, field.g_electron)
    return CalibrationResult(
        base.delta_b, base.delta_b_uncertainty, base.g_factor, base.g_uncertainty, per_spin
    )


@dataclass(frozen=True)
class DftComparisonReport:
    rows: dict  # label -> {"a_zz_rel": float, "a_perp_rel": float, "sign_match": bool}
    missing: tuple  # labels present in only one input
    n_within_10pct: int  # spins with A_zz deviation <= 10%
    n_over_30pct: int  # spins with A_zz deviation > 30%
    sign_mismatches: tuple


def dft_comparison_report(experimental: dict, dft: dict) -> DftComparisonReport:
    """Per-spin relative deviations |exp - dft| / |dft| for A_zz and A_perp."""
    common = sorted(set(experimental) & set(dft))
    missing = tuple(sorted(set(experimental) ^ set(dft)))
    rows = {}
    sign_bad = []
    n10 = n30 = 0
    for lab in common:
        e, d = experimental[lab], dft[lab]
        azz_rel = abs(e.a_zz - d.a_zz) / abs(d.a_zz) if d.a_zz != 0 else math.inf
        aperp_rel = (
            abs(e.a_perp - d.a_perp) / abs(d.a_perp) if d.a_perp != 0 else math.inf
        )
        sign_match = (e.a_zz >= 0) == (d.a_zz >= 0)
        rows[lab] = {"a_zz_rel": azz_rel, "a_perp_rel": aperp_rel, "sign_match": sign_match}
        if not sign_match:
            sign_bad.append(lab)
        if azz_rel <= 0.10 + 1e-12:
            n10 += 1
        if azz_rel > 0.30 + 1e-12:
            n30 += 1
    return DftComparisonReport(rows, missing, n10, n30, tuple(sign_bad))
