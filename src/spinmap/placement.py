"""Iterative branch-and-prune assignment of labeled spins to lattice sites.

Spins are placed one at a time in a chosen order, starting from the
on-axis anchor.  For each partial assignment, candidate sites for the next
spin are those whose SEDOR frequency |C_zz|/2 to every already-placed,
measured partner falls inside the per-pair tolerance window.  Every
surviving complete assignment is returned together with its residual and
the per-step solution counts.

SEDOR measures |C_zz| only, so all constraints compare magnitudes; signs
are never assumed.  Solutions related by lattice symmetries about the
anchor axis are collapsed to one representative per symmetry class during
the search (each partial tracks the residual stabilizer of its placed
sites) and reported with their symmetry orbit.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import DIPOLE_PREFACTOR
from .errors import CapacityError, ConnectivityError, InfeasibilityError, InputError
from .lattice import SiteTable
from .spinphys import DEFAULT_PHYSICS, Physics, dipolar_alpha, species_for_label

_SUBSPACE_MODES = ("ms_plus_3_2", "ms_minus_3_2", "averaged")


@dataclass(frozen=True)
class CouplingMeasurement:
    """One measured SEDOR oscillation frequency between two labeled spins."""

    spin_a: str
    spin_b: str
    f_ij: float  # Hz, >= 0
    sigma: float  # Hz, > 0
    subspace_mode: str = "averaged"

    def __post_init__(self):
        if self.spin_a == self.spin_b:
            raise InputError(f"self-coupling {self.spin_a!r}")
        if not (math.isfinite(self.f_ij) and math.isfinite(self.sigma)):
            raise InputError(f"f_ij and sigma must be finite, got {self.f_ij} and {self.sigma}")
        if self.f_ij < 0:
            raise InputError(f"f_ij must be >= 0, got {self.f_ij}")
        if self.sigma <= 0:
            raise InputError(f"sigma must be > 0, got {self.sigma}")
        if self.subspace_mode not in _SUBSPACE_MODES:
            raise InputError(f"unknown subspace_mode {self.subspace_mode!r}")

    @property
    def pair(self):
        return tuple(sorted((self.spin_a, self.spin_b)))


def check_min_detectable(value):
    """Raise InputError unless value is a coupling floor (Hz) >= 0; +inf, which
    no coupling reaches, is allowed, NaN is not."""
    if not value >= 0:
        raise InputError(f"min_detectable must be >= 0 and not NaN, got {value}")


@dataclass(frozen=True)
class PlacementConfig:
    tolerance_default: float = 0.6
    tolerance_overrides: dict = field(default_factory=dict)
    relative_tolerance_strong: float = 0.05
    strong_threshold: float = 35.0
    min_detectable: float = 3.0
    max_branches: int = 1_000_000
    anchor: str = "Si1"
    physics: Physics = DEFAULT_PHYSICS

    def __post_init__(self):
        norm = {tuple(sorted(k)): float(v) for k, v in self.tolerance_overrides.items()}
        checked = {name: getattr(self, name) for name in
                   ("tolerance_default", "relative_tolerance_strong", "strong_threshold")}
        checked.update({f"tolerance override {a}:{b}": v for (a, b), v in norm.items()})
        for name, value in checked.items():
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and > 0, got {value}")
        check_min_detectable(self.min_detectable)
        if not (isinstance(self.max_branches, numbers.Integral) and self.max_branches >= 1):
            raise InputError(f"max_branches must be an integer >= 1, got {self.max_branches}")
        object.__setattr__(self, "tolerance_overrides", norm)


@dataclass(frozen=True)
class PlacementSolution:
    assignment: dict  # label -> LatticeSite
    residual: float  # Hz^2
    branch_history: tuple  # solution count after each placement step
    orbit: frozenset  # site-index tuples (in assignment order) of the symmetry images

    @property
    def symmetry_multiplicity(self) -> int:
        return len(self.orbit)

    def positions(self):
        return {label: site.position for label, site in self.assignment.items()}


def tolerance_for_pair(pair, f_ij, config: PlacementConfig) -> float:
    """Tolerance window (Hz) for one measured pair."""
    key = tuple(sorted(pair))
    if key in config.tolerance_overrides:
        return config.tolerance_overrides[key]
    if f_ij > config.strong_threshold:
        return config.relative_tolerance_strong * f_ij
    return config.tolerance_default


def order_heuristic(measurements, anchor: str = "Si1"):
    """Greedy placement order: next is the label with the most couplings
    into the ordered set (ties: larger max coupling, then lexicographic)."""
    labels = sorted({m.spin_a for m in measurements} | {m.spin_b for m in measurements})
    if anchor not in labels:
        raise InputError(f"anchor {anchor!r} has no measurements")
    by_label = {lab: [] for lab in labels}
    for m in measurements:
        by_label[m.spin_a].append(m)
        by_label[m.spin_b].append(m)
    ordered = [anchor]
    placed = {anchor}
    remaining = [lab for lab in labels if lab != anchor]
    while remaining:
        best = None
        for lab in remaining:
            links = [m for m in by_label[lab] if (m.spin_a if m.spin_b == lab else m.spin_b) in placed]
            score = (len(links), max((m.f_ij for m in links), default=0.0))
            if score[0] == 0:
                continue
            # larger score wins; lexicographically smaller label wins ties
            if best is None or score > best[0] or (score == best[0] and lab < best[1]):
                best = (score, lab)
        if best is None:
            raise ConnectivityError(
                f"labels not connected to the placed set: {sorted(remaining)}"
            )
        ordered.append(best[1])
        placed.add(best[1])
        remaining.remove(best[1])
    return ordered


def minimum_search_radius(min_detectable: float, cluster_extent: float = 0.0,
                          physics: Physics = DEFAULT_PHYSICS) -> float:
    """Lattice radius guaranteeing no admissible candidate is missed.

    Beyond (2 alpha / min_detectable)^(1/3) from every placed spin, even an
    axial pair of the most strongly coupled species combination stays
    below min_detectable/2, so sites outside cluster_extent + that reach can
    never satisfy a constraint.
    """
    if min_detectable <= 0:
        raise InputError("min_detectable must be positive")
    nuclei = (physics.si29, physics.c13)
    alpha = max(abs(dipolar_alpha(a, b)) for a in nuclei for b in nuclei)
    return cluster_extent + (2.0 * alpha / min_detectable) ** (1.0 / 3.0)


class _FrequencyCache:
    """Vectorized |C_zz|/2 from one reference site to all sites of a species."""

    def __init__(self, table: SiteTable, physics: Physics):
        self.table = table
        self.physics = physics
        self._cache = {}

    def sedor(self, ref_index: int, species_name: str) -> np.ndarray:
        key = (ref_index, species_name)
        got = self._cache.get(key)
        if got is not None:
            return got
        table = self.table
        target_idx = table.by_species["Si" if species_name == "Si29" else "C"]
        alpha = dipolar_alpha(
            _site_species(table.species[ref_index], self.physics),
            self.physics.si29 if species_name == "Si29" else self.physics.c13,
        )
        d = table.positions[target_idx] - table.positions[ref_index]
        r2 = np.einsum("ij,ij->i", d, d)
        r2[r2 < 1e-18] = np.inf  # the reference site itself
        czz = alpha / r2**1.5 * (3.0 * d[:, 2] ** 2 / r2 - 1.0)
        f = 0.5 * np.abs(czz)
        self._cache[key] = f
        return f


def _site_species(lattice_species: str, physics: Physics):
    return physics.si29 if lattice_species == "Si" else physics.c13


def _step_windows(order, used, config):
    """Per placement step, the windows (partner step, f_ij, half-width) of the
    used measurements linking that step's label to an earlier one, in
    measurement order."""
    step_of = {lab: k for k, lab in enumerate(order)}
    windows = [[] for _ in order]
    for m in used:
        a, b = step_of[m.spin_a], step_of[m.spin_b]
        windows[max(a, b)].append((min(a, b), m.f_ij, tolerance_for_pair(m.pair, m.f_ij, config)))
    return windows


def _candidate_indices(table, cache, partial, windows, species_name):
    """Site indices (into table) admissible for the new spin given one partial
    and its step's windows."""
    target_idx = table.by_species["Si" if species_name == "Si29" else "C"]
    mask = np.ones(target_idx.size, dtype=bool)
    for step, centre, half in windows:
        f_vec = cache.sedor(partial[step], species_name)
        mask &= np.abs(f_vec - centre) <= half
        if not mask.any():
            return target_idx[:0]
    allowed = target_idx[mask]
    occupied = set(partial)
    return np.array([i for i in allowed if i not in occupied], dtype=int)


def _axial_ops():
    """The 12 candidate axial ops about z: rotations by k * 60 deg, then
    mirrors through the plane at k * 30 deg to x, k = 0..5."""
    ops = []
    for det in (1.0, -1.0):
        for k in range(6):
            t = k * math.pi / 3.0
            c, s = math.cos(t), math.sin(t)
            ops.append(np.array([[c, -det * s, 0.0], [s, det * c, 0.0], [0.0, 0.0, 1.0]]))
    return ops


def _table_symmetry_ops(table: SiteTable):
    """Axial point-group ops (about z through the vacancy) of the site set,
    found empirically on the sites within 7.5 A, so the result follows the
    table's stacking and k_variant: an op is kept when it maps that ball
    onto itself, species preserved."""
    ball = np.flatnonzero(np.linalg.norm(table.positions, axis=1) <= 7.5)
    members = set(ball.tolist())
    cands = _axial_ops()
    return [op for op, row in zip(cands, table.image_indices(cands, ball))
            if set(row) == members and (table.species[list(row)] == table.species[ball]).all()]


def _canonical_rep_indices(table: SiteTable, indices, ops, stab):
    """Keep one index per orbit under the ops numbered stab, and return each
    survivor's stabilizer (those of stab fixing that site)."""
    keep = []
    stabs = []
    seen_orbits = set()
    rows = table.image_indices([ops[oi] for oi in stab], indices)
    for i, images in zip(indices, zip(*rows)):
        orbit = frozenset(images)
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        keep.append(i)
        stabs.append(tuple(oi for oi, j in zip(stab, images) if j == i))
    return keep, stabs


def _orbit_info(table: SiteTable, partial, ops):
    """The images (site-index tuples) of a complete assignment under ops."""
    images = {row for row in table.image_indices(ops, partial) if None not in row}
    return frozenset(images or {tuple(partial)})


def canonical_assignment(table: SiteTable, partial, ops):
    return min(_orbit_info(table, partial, ops))


def truth_recovery(solutions, truth):
    """(whether a solution's orbit holds the truth, number of symmetry
    classes) of place_all's solutions; truth maps label -> site index."""
    recovered = any(tuple(truth[lab] for lab in sol.assignment) in sol.orbit for sol in solutions)
    return recovered, len({sol.orbit for sol in solutions})


def place_all(measurements, table: SiteTable, config: PlacementConfig):
    """Breadth-first branch-and-prune placement of all labeled spins.

    Returns every surviving complete assignment (one representative per
    axial-symmetry class, with its orbit), sorted by residual then
    site indices.  Deterministic for identical inputs.
    """
    used = [m for m in measurements if m.f_ij >= config.min_detectable]
    if not used:
        raise InputError("no measurements at or above min_detectable")
    order = order_heuristic(used, config.anchor)
    if species_for_label(config.anchor).name != "Si29":
        raise InputError("anchor must be a silicon label")

    cache = _FrequencyCache(table, config.physics)
    ops = _table_symmetry_ops(table)

    # each partial carries its residual stabilizer (indices into ops of the
    # symmetry operations fixing every placed site); candidates are reduced
    # to one representative per stabilizer orbit, so every symmetry class of
    # assignments is explored exactly once
    partials = [(table.anchor_index,)]
    stabilizers = [tuple(range(len(ops)))]
    history = [1]
    # order_heuristic gives every step from 1 on a window into earlier steps
    windows = _step_windows(order, used, config)
    for k, label in enumerate(order[1:], start=1):
        species_name = species_for_label(label).name
        new_partials = []
        new_stabs = []
        for partial, stab in zip(partials, stabilizers):
            idxs = _candidate_indices(table, cache, partial, windows[k], species_name)
            if len(stab) > 1:
                idxs, child_stabs = _canonical_rep_indices(table, idxs, ops, stab)
            else:
                child_stabs = [stab] * len(idxs)
            for i, cs in zip(idxs, child_stabs):
                new_partials.append(partial + (int(i),))
                new_stabs.append(cs)
            if len(new_partials) > config.max_branches:
                raise CapacityError(
                    f"branch count exceeded {config.max_branches} while placing "
                    f"{label!r} (step {k})"
                )
        if not new_partials:
            raise InfeasibilityError(
                f"no lattice site satisfies all couplings for {label!r} (step {k})"
            )
        partials = new_partials
        stabilizers = new_stabs
        history.append(len(partials))

    # residuals over all used measurements (the order places every used label)
    step_of = {lab: k for k, lab in enumerate(order)}
    step_a, step_b = np.array([(step_of[m.spin_a], step_of[m.spin_b]) for m in used]).T
    solutions = []
    for partial in partials:
        sites = np.array(partial)
        f_th = sedor_between(table, sites[step_a], sites[step_b], config.physics)
        res = 0.0
        for m, f in zip(used, f_th.tolist()):
            res += (m.f_ij - f) ** 2
        solutions.append((res, partial, _orbit_info(table, partial, ops)))
    solutions.sort(key=lambda t: (t[0], t[1]))
    out = []
    hist = tuple(history)
    site_of = {i: table.site(i) for i in set().union(*partials)}  # shared by the solutions
    for res, partial, orbit in solutions:
        assignment = {lab: site_of[i] for lab, i in zip(order, partial)}
        out.append(PlacementSolution(assignment, res, hist, orbit))
    return out


def sedor_between(table: SiteTable, i, j, physics: Physics) -> np.ndarray:
    """|C_zz|/2 (Hz) between sites i[k] and j[k] of the table, each value bit
    for bit as if its pair were evaluated alone.  So the powers use Python's
    (libm's) pow per element: numpy's array pow, and its x * x for ** 2,
    differ in the last bit for some values (5 % of r2 ** 1.5 on AVX-512)."""
    sp, pos = table.species, table.positions
    gs, gc = physics.si29.gyromagnetic_ratio, physics.c13.gyromagnetic_ratio
    alpha = DIPOLE_PREFACTOR * np.where(sp[i] == "Si", gs, gc) * np.where(sp[j] == "Si", gs, gc)
    d = pos[j] - pos[i]
    r2 = np.vecdot(d, d)  # d @ d per row
    r3 = np.array([x**1.5 for x in r2.tolist()])
    z2 = np.array([z**2 for z in d[:, 2].tolist()])
    return 0.5 * np.abs(alpha / r3 * (3.0 * z2 / r2 - 1.0))


def ambiguity_report(solutions):
    """Per-label distinct candidate sites across the surviving solutions.

    Labels with more than one distinct site are ambiguous.
    """
    sites = {}  # label -> {site key: site}
    for sol in solutions:
        for lab, site in sol.assignment.items():
            sites.setdefault(lab, {})[site.key()] = site
    return {
        lab: [by_key[k] for k in sorted(by_key)]
        for lab, by_key in sorted(sites.items())
        if len(by_key) > 1
    }
