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
sites) and reported with their symmetry multiplicity.
"""

import math
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
        if self.tolerance_default <= 0:
            raise InputError("tolerance_default must be > 0")
        if self.strong_threshold <= 0:
            raise InputError("strong_threshold must be > 0")
        norm = {tuple(sorted(k)): float(v) for k, v in self.tolerance_overrides.items()}
        object.__setattr__(self, "tolerance_overrides", norm)


@dataclass(frozen=True)
class PlacementSolution:
    assignment: dict  # label -> LatticeSite
    residual: float  # Hz^2
    branch_history: tuple  # solution count after each placement step
    symmetry_multiplicity: int = 1

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


def find_anchor_site(table: SiteTable) -> int:
    """Index of the on-axis Si site with the smallest positive z."""
    pos = table.positions
    on_axis = (np.hypot(pos[:, 0], pos[:, 1]) < 1e-6) & (pos[:, 2] > 0) & (
        table.species == "Si"
    )
    idx = np.flatnonzero(on_axis)
    if idx.size == 0:
        raise InputError("lattice contains no on-axis Si site above the vacancy")
    return int(idx[np.argmin(pos[idx, 2])])


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


def _constraints_for(new_label, placed_labels, measurements, config):
    """[(index into placed order, f_ij, tol)] for measurements linking
    new_label into the placed set (couplings below min_detectable ignored)."""
    pos_of = {lab: i for i, lab in enumerate(placed_labels)}
    cons = []
    for m in measurements:
        if m.f_ij < config.min_detectable:
            continue
        if m.spin_a == new_label and m.spin_b in pos_of:
            other = m.spin_b
        elif m.spin_b == new_label and m.spin_a in pos_of:
            other = m.spin_a
        else:
            continue
        cons.append((pos_of[other], m.f_ij, tolerance_for_pair(m.pair, m.f_ij, config)))
    return cons


def _candidate_indices(table, cache, partial, cons, species_name):
    """Site indices (into table) admissible for the new spin given one partial."""
    target_idx = table.by_species["Si" if species_name == "Si29" else "C"]
    mask = np.ones(target_idx.size, dtype=bool)
    for placed_pos, f_ij, tol in cons:
        f_vec = cache.sedor(partial[placed_pos], species_name)
        mask &= np.abs(f_vec - f_ij) <= tol
        if not mask.any():
            return target_idx[:0]
    allowed = target_idx[mask]
    occupied = set(partial)
    return np.array([i for i in allowed if i not in occupied], dtype=int)


def candidate_sites(placed, new_label, measurements, table: SiteTable, config: PlacementConfig):
    """Admissible sites for new_label given already-placed spins.

    placed: mapping label -> LatticeSite.
    """
    placed_labels = list(placed.keys())
    partial = []
    for lab in placed_labels:
        idx = table.index_of_site(placed[lab])
        if idx is None:
            raise InputError(f"placed site for {lab!r} is not in the lattice")
        partial.append(idx)
    cons = _constraints_for(new_label, placed_labels, measurements, config)
    if not cons:
        raise ConnectivityError(
            f"{new_label!r} has no measured coupling above "
            f"{config.min_detectable} Hz to any placed spin"
        )
    species_name = species_for_label(new_label).name
    idxs = _candidate_indices(
        table, _FrequencyCache(table, config.physics), tuple(partial), cons, species_name
    )
    return [table.site(i) for i in idxs]


def _table_symmetry_ops(table: SiteTable):
    """Axial point-group ops (about z through the vacancy) of the site set,
    found empirically on the sites within 7.5 A, so the result follows the
    table's stacking and k_variant."""
    r = np.linalg.norm(table.positions, axis=1)
    sel = r <= 7.5
    species, pos = table.species[sel], table.positions[sel]
    ref = {(sp, *table._pos_key(p)) for sp, p in zip(species, pos)}
    ops = []
    cands = []
    for k in range(6):
        t = k * math.pi / 3.0
        cands.append(np.array([[math.cos(t), -math.sin(t), 0.0],
                               [math.sin(t), math.cos(t), 0.0],
                               [0.0, 0.0, 1.0]]))
    for k in range(6):
        t = k * math.pi / 6.0
        cands.append(np.array([[math.cos(2 * t), math.sin(2 * t), 0.0],
                               [math.sin(2 * t), -math.cos(2 * t), 0.0],
                               [0.0, 0.0, 1.0]]))
    for op in cands:
        mapped = {(sp, *table._pos_key(q)) for sp, q in zip(species, pos @ op.T)}
        if mapped == ref:
            ops.append(op)
    return ops


def _canonical_rep_indices(table: SiteTable, indices, ops):
    """Keep one index per orbit under ops, and return each survivor's
    stabilizer (the ops fixing that site)."""
    keep = []
    stabs = []
    seen_orbits = set()
    for i in indices:
        p = table.positions[i]
        key = table._pos_key(p)
        images = []
        stab = []
        for oi, op in enumerate(ops):
            qkey = table._pos_key(op @ p)
            images.append(qkey)
            if qkey == key:
                stab.append(oi)
        orbit = frozenset(images)
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        keep.append(i)
        stabs.append(tuple(stab))
    return keep, stabs


def _orbit_info(table: SiteTable, partial, ops):
    """(canonical tuple, orbit size) of a complete assignment under ops."""
    images = set()
    for op in ops:
        mapped = []
        ok = True
        for i in partial:
            j = table.index_of_position(op @ table.positions[i])
            if j is None:
                ok = False
                break
            mapped.append(j)
        if ok:
            images.add(tuple(mapped))
    if not images:
        images = {tuple(partial)}
    return min(images), len(images)


def canonical_assignment(table: SiteTable, partial, ops):
    return _orbit_info(table, partial, ops)[0]


def place_all(measurements, table: SiteTable, config: PlacementConfig):
    """Breadth-first branch-and-prune placement of all labeled spins.

    Returns every surviving complete assignment (one representative per
    axial-symmetry class, multiplicity recorded), sorted by residual then
    site indices.  Deterministic for identical inputs.
    """
    used = [m for m in measurements if m.f_ij >= config.min_detectable]
    if not used:
        raise InputError("no measurements at or above min_detectable")
    order = order_heuristic(used, config.anchor)
    if species_for_label(config.anchor).name != "Si29":
        raise InputError("anchor must be a silicon label")

    anchor_idx = find_anchor_site(table)
    cache = _FrequencyCache(table, config.physics)
    ops = _table_symmetry_ops(table)

    # each partial carries its residual stabilizer (indices into ops of the
    # symmetry operations fixing every placed site); candidates are reduced
    # to one representative per stabilizer orbit, so every symmetry class of
    # assignments is explored exactly once
    partials = [(anchor_idx,)]
    stabilizers = [tuple(range(len(ops)))]
    history = [1]
    for k, label in enumerate(order[1:], start=1):
        placed_labels = order[:k]
        cons = _constraints_for(label, placed_labels, used, config)
        if not cons:
            raise ConnectivityError(
                f"{label!r} (step {k}) has no coupling into the placed set"
            )
        species_name = species_for_label(label).name
        new_partials = []
        new_stabs = []
        for partial, stab in zip(partials, stabilizers):
            idxs = _candidate_indices(table, cache, partial, cons, species_name)
            if len(stab) > 1:
                idxs, child_stabs = _canonical_rep_indices(
                    table, idxs, [ops[oi] for oi in stab]
                )
                child_stabs = [tuple(stab[j] for j in cs) for cs in child_stabs]
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
        canon, mult = _orbit_info(table, partial, ops)
        solutions.append((res, partial, mult))
    solutions.sort(key=lambda t: (t[0], t[1]))
    out = []
    hist = tuple(history)
    site_of = {i: table.site(i) for i in set().union(*partials)}  # shared by the solutions
    for res, partial, mult in solutions:
        assignment = {lab: site_of[i] for lab, i in zip(order, partial)}
        out.append(PlacementSolution(assignment, res, hist, mult))
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
    if not solutions:
        return {}
    sites = {}
    for sol in solutions:
        for lab, site in sol.assignment.items():
            sites.setdefault(lab, set()).add(site.key())
    by_key = {}
    for sol in solutions:
        for lab, site in sol.assignment.items():
            by_key[(lab, site.key())] = site
    return {
        lab: [by_key[(lab, k)] for k in sorted(keys)]
        for lab, keys in sorted(sites.items())
        if len(keys) > 1
    }
