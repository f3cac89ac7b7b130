"""Synthetic ground-truth clusters, noisy coupling tables, and telegraph
traces.  Everything is deterministic under its seed.

The noisy coupling generator defaults to a Gaussian noise model truncated
at 3 sigma, matching the reading of the placement tolerance window as a
3-sigma bound; unbounded Gaussian and uniform models are available for
worst-case studies.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CapacityError, InputError
from .lattice import SiteTable
from .placement import CouplingMeasurement, check_min_detectable, sedor_between
from .spinphys import DEFAULT_PHYSICS, Physics

MAX_TRIES = 40  # deterministic redraws of a cluster before giving up

SPREAD_TARGET = 24  # Si sites drawn
SPREAD_MIN_SEPARATION = 4.2  # A between any two of them
SPREAD_BALL_RADIUS = 12.5  # A from the vacancy
SPREAD_MIN_DEGREE = 4  # couplings each kept spin needs ...
SPREAD_MIN_DETECTABLE = 3.0  # ... at or above this (Hz)
SPREAD_MIN_CORE = 10  # spins the prune must leave

SEED_R_MIN, SEED_R_MAX = 4.0, 11.0  # A: radii of the shell cluster seeds are drawn from
SEED_MIN_SEPARATION = 6.5  # A between any two seeds ...
SEED_MAX_LINK = 8.5  # ... and at most this from the nearest earlier seed
SEED_ATTEMPTS = 400  # seed draws before giving up

# Most bins emit_telegraph lays out.  The state, rate, count and time arrays
# take about 40 bytes a bin, so this keeps a trace under about 400 MB: 250
# times the default 200 s trace at 5 ms.
MAX_TELEGRAPH_BINS = 10_000_000


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "gaussian"  # gaussian | uniform | none
    amplitude: float = 0.2  # Hz (sigma for gaussian, half-width for uniform)
    truncate_sigmas: float = 3.0  # gaussian only; None disables truncation

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "none"):
            raise InputError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InputError(f"noise amplitude must be finite and >= 0, got {self.amplitude}")
        t = self.truncate_sigmas
        if t is not None and not (math.isfinite(t) and t >= 1):
            raise InputError(f"truncate_sigmas must be None or finite and >= 1, got {t}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "none" or self.amplitude == 0.0:
            return np.zeros(n)
        if self.kind == "uniform":
            return rng.uniform(-self.amplitude, self.amplitude, n)
        x = rng.normal(0.0, self.amplitude, n)
        if self.truncate_sigmas is not None:
            cap = self.truncate_sigmas * self.amplitude
            while True:
                bad = np.abs(x) > cap
                if not bad.any():
                    break
                x[bad] = rng.normal(0.0, self.amplitude, int(bad.sum()))
        return x

    @property
    def sigma(self) -> float:
        if self.kind == "uniform":
            return self.amplitude / math.sqrt(3.0)
        return max(self.amplitude, 1e-6)


@dataclass(frozen=True)
class ClusterStructure:
    kind: str = "clustered"  # clustered | random
    n_clusters: int = 4
    size_min: int = 5
    size_max: int = 7

    def __post_init__(self):
        if self.kind not in ("clustered", "random"):
            raise InputError(f"unknown structure kind {self.kind!r}")
        if self.kind == "clustered" and not (1 <= self.size_min <= self.size_max):
            raise InputError("cluster sizes must satisfy 1 <= size_min <= size_max")


def _seed_tuple(seed):
    """Flatten a seed (int or nested ints >= 0) for numpy's Generator."""
    if isinstance(seed, (tuple, list)):
        out = []
        for s in seed:
            out.extend(_seed_tuple(s))
        return tuple(out)
    if int(seed) < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return (int(seed),)


@dataclass(frozen=True)
class SyntheticCluster:
    """Ground-truth assignment of labels to the sites of one SiteTable."""

    table: InitVar[SiteTable]
    index: dict  # label -> site index in table
    noise_model: NoiseModel
    seed: tuple
    cluster_of: dict = field(default_factory=dict)  # label -> cluster id
    truth: dict = field(init=False)  # label -> LatticeSite, table's site index[label]

    def __post_init__(self, table):
        object.__setattr__(self, "truth", {lab: table.site(i) for lab, i in self.index.items()})

    def positions(self):
        return {lab: site.position for lab, site in self.truth.items()}


def _pick_cluster_seeds(table, rng, anchor_idx, n_clusters):
    """Deterministically sample cluster seed sites around the anchor.

    Seeds are mutually separated by at least SEED_MIN_SEPARATION and each new
    seed lies within SEED_MAX_LINK of an existing one so inter-cluster
    couplings stay measurable.
    """
    pos, r = table.positions, table.radii
    pool = np.flatnonzero((r >= SEED_R_MIN) & (r <= SEED_R_MAX))
    seeds = [anchor_idx]
    for _ in range(SEED_ATTEMPTS):
        if len(seeds) == n_clusters:
            break
        cand = int(rng.choice(pool))
        d = np.linalg.norm(pos[seeds] - pos[cand], axis=1)
        if d.min() >= SEED_MIN_SEPARATION and d.min() <= SEED_MAX_LINK:
            seeds.append(cand)
    if len(seeds) < n_clusters:
        raise InputError(
            f"found {len(seeds)} of {n_clusters} cluster seeds in {SEED_ATTEMPTS} draws "
            f"(SEED_ATTEMPTS) from the {SEED_R_MIN:g}-{SEED_R_MAX:g} A shell (SEED_R_MIN, "
            f"SEED_R_MAX), each at least {SEED_MIN_SEPARATION:g} A from every earlier seed "
            f"and at most {SEED_MAX_LINK:g} A from the nearest; the shell does not grow "
            f"with the lattice"
        )
    return seeds


def _distance_row(positions, i):
    """Distance (A) from site i to every site: np.linalg.norm(positions -
    positions[i], axis=1) bit for bit, the squares summed in x, y, z order,
    without gathering the (n, 3) difference array."""
    x, y, z = positions.T
    dx, dy, dz = x - x[i], y - y[i], z - z[i]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _nearest(d, m):
    """Indices of the m smallest entries of d in np.argsort(d, kind="stable")
    order, ties included; only the entries at or below the m-th smallest are
    sorted."""
    if m >= d.size:
        return np.argsort(d, kind="stable")
    k = max(m, 1) - 1
    near = np.flatnonzero(d <= np.partition(d, k)[k])
    return near[np.argsort(d[near], kind="stable")][:m]


def _draw_indices(table, n_si, n_c, structure, seed):
    """(label -> site index, label -> cluster id) of generate_cluster's draw."""
    if n_si < 1:
        raise InputError("need at least the Si1 anchor (n_si >= 1)")
    if n_c < 0:
        raise InputError(f"carbon count must be >= 0, got n_c = {n_c}")
    rng = np.random.default_rng(_seed_tuple(seed))
    anchor_idx = table.anchor_index
    n_total = n_si + n_c
    si_idx_all = table.by_species["Si"]
    c_idx_all = table.by_species["C"]
    if n_si > si_idx_all.size or n_c > c_idx_all.size:
        raise InputError("requested more spins than lattice sites available")

    chosen_si, chosen_c = [anchor_idx], []
    cluster_of_site = {anchor_idx: 0}

    if structure.kind == "random":
        r = table.radii
        ball = 12.0
        si_pool = si_idx_all[(r[si_idx_all] <= ball) & (si_idx_all != anchor_idx)]
        c_pool = c_idx_all[r[c_idx_all] <= ball]
        if n_si - 1 > si_pool.size or n_c > c_pool.size:
            raise InputError(
                f"the {ball} A ball holds {si_pool.size} Si sites besides the anchor and "
                f"{c_pool.size} C sites; {n_si - 1} and {n_c} requested"
            )
        chosen_si += [int(i) for i in rng.choice(si_pool, size=n_si - 1, replace=False)]
        chosen_c += [int(i) for i in rng.choice(c_pool, size=n_c, replace=False)]
        cluster_of_site.update({i: 0 for i in chosen_si + chosen_c})
    else:
        k = structure.n_clusters
        if not (k * structure.size_min <= n_total <= k * structure.size_max):
            raise InputError(
                f"{n_total} spins cannot split into {k} clusters of "
                f"{structure.size_min}-{structure.size_max}"
            )
        sizes = [structure.size_min] * k
        i = 0
        while sum(sizes) < n_total:
            sizes[i % k] += 1
            i += 1
        # each carbon goes to a uniformly drawn cluster
        c_in_cluster = [0] * k
        for i in range(n_c):
            c_in_cluster[int(rng.integers(0, k))] += 1
        for ci, (size, n_c_here) in enumerate(zip(sizes, c_in_cluster)):
            room = size - 1 if ci == 0 else size  # cluster 0's size counts the Si1 anchor
            if n_c_here > room:
                raise InputError(f"cluster {ci} of {size} spins has room for {room} carbons, "
                                 f"but {n_c_here} were drawn into it")
        seeds = _pick_cluster_seeds(table, rng, anchor_idx, k)
        taken = {anchor_idx}
        pos = table.positions
        per_species = [(si_idx_all, chosen_si), (c_idx_all, chosen_c)]
        for ci, (seed_idx, size) in enumerate(zip(seeds, sizes)):
            n_c_here = c_in_cluster[ci]
            n_si_here = size - n_c_here
            if ci == 0:
                n_si_here -= 1  # anchor already counted
            d_all = _distance_row(pos, seed_idx)
            for (idx_all, chosen), n in zip(per_species, (n_si_here, n_c_here)):
                if n == 0:
                    continue
                d = d_all[idx_all]
                # the n nearest free sites lie among the n + len(taken) nearest
                for j in _nearest(d, n + len(taken)):
                    if n == 0:
                        break
                    cand = int(idx_all[j])
                    if cand in taken:
                        continue
                    taken.add(cand)
                    chosen.append(cand)
                    cluster_of_site[cand] = ci
                    n -= 1
        if len(chosen_si) != n_si or len(chosen_c) != n_c:
            raise InputError("lattice too small for the requested cluster layout")

    index = {f"Si{n}": i for n, i in enumerate(chosen_si, start=1)}
    index.update({f"C{n}": i for n, i in enumerate(chosen_c, start=1)})
    return index, {lab: cluster_of_site[i] for lab, i in index.items()}


def generate_cluster(
    table: SiteTable,
    n_si: int,
    n_c: int,
    structure: ClusterStructure = ClusterStructure(),
    seed: int = 0,
) -> SyntheticCluster:
    """Choose ground-truth sites for n_si silicon and n_c carbon spins.

    The anchor label Si1 always sits on the on-axis reference site.  In
    clustered mode, spins grow as compact neighborhoods around n_clusters
    seed sites (first seed = anchor); sizes are balanced within
    [size_min, size_max].
    """
    index, cluster_of = _draw_indices(table, n_si, n_c, structure, seed)
    return SyntheticCluster(table, index, NoiseModel(), _seed_tuple(seed), cluster_of)


def generate_spread_cluster(table: SiteTable, seed: int = 0, noise: NoiseModel = NoiseModel(),
                            physics: Physics = DEFAULT_PHYSICS) -> SyntheticCluster:
    """Loosely packed all-silicon cluster for refinement studies.

    Samples up to SPREAD_TARGET Si sites with pairwise separation above
    SPREAD_MIN_SEPARATION inside SPREAD_BALL_RADIUS, then prunes spins until
    every remaining spin has at least SPREAD_MIN_DEGREE noiseless couplings >=
    SPREAD_MIN_DETECTABLE.  The surviving core (>= SPREAD_MIN_CORE spins,
    anchor always kept) carries mostly weak couplings, so refined positions
    respond to noise on the angstrom scale.  Retries deterministically when
    the prune cascades below SPREAD_MIN_CORE.
    """
    anchor_idx = table.anchor_index
    pos, r = table.positions, table.radii
    pool = [int(i) for i in table.by_species["Si"] if r[i] <= SPREAD_BALL_RADIUS]

    def degrees(nodes):
        """Detectable couplings of each node, by its position in nodes."""
        a, b = np.triu_indices(len(nodes), 1)
        sites = np.array(nodes)
        strong = sedor_between(table, sites[a], sites[b], physics) >= SPREAD_MIN_DETECTABLE
        return (np.bincount(a[strong], minlength=len(nodes))
                + np.bincount(b[strong], minlength=len(nodes))).tolist()

    for attempt in range(MAX_TRIES):
        rng = np.random.default_rng(_seed_tuple(seed) + (attempt, 0x5B12EAD))
        chosen = [anchor_idx]
        for _ in range(8000):
            if len(chosen) >= SPREAD_TARGET:
                break
            cand = int(rng.choice(pool))
            if np.linalg.norm(pos[chosen] - pos[cand], axis=1).min() >= SPREAD_MIN_SEPARATION:
                chosen.append(cand)
        # the survivors are the largest set in which every spin but the anchor
        # (nodes[0]) keeps SPREAD_MIN_DEGREE, whatever order weak spins go in
        nodes = chosen
        while True:
            deg = degrees(nodes)
            keep = [x == 0 or n >= SPREAD_MIN_DEGREE for x, n in enumerate(deg)]
            if all(keep):
                break
            nodes = [i for i, k in zip(nodes, keep) if k]
        if len(nodes) >= SPREAD_MIN_CORE and deg[0] >= 1:
            index = {f"Si{n}": i for n, i in enumerate(nodes, start=1)}
            cluster_of = dict.fromkeys(index, 0)
            return SyntheticCluster(table, index, noise, _seed_tuple(seed), cluster_of)
    raise InputError(
        f"no spread cluster with >= {SPREAD_MIN_CORE} spins found in {MAX_TRIES} "
        f"attempts for seed {seed}"
    )


def _truth_pair_sedor(index, table: SiteTable, physics: Physics):
    """Sorted labels of index (label -> site index), the label indices (a, b)
    of every pair a < b in row order, and each pair's noiseless |C_zz|/2."""
    labels = sorted(index)
    sites = np.array([index[lab] for lab in labels])
    a, b = np.triu_indices(len(labels), 1)
    return labels, a, b, sedor_between(table, sites[a], sites[b], physics)


def emit_couplings(cluster: SyntheticCluster, table: SiteTable, min_detectable: float = 3.0,
                   noise: NoiseModel = None, seed: int = None,
                   physics: Physics = DEFAULT_PHYSICS):
    """Noisy SEDOR table for all pairs whose measured frequency is at or
    above min_detectable.  Format-identical to the placement input."""
    check_min_detectable(min_detectable)
    noise = cluster.noise_model if noise is None else noise
    seed = cluster.seed if seed is None else seed
    rng = np.random.default_rng(_seed_tuple(seed) + (0xC0FFEE,))
    labels, a, b, f_true = _truth_pair_sedor(cluster.index, table, physics)
    f_meas = f_true + noise.draw(rng, f_true.size)
    return [
        CouplingMeasurement(labels[x], labels[y], f, noise.sigma, "averaged")
        for x, y, f in zip(a.tolist(), b.tolist(), f_meas.tolist())
        if f >= min_detectable
    ]


def truth_graph_connected(index, table: SiteTable, min_detectable: float = 3.0,
                          physics: Physics = DEFAULT_PHYSICS) -> bool:
    """True when the noiseless coupling graph of a cluster's label -> site
    index connects every spin to Si1."""
    check_min_detectable(min_detectable)
    labels, a, b, f = _truth_pair_sedor(index, table, physics)
    a, b = a[f >= min_detectable], b[f >= min_detectable]
    seen = np.array([lab == "Si1" for lab in labels])
    while True:  # add every spin coupled to a seen one, until nothing is added
        grown = seen.copy()
        grown[b[seen[a]]] = grown[a[seen[b]]] = True
        if (grown == seen).all():
            return bool(seen.all())
        seen = grown


def generate_connected_cluster(table, n_si, n_c, structure=ClusterStructure(),
                               seed=0, noise=NoiseModel(), min_detectable=3.0,
                               physics=DEFAULT_PHYSICS):
    """generate_cluster, retried deterministically until the noiseless
    coupling graph is connected from the anchor."""
    for t in range(MAX_TRIES):
        index, cluster_of = _draw_indices(table, n_si, n_c, structure, (seed, t))
        if truth_graph_connected(index, table, min_detectable, physics):
            return SyntheticCluster(table, index, noise, _seed_tuple((seed, t)), cluster_of)
    raise InputError(
        f"no connected cluster found in {MAX_TRIES} attempts for seed {seed}"
    )


def emit_telegraph(rates, bright_cps: float = 3000.0, dark_cps: float = 600.0,
                   shot_noise: bool = True, duration: float = 200.0,
                   dt: float = 0.005, seed: int = 0):
    """Markov telegraph photon trace sampled on a uniform dt grid.

    rates = (bright_to_dark, dark_to_bright) in Hz; per-bin counts are
    Poisson at the current state's count rate (or exact when shot_noise is
    off).  Returns a telegraph.TimeTrace.
    """
    from .telegraph import TimeTrace

    gamma_bd, gamma_db = rates
    for name, value in (("bright_to_dark rate", gamma_bd), ("dark_to_bright rate", gamma_db),
                        ("dt", dt), ("duration", duration)):
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and positive, got {value}")
    for name, value in (("bright_cps", bright_cps), ("dark_cps", dark_cps)):
        if not (math.isfinite(value) and value >= 0):
            raise InputError(f"{name} must be finite and >= 0, got {value}")
    if dt >= 0.1 / max(gamma_bd, gamma_db):
        raise InputError("dt must be below min(1/rates)/10")
    bins = duration / dt
    if bins > MAX_TELEGRAPH_BINS:
        raise CapacityError(f"duration / dt asks for {bins:.4g} bins, above the cap of "
                            f"{MAX_TELEGRAPH_BINS} (MAX_TELEGRAPH_BINS)")
    n = int(round(bins))
    if n < 2:
        raise InputError(f"duration / dt = {duration} / {dt} gives {n} bins; a trace "
                         f"needs at least 2")
    rng = np.random.default_rng(_seed_tuple(seed) + (0x7E1E,))
    p_bright = gamma_db / (gamma_bd + gamma_db)
    state = bool(rng.random() < p_bright)
    states = np.empty(n, dtype=bool)
    i = 0
    t_next = rng.exponential(1.0 / (gamma_bd if state else gamma_db))
    t = 0.0
    while i < n:
        # fill bins until the next switch
        n_fill = min(n - i, max(1, int((t_next - t) / dt)))
        if t + n_fill * dt > t_next and n_fill > 1:
            n_fill = max(1, int((t_next - t) / dt))
        states[i:i + n_fill] = state
        i += n_fill
        t += n_fill * dt
        if t >= t_next:
            state = not state
            t_next = t + rng.exponential(1.0 / (gamma_bd if state else gamma_db))
    cps = np.where(states, bright_cps, dark_cps)
    if shot_noise:
        counts = rng.poisson(cps * dt) / dt
    else:
        counts = cps.astype(float)
    times = np.arange(n) * dt
    return TimeTrace(times, counts)
