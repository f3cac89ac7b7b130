"""4H-SiC crystal lattice generation around a silicon-vacancy origin.

The lattice is hexagonal (a, a, c; gamma = 120 deg) with one Si-C bilayer
per stacking letter.  Stacking "ABCB" gives the 4H polytype: 8 basis atoms
(4 Si + 4 C) per unit cell.  The coordinate origin sits on a quasi-cubic
(k) silicon site, which is removed from every generated lattice (the
vacancy).  z runs along the crystal c-axis; all distances in angstrom.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, InputError

# Lateral offsets of the three close-packing positions, in fractional
# coordinates of the hexagonal in-plane lattice vectors.
_STACK_XY = {"A": (0.0, 0.0), "B": (1.0 / 3.0, 2.0 / 3.0), "C": (2.0 / 3.0, 1.0 / 3.0)}

# Fraction of one bilayer spacing separating the C atom from the Si atom
# below it (ideal tetrahedral value).
_BOND_FRACTION = 0.75

SPECIES_SI = "Si"
SPECIES_C = "C"


@dataclass(frozen=True)
class LatticeParams:
    """Hexagonal cell constants plus the bilayer stacking sequence.

    k_variant selects which of the inequivalent quasi-cubic Si layers hosts
    the vacancy (the experiment does not distinguish them).
    """

    a: float = 3.073
    c: float = 10.053
    stacking: str = "ABCB"
    k_variant: int = 0
    max_sites: int = 500_000

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c) and min(self.a, self.c) > 0):
            raise InputError(f"lattice constants must be finite and positive, got a={self.a}, c={self.c}")
        if len(self.stacking) < 2 or any(ch not in _STACK_XY for ch in self.stacking):
            raise InputError(f"stacking must use letters A/B/C, got {self.stacking!r}")
        n = len(self.stacking)
        for i in range(n):
            if self.stacking[i] == self.stacking[(i + 1) % n]:
                raise InputError(f"adjacent stacking layers must differ: {self.stacking!r}")
        ideal = n * math.sqrt(2.0 / 3.0)  # ideal close-packed bilayer height
        ratio = self.c / self.a
        if abs(ratio - ideal) > 0.05 * ideal:
            raise InputError(
                f"c/a = {ratio:.4f} deviates more than 5% from ideal {ideal:.4f} "
                f"for {n}-layer stacking"
            )
        if not self.k_layers():
            raise InputError(f"stacking {self.stacking!r} has no quasi-cubic layer")
        if self.k_variant not in range(len(self.k_layers())):
            raise InputError(f"k_variant must index into {self.k_layers()}")

    def k_layers(self):
        """Indices of quasi-cubic bilayers (letters above and below differ)."""
        s = self.stacking
        n = len(s)
        return tuple(i for i in range(n) if s[(i - 1) % n] != s[(i + 1) % n])

    @property
    def n_layers(self) -> int:
        return len(self.stacking)

    @property
    def origin_layer(self) -> int:
        return self.k_layers()[self.k_variant]

    def cell_vectors(self) -> np.ndarray:
        """Rows are the lattice vectors a1, a2, a3 in cartesian angstrom."""
        return np.array(
            [
                [self.a, 0.0, 0.0],
                [-0.5 * self.a, 0.5 * math.sqrt(3.0) * self.a, 0.0],
                [0.0, 0.0, self.c],
            ]
        )

    def basis(self):
        """(species, frac_x, frac_y, frac_z) for the atoms of one unit cell.

        Basis index 0..n-1 are the Si atoms (one per bilayer, bottom up),
        n..2n-1 the C atoms in the same order.
        """
        n = self.n_layers
        rows = []
        for i, letter in enumerate(self.stacking):
            fx, fy = _STACK_XY[letter]
            rows.append((SPECIES_SI, fx, fy, i / n))
        for i, letter in enumerate(self.stacking):
            fx, fy = _STACK_XY[letter]
            rows.append((SPECIES_C, fx, fy, i / n + _BOND_FRACTION / n))
        return rows

    def origin_fractional(self):
        """Fractional coordinates of the vacancy (a k-site Si atom)."""
        layer = self.origin_layer
        fx, fy = _STACK_XY[self.stacking[layer]]
        return (fx, fy, layer / self.n_layers)


@dataclass(frozen=True)
class LatticeSite:
    """One crystallographic site, positioned relative to the vacancy."""

    species: str
    cell: tuple  # (i, j, k) integer cell index
    basis: int
    position: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.position))

    def key(self):
        return (*self.cell, self.basis)


def _positions(params: LatticeParams, i, j, k, b) -> np.ndarray:
    """Cartesian positions relative to the vacancy, one row per (i, j, k, basis);
    bit-identical for a site whether it comes alone or in a batch."""
    frac = np.array([row[1:] for row in params.basis()]) - np.array(params.origin_fractional())
    df = np.column_stack([i + frac[b, 0], j + frac[b, 1], k + frac[b, 2]])
    return df @ params.cell_vectors()


def site_position(params: LatticeParams, cell, basis: int) -> np.ndarray:
    """Cartesian position of (cell, basis) relative to the vacancy origin."""
    return _positions(params, *cell, np.array([basis]))[0]


def make_site(params: LatticeParams, cell, basis: int) -> LatticeSite:
    species = params.basis()[basis][0]
    return LatticeSite(species, tuple(int(x) for x in cell), basis, site_position(params, cell, basis))


@dataclass(frozen=True, eq=False)
class Lattice:
    """The sites of one ball around the vacancy as columns, one row per site."""

    species: np.ndarray  # (n,) "Si" or "C"
    cells: np.ndarray  # (n, 3) int cell index (i, j, k)
    basis: np.ndarray  # (n,) int basis index
    positions: np.ndarray  # (n, 3) cartesian angstrom

    def __len__(self):
        return len(self.basis)


def build_lattice(params: LatticeParams, radius: float) -> Lattice:
    """All Si and C sites with |position| <= radius, vacancy excluded.

    Sorted by distance to origin, then lexicographic (cell, basis).
    """
    if not (math.isfinite(radius) and radius > 0):
        raise InputError(f"radius must be finite and positive, got {radius}")
    # Conservative index bounds: in-plane row spacing a*sin(60), one cell padding.
    ni = int(math.ceil(radius / (params.a * math.sin(math.pi / 3.0)))) + 2
    nk = int(math.ceil(radius / params.c)) + 2
    est = (2 * ni + 1) ** 2 * (2 * nk + 1) * 2 * params.n_layers
    if est > 40 * params.max_sites:
        raise CapacityError(
            f"radius {radius} A implies ~{est} candidate sites (cap {params.max_sites})"
        )
    # One plane of constant i at a time keeps memory O(sites) and lets an
    # oversized ball fail as soon as the running count passes the cap.
    j, k, b = np.mgrid[-ni:ni + 1, -nk:nk + 1, : 2 * params.n_layers].reshape(3, -1)
    kept, n_sites = [], 0
    for i in range(-ni, ni + 1):
        pos = _positions(params, i, j, k, b)
        d = np.sqrt(pos[:, 0] ** 2 + pos[:, 1] ** 2 + pos[:, 2] ** 2)
        sel = (d <= radius) & (d >= 1e-9)  # the vacancy itself is excluded
        kept.append((np.full(np.count_nonzero(sel), i), j[sel], k[sel], b[sel], pos[sel]))
        n_sites += len(kept[-1][0])
        if n_sites > params.max_sites:
            raise CapacityError(f"more than {params.max_sites} sites within {radius} A")
    i, j, k, b, pos = (np.concatenate(col) for col in zip(*kept))
    del kept
    order = np.lexsort((b, k, j, i, np.sqrt(np.vecdot(pos, pos))))
    species = np.array([row[0] for row in params.basis()])
    return Lattice(species[b[order]], np.column_stack((i, j, k))[order], b[order], pos[order])


def nearest_neighbor_distance(params: LatticeParams, species: str) -> float:
    """Minimum distance between two sites of the same species."""
    if species not in (SPECIES_SI, SPECIES_C):
        raise InputError(f"unknown species {species!r}")
    probe = max(2.5 * params.a, 0.8 * params.c)
    lattice = build_lattice(params, probe)
    pos = lattice.positions[lattice.species == species]
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    d[d < 1e-9] = np.inf
    return float(d.min())


def reference_site_si1(params: LatticeParams) -> LatticeSite:
    """The on-axis Si site at (0, 0, c/2) above the vacancy."""
    n = params.n_layers
    layer = params.origin_layer + n // 2
    cell = (0, 0, layer // n)
    site = make_site(params, cell, layer % n)
    if abs(site.position[0]) > 1e-9 or abs(site.position[1]) > 1e-9:
        raise InputError(
            f"stacking {params.stacking!r} has no on-axis Si at c/2 above the vacancy"
        )
    return site


class SiteTable:
    """A Lattice's columns (shared, not copied) with fast position lookup,
    and per-table values computed on first use."""

    def __init__(self, lattice: Lattice):
        self.species, self.cells, self.basis, self.positions = (
            lattice.species, lattice.cells, lattice.basis, lattice.positions)
        # round() on an np.float64 rounds as ndarray.round does: these are _pos_key's keys
        self._index = dict(zip(zip(*self.positions.round(5).T.tolist()), range(len(lattice))))
        self.by_species = {
            sp: np.flatnonzero(self.species == sp) for sp in (SPECIES_SI, SPECIES_C)
        }

    @staticmethod
    def _pos_key(pos):
        return (round(pos[0], 5), round(pos[1], 5), round(pos[2], 5))

    def __len__(self):
        return len(self.basis)

    def site(self, i: int) -> LatticeSite:
        """Site i as a LatticeSite that owns a copy of its position."""
        return LatticeSite(str(self.species[i]), tuple(self.cells[i].tolist()),
                           int(self.basis[i]), self.positions[i].copy())

    def index_of_position(self, pos):
        """Site index at a cartesian position, or None."""
        # as float64, a list rounds on the same ties as the index keys
        return self._index.get(self._pos_key(np.asarray(pos, dtype=float)))

    def index_of_site(self, site: LatticeSite):
        return self.index_of_position(site.position)

    def image_indices(self, ops, indices):
        """One row per op: the index of the site at op @ positions[i] for each
        i of indices, or None where no site is there.  The one site-image
        lookup behind every symmetry computation."""
        index, key, pos = self._index, self._pos_key, self.positions
        return [tuple(index.get(key(op @ pos[i])) for i in indices) for op in ops]

    @cached_property
    def radii(self) -> np.ndarray:
        """Distance of each site from the vacancy (angstrom)."""
        return np.linalg.norm(self.positions, axis=1)

    @cached_property
    def anchor_index(self) -> int:
        """Index of the on-axis Si site with the smallest positive z."""
        pos = self.positions
        on_axis = (np.hypot(pos[:, 0], pos[:, 1]) < 1e-6) & (pos[:, 2] > 0) & (
            self.species == SPECIES_SI
        )
        idx = np.flatnonzero(on_axis)
        if idx.size == 0:
            raise InputError("lattice contains no on-axis Si site above the vacancy")
        return int(idx[np.argmin(pos[idx, 2])])
