import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import drawn_lattices
from spinmap.errors import CapacityError, InputError
from spinmap.lattice import (
    LatticeParams,
    LatticeSite,
    SiteTable,
    build_lattice,
    make_site,
    nearest_neighbor_distance,
    reference_site_si1,
    site_position,
)
from spinmap.placement import _table_symmetry_ops


def brute_force_basis_ball(params, radius):
    """Independent enumeration of basis atoms around the vacancy, using only
    the configured basis table and direct coordinate arithmetic."""
    out = []
    vecs = params.cell_vectors()
    ox, oy, oz = params.origin_fractional()
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in range(-2, 3):
                for b, (species, fx, fy, fz) in enumerate(params.basis()):
                    df = np.array([i + fx - ox, j + fy - oy, k + fz - oz])
                    pos = df @ vecs
                    d = np.linalg.norm(pos)
                    if 1e-9 < d <= radius:
                        out.append((species, d))
    return out


def _reference_build_lattice(params, radius):
    """The site-by-site enumeration build_lattice replaced: one position per
    candidate (i, j, k, basis), then a sort on (r, cell, basis)."""
    ni = int(math.ceil(radius / (params.a * math.sin(math.pi / 3.0)))) + 2
    nk = int(math.ceil(radius / params.c)) + 2
    origin = np.array(params.origin_fractional())
    vecs = params.cell_vectors()
    sites = []
    for i in range(-ni, ni + 1):
        for j in range(-ni, ni + 1):
            for k in range(-nk, nk + 1):
                for b, (species, fx, fy, fz) in enumerate(params.basis()):
                    df = np.array([i + (fx - origin[0]), j + (fy - origin[1]), k + (fz - origin[2])])
                    pos = df @ vecs
                    d = math.sqrt(pos[0] ** 2 + pos[1] ** 2 + pos[2] ** 2)
                    if 1e-9 <= d <= radius:
                        sites.append(LatticeSite(species, (i, j, k), b, pos))
    sites.sort(key=lambda s: (s.r, s.cell, s.basis))
    return sites


class TestLatticeParams:
    def test_defaults_valid(self, params):
        assert params.a == 3.073
        assert params.c == 10.053
        assert params.k_layers() == (1, 3)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(InputError):
            LatticeParams(a=0.0, c=0.0)
        with pytest.raises(InputError):
            LatticeParams(a=-1.0)

    @pytest.mark.parametrize("bad", [{"a": math.nan}, {"c": math.nan}, {"a": math.inf, "c": math.inf}])
    def test_rejects_non_finite_constants(self, bad):
        with pytest.raises(InputError):
            LatticeParams(**bad)

    def test_rejects_bad_aspect_ratio(self):
        with pytest.raises(InputError):
            LatticeParams(a=3.073, c=12.0)

    def test_rejects_bad_stacking(self):
        with pytest.raises(InputError):
            LatticeParams(stacking="ABBA")
        with pytest.raises(InputError):
            LatticeParams(stacking="AXCB")

    def test_unit_cell_composition(self, params):
        rows = params.basis()
        assert sum(1 for r in rows if r[0] == "Si") == 4
        assert sum(1 for r in rows if r[0] == "C") == 4


def _radii(lattice):
    """Per-site distance from the vacancy, as LatticeSite.r computes it."""
    return np.array([np.linalg.norm(p) for p in lattice.positions])


class TestBuildLattice:
    def test_tiny_radius_is_empty(self, params):
        lattice = build_lattice(params, 0.5)
        assert len(lattice) == 0
        assert lattice.cells.shape == lattice.positions.shape == (0, 3)
        assert len(SiteTable(lattice)) == 0

    def test_radius_2_gives_four_carbon_neighbors(self, params):
        lattice = build_lattice(params, 2.0)
        assert len(lattice) == 4
        assert (lattice.species == "C").all()
        oracle = brute_force_basis_ball(params, 2.0)
        assert len(oracle) == 4
        assert all(sp == "C" for sp, _ in oracle)
        assert sorted(_radii(lattice)) == pytest.approx(
            sorted(d for _, d in oracle)
        )

    def test_rejects_nonpositive_radius(self, params):
        with pytest.raises(InputError):
            build_lattice(params, 0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, params, radius):
        with pytest.raises(InputError):
            build_lattice(params, radius)

    def test_capacity_error(self):
        small = LatticeParams(max_sites=100)
        with pytest.raises(CapacityError):
            build_lattice(small, 30.0)

    def test_oversized_ball_fails_in_bounded_memory(self):
        # 250 A holds ~6M sites; the cap of 500k must stop the build early
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build_lattice(LatticeParams(), 250.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150e6

    @settings(max_examples=40, deadline=None)
    @given(drawn_lattices(), st.floats(2.0, 12.0))
    @example(LatticeParams(), 12.0)
    @example(LatticeParams(a=2.95, c=9.35), 12.0)  # z = -c/16 rounds on a 5-decimal tie
    def test_bit_identical_to_site_by_site_enumeration(self, params, radius):
        lattice = build_lattice(params, radius)
        ref = _reference_build_lattice(params, radius)
        assert lattice.species.tolist() == [s.species for s in ref]
        assert lattice.cells.tolist() == [list(s.cell) for s in ref]
        assert lattice.basis.tolist() == [s.basis for s in ref]
        assert lattice.positions.tobytes() == b"".join(s.position.tobytes() for s in ref)
        table = SiteTable(lattice)
        assert table._index == {table._pos_key(s.position): i for i, s in enumerate(ref)}
        for i, s in enumerate(ref):
            site = table.site(i)
            assert site == s
            assert type(site.species) is str
            assert all(type(x) is int for x in (*site.cell, site.basis))
            assert site.position.tobytes() == s.position.tobytes()

    def test_sorted_by_distance_then_cell(self, params):
        lattice = build_lattice(params, 8.0)
        keys = list(zip(_radii(lattice), map(tuple, lattice.cells.tolist()), lattice.basis))
        assert keys == sorted(keys)

    def test_radius_monotonicity(self, params):
        def keys(lattice):
            return {(*cell, b) for cell, b in zip(lattice.cells.tolist(), lattice.basis.tolist())}

        assert keys(build_lattice(params, 7.0)) <= keys(build_lattice(params, 8.0))

    def test_all_within_radius_and_origin_excluded(self, params):
        r = _radii(build_lattice(params, 9.0))
        assert (r <= 9.0).all()
        assert (r > 1.0).all()

    def test_translational_consistency(self, params):
        vecs = params.cell_vectors()
        for cell, shift in [((0, 0, 0), (1, 0, 0)), ((1, -2, 0), (0, 1, 0)), ((0, 1, 1), (0, 0, 1))]:
            moved = tuple(c + s for c, s in zip(cell, shift))
            for basis in (0, 3, 5):
                p0 = site_position(params, cell, basis)
                p1 = site_position(params, moved, basis)
                expected = np.array(shift) @ vecs
                assert np.allclose(p1 - p0, expected, atol=1e-9)

    def test_position_reproducible(self, params):
        a = site_position(params, (1, 2, -1), 6)
        b = site_position(params, (1, 2, -1), 6)
        assert (a == b).all()


class TestNeighborDistances:
    def test_si_si_near_3_08(self, params):
        d = nearest_neighbor_distance(params, "Si")
        assert abs(d - 3.08) / 3.08 < 0.01

    def test_c_c_near_3_08(self, params):
        d = nearest_neighbor_distance(params, "C")
        assert abs(d - 3.08) / 3.08 < 0.01

    def test_unknown_species_rejected(self, params):
        with pytest.raises(InputError):
            nearest_neighbor_distance(params, "N")

    def test_nn_distance_uniform_across_interior_sites(self, params):
        lattice = build_lattice(params, 12.0)
        si_pos = lattice.positions[lattice.species == "Si"]
        interior = [p for p in si_pos if np.linalg.norm(p) <= 8.0]
        dists = []
        for p in interior:
            d = np.linalg.norm(si_pos - p, axis=1)
            d[d < 1e-9] = np.inf
            dists.append(d.min())
        assert max(dists) - min(dists) < 1e-6


class TestReferenceSite:
    def test_si1_position_exact(self, params):
        site = reference_site_si1(params)
        assert site.position[0] == 0.0
        assert site.position[1] == 0.0
        assert site.position[2] == params.c / 2.0

    def test_si1_is_silicon(self, params):
        assert reference_site_si1(params).species == "Si"

    def test_si1_on_axis_for_other_k_variant(self):
        p = LatticeParams(k_variant=1)
        site = reference_site_si1(p)
        assert site.position[0] == 0.0 and site.position[1] == 0.0
        assert site.position[2] == pytest.approx(p.c / 2.0)

    def test_si1_site_exists_in_built_lattice(self, params, table26):
        site = reference_site_si1(params)
        assert table26.index_of_site(site) is not None


class TestSymmetry:
    @staticmethod
    def ops_by_variant():
        for k_variant in (0, 1):
            table = SiteTable(build_lattice(LatticeParams(k_variant=k_variant), 8.0))
            yield _table_symmetry_ops(table)

    def test_c3v_group_found(self):
        for ops in self.ops_by_variant():
            assert len(ops) == 6
            rotations = [op for op in ops if np.isclose(np.linalg.det(op), 1.0)]
            mirrors = [op for op in ops if np.isclose(np.linalg.det(op), -1.0)]
            assert len(rotations) == 3
            assert len(mirrors) == 3

    @pytest.mark.parametrize("a", [
        3.07304,
        pytest.param(3.07301, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: a/2 = 1.536505 lies on a 5-decimal tie of "
                                "the float site keys, so rotated images miss the index")),
    ])
    def test_c3v_group_found_near_ideal_a(self, a):
        table = SiteTable(build_lattice(LatticeParams(a=a), 9.0))
        assert len(_table_symmetry_ops(table)) == 6

    def test_ops_preserve_z(self):
        for ops in self.ops_by_variant():
            for op in ops:
                assert np.allclose(op[2], [0, 0, 1])
                assert np.allclose(op[:, 2], [0, 0, 1])


class TestSiteTable:
    def test_index_roundtrip(self, table26):
        for i in (0, 17, len(table26) - 1):
            assert table26.index_of_site(table26.site(i)) == i

    @pytest.mark.parametrize("radius", [26.0, 28.5, 30.0])
    def test_every_site_found_at_its_index(self, params, radius):
        table = SiteTable(build_lattice(params, radius))
        assert all(table.index_of_site(table.site(i)) == i for i in range(len(table)))

    def test_list_position_found_on_rounding_tie(self):
        # z = -0.584375 (c/16) sits on a 5-decimal tie: a Python float rounds
        # it differently from the np.float64 the index was built from
        table = SiteTable(build_lattice(LatticeParams(a=2.95, c=9.35), 6.0))
        assert len(table) == 103
        assert [table.index_of_position(table.positions[i].tolist())
                for i in range(len(table))] == list(range(len(table)))

    def test_site_owns_its_position(self, table26):
        before = table26.positions.copy()
        site = table26.site(0)
        site.position[:] = 99.0
        assert (table26.positions == before).all()
        assert table26.site(0).position.tobytes() == before[0].tobytes()

    def test_table_shares_the_lattice_columns(self, params):
        lattice = build_lattice(params, 6.0)
        table = SiteTable(lattice)
        assert table.positions is lattice.positions
        assert table.cells is lattice.cells

    def test_missing_position(self, table26):
        assert table26.index_of_position(np.array([0.123, 4.567, 8.9])) is None

    def test_species_partition(self, table26):
        n = len(table26.by_species["Si"]) + len(table26.by_species["C"])
        assert n == len(table26)


def test_make_site_species_matches_basis(params):
    s = make_site(params, (0, 0, 0), 2)
    assert s.species == "Si"
    s = make_site(params, (0, 0, 0), 6)
    assert s.species == "C"
