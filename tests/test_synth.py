import ast
import dataclasses
import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmap import fileio, synth
from spinmap.errors import InputError
from conftest import drawn_lattices, reference_recovery, reference_sedor_between
from spinmap.lattice import LatticeParams, SiteTable, build_lattice
from spinmap.placement import CouplingMeasurement
from spinmap.spinphys import DEFAULT_PHYSICS
from spinmap.synth import (
    ClusterStructure,
    NoiseModel,
    emit_couplings,
    generate_cluster,
    generate_connected_cluster,
    generate_spread_cluster,
    truth_graph_connected,
)


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(InputError):
            NoiseModel("poisson", 0.2)
        with pytest.raises(InputError):
            NoiseModel("gaussian", -0.1)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -0.1])
    def test_rejects_amplitude_it_cannot_draw(self, amplitude):
        with pytest.raises(InputError, match="amplitude"):
            NoiseModel("gaussian", amplitude)

    @pytest.mark.parametrize("sigmas", [0.0, 0.5, -3.0, float("nan"), float("inf")])
    def test_rejects_truncation_it_cannot_honour(self, sigmas):
        # a cap of 0 sigma never accepts a draw; NaN would silently not truncate
        with pytest.raises(InputError, match="truncate_sigmas"):
            NoiseModel("gaussian", 0.2, sigmas)

    def test_truncation_limits_accepted(self):
        rng = np.random.default_rng(0)
        assert np.abs(NoiseModel("gaussian", 0.2, 1.0).draw(rng, 1000)).max() <= 0.2
        assert np.abs(NoiseModel("gaussian", 0.2, None).draw(rng, 20000)).max() > 0.6

    def test_truncation_bound(self):
        rng = np.random.default_rng(0)
        x = NoiseModel("gaussian", 0.2, 3.0).draw(rng, 20000)
        assert np.abs(x).max() <= 0.6
        assert x.std() == pytest.approx(0.2, rel=0.1)

    def test_uniform_bound(self):
        rng = np.random.default_rng(0)
        x = NoiseModel("uniform", 0.3).draw(rng, 5000)
        assert np.abs(x).max() <= 0.3

    def test_none(self):
        rng = np.random.default_rng(0)
        assert (NoiseModel("none", 0.2).draw(rng, 10) == 0).all()


class TestGenerateCluster:
    def test_paper_like_counts(self, table26):
        structure = ClusterStructure("clustered", 4, 5, 7)
        cluster = generate_cluster(table26, 22, 3, structure, seed=1)
        labels = list(cluster.truth)
        assert sum(1 for lab in labels if lab.startswith("Si")) == 22
        assert sum(1 for lab in labels if lab.startswith("C")) == 3
        sizes = {}
        for lab, ci in cluster.cluster_of.items():
            sizes[ci] = sizes.get(ci, 0) + 1
        assert len(sizes) == 4
        assert all(5 <= n <= 7 for n in sizes.values())

    def test_anchor_always_included(self, params, table26):
        from spinmap.lattice import reference_site_si1

        cluster = generate_cluster(table26, 5, 0, ClusterStructure("clustered", 1, 5, 5), seed=3)
        si1 = reference_site_si1(params)
        assert cluster.truth["Si1"].key() == si1.key()

    def test_single_spin_is_anchor(self, table26):
        cluster = generate_cluster(table26, 1, 0, ClusterStructure("clustered", 1, 1, 1), seed=0)
        assert list(cluster.truth) == ["Si1"]

    def test_deterministic_under_seed(self, table26):
        structure = ClusterStructure("clustered", 4, 5, 7)
        a = generate_cluster(table26, 22, 3, structure, seed=9)
        b = generate_cluster(table26, 22, 3, structure, seed=9)
        assert {k: v.key() for k, v in a.truth.items()} == {
            k: v.key() for k, v in b.truth.items()
        }

    def test_sites_distinct(self, table26):
        cluster = generate_cluster(table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=2)
        keys = [s.key() for s in cluster.truth.values()]
        assert len(set(keys)) == len(keys)

    def test_infeasible_split_rejected(self, table26):
        with pytest.raises(InputError):
            generate_cluster(table26, 22, 3, ClusterStructure("clustered", 4, 7, 7), seed=0)

    @pytest.mark.parametrize("n_si, n_c, layout, seed, message", [
        (16, 6, (4, 5, 7), 197, "cluster 3 of 5 spins has room for 5 carbons, but 6 were"),
        (5, 4, (3, 3, 3), 2, "cluster 0 of 3 spins has room for 2 carbons, but 3 were"),
    ])
    def test_cluster_overfilled_with_carbons_named(self, table26, n_si, n_c, layout, seed,
                                                    message):
        with pytest.raises(InputError, match=message):
            generate_cluster(table26, n_si, n_c, ClusterStructure("clustered", *layout), seed=seed)

    def test_anchor_cluster_full_of_carbons_drawn(self, table26):
        # cluster 0's 3 spins are the Si1 anchor and two carbons
        cluster = generate_cluster(table26, 5, 4, ClusterStructure("clustered", 3, 3, 3), seed=8)
        assert sorted(lab for lab, c in cluster.cluster_of.items() if c == 0) == ["C1", "C2", "Si1"]

    def test_random_structure(self, table26):
        cluster = generate_cluster(table26, 8, 2, ClusterStructure("random"), seed=4)
        assert len(cluster.truth) == 10

    def test_w6_truth_sites_unchanged(self):
        # the W6 stress table (24 Si, random, seed 0, 30 A lattice): its draws
        # from the random-mode pools must not move
        table = SiteTable(build_lattice(LatticeParams(), 30.0))
        cluster = generate_cluster(table, 24, 0, ClusterStructure("random"), seed=0)
        assert list(cluster.truth) == [f"Si{n}" for n in range(1, 25)]
        assert [table.index_of_site(s) for s in cluster.truth.values()] == [
            48, 470, 428, 9, 203, 542, 54, 552, 178, 680, 426, 27,
            198, 672, 415, 345, 372, 347, 403, 455, 639, 378, 127, 546,
        ]

    @pytest.mark.parametrize("structure", [ClusterStructure("random"),
                                           ClusterStructure("clustered", 4, 5, 7)],
                             ids=["random", "clustered"])
    def test_negative_carbon_count_named(self, table26, structure):
        with pytest.raises(InputError, match="carbon count must be >= 0, got n_c = -1"):
            generate_cluster(table26, 22, -1, structure, seed=0)

    @pytest.mark.parametrize("seed", [-1, (3, -2), [0, (1, -7)]])
    def test_negative_seed_named(self, table26, seed):
        with pytest.raises(InputError, match="seed must be >= 0, got -"):
            generate_cluster(table26, 8, 2, ClusterStructure("random"), seed=seed)

    def test_cluster_seed_shortfall_names_the_shell(self, table26):
        # the seed shell is 4-11 A whatever the table's radius, so more seeds
        # than the shell holds fail on a large table too
        with pytest.raises(InputError, match=r"found \d+ of 16 cluster seeds in 400 draws "
                                             r"\(SEED_ATTEMPTS\) from the 4-11 A shell"):
            generate_cluster(table26, 20, 0, ClusterStructure("clustered", 16, 1, 2), seed=0)

    @pytest.mark.parametrize("n_si, n_c", [(400, 0), (1, 400)])
    def test_random_pool_smaller_than_request(self, params, n_si, n_c):
        # the table holds enough sites, the 12 A ball the random draw picks from does not
        table = SiteTable(build_lattice(params, 20.0))
        assert table.by_species["Si"].size > n_si and table.by_species["C"].size > n_c
        with pytest.raises(InputError, match=r"12.0 A ball holds \d+ Si sites .* and \d+ C sites"):
            generate_cluster(table, n_si, n_c, ClusterStructure("random"), seed=0)


@pytest.fixture(scope="module")
def table30(params):
    return SiteTable(build_lattice(params, 30.0))


def _draws_digest(table, clusters):
    """sha256 over each cluster's truth site indices, cluster ids, seed and the
    bits of its 3 Hz coupling table."""
    h = hashlib.sha256()
    for cluster in clusters:
        h.update(repr((
            [(lab, table.index_of_site(site)) for lab, site in cluster.truth.items()],
            list(cluster.cluster_of.items()),
            cluster.seed,
            [(m.spin_a, m.spin_b, m.f_ij.hex()) for m in emit_couplings(cluster, table, 3.0)],
        )).encode())
    return h.hexdigest()


class TestDrawsUnchanged:
    """The inputs the ensemble and sparse benchmarks draw, pinned bit for bit:
    a faster draw must pick the same sites in the same order."""

    def test_clustered_draws(self, table26):
        clusters = [
            generate_connected_cluster(table26, 22, 3, ClusterStructure("clustered", 4, 5, 7),
                                       seed=seed, noise=NoiseModel("gaussian", 0.2, 3.0))
            for seed in range(5)
        ]
        assert _draws_digest(table26, clusters) == (
            "5d51aa4e226712a30ba7b618b94daa08effa5f32af164bd8759a683b68d39ffe"
        )

    def test_random_draws(self, table30):
        clusters = [generate_cluster(table30, 24, 0, ClusterStructure("random"), seed=0)]  # W6
        clusters += [
            generate_connected_cluster(table30, 16, 0, ClusterStructure("random"), seed=seed)
            for seed in range(5)
        ]
        assert _draws_digest(table30, clusters) == (
            "40155d761a4b2237c7015c457de0427f18838d38e9438246a0556d052327c4aa"
        )

    def test_ensemble_pool(self, table26):
        # every input of the ensemble benchmark's pool at seed 3001
        clusters = [
            generate_connected_cluster(table26, 22, 3, ClusterStructure("clustered", 4, 5, 7),
                                       seed=3001 * 1000 + i,
                                       noise=NoiseModel("gaussian", 0.2, 3.0))
            for i in range(100)
        ]
        assert _draws_digest(table26, clusters) == (
            "9e9015744690e39a43f0c19cff2369b0629fb79f222d58e9291136f9bc5ee232"
        )

    def test_sparse_pool(self, table30):
        # every input of the sparse benchmark's pool at seed 3001: W6, then 149 random draws
        clusters = [generate_cluster(table30, 24, 0, ClusterStructure("random"), seed=0)]
        clusters += [
            generate_connected_cluster(table30, 16, 0, ClusterStructure("random"),
                                       seed=3001 * 1000 + i)
            for i in range(1, 150)
        ]
        assert _draws_digest(table30, clusters) == (
            "6f0a877cae4563ee02642a692fd2409f8b59aaf1404b98fc532a5587aba1f593"
        )


@settings(max_examples=40, deadline=None)
@given(drawn_lattices(), st.floats(4.0, 10.0), st.data())
def test_distance_row_is_norm_bit_for_bit(params, radius, data):
    positions = build_lattice(params, radius).positions
    i = data.draw(st.integers(0, len(positions) - 1))
    expected = np.linalg.norm(positions - positions[i], axis=1)
    assert synth._distance_row(positions, i).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40))
def test_nearest_is_stable_argsort_prefix(values):
    # integer-valued distances: most entries tie with another
    d = np.array(values, dtype=float)
    order = np.argsort(d, kind="stable")
    for m in range(d.size + 1):
        assert synth._nearest(d, m).tolist() == order[:m].tolist()


class TestSiteIndex:
    """Every cluster carries label -> site index, the sites its truth holds."""

    @pytest.mark.parametrize("make", [
        lambda t: generate_cluster(t, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=5),
        lambda t: generate_cluster(t, 8, 2, ClusterStructure("random"), seed=4),
        lambda t: generate_connected_cluster(t, 10, 1, ClusterStructure("clustered", 2, 5, 6),
                                             seed=2),
        lambda t: generate_spread_cluster(t, seed=2),
    ], ids=["clustered", "random", "connected", "spread"])
    def test_index_matches_truth(self, table26, make):
        cluster = make(table26)
        assert list(cluster.index) == list(cluster.truth)
        assert cluster.index == {lab: table26.index_of_site(s) for lab, s in cluster.truth.items()}
        # the truth is derived from the index, so the two cannot disagree
        with pytest.raises(ValueError):
            dataclasses.replace(cluster, truth={})

    def test_truth_file_round_trip(self, table26, tmp_path):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=3)
        fileio.write_truth_json(tmp_path / "truth.json", cluster)
        back = fileio.read_truth_json(tmp_path / "truth.json", table26)
        assert back.index == cluster.index
        assert back.index == {lab: table26.index_of_site(s) for lab, s in back.truth.items()}

    def test_anchor_computed_once_per_table(self, params, monkeypatch):
        calls = []
        compute = SiteTable.anchor_index.func
        counted = functools.cached_property(lambda table: calls.append(table) or compute(table))
        counted.__set_name__(SiteTable, "anchor_index")
        monkeypatch.setattr(SiteTable, "anchor_index", counted)
        lattice = build_lattice(params, 26.0)
        table = SiteTable(lattice)
        for seed in range(20):
            generate_connected_cluster(table, 22, 3, ClusterStructure("clustered", 4, 5, 7),
                                       seed=seed)
        assert calls == [table]
        # cached on the table, not in the module: a second table computes its own
        other = SiteTable(lattice)
        assert other.anchor_index == table.anchor_index
        assert calls == [table, other]


def test_synth_maps_no_position_to_a_site():
    # clusters carry their site indices; only fileio turns a position back into one
    calls = [
        (n.lineno, name)
        for n in ast.walk(ast.parse(Path(synth.__file__).read_text()))
        if isinstance(n, ast.Call)
        for name in [getattr(n.func, "attr", None) or getattr(n.func, "id", None)]
        if name in ("index_of_site", "index_of_position")
    ]
    assert not calls, f"synth.py looks sites up by position at {calls}"


class TestEmitCouplings:
    def test_noiseless_reproducible_by_dipolar_formula(self, table26):
        cluster = generate_connected_cluster(
            table26, 10, 1, ClusterStructure("clustered", 2, 5, 6), seed=2
        )
        meas = emit_couplings(cluster, table26, 3.0, NoiseModel("none"))
        idx = {lab: table26.index_of_site(site) for lab, site in cluster.truth.items()}
        for m in meas:
            f = reference_sedor_between(table26, idx[m.spin_a], idx[m.spin_b], DEFAULT_PHYSICS)
            assert m.f_ij == pytest.approx(f, rel=1e-12)
            assert f >= 3.0

    def test_infinite_threshold_empty(self, table26):
        cluster = generate_connected_cluster(
            table26, 10, 1, ClusterStructure("clustered", 2, 5, 6), seed=2
        )
        assert emit_couplings(cluster, table26, float("inf")) == []

    @pytest.mark.parametrize("value", [float("nan"), -0.5])
    def test_rejects_bad_min_detectable(self, table26, value):
        cluster = generate_cluster(table26, 5, 0, ClusterStructure("clustered", 1, 5, 5), seed=0)
        with pytest.raises(InputError, match="min_detectable must be >= 0"):
            emit_couplings(cluster, table26, value)
        with pytest.raises(InputError, match="min_detectable must be >= 0"):
            truth_graph_connected(cluster.index, table26, value)
        with pytest.raises(InputError, match="min_detectable must be >= 0"):
            generate_connected_cluster(table26, 5, 0, ClusterStructure("clustered", 1, 5, 5),
                                       min_detectable=value)

    def test_rows_validate_as_measurements(self, table26):
        cluster = generate_connected_cluster(
            table26, 10, 1, ClusterStructure("clustered", 2, 5, 6), seed=2
        )
        for m in emit_couplings(cluster, table26, 3.0):
            assert isinstance(m, CouplingMeasurement)
            assert m.sigma > 0
            assert m.subspace_mode == "averaged"

    def test_deterministic(self, table26):
        cluster = generate_connected_cluster(
            table26, 10, 1, ClusterStructure("clustered", 2, 5, 6), seed=2
        )
        a = emit_couplings(cluster, table26, 3.0)
        b = emit_couplings(cluster, table26, 3.0)
        assert [(m.pair, m.f_ij) for m in a] == [(m.pair, m.f_ij) for m in b]


class TestConnectedAndSpread:
    def test_connected_cluster_is_connected(self, table26):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=6
        )
        assert truth_graph_connected(cluster.index, table26, 3.0)

    def test_spread_cluster_degree_floor(self, table26):
        cluster = generate_spread_cluster(table26, seed=2)
        labels = sorted(cluster.truth)
        idx = {lab: table26.index_of_site(site) for lab, site in cluster.truth.items()}
        for a in labels:
            deg = sum(
                1
                for b in labels
                if b != a
                and reference_sedor_between(table26, idx[a], idx[b], DEFAULT_PHYSICS) >= 3.0
            )
            # the anchor is never pruned (it is frozen during refinement)
            assert deg >= 4 or (a == "Si1" and deg >= 1)

    @pytest.mark.parametrize("seed, sites", [
        (0, [48, 63, 154, 201, 510, 673, 29, 9, 57, 169, 311, 59, 151, 728, 235]),
        (2, [48, 290, 52, 91, 639, 352, 148, 82, 504, 697, 420, 27]),
    ])
    def test_spread_cluster_sites_unchanged(self, table26, seed, sites):
        cluster = generate_spread_cluster(table26, seed=seed)
        assert [table26.index_of_site(s) for s in cluster.truth.values()] == sites

    def test_spread_cluster_min_separation(self, table26):
        cluster = generate_spread_cluster(table26, seed=2)
        pos = np.array([s.position for s in cluster.truth.values()])
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        d[d < 1e-9] = np.inf
        assert d.min() >= 4.2


class TestEndToEnd:
    def test_generate_emit_place_refine_recovers_truth(self, table26):
        # full chain over 20 seeds: failures may only be ambiguity reports,
        # never a confident wrong answer
        from spinmap.placement import PlacementConfig, _table_symmetry_ops, place_all
        from spinmap.refine import refine

        ops = _table_symmetry_ops(table26)
        config = PlacementConfig()
        noise = NoiseModel("gaussian", 0.2, 3.0)
        successes = 0
        for seed in range(20):
            cluster = generate_connected_cluster(
                table26, 22, 3, ClusterStructure("clustered", 4, 5, 7),
                seed=seed, noise=noise,
            )
            meas = emit_couplings(cluster, table26, 3.0)
            sols = place_all(meas, table26, config)
            hit, n_classes = reference_recovery(table26, ops, cluster, sols)
            assert hit
            if n_classes != 1:
                continue  # ambiguous, honestly reported via multiple classes
            refined = refine(sols[0], meas)
            assert refined.displacements.max < 3.08
            successes += 1
        assert successes >= 19
