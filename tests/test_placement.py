import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import drawn_lattices, reference_sedor_between
from spinmap.errors import (
    CapacityError,
    ConnectivityError,
    InfeasibilityError,
    InputError,
)
from spinmap.placement import (
    CouplingMeasurement,
    PlacementConfig,
    ambiguity_report,
    candidate_sites,
    canonical_assignment,
    order_heuristic,
    place_all,
    sedor_between,
    tolerance_for_pair,
    _table_symmetry_ops,
)
from spinmap.lattice import LatticeParams, SiteTable, build_lattice
from spinmap.spinphys import DEFAULT_PHYSICS, Physics
from spinmap.synth import ClusterStructure, NoiseModel, emit_couplings, generate_connected_cluster

# Independent dipolar evaluation for the soundness checker and brute-force
# oracles below: CODATA mu0/(4pi) = 1.00000000055e-7, exact h.
_PREF = 1.00000000055e-7 * 6.62607015e-34 * 1e30  # Hz A^3 per (Hz/T)^2
_GAMMA = {"Si": -8.465e6, "C": 10.7084e6}


def oracle_sedor(pos_a, species_a, pos_b, species_b):
    d = np.asarray(pos_b) - np.asarray(pos_a)
    r2 = float(d @ d)
    alpha = _PREF * _GAMMA[species_a] * _GAMMA[species_b]
    return 0.5 * abs(alpha / r2**1.5 * (3 * d[2] ** 2 / r2 - 1.0))


def verify_solution(solution, measurements, config):
    """Post-hoc constraint check sharing no code with the search."""
    for m in measurements:
        if m.f_ij < config.min_detectable:
            continue
        a = solution.assignment.get(m.spin_a)
        b = solution.assignment.get(m.spin_b)
        if a is None or b is None:
            continue
        f_th = oracle_sedor(a.position, a.species, b.position, b.species)
        key = tuple(sorted((m.spin_a, m.spin_b)))
        if key in config.tolerance_overrides:
            tol = config.tolerance_overrides[key]
        elif m.f_ij > config.strong_threshold:
            tol = config.relative_tolerance_strong * m.f_ij
        else:
            tol = config.tolerance_default
        if abs(f_th - m.f_ij) > tol + 1e-9:
            return False
    return True


def paper_like(table, seed, noise=None):
    noise = noise or NoiseModel("none")
    cluster = generate_connected_cluster(
        table, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=seed, noise=noise
    )
    return cluster, emit_couplings(cluster, table, 3.0)


def recovered(table, ops, cluster, solutions):
    labels = sorted(cluster.truth)
    truth = tuple(table.index_of_site(cluster.truth[lab]) for lab in labels)
    truth_canon = canonical_assignment(table, truth, ops)
    classes = set()
    hit = False
    for sol in solutions:
        idx = tuple(table.index_of_site(sol.assignment[lab]) for lab in labels)
        canon = canonical_assignment(table, idx, ops)
        classes.add(canon)
        hit = hit or canon == truth_canon
    return hit, len(classes)


class TestCouplingMeasurement:
    def test_validation(self):
        with pytest.raises(InputError):
            CouplingMeasurement("Si1", "Si1", 5.0, 0.2)
        with pytest.raises(InputError):
            CouplingMeasurement("Si1", "Si2", -1.0, 0.2)
        with pytest.raises(InputError):
            CouplingMeasurement("Si1", "Si2", 5.0, 0.0)
        with pytest.raises(InputError):
            CouplingMeasurement("Si1", "Si2", 5.0, 0.2, "ms_zero")

    @pytest.mark.parametrize("f_ij, sigma", [
        (float("nan"), 0.2), (float("inf"), 0.2), (5.0, float("nan")), (5.0, float("inf")),
    ])
    def test_non_finite_rejected(self, f_ij, sigma):
        with pytest.raises(InputError, match="finite"):
            CouplingMeasurement("Si1", "Si2", f_ij, sigma)

    def test_pair_is_sorted(self):
        assert CouplingMeasurement("Si9", "Si2", 5.0, 0.2).pair == ("Si2", "Si9")


class TestToleranceForPair:
    CFG = PlacementConfig(tolerance_overrides={("Si1", "Si2"): 3.0})

    def test_override(self):
        assert tolerance_for_pair(("Si2", "Si1"), 100.0, self.CFG) == 3.0

    def test_relative_above_threshold(self):
        assert tolerance_for_pair(("Si3", "Si4"), 80.06, self.CFG) == pytest.approx(4.003)

    def test_default_below_threshold(self):
        assert tolerance_for_pair(("Si8", "Si9"), 4.31, self.CFG) == 0.6


class TestOrderHeuristic:
    def test_star_graph_deterministic(self):
        meas = [CouplingMeasurement("Si1", f"Si{i}", 10.0, 0.2) for i in range(2, 6)]
        order = order_heuristic(meas)
        assert order == ["Si1", "Si2", "Si3", "Si4", "Si5"]

    def test_two_cliques_bridged(self):
        meas = []
        clique1 = ["Si1", "Si2", "Si3", "Si4"]
        clique2 = ["Si5", "Si6", "Si7"]
        for i, a in enumerate(clique1):
            for b in clique1[i + 1:]:
                meas.append(CouplingMeasurement(a, b, 20.0, 0.2))
        for i, a in enumerate(clique2):
            for b in clique2[i + 1:]:
                meas.append(CouplingMeasurement(a, b, 20.0, 0.2))
        meas.append(CouplingMeasurement("Si4", "Si5", 4.0, 0.2))  # bridge
        order = order_heuristic(meas)
        assert set(order[:4]) == set(clique1)
        assert set(order[4:]) == set(clique2)

    def test_four_subclusters_completed_in_turn(self):
        # four dense sub-clusters of 5-7 spins, single weak links between
        # consecutive clusters
        rng = np.random.default_rng(2)
        clusters = [
            [f"Si{i}" for i in range(1, 8)],
            [f"Si{i}" for i in range(8, 14)],
            [f"Si{i}" for i in range(14, 20)] + ["C1"],
            ["Si20", "Si21", "Si22", "C2", "C3"],
        ]
        meas = []
        for group in clusters:
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    meas.append(CouplingMeasurement(a, b, float(rng.uniform(10, 80)), 0.2))
        for g1, g2 in zip(clusters, clusters[1:]):
            meas.append(CouplingMeasurement(g1[-1], g2[0], 4.0, 0.2))
        order = order_heuristic(meas)
        member = {lab: ci for ci, group in enumerate(clusters) for lab in group}
        seen = [member[lab] for lab in order]
        # each cluster is exhausted before the next one starts
        finished = set()
        current = seen[0]
        for c in seen:
            if c != current:
                finished.add(current)
                current = c
            assert c not in finished

    def test_disconnected_component_error(self):
        meas = [
            CouplingMeasurement("Si1", "Si2", 10.0, 0.2),
            CouplingMeasurement("Si3", "Si4", 10.0, 0.2),
        ]
        with pytest.raises(ConnectivityError) as err:
            order_heuristic(meas)
        assert "Si3" in str(err.value) and "Si4" in str(err.value)

    def test_missing_anchor(self):
        with pytest.raises(InputError):
            order_heuristic([CouplingMeasurement("Si2", "Si3", 5.0, 0.2)])


class TestCandidateSites:
    def test_true_site_is_candidate(self, params, table26):
        cluster, meas = paper_like(table26, seed=1)
        anchor = cluster.truth["Si1"]
        target = next(
            m for m in meas if "Si1" in (m.spin_a, m.spin_b) and m.f_ij >= 3.0
        )
        other = target.spin_b if target.spin_a == "Si1" else target.spin_a
        cands = candidate_sites({"Si1": anchor}, other, meas, table26, PlacementConfig())
        keys = {c.key() for c in cands}
        assert cluster.truth[other].key() in keys

    def test_shrinks_with_tolerance_but_keeps_truth(self, table26):
        cluster, meas = paper_like(table26, seed=1)
        anchor = cluster.truth["Si1"]
        target = next(m for m in meas if "Si1" in (m.spin_a, m.spin_b))
        other = target.spin_b if target.spin_a == "Si1" else target.spin_a
        sizes = []
        for tol in (2.0, 0.6, 0.05, 1e-6):
            cfg = PlacementConfig(tolerance_default=tol)
            cands = candidate_sites({"Si1": anchor}, other, meas, table26, cfg)
            sizes.append(len(cands))
            assert cluster.truth[other].key() in {c.key() for c in cands}
        assert sizes == sorted(sizes, reverse=True)

    def test_split_spin_scenario_yields_empty(self, table26):
        # two reference spins too far apart to share a partner at ~4-5 Hz:
        # couplings of 4.31 and 4.87 Hz imply sites within ~11 A of each
        # reference, impossible when the references are > 22 A apart
        pos = table26.positions
        si_idx = table26.by_species["Si"]
        far = None
        p9 = si_idx[int(np.argmax(pos[si_idx][:, 0]))]
        d = np.linalg.norm(pos[si_idx] - pos[p9], axis=1)
        p12 = si_idx[int(np.argmax(d))]
        assert np.linalg.norm(pos[p9] - pos[p12]) > 21.5
        placed = {"Si9": table26.site(p9), "Si12": table26.site(p12)}
        meas = [
            CouplingMeasurement("Si8", "Si9", 4.31, 0.2),
            CouplingMeasurement("Si8", "Si12", 4.87, 0.2),
        ]
        cands = candidate_sites(placed, "Si8", meas, table26, PlacementConfig())
        assert cands == []
        # brute-force oracle agrees that no site satisfies both couplings
        for i in si_idx:
            if i in (p9, p12):
                continue
            f9 = oracle_sedor(pos[i], "Si", pos[p9], "Si")
            f12 = oracle_sedor(pos[i], "Si", pos[p12], "Si")
            assert not (abs(f9 - 4.31) <= 0.6 and abs(f12 - 4.87) <= 0.6)

    def test_connectivity_error(self, table26):
        placed = {"Si1": table26.site(0)}
        meas = [CouplingMeasurement("Si5", "Si6", 8.0, 0.2)]
        with pytest.raises(ConnectivityError):
            candidate_sites(placed, "Si5", meas, table26, PlacementConfig())


class TestPlaceAll:
    def test_noiseless_roundtrip_unique(self, table26):
        cluster, meas = paper_like(table26, seed=1)
        sols = place_all(meas, table26, PlacementConfig())
        ops = _table_symmetry_ops(table26)
        hit, n_classes = recovered(table26, ops, cluster, sols)
        assert hit and n_classes == 1
        assert sols[0].residual == pytest.approx(0.0, abs=1e-9)

    def test_noisy_uniform_truth_among_survivors(self, table26):
        noise = NoiseModel("uniform", 0.3)
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=5, noise=noise
        )
        meas = emit_couplings(cluster, table26, 3.0)
        sols = place_all(meas, table26, PlacementConfig())
        ops = _table_symmetry_ops(table26)
        hit, _ = recovered(table26, ops, cluster, sols)
        assert hit

    def test_rise_then_collapse_history(self, table26):
        _, meas = paper_like(table26, seed=1)
        sols = place_all(meas, table26, PlacementConfig())
        hist = sols[0].branch_history
        assert max(hist) > 1
        assert hist[-1] == len(sols)

    def test_soundness_independent_checker(self, table26):
        noise = NoiseModel("gaussian", 0.2, 3.0)
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=7, noise=noise
        )
        meas = emit_couplings(cluster, table26, 3.0)
        cfg = PlacementConfig()
        sols = place_all(meas, table26, cfg)
        assert sols
        for sol in sols:
            assert verify_solution(sol, meas, cfg)

    def test_determinism(self, table26):
        _, meas = paper_like(table26, seed=2)
        sols1 = place_all(meas, table26, PlacementConfig())
        sols2 = place_all(meas, table26, PlacementConfig())
        assert len(sols1) == len(sols2)
        for a, b in zip(sols1, sols2):
            assert a.residual == b.residual
            assert {k: v.key() for k, v in a.assignment.items()} == {
                k: v.key() for k, v in b.assignment.items()
            }

    def test_monotonicity_in_measurements(self, table26):
        cluster, meas = paper_like(table26, seed=1)
        sols_full = place_all(meas, table26, PlacementConfig())
        # drop measurements not touching the anchor-adjacent core, keeping
        # the graph connected: remove every third non-bridging measurement
        labels = sorted(cluster.truth)
        keep = []
        dropped = 0
        for i, m in enumerate(sorted(meas, key=lambda m: m.pair)):
            if i % 3 == 0 and dropped < 30:
                try:
                    order_heuristic([x for x in keep + [*meas[i + 1:]]])
                    dropped += 1
                    continue
                except Exception:
                    pass
            keep.append(m)
        try:
            sols_sub = place_all(keep, table26, PlacementConfig())
        except InfeasibilityError:
            sols_sub = None
        if sols_sub is not None:
            assert len(sols_sub) >= len(sols_full)

    def test_solutions_well_formed(self, table26):
        _, meas = paper_like(table26, seed=1)
        for sol in place_all(meas, table26, PlacementConfig()):
            keys = [site.key() for site in sol.assignment.values()]
            assert len(set(keys)) == len(keys)  # sites pairwise distinct
            for lab, site in sol.assignment.items():
                assert site.species == ("Si" if lab.startswith("Si") else "C")

    def test_symmetry_multiplicity_reported(self, table26):
        _, meas = paper_like(table26, seed=1)
        sols = place_all(meas, table26, PlacementConfig())
        assert all(1 <= s.symmetry_multiplicity <= 6 for s in sols)
        assert sols[0].symmetry_multiplicity == 6

    def test_capacity_error(self, table26):
        _, meas = paper_like(table26, seed=1)
        with pytest.raises(CapacityError) as err:
            place_all(meas, table26, PlacementConfig(max_branches=2))
        assert "step" in str(err.value)

    def test_infeasibility_error_names_label(self, table26):
        _, meas = paper_like(table26, seed=1)
        # corrupt one weak measurement beyond any tolerance
        weak_idx = min(
            range(len(meas)), key=lambda i: meas[i].f_ij
        )
        bad = list(meas)
        m = bad[weak_idx]
        bad[weak_idx] = CouplingMeasurement(m.spin_a, m.spin_b, m.f_ij + 2.5, m.sigma)
        with pytest.raises(InfeasibilityError):
            place_all(bad, table26, PlacementConfig())

    def test_requires_measurements_above_min_detectable(self, table26):
        meas = [CouplingMeasurement("Si1", "Si2", 1.0, 0.2)]
        with pytest.raises(InputError):
            place_all(meas, table26, PlacementConfig())


class TestSymmetryEquivariance:
    """Mapping a criterion-4 truth cluster by a lattice symmetry op maps
    the placement result: same classes, same residuals."""

    @pytest.fixture(scope="class")
    def ops(self, table26):
        return _table_symmetry_ops(table26)

    @settings(max_examples=12, deadline=None)
    @given(op_index=st.integers(0, 5), seed=st.integers(0, 19))
    def test_mapped_truth_same_classes_and_residuals(self, table26, ops, op_index, seed):
        op = ops[op_index]
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=seed,
            noise=NoiseModel("gaussian", 0.2, 3.0),
        )
        images = {
            lab: table26.index_of_position(op @ site.position)
            for lab, site in cluster.truth.items()
        }
        assert None not in images.values()
        mapped = dataclasses.replace(
            cluster, truth={lab: table26.site(i) for lab, i in images.items()}
        )
        config = PlacementConfig(tolerance_overrides={("Si1", "Si2"): 3.0})
        results = []
        for c in (cluster, mapped):
            sols = place_all(emit_couplings(c, table26, 3.0), table26, config)
            hit, n_classes = recovered(table26, ops, c, sols)
            assert hit
            results.append((n_classes, sorted(sol.residual for sol in sols)))
        (n0, res0), (n1, res1) = results
        assert n1 == n0
        assert res1 == pytest.approx(res0, rel=1e-9, abs=0.0)


class TestSedorBetween:
    @settings(max_examples=40, deadline=None)
    @given(drawn_lattices(), st.data(), st.booleans())
    @example(LatticeParams(), None, False)
    @example(LatticeParams(a=2.95, c=9.35), None, False)
    @example(LatticeParams(k_variant=1), None, True)
    @example(LatticeParams(a=3.1441310022343236, c=9.765523099443373), None, False)  # z ** 2
    def test_bit_identical_to_scalar_pairs(self, params, data, other_gammas):
        table = SiteTable(build_lattice(params, 9.0))
        physics = Physics.from_gammas(-7.1e6, 11.3e6) if other_gammas else DEFAULT_PHYSICS
        by_sp = {sp: idx.tolist() for sp, idx in table.by_species.items()}
        if data is None:  # the explicit examples take the first sites of each species
            sites = by_sp["Si"][:8] + by_sp["C"][:8]
        else:
            sites = [
                i
                for sp in ("Si", "C")
                for i in data.draw(st.lists(st.sampled_from(by_sp[sp]), min_size=2,
                                            max_size=8, unique=True))
            ]
        # every ordered pair: Si-Si, Si-C, C-Si and C-C, each in both orders
        i, j = zip(*[(a, b) for a in sites for b in sites if a != b])
        want = np.array([reference_sedor_between(table, a, b, physics) for a, b in zip(i, j)])
        got = sedor_between(table, np.array(i), np.array(j), physics)
        assert got.tobytes() == want.tobytes()

    def test_empty_pair_list(self, table26):
        assert sedor_between(table26, [], [], DEFAULT_PHYSICS).shape == (0,)


class TestSearchRadius:
    def test_rule_value(self):
        from spinmap.placement import minimum_search_radius

        # even an axial C-C coupling drops below 1.5 Hz beyond ~17.2 A
        r = minimum_search_radius(3.0)
        assert r == pytest.approx(17.17, abs=0.05)
        assert minimum_search_radius(3.0, cluster_extent=11.0) == pytest.approx(
            r + 11.0
        )

    def test_no_admissible_site_beyond_radius(self, table26):
        from spinmap.placement import minimum_search_radius

        r = minimum_search_radius(3.0)
        pos = table26.positions
        far = np.flatnonzero(np.linalg.norm(pos, axis=1) > r)
        for i in far[:100]:
            for ref_species in ("Si", "C"):
                f = oracle_sedor(pos[i], table26.species[i], np.zeros(3), ref_species)
                assert f < 1.5  # min_detectable / 2


class TestAmbiguity:
    def test_underconstrained_spin_multisite_report(self, table26):
        # rigid core plus one spin tied to the cluster by a single weak
        # coupling: every admissible site must be reported
        cluster, meas = paper_like(table26, seed=1)
        anchor_site = cluster.truth["Si1"]
        extra = CouplingMeasurement("Si30", "Si1", 4.5, 0.2)
        sols = place_all(meas + [extra], table26, PlacementConfig())
        report = ambiguity_report(sols)
        assert "Si30" in report
        sites = report["Si30"]
        assert len(sites) > 1
        # brute-force enumeration oracle: all unoccupied Si sites whose
        # coupling to the anchor lies within the 0.6 Hz window
        occupied = {
            site.key()
            for sol in sols
            for lab, site in sol.assignment.items()
            if lab != "Si30"
        }
        expected = set()
        for i in table26.by_species["Si"]:
            site = table26.site(i)
            if site.key() in occupied or site.key() == anchor_site.key():
                continue
            f = oracle_sedor(site.position, "Si", anchor_site.position, "Si")
            if abs(f - 4.5) <= 0.6:
                expected.add(site.key())
        got = {s.key() for s in sites}
        assert got == expected

    def test_no_report_when_unique(self, table26):
        _, meas = paper_like(table26, seed=1)
        sols = place_all(meas, table26, PlacementConfig())
        assert ambiguity_report(sols) == {}
