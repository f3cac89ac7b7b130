import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinmap
from conftest import (
    drawn_lattices,
    reference_canonical_rep_indices,
    reference_orbit_info,
    reference_recovery,
    reference_sedor_between,
    reference_table_symmetry_ops,
)
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
    order_heuristic,
    place_all,
    sedor_between,
    tolerance_for_pair,
    truth_recovery,
    _FrequencyCache,
    _axial_ops,
    _canonical_rep_indices,
    _candidate_indices,
    _orbit_info,
    _step_windows,
    _table_symmetry_ops,
)
from spinmap.constants import GAMMA_C13, GAMMA_SI29
from spinmap.hamiltonian import SpinSystemSpec
from spinmap.lattice import LatticeParams, SiteTable, build_lattice
from spinmap.refine import _czz_with_gradient, _Terms
from spinmap.spinphys import (
    DEFAULT_PHYSICS,
    FieldConfig,
    HyperfineTensor,
    Physics,
    dipolar_alpha,
    dipolar_coupling,
    species_for_label,
)
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


class TestPlacementConfig:
    @pytest.mark.parametrize("value", [float("nan"), -float("inf"), -1.0])
    def test_rejects_bad_min_detectable(self, value):
        with pytest.raises(InputError, match="min_detectable must be >= 0"):
            PlacementConfig(min_detectable=value)

    @pytest.mark.parametrize("value", [0, -5, 2.5, "10"])
    def test_rejects_bad_max_branches(self, value):
        with pytest.raises(InputError, match="max_branches must be an integer >= 1"):
            PlacementConfig(max_branches=value)

    def test_accepts_edge_values(self):
        config = PlacementConfig(min_detectable=0.0, max_branches=np.int64(1))
        assert (config.min_detectable, config.max_branches) == (0.0, 1)


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


def candidates(table, partial, order, measurements, config):
    """Site indices admissible for order[-1] with order[:-1] placed at the
    sites of partial: the last step's windows through the mask kernel."""
    used = [m for m in measurements
            if m.f_ij >= config.min_detectable and {m.spin_a, m.spin_b} <= set(order)]
    windows = _step_windows(order, used, config)[-1]
    return _candidate_indices(table, _FrequencyCache(table, config.physics), tuple(partial),
                              windows, species_for_label(order[-1]).name).tolist()


class TestCandidateSites:
    def test_shrinks_with_tolerance_but_keeps_truth(self, table26):
        cluster, meas = paper_like(table26, seed=1)
        target = next(m for m in meas if "Si1" in (m.spin_a, m.spin_b))
        other = target.spin_b if target.spin_a == "Si1" else target.spin_a
        sizes = []
        for tol in (2.0, 0.6, 0.05, 1e-6):
            cfg = PlacementConfig(tolerance_default=tol)
            cands = candidates(table26, [cluster.index["Si1"]], ["Si1", other], meas, cfg)
            sizes.append(len(cands))
            assert cluster.index[other] in cands
        assert sizes == sorted(sizes, reverse=True)

    def test_split_spin_scenario_yields_empty(self, table26):
        # two reference spins too far apart to share a partner at ~4-5 Hz:
        # couplings of 4.31 and 4.87 Hz imply sites within ~11 A of each
        # reference, impossible when the references are > 22 A apart
        pos = table26.positions
        si_idx = table26.by_species["Si"]
        p9 = si_idx[int(np.argmax(pos[si_idx][:, 0]))]
        d = np.linalg.norm(pos[si_idx] - pos[p9], axis=1)
        p12 = si_idx[int(np.argmax(d))]
        assert np.linalg.norm(pos[p9] - pos[p12]) > 21.5
        meas = [
            CouplingMeasurement("Si8", "Si9", 4.31, 0.2),
            CouplingMeasurement("Si8", "Si12", 4.87, 0.2),
        ]
        cands = candidates(table26, [p9, p12], ["Si9", "Si12", "Si8"], meas, PlacementConfig())
        assert cands == []
        # brute-force oracle agrees that no site satisfies both couplings
        for i in si_idx:
            if i in (p9, p12):
                continue
            f9 = oracle_sedor(pos[i], "Si", pos[p9], "Si")
            f12 = oracle_sedor(pos[i], "Si", pos[p12], "Si")
            assert not (abs(f9 - 4.31) <= 0.6 and abs(f12 - 4.87) <= 0.6)


class TestStepWindows:
    CFG = PlacementConfig(tolerance_overrides={("Si1", "Si2"): 3.0})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_windows_are_the_used_measurements(self, table26, seed):
        _, meas = paper_like(table26, seed=seed, noise=NoiseModel("gaussian", 0.2, 3.0))
        used = [m for m in meas if m.f_ij >= self.CFG.min_detectable]
        order = order_heuristic(used)
        windows = _step_windows(order, used, self.CFG)
        assert len(windows) == len(order) and windows[0] == []
        # every later step has a window into the placed set, which is what
        # lets place_all go without a connectivity check of its own
        assert all(windows[k] for k in range(1, len(order)))
        flat = [(k, *w) for k, ws in enumerate(windows) for w in ws]
        assert all(partner < k for k, partner, _, _ in flat)
        step_of = {lab: k for k, lab in enumerate(order)}
        expected = sorted(
            (max(step_of[m.spin_a], step_of[m.spin_b]), i,
             min(step_of[m.spin_a], step_of[m.spin_b]), m.f_ij,
             tolerance_for_pair(m.pair, m.f_ij, self.CFG))
            for i, m in enumerate(used))
        # in measurement order within each step
        assert flat == [(k, partner, f, tol) for k, _, partner, f, tol in expected]
        si1, si2 = sorted((step_of["Si1"], step_of["Si2"]))
        assert [tol for k, partner, _, tol in flat if (partner, k) == (si1, si2)] == [3.0]


class TestPlaceAll:
    def test_noiseless_roundtrip_unique(self, table26):
        cluster, meas = paper_like(table26, seed=1)
        sols = place_all(meas, table26, PlacementConfig())
        ops = _table_symmetry_ops(table26)
        hit, n_classes = reference_recovery(table26, ops, cluster, sols)
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
        hit, _ = reference_recovery(table26, ops, cluster, sols)
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
        mapped = dataclasses.replace(cluster, table=table26, index=images)
        config = PlacementConfig(tolerance_overrides={("Si1", "Si2"): 3.0})
        results = []
        for c in (cluster, mapped):
            sols = place_all(emit_couplings(c, table26, 3.0), table26, config)
            hit, n_classes = reference_recovery(table26, ops, c, sols)
            assert hit
            results.append((n_classes, sorted(sol.residual for sol in sols)))
        (n0, res0), (n1, res1) = results
        assert n1 == n0
        assert res1 == pytest.approx(res0, rel=1e-9, abs=0.0)


class TestLabelPermutation:
    """Renaming non-anchor labels within a species may change the search
    order, but not the result: the same residuals, the same symmetry classes
    (as label -> site images, named back), and the truth recovered or not alike.

    The criterion-4 tables place uniquely, so the pinned random tables with
    144 and 12 classes (tests/test_pinned_outcomes.py, seeds 20 and 30) are
    renamed too: there a tie broken on the raw label would show."""

    @staticmethod
    def _check(table, cluster, data, overrides=lambda names: {}):
        meas = emit_couplings(cluster, table, 3.0)
        truth = cluster.index
        si = sorted(lab for lab in truth if lab.startswith("Si") and lab != "Si1")
        c = sorted(lab for lab in truth if lab.startswith("C"))
        rename = {"Si1": "Si1"}
        rename.update(zip(si, data.draw(st.permutations(si), label="Si renaming")))
        rename.update(zip(c, data.draw(st.permutations(c), label="C renaming")))
        results = []
        for names in ({lab: lab for lab in truth}, rename):
            config = PlacementConfig(tolerance_overrides=overrides(names))
            renamed = [dataclasses.replace(m, spin_a=names[m.spin_a], spin_b=names[m.spin_b])
                       for m in meas]
            sols = place_all(renamed, table, config)
            recovery = truth_recovery(sols, {names[lab]: i for lab, i in truth.items()})
            old = {new: lab for lab, new in names.items()}
            classes = {
                frozenset(frozenset(zip(map(old.get, sol.assignment), image))
                          for image in sol.orbit)
                for sol in sols
            }
            results.append((recovery, classes, sorted(sol.residual for sol in sols)))
        (rec0, classes0, res0), (rec1, classes1, res1) = results
        assert rec1 == rec0
        assert classes1 == classes0
        assert res1 == pytest.approx(res0, rel=1e-12, abs=0.0)
        return len(classes0)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 19), data=st.data())
    def test_renamed_labels_same_result(self, table26, seed, data):
        cluster = generate_connected_cluster(
            table26, 22, 3, ClusterStructure("clustered", 4, 5, 7), seed=seed,
            noise=NoiseModel("gaussian", 0.2, 3.0),
        )
        self._check(table26, cluster, data,
                    lambda names: {(names["Si1"], names["Si2"]): 3.0})

    @pytest.mark.parametrize("seed, n_classes", [(20, 144), (30, 12)])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_renamed_labels_same_classes_when_ambiguous(self, table26, seed, n_classes, data):
        cluster = generate_connected_cluster(table26, 16, 0, ClusterStructure("random"),
                                             seed=seed)
        assert self._check(table26, cluster, data) == n_classes


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


class TestOneValueOfF:
    """The five codes that turn two positions into C_zz give one SEDOR
    frequency |C_zz|/2: placement's frequency cache, sedor_between, the
    refinement kernel, dipolar_coupling and the Hamiltonian's pair tensor.

    They agree to 1e-12 of the pair's scale |alpha| / (2 r^3), which is the
    size of |C_zz|/2 away from the magic angle.  Near it C_zz cancels, and
    there the codes' roundings differ by up to about 1e-12 of f itself."""

    @settings(max_examples=30, deadline=None)
    @given(drawn_lattices(), st.data(),
           st.floats(0.5, 2.0).flatmap(lambda s: st.sampled_from([s, -s])),
           st.floats(0.5, 2.0).flatmap(lambda s: st.sampled_from([s, -s])))
    @example(LatticeParams(), None, 1.0, 1.0)
    def test_pair_frequency_codes_agree(self, params, data, scale_si, scale_c):
        table = SiteTable(build_lattice(params, 8.0))
        physics = Physics.from_gammas(GAMMA_SI29 * scale_si, GAMMA_C13 * scale_c)
        n = len(table)
        if data is None:  # the explicit example takes every pair among the first sites
            pairs = [(a, b) for a in range(12) for b in range(12) if a != b]
        else:
            pairs = data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]), min_size=1, max_size=20))
        i, j = (np.array(col) for col in zip(*pairs))
        species = {"Si": physics.si29, "C": physics.c13}
        sp_i = [species[x] for x in table.species[i]]
        sp_j = [species[x] for x in table.species[j]]
        pos_i, pos_j = table.positions[i], table.positions[j]

        between = sedor_between(table, i, j, physics)
        cache = _FrequencyCache(table, physics)
        cached = [cache.sedor(a, s.name)[np.searchsorted(table.by_species[table.species[b]], b)]
                  for a, b, s in zip(i.tolist(), j.tolist(), sp_j)]
        alpha = np.array([dipolar_alpha(a, b) for a, b in zip(sp_i, sp_j)])
        k = np.arange(len(pairs))
        kernel, _ = _czz_with_gradient(np.concatenate([pos_i, pos_j]),
                                       _Terms(k, k + len(pairs), np.zeros(len(pairs)), alpha))
        coupling = [dipolar_coupling(p, q, a, b) for p, q, a, b in zip(pos_i, pos_j, sp_i, sp_j)]
        hf = HyperfineTensor.from_perp(30e3, 3e3)
        tensor = [SpinSystemSpec.from_geometry(35e6, FieldConfig(b_z=1960.9), (a, hf, p),
                                               (b, hf, q)).c_zz
                  for p, q, a, b in zip(pos_i, pos_j, sp_i, sp_j)]
        scale = 0.5 * np.abs(alpha) / np.linalg.norm(pos_j - pos_i, axis=1) ** 3
        for name, f in [("cache", cached), ("refine kernel", 0.5 * np.abs(kernel)),
                        ("dipolar_coupling", 0.5 * np.abs(coupling)),
                        ("pair tensor", 0.5 * np.abs(tensor))]:
            err = np.abs(np.asarray(f) - between) / scale
            assert err.max() <= 1e-12, f"{name}: {err.max():.3g} of the pair scale"


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


class TestOneSiteImageLookup:
    """Detection, candidate reduction and the orbit pass, all through
    SiteTable.image_indices, against the float-key versions they replaced
    (conftest's references).  Reduction and orbits look each image up per
    element as the references did, so they must agree exactly.  Detection
    rotated the ball in one batched product, whose last bits differ from
    the per-element op @ p; an op may then be kept by one and not the other
    only where the two products round to different 5-decimal keys."""

    @staticmethod
    def rounds_apart(table, op):
        ball = table.positions[np.linalg.norm(table.positions, axis=1) <= 7.5]
        return any(table._pos_key(q) != table._pos_key(op @ p) for p, q in zip(ball, ball @ op.T))

    @settings(max_examples=40, deadline=None)
    @given(drawn_lattices(), st.floats(6.0, 12.0), st.integers(0, 2**32 - 1))
    @example(LatticeParams(a=3.07301), 9.0, 0)  # the 5-decimal tie of TestSymmetry
    @example(LatticeParams(k_variant=1), 12.0, 1)
    def test_same_as_float_keys(self, params, radius, seed):
        table = SiteTable(build_lattice(params, radius))
        ops = _table_symmetry_ops(table)
        kept = {op.tobytes() for op in ops}
        ref_kept = {op.tobytes() for op in reference_table_symmetry_ops(table)}
        cands = _axial_ops()
        assert [op.tobytes() for op in ops] == [c.tobytes() for c in cands if c.tobytes() in kept]
        for c in cands:
            if (c.tobytes() in kept) != (c.tobytes() in ref_kept):
                assert self.rounds_apart(table, c)

        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(len(table), size=min(60, len(table)), replace=False))
        for _ in range(3 if len(ops) > 1 else 0):
            size = int(rng.integers(2, len(ops) + 1))
            stab = tuple(sorted(int(oi) for oi in rng.choice(len(ops), size, replace=False)))
            keep, stabs = _canonical_rep_indices(table, indices, ops, stab)
            ref_keep, ref_stabs = reference_canonical_rep_indices(
                table, indices, [ops[oi] for oi in stab])
            assert keep == ref_keep
            assert stabs == [tuple(stab[j] for j in cs) for cs in ref_stabs]

        # all 12 candidates too: those that are not symmetries map sites off the table
        for op_set in (ops, cands):
            for _ in range(5):
                partial = tuple(int(i) for i in rng.choice(len(table), size=6, replace=False))
                assert _orbit_info(table, partial, op_set) == reference_orbit_info(
                    table, partial, op_set)

    def test_op_must_preserve_species(self, params):
        # one off-axis site relabelled: only the ops fixing it still map the
        # species onto themselves, though every op still maps positions to positions
        lattice = build_lattice(params, 8.0)
        i = int(np.flatnonzero(np.hypot(lattice.positions[:, 0], lattice.positions[:, 1]) > 1.0)[0])
        species = lattice.species.copy()
        species[i] = "C" if species[i] == "Si" else "Si"
        table = SiteTable(dataclasses.replace(lattice, species=species))
        ops = _table_symmetry_ops(table)
        assert [op.tobytes() for op in ops] == [
            op.tobytes() for op in reference_table_symmetry_ops(table)]
        assert len(ops) == 2
        assert all(row == (i,) for row in table.image_indices(ops, [i]))


def _names_used(path, names):
    """(line, name) of every identifier, attribute or definition in the
    module at path whose name is in names."""
    return [
        (n.lineno, name)
        for n in ast.walk(ast.parse(path.read_text()))
        for name in [getattr(n, "id", None) or getattr(n, "attr", None)
                     or getattr(n, "name", None)]
        if name in names
    ]


SYMMETRY_INTERNALS = {"_table_symmetry_ops", "_orbit_info", "canonical_assignment"}


def test_only_placement_uses_symmetry_internals():
    # one symmetry implementation: other modules read the orbits the solutions carry
    for path in sorted(Path(spinmap.__file__).parent.glob("*.py")):
        if path.name != "placement.py":
            uses = _names_used(path, SYMMETRY_INTERNALS)
            assert not uses, f"{path.name}: symmetry internals used at {uses}"


def test_float_site_keys_stay_in_lattice():
    # every other module finds sites through SiteTable's lookups
    for path in sorted(Path(spinmap.__file__).parent.glob("*.py")):
        if path.name != "lattice.py":
            uses = _names_used(path, {"_pos_key", "_index"})
            assert not uses, f"{path.name}: float site keys used at {uses}"


def test_one_candidate_kernel():
    # constraints are data: every frequency-row lookup of the search sits in
    # the one mask kernel, so a new kind of constraint is a new window, not
    # a new path through the frontier loop
    inside, outside = [], []
    for path in sorted(Path(spinmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        kernel = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_candidate_indices"
                  for n in ast.walk(f)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "sedor":
                (inside if id(n) in kernel else outside).append((path.name, n.lineno))
    assert len(inside) == 1 and not outside, f"sedor calls outside the kernel: {outside}"
