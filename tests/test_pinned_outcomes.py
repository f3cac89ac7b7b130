"""place_all outcomes pinned on random 16-Si tables under a 1,000-branch cap.

Recorded from the search as it stood before the placement windows were built
once per run.  Any later change to the search (integer site keys, whole-frontier
steps, factored placement) must leave every outcome here as it is: the same
per-step solution counts, class count and residuals, or the same typed error.
"""

import pytest

from spinmap.errors import SpinMapError
from spinmap.placement import PlacementConfig, place_all
from spinmap.synth import ClusterStructure, emit_couplings, generate_connected_cluster

# seed -> (branch_history, class count, lowest residual, residual sum) or
# (error type, message)
PINNED = {
    20: ((1, 3, 2, 4, 4, 4, 8, 8, 8, 16, 16, 48, 96, 96, 24, 144), 144,
         1.3148760956635992, 220.8470295405257),
    21: ("CapacityError", "branch count exceeded 1000 while placing 'Si3' (step 9)"),
    22: ("CapacityError", "branch count exceeded 1000 while placing 'Si9' (step 15)"),
    23: ("CapacityError", "branch count exceeded 1000 while placing 'Si15' (step 10)"),
    24: ("ConnectivityError", "labels not connected to the placed set: ['Si11', 'Si2', 'Si7']"),
    25: ("CapacityError", "branch count exceeded 1000 while placing 'Si10' (step 14)"),
    26: ("CapacityError", "branch count exceeded 1000 while placing 'Si14' (step 13)"),
    27: ("CapacityError", "branch count exceeded 1000 while placing 'Si11' (step 11)"),
    28: ("ConnectivityError", "labels not connected to the placed set: ['Si10', 'Si14', 'Si2']"),
    29: ("CapacityError", "branch count exceeded 1000 while placing 'Si5' (step 14)"),
    30: ((1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 6, 12), 12,
         1.4791292202933712, 20.53119551640757),
    31: ("CapacityError", "branch count exceeded 1000 while placing 'Si3' (step 15)"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_place_all_outcome_is_pinned(table26, seed):
    cluster = generate_connected_cluster(table26, 16, 0, ClusterStructure("random"), seed=seed)
    meas = emit_couplings(cluster, table26, 3.0)
    try:
        sols = place_all(meas, table26, PlacementConfig(max_branches=1000))
    except SpinMapError as exc:
        assert (type(exc).__name__, str(exc)) == PINNED[seed]
        return
    history, n_classes, lowest, total = PINNED[seed]
    assert sols[0].branch_history == history
    assert len({sol.orbit for sol in sols}) == n_classes
    assert sols[0].residual == pytest.approx(lowest, rel=1e-12)
    assert sum(sol.residual for sol in sols) == pytest.approx(total, rel=1e-12)
