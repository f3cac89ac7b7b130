"""spinmap: 3-D localization of nuclear spins around a spin-3/2 defect in
4H-SiC from pairwise dipolar (SEDOR) couplings, with an exact spin
Hamiltonian oracle, calibration and readout-statistics utilities."""

__version__ = "0.1.0"

from .calibrate import (
    CalibrationResult,
    dft_comparison_report,
    field_scan_min_aperp,
    g_factor_from_delta_b,
)
from .hamiltonian import (
    EigenstateLabel,
    SpinSystemSpec,
    deviation_sweep,
    eigenenergy_zeroth,
    sedor_correction_second_order,
    sedor_frequency_exact,
    subspace_averaged_sedor,
)
from .lattice import (
    Lattice,
    LatticeParams,
    LatticeSite,
    SiteTable,
    build_lattice,
    nearest_neighbor_distance,
    reference_site_si1,
)
from .placement import (
    CouplingMeasurement,
    PlacementConfig,
    PlacementSolution,
    ambiguity_report,
    order_heuristic,
    place_all,
    tolerance_for_pair,
)
from .refine import (
    RefinementConfig,
    RefinementResult,
    displacement_report,
    refine,
    residual_and_gradient,
)
from .sequences import (
    SequenceParams,
    amplitude_for_angle,
    ddrf_phase_update,
    ddrf_resonance_condition,
    effective_rabi,
    rotation_angle,
)
from .spinphys import (
    C13,
    SI29,
    FieldConfig,
    HyperfineTensor,
    Physics,
    SpinSpecies,
    dipolar_coupling,
    dipolar_tensor,
    invert_hyperfine,
    nuclear_frequency_perturbative,
    nuclear_transition_frequency,
    transverse_field_from_misalignment,
)
from .synth import (
    ClusterStructure,
    NoiseModel,
    SyntheticCluster,
    emit_couplings,
    emit_telegraph,
    generate_cluster,
    generate_connected_cluster,
    generate_spread_cluster,
)
from .telegraph import (
    TelegraphResult,
    TimeTrace,
    analyze_trace,
    dwell_times,
    fit_rates,
    smooth_and_threshold,
)
