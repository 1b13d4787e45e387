"""Numerical laboratory for weak-KAM theory and Birkhoff recurrence on the torus."""

__version__ = "0.1.0"

from .hamiltonians import (
    Family,
    LagrangianFnValue,
    TonelliHamiltonian,
    TrigPolynomial,
    fenchel_gap,
    free_hamiltonian,
    legendre_transform,
    mechanical,
    pendulum,
    shifted_quadratic,
)
from .flow import FlowSettings, PhasePoint, Trajectory, flow_map, trajectory
from .grids import GridFunction, constant_grid, grid_from_trig
from .curves import (
    FoldReport,
    LagrangianCurve,
    evolve,
    from_potential,
    graph_check,
    hausdorff_distance,
    oscillation,
    reduced_complexity_gauge,
)
from .lax_oleinik import (
    BarrierResult,
    CriticalValueEstimate,
    PotentialMatrix,
    lax_negative,
    lax_positive,
    mane_critical_value,
    minplus_compose,
    peierls_barrier,
    positive_weak_kam,
    potential,
)
from .spectral import (
    Certificate,
    SampledFqi,
    SpectralValue,
    fiber_selector,
    sample_fqi,
    selector_difference_bounds,
    selector_function,
    spectral_top,
    spectral_unit,
    sum_additivity_check,
)
from .calibration import (
    CalibratedCurveReport,
    SpaceTimeFunction,
    calibrated_curve,
    calibration_defect,
    domination_check,
    spacetime_from_grid,
    spacetime_from_lax,
)
from .experiments import (
    DiagnosticsRecord,
    ExperimentConfig,
    ReportBundle,
    load_config,
    run_autonomous_invariance,
    run_iteration_experiment,
    run_recurrence_experiment,
)
from .reports import emit_reports
