"""bigjumps: heavy-tailed cut-off sums, condensation constants, rare-event
window probabilities, conditional jump structure, and the lattice-torus
random graph whose out-degrees condense.
"""

__version__ = "0.1.0"

from .condensation import (
    KrhoResult,
    condensation_constant,
    limit_jump_density,
    jump_marginal_mass,
    sample_limit_jumps,
    load_tabulated_h,
    uniform_h,
)
from .rare_event import (
    ConditionalSample,
    GofResult,
    JumpProfile,
    RhoWindow,
    conditional_profiles,
    estimate_conditional,
    estimate_naive,
    exact_dp,
    exact_sum_distribution,
    jump_size_gof,
    jump_sum_window_prob,
    predicted_window_prob,
    ratio_sweep,
    structure_fraction,
)
from .schemes import (
    DiscreteGrid,
    EstimateResult,
    LatticeBall,
    Scheme,
    SmoothCutoff,
    TruncatedPareto,
    lln_deviation,
    load_scheme_config,
    sample_sums,
    save_scheme_config,
)
from .torus import (
    DegreeSummary,
    TorusConfig,
    ball_point_count,
    calibrate_h,
    condensation_stats,
    g_eval,
    g_inverse,
    g_prime,
    generate_graph,
    h_lattice,
    lattice_tail_constant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
