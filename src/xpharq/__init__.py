"""Outage probability and throughput of cross-packet HARQ over Rayleigh fading.

Exact closed forms (K <= 2), an exact backward recursion for any K, high-SNR
asymptotics, lower and upper bounds, nested-quadrature references, and a
deterministic parallel Monte Carlo engine, plus a CLI for single-point
queries and CSV sweeps.
"""

from .core import (
    ConsistencyError,
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    XpharqError,
    clamp_probability,
)
from .quadrature import (
    IntegrationResult,
    hbar_quadrature,
    integrate_adaptive,
    joint_density_x,
    phi_quadrature,
    xp_outage_quadrature,
)
from .exact import (
    foxh_h11_incomplete,
    incomplete_gamma_difference,
    outage_k1,
    outage_k2_exact,
    outage_k2_via_foxh,
    phi_foxh,
)
from .asymptotic import (
    HbarTable,
    SlopeFit,
    build_hbar_table,
    diversity_order_fit,
    hbar_eval,
    outage_asymptotic_general,
    outage_k2_asymptotic,
    phi_asymptotic,
)
from .bounds import (ir_outage_chain, outage_lower, outage_upper_ir, sum_info_cdf,
                     throughput_recursion, xp_outage)
from .simulate import (
    SimConfig,
    SimSummary,
    estimate_outage,
    estimate_throughput,
)
from .sweep import (
    ConfigError,
    SweepConfig,
    SweepRow,
    db_to_linear,
    emit_config,
    emit_gnuplot,
    parse_config,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
