"""Outage probability and throughput of cross-packet HARQ over Rayleigh fading.

An exact backward recursion for any K, the paper's two-round Mellin-Barnes
form, the high-SNR asymptote for any K >= 2, lower and upper bounds,
nested-quadrature references for the tests, and a deterministic parallel
Monte Carlo engine, plus a CLI for single-point queries and CSV sweeps.
"""

import os as _os
import sys as _sys

# xpharq's parallelism is its own (Monte Carlo threads, sweep processes); an
# OpenBLAS helper thread would only spin on another CPU.  So unless numpy is
# already loaded or the caller has chosen a thread count, load it with one.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (
    ConsistencyError,
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    XpharqError,
    clamp_probability,
)
from .quadrature import hbar_quadrature, xp_outage_quadrature
from .exact import (
    foxh_h11_incomplete,
    incomplete_gamma_difference,
    outage_k2_via_foxh,
    phi_foxh,
)
from .asymptotic import build_hbar_table, hbar_eval, outage_asymptotic_general
from .bounds import ir_outage_chain, outage_lower, outage_upper_ir, throughput_recursion, xp_outage
from .simulate import SimConfig, estimate_outage, estimate_throughput
from .sweep import (
    ConfigError,
    SweepConfig,
    SweepRow,
    db_to_linear,
    emit_gnuplot,
    parse_config,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
