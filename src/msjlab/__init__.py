"""Multiserver-job queueing laboratory.

Deterministic discrete-event simulation of multiserver-job systems under
pluggable scheduling policies, closed-form bound evaluation, exact
small-instance oracles, and coupled-sample-path verification, behind a CLI.
"""

from .model import (AssumptionReport, ConfigError, CriticalIndices,
                    DerivedParams, JobTypeSpec, ParamSet, SystemConfig,
                    check_assumptions, critical_indices, derive_params,
                    make_param_set)
from .engines import AuditResult, snf_allocation
from .sim import (DOMINANCE_SYSTEMS, PolicyKind, SimResult, check_couplings,
                  check_infinite_server_dominance, check_sandwich,
                  sandwich_systems, simulate, simulate_coupled)
from .stream import JobStream, build_job_stream
from .stats import (BatchMeansEstimate, batch_means, from_batch_values,
                    mean_waiting_time, queueing_probability, workload)
from .bounds import (BoundReport, evaluate_bounds, mminf_negative_part,
                     mminf_tail)
from .oracle import (CtmcSpec, StationarySolution, ctmc_stationary,
                     ctmc_stationary_auto, erlang_c, snf_allocation_fn)

__version__ = "0.1.0"
