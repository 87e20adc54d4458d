"""Named invariant suites run by ``verify``; ``couple`` runs ``coupling``.

Each reference config and each check is stated once, here. A check takes
its seeds and job count, and its config where a caller varies it, and
returns one outcome per comparison. ``SUITES`` runs the checks at fixed
seeds and desk-scale job counts; the acceptance test module calls the same
functions at its own seeds, job counts and thresholds.  The Poisson-marginal
check is the one outside ``SUITES``; only acceptance criterion 5 runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engines, stats
from .bounds import mminf_negative_part, mminf_tail
from .model import JobTypeSpec, ParamSet, SystemConfig, make_param_set
from .oracle import ctmc_stationary_auto, erlang_c
from .sim import PolicyKind, build_job_stream, check_couplings, simulate


# M/M/2 at half load: the Erlang-C reference case.
MM2 = SystemConfig(n=2, types=(JobTypeSpec(1.0, 1.0, 1),))

# n=6, needs (1, 3), slack 3.09 > l_max: the CTMC-oracle reference config.
# Most load sits on the small type so both queue lengths are far from
# rare-event territory and batch means behave.
TWO_TYPE = SystemConfig(n=6, types=(JobTypeSpec(2.76, 1.0, 1),
                                    JobTypeSpec(0.05, 1.0, 3)))


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _outcome(name, passed, detail=""):
    return CheckOutcome(name=name, passed=bool(passed), detail=detail)


def suite_coupling(config=None, seeds=range(5),
                   jobs=20_000) -> list[CheckOutcome]:
    """Pathwise sandwich and infinite-server dominance, exact comparisons,
    on one shared stream per seed; ``config`` defaults to set one at n=64."""
    config = config or make_param_set(ParamSet.ONE, 64)
    out = []
    for seed in seeds:
        sandwich_ok, dominance_ok = check_couplings(
            config, build_job_stream(seed, jobs, config))
        run = f"(n={config.n}, jobs={jobs}, seed={seed})"
        out.append(_outcome(f"waiting-time sandwich {run}", sandwich_ok))
        out.append(_outcome(f"infinite-server dominance {run}", dominance_ok))
    return out


def suite_poisson_marginals(config, seed, jobs) -> list[CheckOutcome]:
    """Infinite-server per-type mean job counts against the Poisson
    marginals E[X_i] = lambda_i/mu_i."""
    r = simulate(PolicyKind.INFINITE_SERVER, config,
                 build_job_stream(seed, jobs, config))
    return [_outcome(f"poisson_marginal[type{i + 1}]",
                     stats.from_batch_values(r.batch_x[:, i]).contains(
                         t.arrival_rate / t.service_rate))
            for i, t in enumerate(config.types)]


def suite_erlang_c(seed=0, jobs=200_000) -> list[CheckOutcome]:
    """FCFS mean wait on ``MM2`` against the Erlang-C formula."""
    (t,) = MM2.types
    ref = erlang_c(MM2.n, t.arrival_rate, t.service_rate)["mean_wait"]
    r = simulate(PolicyKind.FCFS, MM2, build_job_stream(seed, jobs, MM2))
    est = stats.mean_waiting_time(r, MM2)["overall"]
    return [_outcome("erlang_c_mm2", est.contains(ref),
                     f"est {est.mean:.4f} +- {est.half_width:.4f}, ref {ref:.4f}")]


def suite_ctmc(seed=0, jobs=200_000) -> list[CheckOutcome]:
    """The certified truncated-CTMC solution of ``TWO_TYPE``, then SNF's
    per-type queue lengths against it."""
    sol = ctmc_stationary_auto(TWO_TYPE)
    out = [_outcome("ctmc_contracts",
                    sol.residual_inf < 1e-10 and not sol.truncation_limited,
                    f"residual {sol.residual_inf:.2e}, tail {sol.tail_mass_bound:.2e}")]
    r = simulate(PolicyKind.SNF, TWO_TYPE, build_job_stream(seed, jobs, TWO_TYPE))
    for i in range(TWO_TYPE.num_types):
        est = stats.from_batch_values(r.batch_q[:, i])
        out.append(_outcome(
            f"ctmc_queue_type{i + 1}", est.contains(sol.mean_q[i]),
            f"est {est.mean:.5f} +- {est.half_width:.5f}, ctmc {sol.mean_q[i]:.5f}"))
    return out


def suite_drift(config=None, seed=0, jobs=200_000) -> list[CheckOutcome]:
    """Per-type in-service counts against the flow-balance identity under
    every finite-server policy; ``config`` defaults to set one at n=64."""
    config = config or make_param_set(ParamSet.ONE, 64)
    out = []
    stream = build_job_stream(seed, jobs, config)
    for policy in (PolicyKind.FCFS, PolicyKind.SNF, PolicyKind.SNF_NP,
                   PolicyKind.MODIFIED_FCFS):
        r = simulate(policy, config, stream)
        for i, t in enumerate(config.types):
            target = t.arrival_rate / t.service_rate
            est = stats.from_batch_values(r.batch_z[:, i])
            out.append(_outcome(
                f"in_service[{policy.value},type{i + 1}]", est.contains(target),
                f"est {est.mean:.3f} +- {est.half_width:.3f}, target {target:.3f}"))
    return out


def suite_tails(seed=0, jobs=200_000) -> list[CheckOutcome]:
    """One-sided left-tail bound for the infinite-server system, sampled at
    arrival epochs (Poisson arrivals see time averages)."""
    config = make_param_set(ParamSet.ONE, 64)
    c = tuple(1.0 / t.service_rate for t in config.types)
    scale = mminf_negative_part(config, c)  # threshold unit K
    stream = build_job_stream(seed, jobs, config)
    r = simulate(PolicyKind.INFINITE_SERVER, config, stream)
    phi = _phi_at_arrivals(r, config, c)
    out = []
    for mult in (0.5, 1.0, 1.5, 2.0):
        k_val = mult * scale
        bound = mminf_tail(config, c, k_val)
        freq = float((phi <= -k_val).mean())
        allowance = 3 * math.sqrt(bound * (1 - bound) / len(phi))
        out.append(_outcome(
            f"tail[K={mult}x]", freq <= bound + allowance,
            f"freq {freq:.4f} <= bound {bound:.4f} + {allowance:.4f}"))
    return out


def _phi_at_arrivals(result, config, c):
    """Centered weighted job count seen by each post-warm-up arrival.

    Sampled just before the arrival epoch, so the arriving job itself is
    excluded: that is the state Poisson arrivals observe.
    """
    t0, _ = result.window
    sample_times = result.arrivals[result.arrivals >= t0]
    needs = np.asarray(config.server_needs, dtype=np.float64)
    offered = np.array([t.arrival_rate / t.service_rate for t in config.types])
    c = np.asarray(c, dtype=np.float64)
    phi = np.full(len(sample_times), -float(c @ (needs * offered)))
    t, counts = engines.count_steps(result.arrivals, result.departures,
                                    result.types, config.num_types)
    counts = engines.step_at(t, counts, sample_times, side="left")
    for i in range(config.num_types):
        phi += c[i] * needs[i] * counts[:, i]
    return phi


SUITES = {
    "coupling": suite_coupling,
    "oracle": lambda: suite_erlang_c() + suite_ctmc(),
    "drift": suite_drift,
    "tails": suite_tails,
}
