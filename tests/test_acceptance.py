"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 3-6 and 12 run the checks of ``msjlab.verify`` at their own
seeds, job counts and thresholds. The expensive study runs (criteria 8-11)
are shared through session fixtures.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes several minutes at the pinned run lengths.
"""

import math

import numpy as np
import pytest

from msjlab import (ParamSet, PolicyKind, build_job_stream, derive_params,
                    make_param_set, mean_waiting_time, simulate)
from msjlab import stats
from msjlab.cli import SweepSpec, run_sweep, write_csv
from msjlab.verify import (suite_coupling, suite_ctmc, suite_drift,
                           suite_erlang_c, suite_poisson_marginals,
                           suite_tails)


def report(num, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:>2}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


# --- shared expensive runs ------------------------------------------------

STUDY_JOBS = 2_000_000
STUDY_SEED = 0


@pytest.fixture(scope="session")
def study_runs():
    """Set One at n in {256, 1024, 4096} and Set Two at n in {1024, 4096},
    FCFS and SNF, 2e6 jobs each, one shared stream per (set, n).  Only the
    summaries are kept; the per-job arrays would hold ~0.6 GB."""
    out = {}
    for which, ns in ((ParamSet.ONE, (256, 1024, 4096)),
                      (ParamSet.TWO, (1024, 4096))):
        for n in ns:
            config = make_param_set(which, n)
            stream = build_job_stream(STUDY_SEED, STUDY_JOBS, config)
            for policy in (PolicyKind.FCFS, PolicyKind.SNF):
                result = simulate(policy, config, stream)
                out[(which, n, policy)] = {
                    "wait": mean_waiting_time(result, config)["overall"],
                    "workload": stats.workload(result),
                    "audit": result.audit,
                }
    return out


def _wait(entry):
    return entry["wait"]


# --- criteria -------------------------------------------------------------

def test_criterion_01_erlang_c_match():
    outcomes = [o for seed in range(20) for o in suite_erlang_c(seed, 2_000_000)]
    hits = sum(o.passed for o in outcomes)
    report(1, "Erlang-C oracle match (M/M/2, 2e6 jobs, 20 seeds)",
           hits >= 18, f"{hits}/{len(outcomes)} CIs contain 1/3")


def test_criterion_02_whole_machine_mm1(whole_machine):
    outcomes = []
    for policy in (PolicyKind.FCFS, PolicyKind.SNF, PolicyKind.SNF_NP):
        result = simulate(policy, whole_machine,
                          build_job_stream(0, 1_000_000, whole_machine))
        est = mean_waiting_time(result, whole_machine)["overall"]
        outcomes.append((policy.value, est.contains(1.0), est))
    detail = "; ".join(f"{name} {est.mean:.4f}+-{est.half_width:.4f}"
                       for name, ok, est in outcomes)
    report(2, "whole-machine M/M/1 match (FCFS/SNF/SNF-NP)",
           all(ok for _, ok, _ in outcomes), detail)


def test_criterion_03_ctmc_oracle_equivalence():
    runs = [suite_ctmc(seed, 250_000) for seed in range(20)]
    contracts = runs[0][0]  # every run solves the same chain first
    hits = sum(all(o.passed for o in run[1:]) for run in runs)
    report(3, "CTMC oracle equivalence (SNF, 2 types)",
           contracts.passed and hits >= 18,
           f"{hits}/20 seeds contain both E[Q_i]; {contracts.detail}")


def test_criterion_04_sandwich_exactness():
    outcomes = [o for n in (64, 256) for o in suite_coupling(
        make_param_set(ParamSet.ONE, n), range(5), 100_000)]
    report(4, "waiting-time sandwich and infinite-server dominance, zero "
           "tolerance (n in {64,256}, 5 seeds)",
           all(o.passed for o in outcomes),
           f"{len(outcomes)} checks, every job, exact comparison")


def test_criterion_05_infinite_server_dominance(set_one_64):
    pathwise = all(o.passed for o in suite_coupling(set_one_64, (0,), 500_000))
    marginals = all(o.passed for o in suite_poisson_marginals(
        set_one_64, 0, 500_000))
    report(5, "infinite-server dominance, sandwich and Poisson marginals",
           pathwise and marginals,
           f"pathwise={pathwise}, marginal CIs={marginals}")


def test_criterion_06_drift_identity():
    outcomes = [(n, o) for n in (64, 256) for o in suite_drift(
        make_param_set(ParamSet.ONE, n), 0, 400_000)]
    failures = [f"n={n} {o.name}" for n, o in outcomes if not o.passed]
    report(6, "flow-balance identity E[Z_i] = lambda_i/mu_i, all policies",
           not failures, f"failures: {failures}" if failures else
           f"{len(outcomes)}/{len(outcomes)} CIs contain the target")


def test_criterion_07_queue_fraction_identity():
    config = make_param_set(ParamSet.ONE, 256)
    p = derive_params(config)
    result = simulate(PolicyKind.MODIFIED_FCFS, config,
                      build_job_stream(0, 1_000_000, config))
    q_total = result.batch_q.sum(axis=1)
    outcomes = []
    for i, t in enumerate(config.types):
        est = stats.from_batch_values(result.batch_q[:, i] / q_total)
        outcomes.append(est.contains(t.arrival_rate / p.lambda_total))
    report(7, "queue-fraction identity under Modified-FCFS (n=256)",
           all(outcomes), f"per-type containment: {outcomes}")


def test_criterion_08_figure3_qualitative(study_runs):
    ratios = {}
    for n in (1024, 4096):
        fcfs = _wait(study_runs[(ParamSet.TWO, n, PolicyKind.FCFS)]).mean
        snf = _wait(study_runs[(ParamSet.TWO, n, PolicyKind.SNF)]).mean
        ratios[n] = fcfs / snf
    ordering = all(
        _wait(study_runs[(ParamSet.ONE, n, PolicyKind.SNF)]).mean
        < _wait(study_runs[(ParamSet.ONE, n, PolicyKind.FCFS)]).mean
        for n in (256, 1024, 4096))
    report(8, "study reproduction: Set Two ratio > 3, Set One SNF < FCFS",
           all(r > 3 for r in ratios.values()) and ordering,
           f"ratios {dict((k, round(v, 2)) for k, v in ratios.items())}, "
           f"ordering={ordering}")


def test_criterion_09_workload_bracketing(study_runs):
    outcomes = []
    for n in (1024, 4096):
        config = make_param_set(ParamSet.ONE, n)
        p = derive_params(config)
        lo = 0.5 * p.sigma2 / p.delta
        hi = 2.0 * p.sigma2 / (p.delta - p.l_max)
        for policy in (PolicyKind.FCFS, PolicyKind.SNF):
            wl = study_runs[(ParamSet.ONE, n, policy)]["workload"].mean
            outcomes.append((n, policy.value, lo <= wl <= hi, round(wl, 1)))
    report(9, "workload bracketing with documented slack (Set One)",
           all(ok for _, _, ok, _ in outcomes),
           "; ".join(f"n={n} {pol}: {wl}" for n, pol, _, wl in outcomes))


def test_criterion_10_order_trend(study_runs):
    ns = (256, 1024, 4096)
    snf_scaled = [_wait(study_runs[(ParamSet.ONE, n, PolicyKind.SNF)]).mean
                  * math.sqrt(n) for n in ns]
    fcfs = [_wait(study_runs[(ParamSet.ONE, n, PolicyKind.FCFS)]).mean
            for n in ns]
    snf_factor = max(snf_scaled) / min(snf_scaled)
    fcfs_factor = max(fcfs) / min(fcfs)
    report(10, "order trend: SNF ~ 1/sqrt(n), FCFS ~ const (Set One)",
           snf_factor < 2 and fcfs_factor < 2,
           f"SNF-scaled spread {snf_factor:.2f}, FCFS spread {fcfs_factor:.2f}")


def test_criterion_11_work_conservation_audits(study_runs):
    violations = {
        (w.value, n, pol.value): entry["audit"].violations
        for (w, n, pol), entry in study_runs.items()}
    report(11, "work-conservation audits clean at delta' = l_max",
           all(v == 0 for v in violations.values()),
           f"{len(violations)} runs, all zero" if
           all(v == 0 for v in violations.values()) else str(violations))


def test_criterion_12_tail_bounds():
    outcomes = suite_tails(seed=0, jobs=1_000_000)
    report(12, "one-sided tail bounds (infinite server, 1e6 jobs)",
           all(o.passed for o in outcomes),
           "; ".join(f"{o.name}: {o.detail}" for o in outcomes))


def test_criterion_13_determinism(tmp_path):
    spec = SweepSpec(param_set="one", n_list=(64,), policies=("fcfs", "snf"),
                     seeds=(0, 1), jobs=100_000)
    texts = []
    for name in ("a.csv", "b.csv"):
        rows = run_sweep(spec)
        path = tmp_path / name
        with open(path, "w") as fh:
            write_csv(rows, fh)
        texts.append(path.read_bytes())
    config = make_param_set(ParamSet.ONE, 64)
    stream = build_job_stream(0, 100_000, config)
    digests = {simulate(PolicyKind.SNF, config, stream).digest()
               for _ in range(2)}
    report(13, "byte-identical reruns (CSV rows and result digests)",
           texts[0] == texts[1] and len(digests) == 1,
           f"csv bytes equal={texts[0] == texts[1]}, digest unique={len(digests)}")
