"""The three benchmark workloads: inputs built from a seed, one unit of work,
and the output checks that feed ``fail_frac``.

Every call into msjlab goes through a module attribute (``cli.run_sweep``,
``sim.simulate_coupled``, ...) so that the tracer, which swaps those
attributes, sees it.  Nothing here imports a msjlab function by name.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

import msjlab
from msjlab import cli, model, oracle, sim

DEFAULT_SEED = 0
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# Job counts per unit of work: each unit takes one to two seconds on one core,
# enough to make a per-unit time steady while a run still repeats it.
SWEEP_JOBS = 50_000
COUPLE_JOBS = 100_000

# Fixed-cap 3-type SNF box: 21**3 = 9,261 states.  The loads are light enough
# that the truncation boundary carries < 1e-10 of the mass for every seed
# (the seed only lowers the rates), so no seed trips truncation_limited.
BOX_CAP = (20, 20, 20)
BOX_N = 8
BOX_NEEDS = (1, 2, 4)
BOX_RATES = (1.2, 0.6, 0.25)
# The two-type CTMC reference config of the test suite (tests/conftest.py).
TWO_TYPE = ((2.76, 1.0, 1), (0.05, 1.0, 3))
ERLANG_N = 64

CTMC_RESIDUAL_TOL = 1e-10
# Golden mean_q tolerance: wide enough for a different direct or iterative
# solver meeting the residual bound above, tight enough to catch a wrong chain.
MEAN_Q_RTOL = 1e-6
MEAN_Q_ATOL = 1e-9


class Checks:
    """Counts output checks attempted and failed; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


def _seed_factors(seed: int, count: int) -> np.ndarray:
    """Per-seed rate multipliers in [0.9, 1.0]; seed 0 keeps the base rates."""
    if seed == DEFAULT_SEED:
        return np.ones(count)
    return 0.9 + 0.1 * np.random.default_rng(seed).random(count)


# --- sweep -----------------------------------------------------------------

def setup_sweep(seed: int) -> dict:
    specs = [cli.SweepSpec(param_set=ps, n_list=(n,),
                           policies=("fcfs", "snf", "snf-np"), seeds=(seed,),
                           jobs=SWEEP_JOBS)
             for ps, n in (("one", 64), ("two", 1024))]
    for spec in specs:
        cli.resolve_config(spec.param_set, spec.n_list[0])
    return {"seed": seed, "specs": specs}


def run_sweep(state: dict, check: Checks, wrap) -> str:
    """``msjlab sweep`` at its default worker count, set one then set two."""
    rows = []
    for spec in state["specs"]:
        rows += cli.run_sweep(spec)
    buf = io.StringIO()
    cli.write_csv(rows, buf)
    csv_sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()

    for row in rows:
        where = f"{row['row_kind']} {row['param_set']} n={row['n']} {row.get('policy', '')}"
        check(f"sweep {where}: empty error column", not row.get("error"))
        if row["row_kind"] == "sim":
            check(f"sweep {where}: audit_violations == 0",
                  row.get("audit_violations") == 0)
            waits = [row.get("mean_wait")] + list(row.get("wait_per_type") or [])
            check(f"sweep {where}: mean waits >= 0",
                  all(w is None or w >= 0 for w in waits))
    if state["seed"] == DEFAULT_SEED:
        check("sweep: golden CSV sha256", csv_sha == GOLDEN["sweep"]["csv_sha256"])
    return csv_sha


# --- couple ----------------------------------------------------------------

def setup_couple(seed: int) -> dict:
    config = model.make_param_set(model.ParamSet.ONE, 64)
    l_max = model.derive_params(config).l_max
    kinds = msjlab.PolicyKind
    return {
        "seed": seed,
        "config": config,
        "triple": [(kinds.MODIFIED_FCFS, config.n + l_max), (kinds.FCFS, None),
                   (kinds.MODIFIED_FCFS, None)],
        "pair": [(kinds.INFINITE_SERVER, None), (kinds.FCFS, None)],
    }


def run_couple(state: dict, check: Checks, wrap) -> str:
    """``msjlab couple``: sandwich triple, then dominance pair, one stream."""
    config = state["config"]
    stream = sim.build_job_stream(state["seed"], COUPLE_JOBS, config)
    triple = sim.simulate_coupled(state["triple"], config, stream)
    sandwich_ok = sim.check_sandwich(triple)
    pair = sim.simulate_coupled(state["pair"], config, stream)
    dominance_ok = sim.check_infinite_server_dominance(pair)
    results = triple + pair
    digests = [r.digest() for r in results]

    check("couple: waiting-time sandwich", sandwich_ok)
    check("couple: infinite-server dominance", dominance_ok)
    check("couple: FCFS@n equal in triple and pair", digests[1] == digests[4])
    for k, r in enumerate(results):
        check(f"couple result {k}: audit_violations == 0", r.audit.violations == 0)
        check(f"couple result {k}: waits >= 0", bool(np.all(r.waits >= 0)))
        check(f"couple result {k}: departures >= arrivals",
              bool(np.all(r.departures >= r.arrivals)))
    if state["seed"] == DEFAULT_SEED:
        for k, (got, want) in enumerate(zip(digests, GOLDEN["couple"]["digests"])):
            check(f"couple result {k}: golden digest", got == want)
    return ";".join(digests)


# --- oracle ----------------------------------------------------------------

def setup_oracle(seed: int) -> dict:
    rates = np.array(BOX_RATES) * _seed_factors(seed, len(BOX_RATES))
    box = model.SystemConfig(n=BOX_N, types=tuple(
        model.JobTypeSpec(float(lam), 1.0, need)
        for lam, need in zip(rates, BOX_NEEDS)))
    two_type = model.SystemConfig(n=6, types=tuple(
        model.JobTypeSpec(*t) for t in TWO_TYPE))
    erlang_lam = 0.8 * ERLANG_N * float(_seed_factors(seed, 1)[0])
    return {
        "seed": seed,
        "box": box,
        "box_alloc": oracle.snf_allocation_fn(box),
        "two_type": two_type,
        "two_type_alloc": oracle.snf_allocation_fn(two_type),
        "erlang": (ERLANG_N, erlang_lam, 1.0),
    }


def run_oracle(state: dict, check: Checks, wrap) -> str:
    """Fixed-cap 3-type SNF box, the auto-capped two-type reference, Erlang-C."""
    box_spec = oracle.CtmcSpec(config=state["box"], cap=BOX_CAP,
                               allocation=wrap("oracle.allocation", state["box_alloc"]))
    box = oracle.ctmc_stationary(box_spec)
    two = oracle.ctmc_stationary_auto(
        state["two_type"], allocation=wrap("oracle.allocation", state["two_type_alloc"]))
    ec = oracle.erlang_c(*state["erlang"])

    for name, sol in (("box", box), ("two_type", two)):
        check(f"oracle {name}: residual_inf < {CTMC_RESIDUAL_TOL}",
              sol.residual_inf < CTMC_RESIDUAL_TOL)
        check(f"oracle {name}: not truncation_limited", not sol.truncation_limited)
    check("oracle erlang_c: 0 < p_wait < 1", 0 < ec["p_wait"] < 1)
    if state["seed"] == DEFAULT_SEED:
        golden = GOLDEN["oracle"]
        for name, sol in (("box", box), ("two_type", two)):
            check(f"oracle {name}: golden mean_q",
                  np.allclose(sol.mean_q, golden[f"{name}_mean_q"],
                              rtol=MEAN_Q_RTOL, atol=MEAN_Q_ATOL))
        check("oracle erlang_c: golden p_wait",
              np.isclose(ec["p_wait"], golden["erlang_p_wait"], rtol=1e-12))
    h = hashlib.sha256()
    for arr in (box.mean_q, two.mean_q, np.array([ec["p_wait"], ec["mean_wait"]])):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "couple": (setup_couple, run_couple),
    "oracle": (setup_oracle, run_oracle),
}
