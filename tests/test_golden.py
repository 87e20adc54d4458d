"""Golden pins: result digests, sweep CSV bytes, ``msjlab run`` and
``msjlab bounds`` JSON bytes and trajectory-dump bytes.

A refactor of the engines, ``collect_stats``, the CSV or JSON writers, the
bound report or the trajectory writer must leave every value unchanged; a
change that alters output on purpose updates them and says why.
"""

import hashlib
import io
import json

import pytest
from click.testing import CliRunner

from msjlab import (ParamSet, PolicyKind, build_job_stream, make_param_set,
                    simulate)
from msjlab.cli import SweepSpec, main, run_sweep, write_csv

DIGESTS = {
    ("one", 64): {
        "fcfs": "5700c0facf0e84f20b7f1f1ef3ab12fb205db7c62efbd8c64aebbed6a3505ab7",
        "snf": "6c3befade02aac6a3a01ad209e1712475b13ce57d680b5598225693650f5a990",
        "snf-np": "fbd1113fa4e0b13493217973a752d5d9c2d863f563cdb1b1236bf07d9357ab84",
        "mod-fcfs": "e168974004cd91d677d2c38663bedb939150ab6c52a3518cfa2f2d36c00cb5e6",
        "inf": "cac2adb4dfcf9750eb8401d28018472c7502476c5be3da3b28d7cbff04c87431",
    },
    ("one", 1024): {
        "fcfs": "e6e312ad8e7313e4c38bd253b9cdf52fba869a5ccbc74c5796fce33563239f80",
        "snf": "a1396711a8db4d329b96a9114e70d18fb2e31e9e1fc022fe08189dfa4ef85c4a",
        "snf-np": "566b618378d0002fcfab1e0bb3342026f07ae8155627f555bdfda3d1dadd7406",
        "mod-fcfs": "57c32b7e2829a9b3cc4fa32dcff4c913b0189ee5c63c0a0446b03a5e4c023746",
        "inf": "a283080e9a8d95d77cea30310651b45789e04522ed95d4f05adb84a739225ab6",
    },
    ("two", 64): {
        "fcfs": "9f619045f6a74bc67fccb344877c65c3adc850e5df2130a4ecd636941e37360a",
        "snf": "3d2e908329da3a9154408b0c24fb5af18c9dafd916ada4a459daea304670973e",
        "snf-np": "87ded67242e4d9d08a6836b4ba7fff83ea506c3702bee34526ed35bca6c2bbed",
        "mod-fcfs": "74da2472c42eef08f6fc04d476223dbd8da0e0e1b5c3d9e96fe67f3e226cf391",
        "inf": "51905f4ca5ac687bf80efd0335c04c7850426434c2e925c6c5452e388d672420",
    },
    ("two", 1024): {
        "fcfs": "2801094dfd2246d7d8afe17ac658d7c006c70aaf5172e7ac7e64fdfa7f7169ad",
        "snf": "2164c0c47ff0ec5bdcad0c328def4bb56683891899b0731cb87571fabb1ec5bd",
        "snf-np": "d0f621f57927d38b141bc545e4d604ab649025fded61471775e9b676ccbf7025",
        "mod-fcfs": "b066976d90985d822778c05935a2354eb36d36fcc632dc9deb929a03eb31380d",
        "inf": "82335bf56f65a402c40bba36a2cb97d7b2b58d9d2ff50068a7e2d5911d7e8442",
    },
}

SWEEP_CSV_SHA256 = "4f0e0028425c37e7886a7685686dfdbef5baa996d87919da98efeb20cdf185c0"

RUN_JSON_SHA256 = "1e416160e01ae2a53f1f0ba15394f240912f1339fd7c5954f286888fc6a589b8"

# set one at n=64; n=10 with needs (1, 8), where snf_upper is absent; and
# n=10000 with three heavy types (i* = 1), where snf_upper sums three terms
# (0.4753) or, with type 3 at rate 0.8, is absent at subsystem 3
BOUNDS_JSON_SHA256 = {
    "one-64": "0a035c754e177066e569b791e546aa2767884c5c4e691229b12ae7c17861499e",
    "absent": "db83ed0d3312e91d95fec58b2f576632cb4c3928c1367080d5cb6986d6d7056c",
    "multi-heavy": "883f9b812aad4703450c05cacb05ffd293a43e84977116093756065d974ef312",
    "multi-heavy-absent":
        "cd51fc21cce15af4a50e1f31387f1c51e2700d854eff0fcafbf4b72cc404b1a0",
}


def _multi_heavy(lam3):
    return {"n": 10000, "types": [{"lambda": 9991.0, "mu": 1.0, "l": 1},
                                  {"lambda": 1.0, "mu": 1.0, "l": 2},
                                  {"lambda": lam3, "mu": 1.0, "l": 4}]}


BOUNDS_CONFIGS = {
    "absent": {"n": 10, "types": [{"lambda": 2.0, "mu": 1.0, "l": 1},
                                  {"lambda": 0.2, "mu": 1.0, "l": 8}]},
    "multi-heavy": _multi_heavy(0.5),
    "multi-heavy-absent": _multi_heavy(0.8),
}

TRAJECTORY_SHA256 = {
    PolicyKind.SNF: "b5b867c97eb8fbb79d89616107c3d13e581f8731887876c7d505fbe30b2c6c98",
    PolicyKind.FCFS: "704ddd3102bdb4b96f32eccdf71293aa05850574fdbb94f2e4acd11cf164f495",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("param_set,n", list(DIGESTS))
def test_simulate_digests(param_set, n):
    config = make_param_set(ParamSet(param_set), n)
    stream = build_job_stream(0, 50_000, config)
    got = {p.value: simulate(p, config, stream).digest() for p in PolicyKind}
    assert got == DIGESTS[(param_set, n)]


def test_sweep_csv_bytes():
    spec = SweepSpec("one", (64,), ("fcfs", "snf", "snf-np"), (0, 1), 20_000)
    buf = io.StringIO()
    write_csv(run_sweep(spec), buf)
    assert _sha256(buf.getvalue().encode()) == SWEEP_CSV_SHA256


def test_run_json_bytes():
    res = CliRunner().invoke(main, ["run", "--param-set", "one", "--n", "64",
                                    "--policy", "snf", "--jobs", "5000"])
    assert res.exit_code == 0, res.output
    assert _sha256(res.output.encode()) == RUN_JSON_SHA256


@pytest.mark.parametrize("case", list(BOUNDS_JSON_SHA256))
def test_bounds_json_bytes(case, tmp_path):
    if case == "one-64":
        args = ["--param-set", "one", "--n", "64"]
    else:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(BOUNDS_CONFIGS[case]))
        args = ["--param-set", str(path)]
    res = CliRunner().invoke(main, ["bounds", *args])
    assert res.exit_code == 0, res.output
    assert _sha256(res.output.encode()) == BOUNDS_JSON_SHA256[case]


@pytest.mark.parametrize("policy", list(TRAJECTORY_SHA256))
def test_trajectory_dump_bytes(policy, tmp_path, set_one_64):
    path = tmp_path / "events.tsv"
    with open(path, "w") as fh:
        simulate(policy, set_one_64, build_job_stream(4, 5_000, set_one_64),
                 trajectory=fh)
    assert _sha256(path.read_bytes()) == TRAJECTORY_SHA256[policy]
