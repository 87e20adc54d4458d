import json

import pytest
from click.testing import CliRunner

from msjlab.cli import CSV_COLUMNS, SweepSpec, main, run_sweep

EXPECTED_COLUMNS = [
    "row_kind", "param_set", "n", "policy", "seed", "jobs", "warmup",
    "batches", "mean_wait", "mean_wait_hw", "wait_per_type",
    "wait_hw_per_type", "qprob", "qprob_hw", "workload", "workload_hw",
    "mean_x_per_type", "mean_z_per_type", "mean_q_per_type",
    "audit_violations", "audit_worst_slack", "event_count", "delta",
    "sigma2", "l_max", "workload_lower", "workload_upper",
    "fcfs_wait_lower", "fcfs_wait_upper", "universal_lower", "snf_upper",
    "qp_exponent", "error",
]


def test_csv_schema_frozen():
    # golden column set and order; changing it breaks downstream consumers
    assert CSV_COLUMNS == EXPECTED_COLUMNS


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path, mm2):
    path = tmp_path / "mm2.json"
    path.write_text(json.dumps(mm2.to_file_dict()))
    return str(path)


def _data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


class TestRun:
    def test_json_summary(self, runner):
        res = runner.invoke(main, ["run", "--param-set", "one", "--n", "64",
                                   "--policy", "fcfs", "--jobs", "5000"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["config"]["n"] == 64
        assert doc["audit"]["violations"] == 0
        assert set(doc["wait_per_type"]) == {"1", "2", "3"}

    def test_config_file_and_determinism(self, runner, config_file, tmp_path):
        args = ["run", "--param-set", config_file, "--jobs", "5000",
                "--seed", "7"]
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = runner.invoke(main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            docs.append(json.loads(out.read_text()))
        assert docs[0] == docs[1]
        assert docs[0]["digest"] == docs[1]["digest"]

    def test_trajectory_dump_flag(self, runner, config_file, tmp_path):
        dump = tmp_path / "events.tsv"
        res = runner.invoke(main, ["run", "--param-set", config_file,
                                   "--jobs", "500", "--dump-trajectory",
                                   str(dump)])
        assert res.exit_code == 0, res.output
        lines = dump.read_text().splitlines()
        assert lines[0] == "t\tkind\ttype\tx\tz"
        assert len(lines) == 1001

    def test_named_set_requires_n(self, runner):
        res = runner.invoke(main, ["run", "--param-set", "one"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("option,value", [
        ("--batches", "1"), ("--batches", "0"), ("--warmup", "1.5"),
        ("--jobs", "0")])
    def test_out_of_range_option_is_usage_error(self, runner, option, value):
        res = runner.invoke(main, ["run", "--param-set", "one", "--n", "64",
                                   option, value])
        assert res.exit_code == 2, res.output
        assert option in res.output


class TestSweep:
    def test_rows_and_determinism(self, runner, tmp_path):
        args = ["sweep", "--param-set", "one", "--n", "64", "--policy",
                "fcfs", "--policy", "snf", "--seed", "0", "--seed", "1",
                "--jobs", "2000"]
        outputs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            res = runner.invoke(main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append(out.read_text())
        d1, d2 = map(_data_lines, outputs)
        assert d1 == d2  # byte-identical data rows, timestamps only in '#'
        assert d1[0] == ",".join(CSV_COLUMNS)
        rows = [dict(zip(CSV_COLUMNS, l.split(","))) for l in d1[1:]]
        kinds = [r["row_kind"] for r in rows]
        assert kinds.count("bounds") == 1
        assert kinds.count("sim") == 4
        bounds_row = next(r for r in rows if r["row_kind"] == "bounds")
        assert float(bounds_row["workload_lower"]) == 24.0
        sim_row = next(r for r in rows if r["row_kind"] == "sim")
        assert sim_row["audit_violations"] == "0"

    def test_failed_cell_recorded_in_row(self, runner, tmp_path):
        bad = tmp_path / "bad.json"  # overloaded: derive_params rejects
        bad.write_text(json.dumps(
            {"n": 2, "types": [{"lambda": 5.0, "mu": 1.0, "l": 1}]}))
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--param-set", str(bad), "--n",
                                   "2", "--jobs", "2000", "--policy", "fcfs",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = [dict(zip(CSV_COLUMNS, l.split(",")))
                for l in _data_lines(out.read_text())[1:]]
        sim_rows = [r for r in rows if r["row_kind"] == "sim"]
        assert len(sim_rows) == 1 and "overloaded" in sim_rows[0]["error"]

    def test_large_n_needs_opt_in(self, runner):
        res = runner.invoke(main, ["sweep", "--param-set", "one", "--n",
                                   "16384", "--jobs", "2000"])
        assert res.exit_code != 0
        assert "--allow-large" in res.output

    def test_env_var_override(self, runner, tmp_path):
        out = tmp_path / "env.csv"
        res = runner.invoke(
            main, ["sweep", "--param-set", "one", "--n", "64", "--policy",
                   "fcfs", "--out", str(out)],
            env={"MSJLAB_SWEEP_JOBS": "2000"})
        assert res.exit_code == 0, res.output
        rows = _data_lines(out.read_text())
        assert ",2000," in rows[-1]

    def test_spec_error_is_usage_error(self, runner):
        res = runner.invoke(main, ["sweep", "--n", "64", "--jobs", "100"])
        assert res.exit_code == 2, res.output
        assert "20 * batches" in res.output

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(param_set="one", n_list=(), policies=("fcfs",),
                      seeds=(0,), jobs=2000)
        with pytest.raises(ValueError, match="20 \\* batches"):
            SweepSpec(param_set="one", n_list=(64,), policies=("fcfs",),
                      seeds=(0,), jobs=100)

    def test_worker_pool_matches_serial(self):
        spec = dict(param_set="one", n_list=(64,), policies=("fcfs",),
                    seeds=(0, 1), jobs=2000)
        serial = run_sweep(SweepSpec(**spec, workers=1))
        parallel = run_sweep(SweepSpec(**spec, workers=2))
        assert serial == parallel


class TestBounds:
    def test_json_output(self, runner):
        res = runner.invoke(main, ["bounds", "--param-set", "one", "--n", "64"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["workload_lower"] == 24.0
        assert doc["indices"]["i_star"] == 3

    def test_absent_entries_in_band(self, runner, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"n": 10, "types": [
            {"lambda": 1.0, "mu": 1.0, "l": 1},
            {"lambda": 0.2, "mu": 1.0, "l": 8}]}))
        res = runner.invoke(main, ["bounds", "--param-set", str(cfg)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert "absent" in doc["snf_upper"]
        assert "absent" in doc["fcfs_wait_upper"]


class TestVerifyAndCouple:
    def test_verify_coupling_passes(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "coupling"])
        assert res.exit_code == 0, res.output
        assert "10/10 checks passed" in res.output

    def test_verify_unknown_suite(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "nope"])
        assert res.exit_code != 0

    def test_couple_passes(self, runner):
        res = runner.invoke(main, ["couple", "--param-set", "one", "--n",
                                   "64", "--jobs", "20000"])
        assert res.exit_code == 0, res.output
        assert res.output.count("[PASS]") == 2

    def test_couple_repeated_seed(self, runner):
        res = runner.invoke(main, ["couple", "--n", "64", "--jobs", "5000",
                                   "--seed", "0", "--seed", "1", "--seed", "2"])
        assert res.exit_code == 0, res.output
        assert res.output.count("[PASS]") == 6
        for seed in (0, 1, 2):
            assert f"seed={seed})" in res.output


class TestConfigErrorIsUsageError:
    @pytest.mark.parametrize("args", [
        ["run", "--n", "32"], ["bounds", "--n", "32"],
        ["sweep", "--n", "32", "--jobs", "1000"], ["couple", "--n", "32"]],
        ids=["run", "bounds", "sweep", "couple"])
    def test_named_set_below_min_n(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "parameter sets require n >= 64, got 32" in res.output

    def test_invalid_config_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"  # needs must be nondecreasing
        bad.write_text(json.dumps({"n": 8, "types": [
            {"lambda": 0.1, "mu": 1.0, "l": 4},
            {"lambda": 0.1, "mu": 1.0, "l": 1}]}))
        res = runner.invoke(main, ["run", "--param-set", str(bad)])
        assert res.exit_code == 2, res.output
        assert "server needs must be nondecreasing" in res.output

    @pytest.mark.parametrize("text,message", [
        ('{"n": 8, "types": [', "not valid JSON"),
        (json.dumps({"n": 8, "types": [{"lambda": 0.1, "mu": 1.0, "l": "x"}]}),
         "malformed config"),
        (json.dumps({"n": 8, "types": 5}), "malformed config"),
    ], ids=["unparsable", "non-numeric-field", "types-not-a-list"])
    def test_malformed_config_file(self, runner, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        res = runner.invoke(main, ["run", "--param-set", str(bad)])
        assert res.exit_code == 2, res.output
        assert message in res.output
