import csv
import hashlib
import io
import json
import math

import pytest
from click.testing import CliRunner

from msjlab import ConfigError, cli, verify
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


def _csv_rows(text):
    """The data rows of a sweep CSV, each as a list of fields."""
    return list(csv.reader(_data_lines(text)))[1:]


def _sim_row(text):
    """The first ``sim`` row of a sweep CSV, keyed by column."""
    return next(dict(zip(CSV_COLUMNS, r)) for r in _csv_rows(text)
                if r[0] == "sim")


def _strict_loads(text):
    """Parse RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestRun:
    def test_json_summary(self, runner):
        res = runner.invoke(main, ["run", "--param-set", "one", "--n", "64",
                                   "--policy", "fcfs", "--jobs", "5000"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["config"]["n"] == 64
        assert doc["audit"]["violations"] == 0
        assert set(doc["wait_per_type"]) == {"1", "2", "3"}

    def test_no_interval_is_null(self, runner):
        # type 3 has fewer post-warm-up jobs than batches: no interval
        res = runner.invoke(main, ["run", "--param-set", "two", "--n", "1024",
                                   "--jobs", "400"])
        assert res.exit_code == 0, res.output
        doc = _strict_loads(res.output)
        assert doc["wait_per_type"]["3"]["half_width"] is None

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

    def test_too_many_batches_is_usage_error(self, runner, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: calls.append(a))
        res = runner.invoke(main, ["run", "--n", "64", "--jobs", "1000",
                                   "--batches", "51"])
        assert res.exit_code == 2, res.output
        assert "20 * batches" in res.output
        assert calls == []


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
        rows = [dict(zip(CSV_COLUMNS, r)) for r in _csv_rows(outputs[0])]
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
        rows = [dict(zip(CSV_COLUMNS, r)) for r in _csv_rows(out.read_text())]
        sim_rows = [r for r in rows if r["row_kind"] == "sim"]
        assert len(sim_rows) == 1 and "overloaded" in sim_rows[0]["error"]

    def test_comma_in_param_set_path_is_quoted(self, runner, tmp_path):
        folder = tmp_path / "a,b"
        folder.mkdir()
        cfg = folder / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "types": [
            {"lambda": 1.0, "mu": 1.0, "l": 1},
            {"lambda": 0.5, "mu": 1.0, "l": 2}]}))
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--param-set", str(cfg), "--n",
                                   "8", "--jobs", "2000", "--policy", "fcfs",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = _csv_rows(out.read_text())
        assert len(rows) == 2
        for row in rows:
            assert len(row) == len(CSV_COLUMNS)
            assert row[CSV_COLUMNS.index("param_set")] == str(cfg)

    def test_comma_in_cell_error_is_quoted(self, tmp_path):
        one = tmp_path / "one.json"  # n=1: the bounds row carries an error
        one.write_text(json.dumps({"n": 1, "types": [
            {"lambda": 0.5, "mu": 1.0, "l": 1}]}))
        rows = run_sweep(SweepSpec(param_set=str(one), n_list=(1,),
                                   policies=("fcfs",), seeds=(0,), jobs=400))
        buf = io.StringIO()
        cli.write_csv(rows, buf)
        parsed = _csv_rows(buf.getvalue())
        assert [len(r) for r in parsed] == [len(CSV_COLUMNS)] * 2
        errors = {r[0]: r[CSV_COLUMNS.index("error")] for r in parsed}
        assert errors["bounds"] == ("ConfigError: the closed-form bounds "
                                    "need n >= 2, got n=1")

    def test_spec_error_is_usage_error(self, runner):
        res = runner.invoke(main, ["sweep", "--n", "64", "--jobs", "100"])
        assert res.exit_code == 2, res.output
        assert "20 * batches" in res.output

    @pytest.mark.parametrize("option,value", [
        ("--n", "64"), ("--policy", "fcfs"), ("--seed", "0")])
    def test_repeated_value_is_usage_error(self, runner, option, value):
        args = ["sweep", "--n", "64", "--policy", "fcfs", "--seed", "0",
                "--jobs", "2000"]
        res = runner.invoke(main, args + [option, value])
        assert res.exit_code == 2, res.output
        assert "must not repeat a value" in res.output

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(param_set="one", n_list=(), policies=("fcfs",),
                      seeds=(0,), jobs=2000)
        with pytest.raises(ValueError, match="20 \\* batches"):
            SweepSpec(param_set="one", n_list=(64,), policies=("fcfs",),
                      seeds=(0,), jobs=100)

    @pytest.mark.parametrize("field,value,message", [
        ("warmup", 1.5, "warmup fraction must lie in"),
        ("batches", 0, "need at least 2 batches, got 0"),
        ("batches", 1, "need at least 2 batches, got 1")],
        ids=["warmup-1.5", "batches-0", "batches-1"])
    def test_bad_batch_settings_refused(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(param_set="one", n_list=(64,), policies=("fcfs",),
                      seeds=(0,), jobs=2000, **{field: value})

    def test_worker_pool_matches_serial(self):
        spec = dict(param_set="one", n_list=(64,), policies=("fcfs",),
                    seeds=(0, 1), jobs=2000)
        serial = run_sweep(SweepSpec(**spec, workers=1))
        parallel = run_sweep(SweepSpec(**spec, workers=2))
        assert serial == parallel


class TestRunAndSweepAgree:
    """``run`` and a ``sweep`` ``sim`` row report one summary of the run."""

    @pytest.fixture
    def one_type_idle(self, tmp_path):
        # the second type's expected arrival count is 0.002: none arrives
        path = tmp_path / "idle.json"
        path.write_text(json.dumps({"n": 4, "types": [
            {"lambda": 1.0, "mu": 1.0, "l": 1},
            {"lambda": 1e-6, "mu": 1.0, "l": 2}]}))
        return str(path)

    def test_type_with_no_arrival(self, runner, one_type_idle):
        res = runner.invoke(main, ["run", "--param-set", one_type_idle,
                                   "--jobs", "2000"])
        assert res.exit_code == 0, res.output
        doc = _strict_loads(res.output)
        assert doc["wait_per_type"] == {"1": {
            "mean": 0.00631443204126679, "half_width": 0.003853307099199361}}
        assert doc["mean_x"] == [1.0034355626907918, 0.0]
        res = runner.invoke(main, ["sweep", "--param-set", one_type_idle,
                                   "--n", "4", "--policy", "snf",
                                   "--jobs", "2000"])
        assert res.exit_code == 0, res.output
        sim_row = _sim_row(res.output)
        assert sim_row["wait_per_type"] == "0.00631443204126679;"
        assert sim_row["wait_hw_per_type"] == "0.003853307099199361;"
        assert sim_row["mean_x_per_type"] == "1.0034355626907918;0.0"

    @pytest.mark.parametrize("policy,seed,warmup,batches", [
        ("fcfs", 0, 0.1, 20), ("snf", 3, 0.2, 10)])
    def test_same_values(self, runner, policy, seed, warmup, batches):
        settings = ["--param-set", "one", "--n", "64", "--policy", policy,
                    "--seed", str(seed), "--jobs", "2000",
                    "--warmup", str(warmup), "--batches", str(batches)]
        res = runner.invoke(main, ["run", *settings])
        assert res.exit_code == 0, res.output
        doc = _strict_loads(res.output)
        res = runner.invoke(main, ["sweep", *settings])
        assert res.exit_code == 0, res.output
        row = _sim_row(res.output)

        def per_type(field):
            return [float(v) for v in field.split(";")]

        def interval(value):  # no interval: null in JSON, inf in the CSV
            return math.inf if value is None else value

        assert float(row["mean_wait"]) == doc["mean_wait"]
        assert float(row["mean_wait_hw"]) == interval(doc["mean_wait_hw"])
        types = range(1, 4)
        assert per_type(row["wait_per_type"]) == [
            doc["wait_per_type"][str(i)]["mean"] for i in types]
        assert per_type(row["wait_hw_per_type"]) == [
            interval(doc["wait_per_type"][str(i)]["half_width"]) for i in types]
        assert float(row["qprob"]) == doc["qprob"]
        assert float(row["workload"]) == doc["workload"]
        for key in ("mean_x", "mean_z", "mean_q"):
            assert per_type(row[f"{key}_per_type"]) == doc[key], key
        assert int(row["audit_violations"]) == doc["audit"]["violations"]
        assert float(row["audit_worst_slack"]) == doc["audit"]["worst_slack"]


class TestBounds:
    def test_json_output(self, runner):
        res = runner.invoke(main, ["bounds", "--param-set", "one", "--n", "64"])
        assert res.exit_code == 0, res.output
        doc = _strict_loads(res.output)
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


# sha256 of the full stdout of ``msjlab verify --suite S``
VERIFY_STDOUT_SHA256 = {
    "coupling": "e71103dc94b7da9fdb03c421d573dea0c0d24f800b546dac86ad732d2d232db9",
    "oracle": "fda0cda2a66d6e810b7e82031b1b2dbb717238c6baeccf9b01fc430c72c21a23",
    "drift": "a0cdffd3d2459524cfbb8453df6c86a912a40bfa01e0e6fa342c87b5dd74f7e0",
    "tails": "4d8b66d3beccd3514ea042ce3423d60bc32c6d36818c84fae3fe0cb4fcfa9c42",
}


def _verify_stdout(runner, suite):
    """The stdout of a passing ``verify --suite``, checked against its pin."""
    res = runner.invoke(main, ["verify", "--suite", suite])
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256[suite], res.stdout
    return res.stdout


class TestVerifyAndCouple:
    def test_verify_coupling_passes(self, runner):
        assert "10/10 checks passed" in _verify_stdout(runner, "coupling")

    @pytest.mark.parametrize("suite,tally", [
        ("oracle", "4/4 checks passed"), ("drift", "12/12 checks passed"),
        ("tails", "4/4 checks passed")])
    def test_verify_suite_passes(self, runner, suite, tally):
        assert tally in _verify_stdout(runner, suite)

    @pytest.mark.parametrize("args,jobs,tally", [
        (["couple", "--n", "64", "--jobs", "500", "--seed", "0", "--seed",
          "1"], 500, "2/4 checks passed"),
        (["verify", "--suite", "coupling"], 20_000, "5/10 checks passed")],
        ids=["couple", "verify"])
    def test_failed_check_exits_1(self, runner, monkeypatch, args, jobs,
                                  tally):
        monkeypatch.setattr(verify, "check_couplings",
                            lambda config, stream: (True, False))
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        lines = res.output.splitlines()
        run = f"(n=64, jobs={jobs}, seed=1)"
        assert f"[PASS] waiting-time sandwich {run}" in lines
        assert f"[FAIL] infinite-server dominance {run}" in lines
        assert lines[-1] == tally

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
            assert res.output.count(f"seed={seed})") == 2
        assert res.output.splitlines()[-1] == "6/6 checks passed"

    def test_couple_repeated_seed_is_usage_error(self, runner):
        res = runner.invoke(main, ["couple", "--n", "64", "--jobs", "1000",
                                   "--seed", "3", "--seed", "3"])
        assert res.exit_code == 2, res.output
        assert "seeds must not repeat a value" in res.output
        assert "[PASS]" not in res.output


class TestConfigErrorIsUsageError:
    @pytest.mark.parametrize("args", [
        ["run", "--n", "32"], ["bounds", "--n", "32"],
        ["sweep", "--n", "32", "--jobs", "1000"], ["couple", "--n", "32"]],
        ids=["run", "bounds", "sweep", "couple"])
    def test_named_set_below_min_n(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "parameter sets require n >= 64, got 32" in res.output

    def test_missing_config_file(self, runner, tmp_path):
        missing = tmp_path / "missing.json"
        res = runner.invoke(main, ["run", "--param-set", str(missing)])
        assert res.exit_code == 2, res.output
        assert "is neither one/two nor a file" in res.output

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

    @pytest.mark.parametrize("command", ["run", "sweep", "bounds", "couple"])
    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_config_file(self, runner, tmp_path, kind, command):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe")  # not UTF-8
        res = runner.invoke(main, [command, "--param-set", str(path)])
        assert res.exit_code == 2, res.output
        assert f"config file {str(path)!r} cannot be read" in res.output

    @pytest.mark.parametrize("command", ["run", "couple"])
    def test_overloaded_config_file(self, runner, tmp_path, command):
        over = tmp_path / "over.json"
        over.write_text(json.dumps({"n": 2, "types": [
            {"lambda": 3.0, "mu": 1.0, "l": 1}]}))
        res = runner.invoke(main, [command, "--param-set", str(over),
                                   "--jobs", "500"])
        assert res.exit_code == 2, res.output
        assert "overloaded system: slack capacity -1.0 <= 0" in res.output

    def test_single_server_bounds(self, runner, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"n": 1, "types": [
            {"lambda": 0.5, "mu": 1.0, "l": 1}]}))
        res = runner.invoke(main, ["bounds", "--param-set", str(one)])
        assert res.exit_code == 2, res.output
        assert "the closed-form bounds need n >= 2, got n=1" in res.output
        res = runner.invoke(main, ["run", "--param-set", str(one),
                                   "--jobs", "2000"])
        assert res.exit_code == 0, res.output
        rows = run_sweep(SweepSpec(param_set=str(one), n_list=(1,),
                                   policies=("fcfs",), seeds=(0,), jobs=400))
        bounds_row, sim_row = rows
        assert bounds_row["row_kind"] == "bounds"
        assert bounds_row["error"].startswith("ConfigError: ")
        assert "error" not in sim_row


class TestConfigFileFixesN:
    @pytest.mark.parametrize("command,extra", [
        ("run", ["--jobs", "500"]), ("bounds", []),
        ("sweep", ["--jobs", "2000", "--policy", "fcfs"]),
        ("couple", ["--jobs", "500"])],
        ids=["run", "bounds", "sweep", "couple"])
    def test_contradicting_n(self, runner, config_file, command, extra):
        args = [command, "--param-set", config_file, *extra]
        res = runner.invoke(main, args + ["--n", "5"])
        assert res.exit_code == 2, res.output
        assert f"--n 5 contradicts n=2 in {config_file!r}" in res.output
        res = runner.invoke(main, args + ["--n", "2"])
        assert res.exit_code == 0, res.output

    def test_sweep_takes_n_from_the_file(self, runner, config_file):
        res = runner.invoke(main, ["sweep", "--param-set", config_file,
                                   "--jobs", "2000", "--policy", "fcfs"])
        assert res.exit_code == 0, res.output
        rows = [dict(zip(CSV_COLUMNS, r)) for r in _csv_rows(res.output)]
        assert [(r["row_kind"], r["n"], r["error"]) for r in rows] == [
            ("bounds", "2", ""), ("sim", "2", "")]

    def test_sweep_of_a_named_set_needs_n(self, runner):
        res = runner.invoke(main, ["sweep", "--param-set", "two",
                                   "--jobs", "2000"])
        assert res.exit_code == 2, res.output
        assert "--n is required with a named parameter set" in res.output


def _no_memory(*args, **kwargs):
    # raised by hand: a real oversized allocation could get a host with
    # overcommit on to kill the process instead
    raise MemoryError("Unable to allocate 745. GiB")


class TestOutOfMemory:
    @pytest.mark.parametrize("args,owner", [
        (["run", "--n", "64", "--jobs", "500"], cli),
        (["couple", "--n", "64", "--jobs", "500"], verify)],
        ids=["run", "couple"])
    def test_memory_error_is_one_line_error(self, runner, monkeypatch, args,
                                            owner):
        monkeypatch.setattr(owner, "build_job_stream", _no_memory)
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert res.output == "Error: out of memory: Unable to allocate 745. GiB\n"

    def test_sweep_records_it_in_the_row(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "build_job_stream", _no_memory)
        res = runner.invoke(main, ["sweep", "--n", "64", "--jobs", "2000",
                                   "--policy", "fcfs"])
        assert res.exit_code == 0, res.output
        sim_row = _sim_row(res.output)
        assert sim_row["error"] == "MemoryError: Unable to allocate 745. GiB"


class TestOptionTypes:
    @pytest.mark.parametrize("args,work", [
        (["run", "--n", "64", "--jobs", "500"], "simulate"),
        (["sweep", "--n", "64", "--jobs", "2000"], "run_sweep"),
        (["bounds", "--n", "64"], "evaluate_bounds")],
        ids=["run", "sweep", "bounds"])
    def test_unwritable_out_fails_before_any_work(self, runner, tmp_path,
                                                  monkeypatch, args, work):
        calls = []
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
        res = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "x")])
        assert res.exit_code == 2, res.output
        assert "--out" in res.output
        assert calls == []

    def test_unwritable_trajectory_fails_before_any_work(self, runner, tmp_path,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: calls.append(a))
        res = runner.invoke(main, ["run", "--n", "64", "--jobs", "500",
                                   "--dump-trajectory",
                                   str(tmp_path / "missing" / "x.tsv")])
        assert res.exit_code == 2, res.output
        assert "--dump-trajectory" in res.output
        assert calls == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, runner, workers):
        res = runner.invoke(main, ["sweep", "--n", "64", "--jobs", "2000",
                                   "--workers", workers])
        assert res.exit_code == 2, res.output
        assert "--workers" in res.output
