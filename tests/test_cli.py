import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import profitmax
from profitmax import cli
from profitmax.cli import CSV_COLUMNS, main

DEMO_EDGE_TEXT = "# demo graph\n1 2 0.3\n1 4 0.4\n2 4 0.2\n3 4 0.3\n"
DEMO_WEIGHT_TEXT = "1 1.5 1\n2 2 1\n3 3 1\n4 2 5\n"


@pytest.fixture
def demo_files(tmp_path):
    edges = tmp_path / "demo.edges"
    weights = tmp_path / "demo.weights"
    edges.write_text(DEMO_EDGE_TEXT, encoding="utf-8")
    weights.write_text(DEMO_WEIGHT_TEXT, encoding="utf-8")
    return str(edges), str(weights)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("# profitmax-csv v1 config=")
    assert lines[1] == ",".join(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[2:]]


def rows_without_timing(path):
    rows = read_rows(path)
    for row in rows:
        row["time_select_ms"] = row["time_rr_ms"] = "0"
    return rows


class TestGenWeights:
    def test_writes_policy_weights(self, demo_files, tmp_path):
        edges, _ = demo_files
        out = tmp_path / "gen.weights"
        assert main(["gen-weights", "--graph", edges, "--r", "2",
                     "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().strip().splitlines()]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        costs = [float(r[2]) for r in rows]
        assert costs == [4.0, 2.0, 2.0, 0.0]

    def test_requires_out(self, demo_files, capsys):
        edges, _ = demo_files
        assert main(["gen-weights", "--graph", edges]) == 2


class TestPrune:
    def test_exact_summary_row(self, demo_files, tmp_path, capsys):
        edges, weights = demo_files
        out = tmp_path / "lattice.json"
        code = main(["prune", "--graph", edges, "--weights", weights,
                     "--exact", "--no-norm", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4,1,3,2,50.0%"
        doc = json.loads(out.read_text())
        assert doc["must_include"] == [3]
        assert doc["may_include"] == [1, 2, 3]

    def test_sampled_mode(self, demo_files, capsys):
        edges, weights = demo_files
        code = main(["prune", "--graph", edges, "--weights", weights,
                     "--theta", "20000", "--no-norm", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4,1,3,2,50.0%"

    def test_normalization_cannot_reduce_less(self, demo_files, capsys):
        edges, weights = demo_files
        main(["prune", "--graph", edges, "--weights", weights, "--exact",
              "--no-norm", "--seed", "1"])
        raw = float(capsys.readouterr().out.strip().split(",")[-1].rstrip("%"))
        main(["prune", "--graph", edges, "--weights", weights, "--exact",
              "--seed", "1"])
        norm = float(capsys.readouterr().out.strip().split(",")[-1].rstrip("%"))
        assert norm >= raw


class TestSelect:
    def test_exact_heuristics_find_optimum(self, demo_files, tmp_path):
        edges, weights = demo_files
        csv = tmp_path / "select.csv"
        code = main(["select", "--graph", edges, "--weights", weights,
                     "--exact", "--no-norm", "--algo", "greedy,modmod1,modmod2",
                     "--seed", "1", "--out-dir", str(tmp_path / "seeds"),
                     "--csv", str(csv)])
        assert code == 0
        rows = read_rows(csv)
        assert [r["algo"] for r in rows] == ["greedy", "modmod1", "modmod2"]
        for row in rows:
            assert row["seeds_count"] == "2"
            assert float(row["profit"]) == pytest.approx(1.68, abs=1e-9)
            assert row["guarantee"] == ""
        doc = json.loads((tmp_path / "seeds" / "seeds_greedy_theta640000.json").read_text())
        assert doc["seeds"] == [2, 3]

    def test_exact_builds_one_oracle_per_theta(self, demo_files, tmp_path, monkeypatch):
        # selection and validation share one deterministic oracle per θ
        built = []

        class Counting(cli.ExactEvaluator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ExactEvaluator", Counting)
        edges, weights = demo_files
        assert main(["select", "--graph", edges, "--weights", weights, "--exact",
                     "--theta", "100,200", "--seed", "1",
                     "--out-dir", str(tmp_path / "seeds"),
                     "--csv", str(tmp_path / "select.csv")]) == 0
        assert len(built) == 2

    def test_reproducible_modulo_timing(self, demo_files, tmp_path):
        edges, weights = demo_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["select", "--graph", edges, "--weights", weights, "--theta",
                "2000", "--algo", "greedy,random", "--seed", "42",
                "--out-dir", str(tmp_path / "s")]
        assert main(args + ["--csv", str(a)]) == 0
        assert main(args + ["--csv", str(b)]) == 0
        assert rows_without_timing(a) == rows_without_timing(b)

    def test_unknown_algorithm(self, demo_files):
        edges, weights = demo_files
        assert main(["select", "--graph", edges, "--weights", weights,
                     "--algo", "pagerank", "--seed", "1"]) == 2


class TestCertify:
    def test_pipeline(self, demo_files, tmp_path, capsys):
        edges, weights = demo_files
        main(["select", "--graph", edges, "--weights", weights, "--exact",
              "--no-norm", "--algo", "greedy", "--seed", "1",
              "--out-dir", str(tmp_path)])
        capsys.readouterr()
        cert_json = tmp_path / "cert.json"
        cert_csv = tmp_path / "cert.csv"
        code = main(["certify", "--graph", edges, "--weights", weights,
                     "--no-norm", "--seeds",
                     str(tmp_path / "seeds_greedy_theta640000.json"), "--theta", "50000",
                     "--delta", "0.001", "--seed", "1",
                     "--out", str(cert_json), "--csv", str(cert_csv)])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert line.startswith("guarantee=")
        doc = json.loads(cert_json.read_text())
        assert doc["beta_lower"] <= doc["beta_upper"]
        assert doc["gamma_lower"] <= doc["gamma_upper"]
        assert doc["guarantee"] > 0.5
        rows = read_rows(cert_csv)
        assert rows[0]["algo"] == "greedy"
        assert rows[0]["guarantee"] != ""

    def test_missing_seeds_file_is_io_error(self, demo_files, tmp_path):
        edges, weights = demo_files
        assert main(["certify", "--graph", edges, "--weights", weights,
                     "--seeds", str(tmp_path / "absent.json"),
                     "--seed", "1"]) == 3

    @pytest.mark.parametrize("seeds_text, expected", [
        ('{"seeds": [2, 3', "seeds.json:1: "),
        ('{"algorithm": "greedy"}', "seeds.json: missing key 'seeds'"),
        ('[2, 3]', "seeds.json: malformed document: not a JSON object"),
        ('{"seeds": [1.5]}', "seeds.json: malformed document: seed 1.5 is not an integer"),
        ('{"seeds": [true]}', "seeds.json: malformed document: seed True is not an integer"),
        ('{"seeds": ["2"]}', "seeds.json: malformed document: seed '2' is not an integer"),
        ('{"seeds": 5}', "seeds.json: malformed document:"),
        ('{"seeds": [99]}', "seeds.json: unknown external node id 99"),
    ], ids=["truncated-seeds", "no-seeds-key", "seeds-not-an-object", "float-seed",
            "bool-seed", "string-seed", "number-seeds", "unknown-seed"])
    def test_malformed_json_is_input_error(self, demo_files, tmp_path, capsys,
                                           seeds_text, expected):
        edges, weights = demo_files
        seeds = tmp_path / "seeds.json"
        seeds.write_text(seeds_text, encoding="utf-8")
        assert main(["certify", "--graph", edges, "--weights", weights, "--seeds", str(seeds),
                     "--theta", "100", "--seed", "1"]) == 2
        assert expected in capsys.readouterr().err

    def test_lattice_input_is_gone(self, demo_files, tmp_path, capsys):
        # the cap is taken over every seed set, so certify reads no lattice
        edges, weights = demo_files
        seeds = tmp_path / "seeds.json"
        seeds.write_text('{"seeds": [2]}', encoding="utf-8")
        args = ["certify", "--graph", edges, "--weights", weights, "--seeds", str(seeds),
                "--theta", "100", "--seed", "1"]
        with pytest.raises(SystemExit) as info:
            main(args + ["--lattice", "x"])
        assert info.value.code == 2
        config = tmp_path / "run.cfg"
        config.write_text("lattice = x\n", encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--config", str(config)]) == 2
        assert f"{config}:1: unknown key 'lattice'" in capsys.readouterr().err

    def test_certificate_matches_experiment(self, demo_files, tmp_path, monkeypatch):
        self.check_certificate_matches_experiment(demo_files, tmp_path, monkeypatch, [])

    def test_certificate_matches_experiment_at_validation_theta(self, demo_files, tmp_path,
                                                                monkeypatch):
        # the row's theta cell is the selection theta, as in experiment's row
        self.check_certificate_matches_experiment(demo_files, tmp_path, monkeypatch,
                                                  ["--validation-theta", "5000"])

    @staticmethod
    def check_certificate_matches_experiment(demo_files, tmp_path, monkeypatch, extra):
        # certify draws the validation pair that experiment certifies its
        # pass on, so it reproduces the pruned, normalized row's certificate
        edges, weights = demo_files
        common = ["--graph", edges, "--weights", weights, "--theta", "4000", "--seed", "5",
                  *extra]
        assert main(["select", *common, "--out-dir", str(tmp_path)]) == 0
        cert_json, cert_csv, exp = (tmp_path / name for name in ("cert.json", "cert.csv",
                                                                  "exp.csv"))
        assert main(["certify", *common, "--seeds",
                     str(tmp_path / "seeds_greedy_theta4000.json"),
                     "--out", str(cert_json), "--csv", str(cert_csv)]) == 0
        certificates = []
        certificate = cli.certify

        def recorded(*args, **kwargs):
            certificates.append(certificate(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(cli, "certify", recorded)
        assert main(["experiment", *common, "--jobs", "1", "--csv", str(exp)]) == 0
        row = next(r for r in rows_without_timing(exp) if r["prune"] == r["norm"] == "1")
        assert rows_without_timing(cert_csv) == [row]
        fields = {key: value for key, value in json.loads(cert_json.read_text()).items()
                  if key not in ("config", "config_hash")}
        assert fields in [cert.to_json_dict() for cert in certificates]


class TestExperiment:
    def test_full_matrix_row_count(self, demo_files, tmp_path):
        edges, weights = demo_files
        csv = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "400,800", "--algo", "greedy,highdegree",
                     "--delta", "0.01", "--seed", "3", "--csv", str(csv)])
        assert code == 0
        rows = read_rows(csv)
        assert len(rows) == 16  # 2 thetas x 2 algorithms x prune x norm
        combos = {(r["theta"], r["algo"], r["prune"], r["norm"]) for r in rows}
        assert len(combos) == 16
        assert all(r["guarantee"] != "" for r in rows)

    def test_deterministic_rerun(self, demo_files, tmp_path):
        edges, weights = demo_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["experiment", "--graph", edges, "--weights", weights,
                "--theta", "500", "--algo", "greedy", "--delta", "0.01",
                "--seed", "9"]
        assert main(args + ["--csv", str(a)]) == 0
        assert main(args + ["--csv", str(b)]) == 0
        assert rows_without_timing(a) == rows_without_timing(b)

    def test_one_job_loads_the_graph_once(self, demo_files, tmp_path, monkeypatch):
        cli = sys.modules["profitmax.cli"]
        loads = []
        load = cli._load_weighted_graph
        monkeypatch.setattr(cli, "_load_weighted_graph",
                            lambda cfg: loads.append(cfg) or load(cfg))
        edges, weights = demo_files
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "200", "--algo", "greedy", "--seed", "3",
                     "--csv", str(tmp_path / "exp.csv")]) == 0
        assert len(read_rows(tmp_path / "exp.csv")) == 4
        assert len(loads) == 1

    def test_one_sample_and_one_prune_per_theta_and_norm(self, demo_files, tmp_path,
                                                         monkeypatch):
        # 2 thetas x 2 norms: the 16 rows draw 4 selection samples, prune
        # each once and certify on 4 validation pairs, whatever the algorithm
        calls = {"sample": 0, "prune": 0, "build": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "_selection_evaluator",
                            counted("sample", cli._selection_evaluator))
        monkeypatch.setattr(cli, "iterative_prune", counted("prune", cli.iterative_prune))
        monkeypatch.setattr(cli.ProfitEstimator, "build",
                            counted("build", cli.ProfitEstimator.build))
        edges, weights = demo_files
        csv = tmp_path / "exp.csv"
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "200,400", "--algo", "greedy,highdegree", "--jobs", "1",
                     "--seed", "3", "--csv", str(csv)]) == 0
        assert len(read_rows(csv)) == 16
        assert calls == {"sample": 4, "prune": 4, "build": 8}

    @pytest.mark.parametrize("command, algos, rows, expected", [
        ("experiment", "greedy,highdegree", 16, {"run": 12, "certify": 12, "prune": 4}),
        ("experiment", "highdegree", 8, {"run": 4, "certify": 4, "prune": 0}),
        ("select", "highdegree", 2, {"run": 2, "certify": 0, "prune": 0}),
    ], ids=["experiment-mixed", "experiment-baseline", "select-baseline"])
    def test_each_selection_runs_and_is_certified_once(self, demo_files, tmp_path,
                                                       monkeypatch, command, algos, rows,
                                                       expected):
        # per (theta, norm) pass a heuristic runs in the pruned and in the
        # trivial lattice, a baseline once in the trivial one; pruning only
        # serves a heuristic's pruned run
        calls = dict.fromkeys(expected, 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "select", counted("run", cli.select))
        monkeypatch.setattr(cli, "certify", counted("certify", cli.certify))
        monkeypatch.setattr(cli, "iterative_prune", counted("prune", cli.iterative_prune))
        edges, weights = demo_files
        csv = tmp_path / "out.csv"
        assert main([command, "--graph", edges, "--weights", weights, "--theta", "200,400",
                     "--algo", algos, "--jobs", "1", "--seed", "3",
                     "--out-dir", str(tmp_path / "seeds"), "--csv", str(csv)]) == 0
        assert len(read_rows(csv)) == rows
        assert calls == expected

    def test_select_profit_matches_experiment(self, demo_files, tmp_path):
        # select's profit is read from the validation pair that experiment
        # certifies the pass on, and a certificate's estimate is that
        # evaluator's profit, so the pruned, normalized rows agree
        edges, weights = demo_files
        common = ["--graph", edges, "--weights", weights, "--theta", "300",
                  "--algo", "greedy,highdegree", "--seed", "5"]
        sel, exp = tmp_path / "sel.csv", tmp_path / "exp.csv"
        assert main(["select", *common, "--out-dir", str(tmp_path / "seeds"),
                     "--csv", str(sel)]) == 0
        assert main(["experiment", *common, "--csv", str(exp)]) == 0
        selected = {r["algo"]: r["profit"] for r in read_rows(sel)}
        certified = {r["algo"]: r["profit"] for r in read_rows(exp)
                     if r["prune"] == r["norm"] == "1"}
        assert selected == certified
        assert sorted(selected) == ["greedy", "highdegree"]

    def test_prune_failure_fails_only_the_pruned_rows(self, demo_files, tmp_path, capsys,
                                                      monkeypatch):
        # a baseline never searches the pruned lattice, so only the
        # heuristic's prune=1 rows fail
        def broken(evaluator):
            raise profitmax.errors.InternalError("pruning broke")

        monkeypatch.setattr(cli, "iterative_prune", broken)
        edges, weights = demo_files
        csv = tmp_path / "exp.csv"
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "200", "--algo", "greedy,highdegree", "--seed", "3",
                     "--csv", str(csv)]) == 0
        rows = read_rows(csv)
        assert [r["prune"] for r in rows] == ["1", "1", "0", "0"] * 2
        for r in rows:
            filled = r["profit"] != "" and r["guarantee"] != ""
            assert filled == (r["algo"] == "highdegree" or r["prune"] == "0")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all("algo=greedy, prune=1" in line and "failed: pruning broke" in line
                   for line in err)

    def test_algorithm_failure_fails_only_its_rows(self, demo_files, tmp_path, capsys,
                                                   monkeypatch):
        select = cli.select

        def broken(name, *args):
            if name == "highdegree":
                raise profitmax.errors.InternalError("highdegree broke")
            return select(name, *args)

        monkeypatch.setattr(cli, "select", broken)
        edges, weights = demo_files
        csv = tmp_path / "exp.csv"
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "200", "--algo", "greedy,highdegree", "--seed", "3",
                     "--csv", str(csv)]) == 0
        rows = read_rows(csv)
        assert [r["profit"] == "" for r in rows] == [False] * 4 + [True] * 4
        assert [r["algo"] for r in rows] == ["greedy"] * 4 + ["highdegree"] * 4
        assert len(capsys.readouterr().err.splitlines()) == 4

    def test_parallel_rows_match_sequential(self, demo_files, tmp_path):
        edges, weights = demo_files
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        args = ["experiment", "--graph", edges, "--weights", weights,
                "--theta", "300", "--algo", "greedy,highdegree",
                "--delta", "0.01", "--seed", "5"]
        assert main(args + ["--csv", str(seq)]) == 0
        assert main(args + ["--jobs", "2", "--csv", str(par)]) == 0
        assert rows_without_timing(seq) == rows_without_timing(par)

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (64, 4), (None, None)])
    def test_worker_pool_capped_at_rows_and_cpus(self, demo_files, tmp_path, monkeypatch,
                                                 cpus, workers):
        # the pool forks every worker at its first task, so --jobs alone must
        # not size it: 2 thetas x 2 norms give 4 selection passes, one task
        # each; a stub pool records its size and maps in this process
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        edges, weights = demo_files
        csv = tmp_path / "exp.csv"
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "300,400", "--algo", "greedy", "--jobs", "100000",
                     "--seed", "5", "--csv", str(csv)]) == 0
        assert len(read_rows(csv)) == 8
        assert sizes == ([workers] if workers else [])  # one CPU runs in process

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_row_failures_recorded_and_run_continues(self, tmp_path, capsys, jobs):
        # exact mode on a 21-edge graph exceeds the oracle cap in every row;
        # the matrix must still be written, with empty result fields, whether
        # the rows run here or in worker processes, and the run exits with the
        # capacity error's code
        lines = "\n".join(f"0 {i + 1} 0.5" for i in range(21))
        big = tmp_path / "big.edges"
        big.write_text(lines + "\n", encoding="utf-8")
        csv_path = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", str(big), "--exact",
                     "--cost-dist", "uniform", "--algo", "greedy", "--jobs", jobs,
                     "--seed", "2", "--csv", str(csv_path)])
        assert code == 4
        rows = read_rows(csv_path)
        assert len(rows) == 4
        assert all(r["profit"] == "" and r["guarantee"] == "" for r in rows)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all("failed" in line for line in err)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_with_a_good_row_exits_zero(self, demo_files, tmp_path, capsys, jobs):
        # theta 2**62 fails its four rows before sampling; the four rows at
        # theta 200 succeed, so the sweep as a whole does
        edges, weights = demo_files
        csv_path = tmp_path / "exp.csv"
        assert main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", f"200,{2**62}", "--algo", "greedy", "--jobs", jobs,
                     "--seed", "2", "--csv", str(csv_path)]) == 0
        rows = read_rows(csv_path)
        assert [r["profit"] == "" for r in rows] == [False] * 4 + [True] * 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        assert all(f"theta={2**62}" in line and "past the 2**31 - 1 set ids" in line
                   for line in err)

    def test_member_budget_fails_each_row(self, demo_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(profitmax.rrsets, "MEMBER_BUDGET", 10)
        edges, weights = demo_files
        csv_path = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "400", "--algo", "greedy", "--seed", "2",
                     "--csv", str(csv_path)])
        assert code == 4
        rows = read_rows(csv_path)
        assert len(rows) == 4
        assert all(r["profit"] == "" and r["guarantee"] == "" for r in rows)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        assert all("failed: benefit RR sets: 400 of 400 reached sets" in line for line in err)


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_graph_fails_before_any_row(self, tmp_path, capsys, jobs):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nx y\n", encoding="utf-8")
        csv_path = tmp_path / "exp.csv"
        args = ["experiment", "--theta", "200", "--algo", "greedy", "--jobs", jobs,
                "--csv", str(csv_path)]
        assert main(args + ["--graph", str(bad)]) == 2
        assert "bad.txt:2: node ids must be integers" in capsys.readouterr().err
        assert main(args + ["--graph", str(tmp_path / "missing.txt")]) == 3
        assert not csv_path.exists()


class TestConfigFile:
    def test_file_values_and_flag_override(self, demo_files, tmp_path, capsys):
        edges, weights = demo_files
        config = tmp_path / "run.cfg"
        config.write_text(
            f"graph = {edges}\nweights = {weights}\n"
            "exact = true\nno-norm = true\nseed = 1\n# comment\n",
            encoding="utf-8")
        assert main(["prune", "--config", str(config)]) == 0
        assert capsys.readouterr().out.strip() == "4,1,3,2,50.0%"
        # the flag overrides the file's seed; the file's switches stay
        out = tmp_path / "lattice.json"
        assert main(["prune", "--config", str(config), "--seed", "2", "--out", str(out)]) == 0
        resolved = json.loads(out.read_text())["config"]
        assert resolved["seed"] == 2
        assert resolved["normalize"] is False and resolved["exact"] is True

    @pytest.mark.parametrize("flag, line", [
        (["--default-prob", "0.2"], "default_prob = 0.2"),
        (["--r", "2.5"], "r = 2.5"),
        (["--seed", "7"], "seed = 7"),
        (["--theta", "100,200"], "theta = 100, 200"),
        (["--algo", "greedy,modmod1"], "algo = greedy modmod1"),
        (["--no-norm"], "no_norm = true"),
        (["--no-prune"], "no-prune = yes"),
        (["--exact"], "exact = 1"),
        (["--benefit-dist", "degree-proportional"], "benefit_dist = degree-proportional"),
    ], ids=["str", "float", "int", "int-list", "name-list", "no-norm", "no-prune",
            "exact", "degree-proportional"])
    def test_flag_and_file_key_resolve_alike(self, demo_files, tmp_path, capsys, flag, line):
        edges, weights = demo_files
        config = tmp_path / "run.cfg"
        config.write_text(f"graph = {edges}\nweights = {weights}\n{line}\n", encoding="utf-8")
        out = tmp_path / "lattice.json"
        common = ["prune", "--theta-exp", "0", "--out", str(out)]
        hashes = []
        for args in (["--graph", edges, "--weights", weights] + flag, ["--config", str(config)]):
            assert main(common + args) == 0
            hashes.append(json.loads(out.read_text())["config_hash"])
        assert hashes[0] == hashes[1]
        assert main(common + ["--graph", edges, "--weights", weights]) == 0
        assert json.loads(out.read_text())["config_hash"] != hashes[0]

    def test_unknown_key_rejected(self, demo_files, tmp_path):
        edges, _ = demo_files
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["prune", "--config", str(config), "--graph", edges]) == 2

    @pytest.mark.parametrize("line", ["model = ic", "validate = 1", "thetas = 2",
                                      "normalize = false", "prune = true"])
    def test_non_field_keys_rejected(self, demo_files, tmp_path, capsys, line):
        edges, _ = demo_files
        config = tmp_path / "bad.cfg"
        config.write_text(f"# header\n{line}\n", encoding="utf-8")
        assert main(["prune", "--config", str(config), "--graph", edges]) == 2
        assert f"{config}:2: unknown key" in capsys.readouterr().err

    def test_hash_ignores_output_locations_and_jobs(self):
        # they change no output, so two runs that write the same rows carry
        # the same header; the embedded config still records them
        base = cli.RunConfig(graph="g.edges")
        moved = cli.RunConfig(graph="g.edges", jobs=2, out="o.json", out_dir="d", csv="x.csv")
        assert base.config_hash() == moved.config_hash()
        assert base.config_hash() != cli.RunConfig(graph="g.edges", seed=1).config_hash()

    @pytest.mark.parametrize("line", ["seed = abc", "theta = 100, x", "delta = small",
                                      "validation_theta = 1.5", "theta_exp = 2 y",
                                      "exact = maybe", "no-norm = on"])
    def test_bad_values_carry_the_line(self, demo_files, tmp_path, capsys, line):
        edges, _ = demo_files
        config = tmp_path / "bad.cfg"
        config.write_text(f"graph = {edges}\n\n{line}\n", encoding="utf-8")
        assert main(["prune", "--config", str(config), "--exact"]) == 2
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        assert f"{config}:3: bad value {value.strip()!r} for {key}" in capsys.readouterr().err


class TestExitCodes:
    def test_runs_as_a_module_from_the_source_tree(self, tmp_path):
        src = str(Path(profitmax.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "profitmax", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: profitmax ")

    def test_missing_graph_file(self, tmp_path):
        assert main(["prune", "--graph", str(tmp_path / "absent.txt"),
                     "--seed", "1"]) == 3

    @pytest.mark.parametrize("flag, side", [("--benefit-dist", "benefit"),
                                            ("--cost-dist", "cost")])
    def test_unknown_distribution_is_input_error(self, demo_files, capsys, flag, side):
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, flag, "pareto", "--exact"]) == 2
        assert f"error: unknown {side} distribution 'pareto'" in capsys.readouterr().err

    def test_bad_delta_is_config_error(self, demo_files):
        edges, weights = demo_files
        assert main(["select", "--graph", edges, "--weights", weights,
                     "--delta", "2.0", "--seed", "1"]) == 2

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_is_config_error(self, demo_files, capsys, r):
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, "--r", r, "--exact", "--seed", "1"]) == 2
        assert "field 'r'" in capsys.readouterr().err

    def test_capacity_error(self, tmp_path):
        lines = "\n".join(f"0 {i + 1} 0.5" for i in range(21))
        big = tmp_path / "big.edges"
        big.write_text(lines + "\n", encoding="utf-8")
        assert main(["prune", "--graph", big.as_posix(), "--exact",
                     "--cost-dist", "uniform", "--seed", "1"]) == 4

    def test_member_budget_is_capacity_error(self, demo_files, capsys, monkeypatch):
        # the demo graph puts all 400 sets in one batch, past a 10-member budget
        monkeypatch.setattr(profitmax.rrsets, "MEMBER_BUDGET", 10)
        edges, weights = demo_files
        assert main(["select", "--graph", edges, "--weights", weights,
                     "--theta", "400", "--seed", "1"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("capacity error: benefit RR sets: 400 of 400 reached sets hold ")
        assert err[0].endswith("past the member budget of 10")

    @pytest.mark.parametrize("arg, message", [
        ("--theta-exp=-1", "field 'theta_exp': exponents must be at least 0"),
        ("--theta-exp=", "field 'theta_exp': the sample-count schedule is empty"),
    ], ids=["negative", "empty"])
    def test_bad_theta_exp_is_config_error(self, demo_files, capsys, arg, message):
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, arg, "--seed", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "experiment"])
    @pytest.mark.parametrize("flag, line, message", [
        (",", "algo = ", "field 'algo': the algorithm list is empty"),
        ("greedy,greedy", "algo = greedy greedy",
         "field 'algo': an algorithm is repeated in ['greedy', 'greedy']"),
    ], ids=["empty", "repeated"])
    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_empty_or_repeated_algo_is_config_error(self, demo_files, tmp_path, capsys,
                                                    command, flag, line, message, via):
        edges, weights = demo_files
        csv = tmp_path / "out.csv"
        args = [command, "--graph", edges, "--weights", weights, "--theta", "200",
                "--seed", "1", "--out-dir", str(tmp_path / "seeds"), "--csv", str(csv)]
        if via == "flag":
            args += ["--algo", flag]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(line + "\n", encoding="utf-8")
            args += ["--config", str(config)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not csv.exists()

    def test_unallocatable_theta_is_capacity_error(self, demo_files, capsys):
        # 2^40 * 10000 sets: past the 2^31 - 1 set ids, refused before any root is drawn
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, "--theta-exp", "40", "--seed", "1"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("capacity error: ")

    @pytest.mark.parametrize("command, args", [
        ("select", ["--theta-exp", "50"]),
        ("select", ["--theta-exp", "60"]),
        ("select", ["--theta", str(2**62)]),
        ("select", ["--theta", "100", "--validation-theta", str(2**62)]),
        ("certify", ["--seeds", "SEEDS", "--theta", str(2**62)]),
    ], ids=["exp-50", "exp-60", "theta", "validation-theta", "certify"])
    def test_theta_past_int32_set_ids_is_capacity_error(self, demo_files, tmp_path, capsys,
                                                         command, args):
        # a collection's set ids are int32, so theta must lie below 2**31
        edges, weights = demo_files
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"seeds": [1]}), encoding="utf-8")
        args = [str(seeds) if a == "SEEDS" else a for a in args]
        assert main([command, "--graph", edges, "--weights", weights, *args, "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"capacity error: benefit RR sets: theta \d+ is past the "
                            r"2\*\*31 - 1 set ids", err[0])

    @pytest.mark.parametrize("command", ["select", "prune", "gen-weights"])
    def test_weights_whose_total_overflows_are_input_error(self, demo_files, tmp_path, capsys,
                                                           command):
        edges, _ = demo_files
        weights = tmp_path / "huge.weights"
        weights.write_text("1 1e308 0\n2 1e308 0\n", encoding="utf-8")
        assert main([command, "--graph", edges, "--weights", str(weights), "--seed", "1",
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == (f"error: {weights}: benefit weights must have "
                                           f"a finite total\n")

    @pytest.mark.parametrize("prob", ["abc", "1.5"])
    def test_bad_default_prob_is_input_error(self, demo_files, capsys, prob):
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, "--default-prob", prob,
                     "--exact", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_model_flag_is_gone(self, demo_files, tmp_path):
        edges, weights = demo_files
        out = tmp_path / "lattice.json"
        with pytest.raises(SystemExit) as info:
            main(["prune", "--graph", edges, "--exact", "--model", "ic"])
        assert info.value.code == 2
        assert main(["prune", "--graph", edges, "--weights", weights, "--exact",
                     "--out", str(out)]) == 0
        assert "model" not in json.loads(out.read_text())["config"]

    def test_malformed_graph_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 haha\n", encoding="utf-8")
        assert main(["prune", "--graph", str(bad), "--seed", "1"]) == 2

    @pytest.mark.parametrize("flag, text", [("--graph", DEMO_EDGE_TEXT),
                                            ("--weights", DEMO_WEIGHT_TEXT)])
    def test_undecodable_input_is_input_error(self, demo_files, tmp_path, capsys, flag, text):
        lines = text.encode("utf-8").splitlines(keepends=True)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"".join(lines[:2]) + b"\xff\xfe\n" + b"".join(lines[2:]))
        files = dict(zip(("--graph", "--weights"), demo_files), **{flag: str(bad)})
        assert main(["select", *(x for item in files.items() for x in item), "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: not UTF-8 text (invalid start byte)\n"

    def test_id_beyond_int64_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "big-id.edges"
        bad.write_text("0 1\n1 100000000000000000000\n", encoding="utf-8")
        assert main(["select", "--graph", str(bad), "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: node id 100000000000000000000 does not fit in 64 bits\n")
