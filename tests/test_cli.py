import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import profitmax
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
        lattice = tmp_path / "lattice.json"
        main(["prune", "--graph", edges, "--weights", weights, "--exact",
              "--no-norm", "--seed", "1", "--out", str(lattice)])
        main(["select", "--graph", edges, "--weights", weights, "--exact",
              "--no-norm", "--algo", "greedy", "--seed", "1",
              "--out-dir", str(tmp_path)])
        capsys.readouterr()
        cert_json = tmp_path / "cert.json"
        cert_csv = tmp_path / "cert.csv"
        code = main(["certify", "--graph", edges, "--weights", weights,
                     "--no-norm", "--seeds",
                     str(tmp_path / "seeds_greedy_theta640000.json"),
                     "--lattice", str(lattice), "--theta", "50000",
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

    @pytest.mark.parametrize("seeds_text, lattice_text, expected", [
        ('{"seeds": [2, 3', None, "seeds.json:1: "),
        ('{"algorithm": "greedy"}', None, "seeds.json: missing key 'seeds'"),
        ('{"seeds": [2, 3]}', '{"must_include": [3]}', "lattice.json: missing key 'may_include'"),
        ('{"seeds": [2, 3]}', '{"must_include": [1], "may_include": [2]}',
         "lattice.json: lattice requires must_include to be a subset of may_include"),
        ('[2, 3]', None, "seeds.json: malformed document: not a JSON object"),
        ('{"seeds": [2, 3]}', '[2, 3]', "lattice.json: malformed document: not a JSON object"),
        ('{"seeds": [2, 3]}', '{"must_include": [], "may_include": [2, 3], "iterations": '
         '[{"must_include": [], "may_include": [2, 3], "lower_margin": [], "upper_margin": {}}]}',
         "lattice.json: malformed document: lower_margin is not a JSON object"),
        ('{"seeds": [2, 3]}', '{"must_include": [], "may_include": [2, 3], "iterations": '
         '[{"must_include": [], "may_include": [2, 3], "lower_margin": {}, "upper_margin": 1}]}',
         "lattice.json: malformed document: upper_margin is not a JSON object"),
        ('{"seeds": [1.5]}', None, "seeds.json: malformed document: seed 1.5 is not an integer"),
        ('{"seeds": [true]}', None, "seeds.json: malformed document: seed True is not an integer"),
        ('{"seeds": ["2"]}', None, "seeds.json: malformed document: seed '2' is not an integer"),
        ('{"seeds": [2]}', '{"must_include": [0.5], "may_include": [1, 2]}',
         "lattice.json: malformed document: must_include 0.5 is not an integer"),
        ('{"seeds": [2]}', '{"must_include": [], "may_include": [2], "iterations": '
         '[{"must_include": [], "may_include": ["2"], "lower_margin": {}, "upper_margin": {}}]}',
         "lattice.json: malformed document: may_include '2' is not an integer"),
    ], ids=["truncated-seeds", "no-seeds-key", "no-may-include-key", "floor-outside-ceiling",
            "seeds-not-an-object", "lattice-not-an-object", "lower-margin-not-an-object",
            "upper-margin-not-an-object", "float-seed", "bool-seed", "string-seed",
            "float-floor-node", "string-step-node"])
    def test_malformed_json_is_input_error(self, demo_files, tmp_path, capsys,
                                           seeds_text, lattice_text, expected):
        edges, weights = demo_files
        seeds = tmp_path / "seeds.json"
        seeds.write_text(seeds_text, encoding="utf-8")
        args = ["certify", "--graph", edges, "--weights", weights, "--seeds", str(seeds),
                "--theta", "100", "--seed", "1"]
        if lattice_text is not None:
            lattice = tmp_path / "lattice.json"
            lattice.write_text(lattice_text, encoding="utf-8")
            args += ["--lattice", str(lattice)]
        assert main(args) == 2
        assert expected in capsys.readouterr().err


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

    def test_parallel_rows_match_sequential(self, demo_files, tmp_path):
        edges, weights = demo_files
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        args = ["experiment", "--graph", edges, "--weights", weights,
                "--theta", "300", "--algo", "greedy,highdegree",
                "--delta", "0.01", "--seed", "5"]
        assert main(args + ["--csv", str(seq)]) == 0
        assert main(args + ["--jobs", "2", "--csv", str(par)]) == 0
        assert rows_without_timing(seq) == rows_without_timing(par)

    def test_row_failures_recorded_and_run_continues(self, tmp_path, capsys):
        # exact mode on a 21-edge graph exceeds the oracle cap in every row;
        # the matrix must still be written, with empty result fields
        lines = "\n".join(f"0 {i + 1} 0.5" for i in range(21))
        big = tmp_path / "big.edges"
        big.write_text(lines + "\n", encoding="utf-8")
        csv_path = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", str(big), "--exact",
                     "--cost-dist", "uniform", "--algo", "greedy",
                     "--seed", "2", "--csv", str(csv_path)])
        assert code == 0
        rows = read_rows(csv_path)
        assert len(rows) == 4
        assert all(r["profit"] == "" and r["guarantee"] == "" for r in rows)
        assert "failed" in capsys.readouterr().err

    def test_member_budget_fails_each_row(self, demo_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(profitmax.rrsets, "MEMBER_BUDGET", 10)
        edges, weights = demo_files
        csv_path = tmp_path / "exp.csv"
        code = main(["experiment", "--graph", edges, "--weights", weights,
                     "--theta", "400", "--algo", "greedy", "--seed", "2",
                     "--csv", str(csv_path)])
        assert code == 0
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

    def test_unallocatable_theta_is_capacity_error(self, demo_files, capsys):
        # 2^40 * 10000 sets: numpy refuses the root array without touching memory
        edges, _ = demo_files
        assert main(["prune", "--graph", edges, "--theta-exp", "40", "--seed", "1"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("capacity error: ")

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
