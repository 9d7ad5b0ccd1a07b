"""Golden outputs of the CLI documents, pinned byte for byte.

Small ``prune``, ``select``, ``certify`` and ``experiment`` runs on one
seeded 300-node graph are compared against ``tests/data/cli_goldens.json``:
the CSVs without their ``time_*`` columns, the printed summary lines, and
the lattice, seeds and certificate JSON.  At theta = 4000 every collection
spans two sampling batches (a batch holds 3495 sets at 300 nodes), so the
pins guard the whole sampler, not only its first batch.  The runs use paths
relative to a temporary working directory, so the configuration hashes are
stable; any absolute temporary path left in a document is replaced by
``<tmp>``.  ``experiment`` runs at ``--jobs 1`` and ``--jobs 2`` and must
give the same CSV, header included.

Regenerate the fixture only when outputs are meant to change:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from profitmax.cli import CSV_COLUMNS, main

FIXTURE = Path(__file__).parent / "data" / "cli_goldens.json"
GRAPH = "graph.edges"
COMMON = ["--graph", GRAPH, "--theta", "4000", "--seed", "3"]
TIMING = [CSV_COLUMNS.index(c) for c in ("time_select_ms", "time_rr_ms")]


def write_graph(path, n=300, m=1500, seed=2024):
    """m distinct random ``u v`` edges without self-loops; WIC probabilities."""
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        draw = rng.integers(0, n * n, size=2 * m)
        keys = np.unique(np.concatenate([keys, draw[draw // n != draw % n]]))
    keys = rng.permutation(keys)[:m]
    np.savetxt(path, np.column_stack([keys // n, keys % n]), fmt="%d %d")


def run(args) -> str:
    """Run one CLI command in the working directory; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code == 0, args
    return out.getvalue()


def untimed_csv(text) -> str:
    """CSV text with the ``time_*`` cells of its rows blanked; lines up to
    the column header are kept as they are."""
    lines = text.splitlines()
    for i in range(lines.index(",".join(CSV_COLUMNS)) + 1, len(lines)):
        cells = lines[i].split(",")
        for c in TIMING:
            cells[c] = ""
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def read(path, tmp) -> str:
    return Path(path).read_text(encoding="utf-8").replace(str(tmp), "<tmp>")


def outputs(tmp) -> dict:
    """Every golden document, run in the directory ``tmp``."""
    write_graph(GRAPH)
    got = {"prune.stdout": run(["prune", *COMMON, "--out", "lattice.json"]),
           "lattice.json": read("lattice.json", tmp)}
    run(["select", *COMMON, "--algo", "greedy,modmod1,modmod2,highdegree",
         "--out-dir", "seeds", "--csv", "select.csv"])
    got["select.csv"] = untimed_csv(read("select.csv", tmp))
    for name in sorted(os.listdir("seeds")):
        got[f"seeds/{name}"] = read(Path("seeds") / name, tmp)
    got["certify.stdout"] = untimed_csv(run(
        ["certify", *COMMON, "--seeds", "seeds/seeds_greedy_theta4000.json",
         "--validation-theta", "5000", "--out", "cert.json"]))
    got["cert.json"] = read("cert.json", tmp)
    for jobs in (1, 2):
        run(["experiment", *COMMON, "--algo", "greedy,modmod2,highdegree,random",
             "--jobs", str(jobs), "--csv", f"experiment{jobs}.csv"])
        got[f"experiment{jobs}.csv"] = untimed_csv(read(f"experiment{jobs}.csv", tmp))
    return got


def all_outputs() -> dict:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return outputs(tmp)
        finally:
            os.chdir(cwd)


def test_cli_outputs_match_goldens():
    got = all_outputs()
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    # the config hash leaves out --jobs and --csv, so the whole CSV is the
    # same whatever they are
    assert got["experiment1.csv"] == got["experiment2.csv"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(all_outputs(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
