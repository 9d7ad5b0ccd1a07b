"""Command-line harness: dataset preparation and end-to-end runs.

Subcommands:

    gen-weights   write a weights file from distribution policies
    prune         reduce the search space, emit the lattice and a summary row
    select        run selection algorithms, emit seeds files and CSV rows
    certify       certify a seeds file, emit certificate JSON and a CSV row
    experiment    cross-product sweep (theta x algorithm x pruning x
                  normalization), one CSV

Exit codes: 0 success, 2 configuration or input error, 3 I/O error,
4 capacity error, 5 internal invariant violation.

Every output embeds the master seed and a hash of the resolved
configuration; re-running a command with the same inputs reproduces every
non-timing field bit for bit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .certify import certify as certify_seeds
from .errors import (CapacityError, ConfigError, DomainError, InternalError,
                     ParseError)
from .graph import (WeightedGraph, _check_values, _data_lines, _read_json,
                    assign_weights, load_edge_list, normalize_weights, save_weights)
from .optimize import BASELINES, SelectionResult, greedy, k_sweep, modmod
from .oracle import ExactEvaluator
from .prune import Lattice, iterative_prune, trivial_lattice
from .rng import derive_seed
from .rrsets import ProfitEstimator

THETA_BASE = 10_000
CSV_COLUMNS = ("dataset", "algo", "theta", "prune", "norm", "seeds_count",
               "profit", "guarantee", "time_select_ms", "time_rr_ms", "seed")
CSV_VERSION = "v1"
HEURISTICS = ("greedy", "modmod1", "modmod2")
ALGORITHMS = HEURISTICS + BASELINES


@dataclass
class RunConfig:
    """Resolved configuration of one harness invocation."""

    graph: str = None
    weights: str = None
    benefit_dist: str = "uniform"
    cost_dist: str = "degree"
    r: float = 1.0
    default_prob: str = "wic"
    theta_exp: list = field(default_factory=lambda: [6])
    theta: list = None
    validation_theta: int = None
    algo: list = field(default_factory=lambda: ["greedy"])
    delta: float = 1e-6
    seed: int = 0
    normalize: bool = True
    prune: bool = True
    exact: bool = False
    jobs: int = 1
    out: str = None
    out_dir: str = "."
    csv: str = None
    lattice: str = None
    seeds: str = None

    def thetas(self) -> list:
        if self.theta:
            return [int(t) for t in self.theta]
        return [(1 << int(i)) * THETA_BASE for i in self.theta_exp]

    def validate(self) -> None:
        if self.graph is None:
            raise ConfigError("field 'graph': a graph file is required")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"field 'delta': must lie in (0,1), got {self.delta}")
        if not 0 < self.r < math.inf:
            raise ConfigError(f"field 'r': must be finite and positive, got {self.r}")
        if self.jobs < 1:
            raise ConfigError(f"field 'jobs': must be at least 1, got {self.jobs}")
        for name in self.algo:
            if name not in ALGORITHMS:
                raise ConfigError(f"field 'algo': unknown algorithm {name!r}; "
                                  f"expected one of {ALGORITHMS}")
        if any(int(i) < 0 for i in self.theta_exp):
            raise ConfigError(f"field 'theta_exp': exponents must be at least 0, "
                              f"got {self.theta_exp}")
        if not self.thetas():
            raise ConfigError("field 'theta_exp': the sample-count schedule is empty")
        for t in self.thetas():
            if t < 1:
                raise ConfigError("field 'theta': counts must be at least 1")
        if self.validation_theta is not None and self.validation_theta < 1:
            raise ConfigError("field 'validation_theta': must be at least 1")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# -- configuration resolution ----------------------------------------------


def _int_list(text):
    return [int(p) for p in text.replace(",", " ").split() if p]


def _name_list(text):
    return [p for p in text.replace(",", " ").split() if p]


# RunConfig field -> (text parser, help); a flag and a file key alike
_OPTIONS = {
    "graph": (str, "edge-list file"),
    "weights": (str, "explicit 'v b c' weights file"),
    "benefit_dist": (str, "uniform, degree or degree-proportional"),
    "cost_dist": (str, "uniform, degree or degree-proportional"),
    "r": (float, "total-cost to total-benefit scale factor"),
    "default_prob": (str, "probability for edges without one: a constant or wic"),
    "theta_exp": (_int_list, "exponents i; theta = 2^i * 10000 (comma separated)"),
    "theta": (_int_list, "explicit sample counts (overrides --theta-exp)"),
    "validation_theta": (int, "sample count for validation estimates"),
    "algo": (_name_list, "comma separated algorithm names"),
    "delta": (float, "failure probability for bounds"),
    "seed": (int, "master seed"),
    "jobs": (int, "parallel experiment rows"),
    "out": (str, "output file"),
    "out_dir": (str, "directory for seeds files"),
    "csv": (str, "CSV output file (default stdout)"),
    "lattice": (str, "lattice JSON produced by prune"),
    "seeds": (str, "seeds JSON produced by select"),
}

# on/off switch -> (RunConfig field, value it sets, help)
_SWITCHES = {
    "no_norm": ("normalize", False, "skip weight normalization"),
    "no_prune": ("prune", False, "skip search-space pruning"),
    "exact": ("exact", True, "use the exact oracle instead of sampling (small graphs)"),
}
_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_config_file(path) -> dict:
    """RunConfig values from a flat ``key = value`` file; keys are the flag names."""
    values = {}
    for lineno, line in _data_lines(path):
        key, eq, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _OPTIONS and key not in _SWITCHES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _SWITCHES:
                name, value, _ = _SWITCHES[key]
                values[name] = value if _BOOL_WORDS[text.lower()] else not value
            else:
                values[key] = _OPTIONS[key][0](text)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{lineno}: bad value {text!r} for {key}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profitmax",
        description="Profit-driven seed selection in directed social graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in (("gen-weights", cmd_gen_weights), ("prune", cmd_prune),
                        ("select", cmd_select), ("certify", cmd_certify),
                        ("experiment", cmd_experiment)):
        p = sub.add_parser(command)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="flat key = value file of the same options; "
                                        "flags override it")
        for key, (parse, text) in _OPTIONS.items():
            if command == "certify" or key not in ("lattice", "seeds"):
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                               help=text)
        # a switch stores its value under its field, None when not given
        for key, (name, value, text) in _SWITCHES.items():
            p.add_argument("--" + key.replace("_", "-"), dest=name,
                           action="store_const", const=value, help=text)
    return parser


def _resolve_config(args) -> RunConfig:
    values = _parse_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in RunConfig.__dataclass_fields__ and value is not None)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# -- shared pipeline pieces --------------------------------------------------


def _load_weighted_graph(cfg: RunConfig) -> WeightedGraph:
    g = load_edge_list(cfg.graph, default_prob=cfg.default_prob)
    return assign_weights(g, benefit_dist=cfg.benefit_dist, cost_dist=cfg.cost_dist,
                          r=cfg.r, weights_path=cfg.weights)


def _graph_view(g: WeightedGraph, normalize: bool) -> WeightedGraph:
    return normalize_weights(g) if normalize else g


def _selection_evaluator(cfg: RunConfig, g_view: WeightedGraph, theta: int,
                         norm: bool):
    """(evaluator, rr generation time in ms)."""
    if cfg.exact:
        return ExactEvaluator(g_view), 0
    start = time.perf_counter()
    est = ProfitEstimator.build(
        g_view, theta, theta,
        seed=derive_seed(cfg.seed, "selection", theta, int(norm)))
    return est, int((time.perf_counter() - start) * 1000)


def _validation_evaluator(cfg: RunConfig, g_view: WeightedGraph, theta: int,
                          norm: bool):
    vtheta = cfg.validation_theta or theta
    return ProfitEstimator.build(
        g_view, vtheta, vtheta,
        seed=derive_seed(cfg.seed, "cli-validation", vtheta, int(norm)))


def _run_algorithm(name: str, g_view: WeightedGraph, evaluator, lattice: Lattice,
                   cfg: RunConfig) -> SelectionResult:
    if name == "greedy":
        return greedy(evaluator, lattice)
    if name in ("modmod1", "modmod2"):
        return modmod(evaluator, lattice, gamma_bound_variant=3 if name == "modmod1" else 4,
                      seed=derive_seed(cfg.seed, name))
    return k_sweep(name, g_view, evaluator, seed=derive_seed(cfg.seed, "baseline", name))


def _format_float(x) -> str:
    if x is None:
        return ""
    return f"{x:.10g}"


def _write_csv(rows, cfg: RunConfig, path) -> None:
    lines = [f"# profitmax-csv {CSV_VERSION} config={cfg.config_hash()} seed={cfg.seed}",
             ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _row(cfg: RunConfig, algo: str, theta: int, prune_on: bool, norm_on: bool,
         seeds_count: int, profit, guarantee, select_ms: int, rr_ms: int) -> dict:
    return {
        "dataset": Path(cfg.graph).stem,
        "algo": algo,
        "theta": theta,
        "prune": int(prune_on),
        "norm": int(norm_on),
        "seeds_count": seeds_count,
        "profit": _format_float(profit),
        "guarantee": _format_float(guarantee),
        "time_select_ms": select_ms,
        "time_rr_ms": rr_ms,
        "seed": cfg.seed,
    }


# -- subcommands -------------------------------------------------------------


def cmd_gen_weights(args) -> int:
    cfg = _resolve_config(args)
    if cfg.out is None:
        raise ConfigError("field 'out': gen-weights needs an output path")
    g = _load_weighted_graph(cfg)
    save_weights(g, cfg.out)
    print(f"wrote weights for {g.node_count} nodes to {cfg.out}")
    return 0


def cmd_prune(args) -> int:
    cfg = _resolve_config(args)
    g = _graph_view(_load_weighted_graph(cfg), cfg.normalize)
    theta = cfg.thetas()[0]
    evaluator, _ = _selection_evaluator(cfg, g, theta, cfg.normalize)
    lattice = iterative_prune(evaluator)
    n = g.node_count
    free = len(lattice.free_nodes)
    print(f"{n},{len(lattice.must_include)},{len(lattice.may_include)},"
          f"{free},{lattice.reduction(n) * 100:.1f}%")
    if cfg.out:
        doc = lattice.to_json_dict(g)
        doc["config"] = asdict(cfg)
        doc["config_hash"] = cfg.config_hash()
        doc["seed"] = cfg.seed
        Path(cfg.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    raw = _load_weighted_graph(cfg)
    g = _graph_view(raw, cfg.normalize)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for theta in cfg.thetas():
        evaluator, rr_ms = _selection_evaluator(cfg, g, theta, cfg.normalize)
        # the oracle is deterministic and its queries leave it unchanged
        validation = (evaluator if cfg.exact
                      else _validation_evaluator(cfg, g, theta, cfg.normalize))
        lattice = iterative_prune(evaluator) if cfg.prune else trivial_lattice(g.node_count)
        for algo in cfg.algo:
            start = time.perf_counter()
            result = _run_algorithm(algo, g, evaluator, lattice, cfg)
            select_ms = int((time.perf_counter() - start) * 1000)
            profit = validation.profit(result.seeds)
            doc = result.to_json_dict(g)
            doc["theta"] = theta
            doc["config"] = asdict(cfg)
            doc["config_hash"] = cfg.config_hash()
            doc["seed"] = cfg.seed
            doc["validation_profit"] = profit
            (out_dir / f"seeds_{algo}_theta{theta}.json").write_text(
                json.dumps(doc), encoding="utf-8")
            rows.append(_row(cfg, algo, theta, cfg.prune, cfg.normalize,
                             len(result.seeds), profit, None, select_ms, rr_ms))
    _write_csv(rows, cfg, cfg.csv)
    return 0


def cmd_certify(args) -> int:
    cfg = _resolve_config(args)
    if cfg.seeds is None:
        raise ConfigError("field 'seeds': certify needs a seeds JSON file")
    raw = _load_weighted_graph(cfg)
    g = _graph_view(raw, cfg.normalize)
    seeds, algo = _read_json(cfg.seeds, lambda doc: (
        frozenset(g.internal_id(v) for v in _check_values(doc["seeds"], "seed")),
        doc.get("algorithm", "unknown")))
    lattice = (_read_json(cfg.lattice, lambda doc: Lattice.from_json_dict(doc, g))
               if cfg.lattice else trivial_lattice(g.node_count))
    theta = cfg.validation_theta or cfg.thetas()[0]
    cert = certify_seeds(seeds, g, lattice, theta, delta=cfg.delta,
                         seed=derive_seed(cfg.seed, "certify"))
    print(cert.summary_line())
    if cfg.out:
        doc = cert.to_json_dict()
        doc["config"] = asdict(cfg)
        doc["config_hash"] = cfg.config_hash()
        Path(cfg.out).write_text(json.dumps(doc), encoding="utf-8")
    rows = [_row(cfg, algo, theta, cfg.lattice is not None, cfg.normalize,
                 len(seeds), cert.phi_estimate, cert.guarantee, 0, 0)]
    _write_csv(rows, cfg, cfg.csv)
    return 0


def _experiment_row(cfg: RunConfig, row_spec, graph: WeightedGraph) -> dict:
    theta, algo, prune_on, norm_on = row_spec
    g = _graph_view(graph, norm_on)
    evaluator, rr_ms = _selection_evaluator(cfg, g, theta, norm_on)
    lattice = iterative_prune(evaluator) if prune_on else trivial_lattice(g.node_count)
    start = time.perf_counter()
    result = _run_algorithm(algo, g, evaluator, lattice, cfg)
    select_ms = int((time.perf_counter() - start) * 1000)
    # baselines select on the whole graph; their certificate uses the
    # trivial lattice they actually searched
    cert_lattice = lattice if algo in HEURISTICS else trivial_lattice(g.node_count)
    vtheta = cfg.validation_theta or theta
    cert = certify_seeds(result.seeds, g, cert_lattice, vtheta, delta=cfg.delta,
                         seed=derive_seed(cfg.seed, "experiment", theta, algo,
                                          int(prune_on), int(norm_on)))
    return _row(cfg, algo, theta, prune_on, norm_on, len(result.seeds),
                cert.phi_estimate, cert.guarantee, select_ms, rr_ms)


def cmd_experiment(args) -> int:
    cfg = _resolve_config(args)
    row_specs = [(theta, algo, prune_on, norm_on)
                 for theta in cfg.thetas()
                 for algo in cfg.algo
                 for prune_on in (True, False)
                 for norm_on in (True, False)]
    rows = []
    # bad input ends the run before any row, whatever --jobs is
    graph = _load_weighted_graph(cfg)
    parallel = cfg.jobs > 1
    with (concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) if parallel
          else contextlib.nullcontext()) as pool:
        # one call per row that returns the row or raises what building it raised
        calls = [pool.submit(_experiment_row, cfg, rs, graph).result if parallel
                 else functools.partial(_experiment_row, cfg, rs, graph) for rs in row_specs]
        errors = []
        for rs, call in zip(row_specs, calls):
            try:
                rows.append(call())
            except Exception as exc:  # rows are isolated; record and move on
                errors.append(exc)
                rows.append(_failed_row(cfg, rs, exc))
    _write_csv(rows, cfg, cfg.csv)
    if len(errors) < len(rows) or not rows:
        return 0
    # no row succeeded: exit as the first row's error would have
    failure = _failure(errors[0])
    return failure[0] if failure else 1


def _failed_row(cfg: RunConfig, row_spec, exc: Exception) -> dict:
    theta, algo, prune_on, norm_on = row_spec
    print(f"row (theta={theta}, algo={algo}, prune={int(prune_on)}, "
          f"norm={int(norm_on)}) failed: {exc}", file=sys.stderr)
    return _row(cfg, algo, theta, prune_on, norm_on, 0, None, None, 0, 0)


# the exit code and stderr label of each documented error
_FAILURES = {ConfigError: (2, "error"), ParseError: (2, "error"), DomainError: (2, "error"),
             OSError: (3, "i/o error"), CapacityError: (4, "capacity error"),
             MemoryError: (4, "capacity error"), InternalError: (5, "internal error")}


def _failure(exc: Exception):
    """(exit code, label) of a documented error; None for any other."""
    return next((failure for kind, failure in _FAILURES.items() if isinstance(exc, kind)), None)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        code, label = _failure(exc)
        # only a bare MemoryError has no message
        print(f"{label}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
