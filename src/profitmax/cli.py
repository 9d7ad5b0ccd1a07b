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
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .certify import certify
from .errors import (CapacityError, ConfigError, DomainError, InternalError,
                     ParseError)
from .graph import (WeightedGraph, _check_values, _data_lines, _read_json,
                    assign_weights, load_edge_list, normalize_weights, save_weights)
from .optimize import ALGORITHMS, BASELINES, select
from .oracle import ExactEvaluator
from .prune import iterative_prune, trivial_lattice
from .rng import derive_seed
from .rrsets import ProfitEstimator

THETA_BASE = 10_000
CSV_COLUMNS = ("dataset", "algo", "theta", "prune", "norm", "seeds_count",
               "profit", "guarantee", "time_select_ms", "time_rr_ms", "seed")
CSV_VERSION = "v1"
# RunConfig fields that change no output, left out of its hash
_UNHASHED = ("jobs", "out", "out_dir", "csv")


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
        if not self.algo:
            raise ConfigError("field 'algo': the algorithm list is empty")
        if len(set(self.algo)) < len(self.algo):
            raise ConfigError(f"field 'algo': an algorithm is repeated in {self.algo}")
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
        """A hash of the fields that decide the outputs: all but ``_UNHASHED``."""
        fields = {key: value for key, value in asdict(self).items() if key not in _UNHASHED}
        payload = json.dumps(fields, sort_keys=True, default=str)
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
            if command == "certify" or key != "seeds":
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
                          norm: bool) -> ProfitEstimator:
    """The pass's validation pair, at ``--validation-theta`` or else theta."""
    vtheta = cfg.validation_theta or theta
    return ProfitEstimator.build(
        g_view, vtheta, vtheta,
        seed=derive_seed(cfg.seed, "cli-validation", vtheta, int(norm)))


def _attempt(fn, *args):
    """fn(*args), or the exception it raised; runs fail in isolation."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _run_key(algo: str, prune_on: bool):
    """(whether ``algo`` searches ``iterative_prune``'s lattice, algo): a
    heuristic does as its prune flag says; a baseline never does."""
    return prune_on and algo not in BASELINES, algo


def _selection_pass(cfg: RunConfig, g_view: WeightedGraph, theta: int, norm: bool,
                    prune_flags):
    """(evaluator, runs) of the selection sample drawn once at (theta, norm),
    which raises if the draw fails.  ``runs[_run_key(algo, prune_on)]`` is
    (rr_ms, result, select_ms) of ``algo`` run in the lattice it searches,
    or the exception pruning or the run raised; each distinct run is made
    once, and pruning only when some run searches its lattice."""
    evaluator, rr_ms = _selection_evaluator(cfg, g_view, theta, norm)

    def run(algo, lattice):
        if isinstance(lattice, Exception):
            return lattice
        start = time.perf_counter()
        result = select(algo, g_view, evaluator, lattice, cfg.seed)
        return rr_ms, result, int((time.perf_counter() - start) * 1000)

    keys = dict.fromkeys(_run_key(algo, prune_on)
                         for prune_on in prune_flags for algo in cfg.algo)
    lattices = {pruned: _attempt(iterative_prune, evaluator) if pruned
                else trivial_lattice(g_view.node_count) for pruned in {p for p, _ in keys}}
    return evaluator, {(pruned, algo): _attempt(run, algo, lattices[pruned])
                       for pruned, algo in keys}


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


def _write_json(path, doc: dict, cfg: RunConfig, **extra) -> None:
    """Write ``doc`` with the resolved configuration, its hash and ``extra``."""
    doc.update(config=asdict(cfg), config_hash=cfg.config_hash(), **extra)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


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
        _write_json(cfg.out, lattice.to_json_dict(g), cfg, seed=cfg.seed)
    return 0


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    raw = _load_weighted_graph(cfg)
    g = _graph_view(raw, cfg.normalize)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for theta in cfg.thetas():
        evaluator, runs = _selection_pass(cfg, g, theta, cfg.normalize, (cfg.prune,))
        # the oracle is deterministic and its queries leave it unchanged
        validation = (evaluator if cfg.exact
                      else _validation_evaluator(cfg, g, theta, cfg.normalize))
        for algo in cfg.algo:
            run = runs[_run_key(algo, cfg.prune)]
            if isinstance(run, Exception):
                raise run
            rr_ms, result, select_ms = run
            profit = validation.profit(result.seeds)
            _write_json(out_dir / f"seeds_{algo}_theta{theta}.json",
                        {**result.to_json_dict(g), "theta": theta}, cfg,
                        seed=cfg.seed, validation_profit=profit)
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
    theta = cfg.thetas()[0]
    # the validation pair that select and experiment draw at this theta
    validation = _validation_evaluator(cfg, g, theta, cfg.normalize)
    cert = certify(seeds, validation, delta=cfg.delta, seed=cfg.seed)
    print(cert.summary_line())
    if cfg.out:
        _write_json(cfg.out, cert.to_json_dict(), cfg)
    rows = [_row(cfg, algo, theta, cfg.prune, cfg.normalize,
                 len(seeds), cert.phi_estimate, cert.guarantee, 0, 0)]
    _write_csv(rows, cfg, cfg.csv)
    return 0


def _experiment_pass(cfg: RunConfig, graph: WeightedGraph, pass_spec) -> dict:
    """The certified runs of the selection pass at (theta, norm), keyed like
    its runs: each (seeds_count, profit, guarantee, select_ms, rr_ms), or the
    exception the run raised.  Each run is certified once, on one validation
    pair that no run selected on; raises if the selection sample or the pair
    fails to draw."""
    theta, norm_on = pass_spec
    g = _graph_view(graph, norm_on)
    runs = _selection_pass(cfg, g, theta, norm_on, (True, False))[1]
    validation = _validation_evaluator(cfg, g, theta, norm_on)

    def certified(run):
        if isinstance(run, Exception):
            return run
        rr_ms, result, select_ms = run
        cert = certify(result.seeds, validation, delta=cfg.delta, seed=cfg.seed)
        return len(result.seeds), cert.phi_estimate, cert.guarantee, select_ms, rr_ms

    return {key: _attempt(certified, run) for key, run in runs.items()}


def cmd_experiment(args) -> int:
    cfg = _resolve_config(args)
    # (theta, algo, prune_on, norm_on), the CSV's row order
    row_specs = list(itertools.product(cfg.thetas(), cfg.algo, (True, False), (True, False)))
    # the rows at one (theta, norm) share one selection pass and validation pair
    pass_specs = list(dict.fromkeys((theta, norm_on) for theta, _, _, norm_on in row_specs))
    # bad input ends the run before any row, whatever --jobs is
    graph = _load_weighted_graph(cfg)
    # the pool forks all its workers at the first task, so no more than there
    # are passes or CPUs; one worker runs in this process
    workers = min(cfg.jobs, len(pass_specs), os.cpu_count() or 1)
    parallel = workers > 1
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if parallel
          else contextlib.nullcontext()) as pool:
        passes = dict(zip(pass_specs, (pool.map if parallel else map)(
            functools.partial(_attempt, _experiment_pass, cfg, graph), pass_specs)))
    rows, errors = [], []
    for theta, algo, prune_on, norm_on in row_specs:
        # a pass whose sample or pair fails to draw fails all its rows
        runs = passes[theta, norm_on]
        outcome = runs if isinstance(runs, Exception) else runs[_run_key(algo, prune_on)]
        if isinstance(outcome, Exception):
            errors.append(outcome)
            print(f"row (theta={theta}, algo={algo}, prune={int(prune_on)}, "
                  f"norm={int(norm_on)}) failed: {outcome}", file=sys.stderr)
            outcome = 0, None, None, 0, 0
        rows.append(_row(cfg, algo, theta, prune_on, norm_on, *outcome))
    _write_csv(rows, cfg, cfg.csv)
    if len(errors) < len(rows) or not rows:
        return 0
    # no row succeeded: exit as the first row's error would have
    failure = _failure(errors[0])
    return failure[0] if failure else 1


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
