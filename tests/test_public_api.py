"""The library surface the benchmark harness and outside callers rely on."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

import profitmax
from profitmax import ExactEvaluator, ProfitEstimator, RRCollection
from profitmax.evaluation import MarginalEvaluator


def test_every_exported_name_resolves():
    assert len(profitmax.__all__) == len(set(profitmax.__all__))
    for name in profitmax.__all__:
        assert getattr(profitmax, name) is not None, name


def test_exports_are_pinned():
    # the package exports exactly these names: ModularBounds is the one
    # modular-bound builder, and no dict-valued bound helper is left
    assert sorted(profitmax.__all__) == sorted([
        "CapacityError", "ConfigError", "DomainError", "ExactEvaluator", "InternalError",
        "Lattice", "MarginalEvaluator", "ModularBounds", "ParseError", "ProfitCertificate",
        "ProfitEstimator", "ProfitMaxError", "PruneStep", "RRCollection", "SelectionResult",
        "WeightTotals", "WeightedGraph", "assign_weights", "baseline", "certify",
        "chernoff_a", "confidence_bounds", "epsilon_mu", "exhaustive_optimum", "generate",
        "greedy", "iterative_prune", "k_sweep", "load_edge_list", "load_weights",
        "modmod", "mu_bound", "normalize_weights", "sampling_error_limit",
        "save_edge_list", "save_weights", "simulate_spread", "sweep_sizes",
        "theta_for_relative_error", "trivial_lattice"])


def test_optimize_defines_no_public_helper_beyond_its_exports():
    optimize = importlib.import_module("profitmax.optimize")
    assert profitmax.ModularBounds is optimize.ModularBounds
    defined = {name for name, obj in vars(optimize).items()
               if not name.startswith("_")
               and getattr(obj, "__module__", None) == optimize.__name__}
    assert defined == {"ModularBounds", "SelectionResult", "baseline", "greedy", "k_sweep",
                       "modmod", "mu_bound", "select", "sweep_sizes"}


def test_cli_imports_no_private_certify_or_optimize_name():
    # the CLI selects and certifies through the library's public calls
    tree = ast.parse((Path(profitmax.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    # relative (``from .certify``) or absolute (``from profitmax.certify``)
    imported = [(module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (module := (node.module or "").removeprefix("profitmax.")) in
                ("certify", "optimize")
                for alias in node.names]
    assert {module for module, _ in imported} == {"certify", "optimize"}
    assert [name for _, name in imported if name.startswith("_")] == []


def test_runtime_imports_are_stdlib_numpy_or_profitmax():
    # numpy is the only runtime dependency: a third-party import that happens
    # to be installed (scipy, say) would otherwise pass unnoticed
    allowed = set(sys.stdlib_module_names) | {"numpy", "profitmax"}
    paths = sorted(Path(profitmax.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_estimator_queries_are_its_own_methods():
    # the harness wraps these in place on the class, so each name must be
    # bound on ProfitEstimator itself, whether defined there or not
    for method in ("value", "value_many", "marginal", "marginal_many", "marginal_vs_rest",
                   "chain_increments"):
        assert callable(ProfitEstimator.__dict__[method]), method
    assert isinstance(ProfitEstimator.__dict__["build"], classmethod)


def test_marginal_queries_have_one_definition():
    # every marginal query derives from coverage_state in MarginalEvaluator;
    # the estimator binds those functions, and the oracle defines no query
    for method in ("marginal", "marginal_many", "marginal_vs_rest"):
        assert ProfitEstimator.__dict__[method] is MarginalEvaluator.__dict__[method], method
    for method in ("value", "marginal", "marginal_many", "marginal_vs_rest"):
        assert method not in ExactEvaluator.__dict__, method


def test_certify_module_exposes_mu_bound():
    # ``profitmax.certify`` is the function; the module is reached by name
    assert callable(importlib.import_module("profitmax.certify").mu_bound)


def test_mu_bound_is_one_object_everywhere():
    # the harness swaps ``mu_bound`` on the certify module, which ``certify``
    # calls it through; the package and that module must hold the same function
    certify_module = importlib.import_module("profitmax.certify")
    assert profitmax.mu_bound is certify_module.mu_bound
    assert certify_module.mu_bound is importlib.import_module("profitmax.optimize").mu_bound


def test_collection_from_keyword_arguments():
    coll = RRCollection(kind="benefit", node_count=3, total_weight=2.0, seed=5,
                        sets=[[0, 1], [2]])
    assert [s.tolist() for s in coll.sets] == [[0, 1], [2]]
    assert [s.tolist() for s in coll.index] == [[0], [0], [1]]
    assert all(isinstance(s, np.ndarray) for s in (*coll.sets, *coll.index))
    assert (coll.kind, coll.node_count, coll.total_weight, coll.seed, coll.theta) == \
        ("benefit", 3, 2.0, 5, 2)
