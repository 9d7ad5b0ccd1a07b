"""The benchmark workloads and one repetition of the profitmax pipeline.

A repetition is what a user of the library runs on an edge-list file:
``load_edge_list`` -> ``assign_weights`` -> ``normalize_weights`` ->
``ProfitEstimator.build`` -> ``iterative_prune`` -> selection -> ``certify``.
Its outputs are checked after the timed region, and condensed into an
``output_hash`` that repeats exactly when the outputs do.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

from profitmax import (ProfitEstimator, assign_weights, certify, greedy,
                       iterative_prune, k_sweep, load_edge_list, modmod,
                       normalize_weights, trivial_lattice)
from profitmax.rng import derive_seed

LATTICE_SELECTORS = ("greedy", "modmod1", "modmod2")
SWEEP_SELECTORS = ("random", "highdegree", "benefitmax")
DELTA = 1e-6


@dataclass(frozen=True)
class Workload:
    """One seeded input family and the selectors run on it.

    Graphs are random directed graphs with ``m`` distinct edges on ``n``
    nodes, drawn from the nodes that post (each with probability
    ``active_share``) to any node, with WIC probabilities, uniform benefit
    and degree cost scaled to ``r`` times the total benefit.  ``theta`` RR
    sets of each kind drive selection and ``validation_theta`` of each kind
    drive the certificate.
    """

    name: str
    n: int
    m: int
    r: float
    theta: int
    validation_theta: int
    selectors: tuple
    active_share: float = 1.0


# Why each workload exists is recorded in BENCHMARK.json.  Sizes keep one
# graph's pipeline near a second on a 2-vCPU Xeon, so that a run holds several
# passes.  On costly-sampling half the nodes only receive: they have zero
# cost, pruning puts every one of them in A* and drops every posting node,
# and with in-degree 20 each RR member costs about 20 coin flips.
WORKLOADS = {w.name: w for w in (
    Workload("lattice-select", n=600, m=3000, r=1.0, theta=6000,
             validation_theta=8000, selectors=LATTICE_SELECTORS),
    Workload("costly-sampling", n=600, m=12_000, r=2.0, theta=5000,
             validation_theta=5000, selectors=LATTICE_SELECTORS, active_share=0.5),
    Workload("baseline-sweep", n=400, m=1600, r=0.75, theta=5000,
             validation_theta=5000, selectors=SWEEP_SELECTORS),
)}


@dataclass
class Repetition:
    setup_s: float
    select_s: float
    certify_s: float
    estimator: object
    lattice: object
    results: dict
    best: object
    certificate: object

    @property
    def total_s(self) -> float:
        return self.setup_s + self.select_s + self.certify_s


def _select(name, g, est, lattice, seed, span):
    if name == "greedy":
        with span("optimize.greedy"):
            return greedy(est, lattice)
    if name in ("modmod1", "modmod2"):
        with span("optimize.modmod"):
            return modmod(est, lattice, gamma_bound_variant=3 if name == "modmod1" else 4,
                          seed=derive_seed(seed, name))
    with span("optimize.sweep"):
        return k_sweep(name, g, est, seed=derive_seed(seed, "baseline", name))


def run_once(w: Workload, path, seed: int, tracer) -> Repetition:
    """One timed pass of the pipeline over the edge-list file at ``path``."""
    span = tracer.span
    t0 = time.perf_counter()
    with span("graph.load"):
        g = load_edge_list(path)
    with span("graph.weights"):
        g = normalize_weights(assign_weights(g, "uniform", "degree", r=w.r))
    t1 = time.perf_counter()
    est = ProfitEstimator.build(g, w.theta, w.theta, seed=derive_seed(seed, "select"))
    with span("prune"):
        lattice = iterative_prune(est)
    results = {name: _select(name, g, est, lattice, seed, span) for name in w.selectors}
    best = max(results.values(), key=lambda r: r.estimated_profit)
    # baselines search the whole graph, so they are certified on the
    # trivial lattice, as the experiment subcommand does
    cert_lattice = lattice if w.selectors == LATTICE_SELECTORS else trivial_lattice(g.node_count)
    t2 = time.perf_counter()
    with span("certify"):
        cert = certify(best.seeds, g, cert_lattice, w.validation_theta, delta=DELTA,
                       seed=derive_seed(seed, "certify"))
    t3 = time.perf_counter()
    return Repetition(t1 - t0, t2 - t1, t3 - t2, est, lattice, results, best, cert)


def check(w: Workload, rep: Repetition) -> list:
    """Descriptions of every output check the repetition fails."""
    failures = []
    est, lat = rep.estimator, rep.lattice
    for name, result in rep.results.items():
        tol = 1e-9 * max(1.0, abs(result.estimated_profit))
        if name in LATTICE_SELECTORS and not lat.must_include <= result.seeds <= lat.may_include:
            failures.append(f"{name}: seeds outside the lattice [A*, B*]")
        if name == "greedy":
            profits = [est.profit(lat.must_include)] + [s["profit"] for s in result.trajectory]
        elif name in ("modmod1", "modmod2"):
            profits = [s["profit"] for s in result.trajectory]
        else:
            profits = []
        if any(b < a - tol for a, b in zip(profits, profits[1:])):
            failures.append(f"{name}: trajectory loses profit")
        # random reports the mean profit of its draws, not of its seeds
        if name != "random" and result.estimated_profit != est.profit(result.seeds):
            failures.append(f"{name}: estimated_profit differs from evaluator.profit(seeds)")
    cert = rep.certificate
    fields = cert.to_json_dict()
    if not all(math.isfinite(v) for v in fields.values()):
        failures.append("certificate has a non-finite field")
    if not (cert.beta_lower <= cert.beta_upper and cert.gamma_lower <= cert.gamma_upper):
        failures.append("certificate bounds are not ordered")
    return failures


def output_hash(rep: Repetition) -> str:
    """sha256 over every selection, the lattice and the certificate fields."""
    doc = (
        sorted(rep.best.seeds),
        sorted(rep.lattice.must_include),
        sorted(rep.lattice.may_include),
        [(name, sorted(r.seeds), repr(r.estimated_profit))
         for name, r in rep.results.items()],
        [(key, repr(value)) for key, value in rep.certificate.to_json_dict().items()],
    )
    return hashlib.sha256(repr(doc).encode("utf-8")).hexdigest()
