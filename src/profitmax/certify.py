"""A-posteriori approximation certificates.

Given a selected seed set S, a certificate answers: what fraction of the best
achievable profit does S provably reach, and with what confidence?  It is
assembled from three ingredients, all computed on validation collections
generated fresh and independently of how S was selected:

* concentration bounds beta_l <= beta(S) <= beta_u and gamma_l <= gamma(S)
  <= gamma_u on the true benefit and cost, so beta_l - gamma_u lower-bounds
  the true profit of S;
* a modular cap mu on the maximum achievable profit: an upper bound on the
  benefit minus a lower bound on the cost, both tight at S, maximized in
  closed form over the lattice (``mu_bound``, defined with the other modular
  bounds in ``profitmax.optimize``);
* a sampling-error inflation eps(mu) accounting for mu itself being
  estimated from samples.

The reported ratio (beta_l - gamma_u) / (mu + eps) then holds with
probability at least 1 - 2 delta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError
from .graph import WeightedGraph
from .optimize import mu_bound
from .prune import Lattice
from .rng import derive_seed
from .rrsets import ProfitEstimator, _is_count, chernoff_a, confidence_bounds


@dataclass(frozen=True)
class ProfitCertificate:
    """Quality certificate for one seed set at confidence 1 - 2 delta."""

    phi_estimate: float
    beta_lower: float
    beta_upper: float
    gamma_lower: float
    gamma_upper: float
    mu_estimate: float
    epsilon_mu: float
    guarantee: float
    delta: float
    theta_beta: int
    theta_gamma: int
    upsilon_b: float
    upsilon_c: float
    seed: int

    def summary_line(self) -> str:
        return (f"guarantee={self.guarantee:.6g} "
                f"(beta_l={self.beta_lower:.6g}, gamma_u={self.gamma_upper:.6g}, "
                f"mu={self.mu_estimate:.6g}, eps={self.epsilon_mu:.6g})")

    def to_json_dict(self) -> dict:
        return asdict(self)


def epsilon_mu(mu_tilde: float, theta_beta: int, theta_gamma: int,
               upsilon_b: float, upsilon_c: float, delta: float) -> float:
    """Sampling-error inflation of an estimated profit cap.

    With a = 4(e-2) ln(2/delta), rho_b = Upsilon_b / theta_beta and
    rho_c = Upsilon_c / theta_gamma:

        eps = rho_c * sqrt(a ((rho_b theta_beta - mu) / rho_c + a/4))
              + a (rho_b - rho_c) / 2
              + rho_b * sqrt(a (theta_beta + a/4))

    The first radical shrinks as mu grows (a larger cap needs less headroom),
    so eps is nonincreasing in mu.  mu may not exceed rho_b * theta_beta,
    the largest representable benefit.  A zero-cost instance (rho_c = 0) is
    the continuous limit: the first term vanishes.
    """
    if theta_beta < 1 or theta_gamma < 1:
        raise DomainError("theta counts must be at least 1")
    if not (0 <= upsilon_b < math.inf and 0 <= upsilon_c < math.inf):
        raise DomainError(f"upsilon totals must be finite and nonnegative, "
                          f"got {upsilon_b} and {upsilon_c}")
    if not math.isfinite(mu_tilde):
        raise DomainError(f"mu_tilde must be finite, got {mu_tilde}")
    a = chernoff_a(delta)
    rho_b = upsilon_b / theta_beta
    rho_c = upsilon_c / theta_gamma
    headroom = rho_b * theta_beta - mu_tilde
    radicand = headroom / rho_c + 0.25 * a if rho_c > 0 else headroom
    if radicand < 0:
        raise DomainError("negative radicand: mu exceeds the largest representable benefit")
    first = rho_c * math.sqrt(a * radicand) if rho_c > 0 else 0.0
    return (first + 0.5 * a * (rho_b - rho_c)
            + rho_b * math.sqrt(a * (theta_beta + 0.25 * a)))


def certify(seeds, g: WeightedGraph, lat: Lattice, validation_thetas,
            delta: float = 1e-6, seed: int = 0) -> ProfitCertificate:
    """Certify a seed set on fresh validation collections.

    ``validation_thetas`` is one count for both collections or a
    (theta_beta, theta_gamma) pair.  The collections are generated from a
    seed derived for validation only, never reusing selection samples: the
    concentration bounds require independence from how S was chosen.  The
    cap uses the tighter of its two variants, anchored at S itself, and is
    additionally capped at the total benefit weight: no estimated profit can
    exceed that, so the cap stays valid while the error term stays in its
    domain even when the modular construction overshoots.
    """
    if not (0.0 < float(delta) < 1.0):
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    seeds = frozenset(int(v) for v in seeds)
    if not lat.contains(seeds):
        raise DomainError("certified seed set must lie inside the lattice")
    thetas = (validation_thetas if isinstance(validation_thetas, (tuple, list))
              else (validation_thetas, validation_thetas))
    if len(thetas) != 2 or not all(map(_is_count, thetas)):
        raise DomainError("validation_thetas must be one count or a pair of counts, "
                          f"got {validation_thetas!r}")
    theta_beta, theta_gamma = (int(t) for t in thetas)
    validation = ProfitEstimator.build(g, theta_beta, theta_gamma,
                                       seed=derive_seed(int(seed), "validation"))
    return _certificate(seeds, validation, (theta_beta, theta_gamma), lat, delta, seed)


def _certificate(seeds: frozenset, validation: ProfitEstimator, thetas, lat: Lattice,
                 delta: float, seed: int) -> ProfitCertificate:
    """The certificate of ``seeds`` on a validation pair drawn independently
    of them at (theta_beta, theta_gamma) = ``thetas``; a side without weight
    has no collection, but its theta still enters the error term."""
    theta_beta, theta_gamma = thetas
    totals = validation.graph.totals()
    lambda_beta, lambda_gamma = validation.coverage_counts(seeds)
    beta_lower, beta_upper = confidence_bounds(lambda_beta, theta_beta,
                                               totals.upsilon_b, delta)
    gamma_lower, gamma_upper = confidence_bounds(lambda_gamma, theta_gamma,
                                                 totals.upsilon_c, delta)
    phi_estimate = (validation.rho("benefit") * lambda_beta
                    - validation.rho("cost") * lambda_gamma)

    mu_estimate = min(mu_bound(validation, seeds, lat), totals.upsilon_b)
    eps = epsilon_mu(mu_estimate, theta_beta, theta_gamma,
                     totals.upsilon_b, totals.upsilon_c, delta)

    numerator = beta_lower - gamma_upper
    denominator = mu_estimate + eps
    guarantee = (numerator / denominator if denominator != 0.0
                 else math.inf if numerator > 0 else -math.inf if numerator < 0 else 0.0)

    return ProfitCertificate(
        phi_estimate=phi_estimate,
        beta_lower=beta_lower, beta_upper=beta_upper,
        gamma_lower=gamma_lower, gamma_upper=gamma_upper,
        mu_estimate=mu_estimate, epsilon_mu=eps, guarantee=guarantee,
        delta=float(delta), theta_beta=theta_beta, theta_gamma=theta_gamma,
        upsilon_b=totals.upsilon_b, upsilon_c=totals.upsilon_c, seed=int(seed))
