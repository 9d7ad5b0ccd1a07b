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
  closed form over every seed set (``mu_bound`` in the trivial lattice,
  defined with the other modular bounds in ``profitmax.optimize``);
* a sampling-error inflation eps(mu) accounting for mu itself being
  estimated from samples.

The reported ratio (beta_l - gamma_u) / (mu + eps) then holds with
probability at least 1 - 2 delta.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError
from .optimize import mu_bound
from .prune import trivial_lattice
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


def certify(seeds, validation, *old_form, delta: float = 1e-6,
            seed: int = 0) -> ProfitCertificate:
    """Certify a seed set on a validation estimator.

    ``validation`` is a ``ProfitEstimator`` on samples drawn independently
    of how S was chosen, as the concentration bounds require; its recorded
    ``thetas`` enter the bounds, the theta of a side without weight too, so
    build it with ``ProfitEstimator.build``.  The cap, anchored at S, is
    taken over every seed set and capped at the total benefit weight, which
    keeps the error term in its domain.  ``seed`` is only recorded.

    The old form ``certify(seeds, g, lat, validation_thetas, ...)`` draws the
    pair at ``derive_seed(seed, "validation")`` and ignores ``lat``; it stays
    only for the benchmark harness, until ROADMAP item 14 removes it.
    """
    if not (0.0 < float(delta) < 1.0):
        raise DomainError(f"delta must lie in (0,1), got {delta}")
    if old_form:
        _, thetas = old_form
        pair = thetas if isinstance(thetas, (tuple, list)) else (thetas, thetas)
        if len(pair) != 2 or not all(map(_is_count, pair)):
            raise DomainError("validation_thetas must be one count or a pair of counts, "
                              f"got {thetas!r}")
        validation = ProfitEstimator.build(validation, *pair,
                                           seed=derive_seed(int(seed), "validation"))
    if not (isinstance(validation, ProfitEstimator) and None not in validation.thetas):
        raise DomainError("certify needs a ProfitEstimator that records both thetas, as "
                          f"ProfitEstimator.build does; got {type(validation).__name__}")
    seeds = frozenset(int(v) for v in seeds)
    theta_beta, theta_gamma = validation.thetas
    totals = validation.graph.totals()
    lambda_beta, lambda_gamma = validation.coverage_counts(seeds)
    beta_lower, beta_upper = confidence_bounds(lambda_beta, theta_beta,
                                               totals.upsilon_b, delta)
    gamma_lower, gamma_upper = confidence_bounds(lambda_gamma, theta_gamma,
                                                 totals.upsilon_c, delta)
    phi_estimate = (validation.rho("benefit") * lambda_beta
                    - validation.rho("cost") * lambda_gamma)

    everything = trivial_lattice(validation.node_count)
    mu_estimate = min(mu_bound(validation, seeds, everything), totals.upsilon_b)
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
