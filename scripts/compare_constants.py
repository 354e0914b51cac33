#!/usr/bin/env python3
"""Theoretical constants table versus calibrated thresholds on one instance.

The closed-form table is evaluated literally and printed next to the values
the calibration procedure actually certifies at desk scale, making the gap
between the two regimes visible.  The table lives here, not in the package:
it is report only and the learner never reads it.
"""
import math
import pathlib
import sys
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from skiprl.design import panel_size
from skiprl.envs import estimate_misspecification
from skiprl.harness import ExperimentConfig, calibrated_config, build_instance
from skiprl.mdp import ValidationError
from skiprl.oracles import concentrability

CONFIG = pathlib.Path(__file__).resolve().parent / "acceptance_config.json"


def lambda_from_bound(horizon: int, d: int, l2_bar: float) -> float:
    """Ridge weight lambda from sqrt(lambda) = H^{3/2} d / l2_bar."""
    return (horizon ** 1.5 * d / l2_bar) ** 2


def _softplus_log(log_x: float) -> float:
    """log(1 + exp(log_x)) without overflow."""
    return log_x if log_x > 34.0 else math.log1p(math.exp(log_x))


@dataclass
class DerivedConstants:
    """The theoretical parameter table evaluated literally (report only)."""

    d0: int
    alpha: float
    l2_bar: float
    sqrt_lam: float
    lam: float
    eta_bar: float
    eps_check: float
    beta_bar: float
    beta: float
    eps_bar: float
    eps_tilde: float
    xi: float
    xi_bar: float
    log_guess_cover: float

    def __post_init__(self):
        for name in ("alpha", "l2_bar", "sqrt_lam", "lam", "eta_bar", "eps_check", "beta_bar", "beta"):
            if getattr(self, name) < 0:
                raise ValidationError(f"derived constant {name} must be nonnegative")


def derived_constants(
    d: int,
    horizon: int,
    eps: float,
    delta: float,
    l1: float,
    l2: float,
    eta: float,
    c_conc: float,
    n: int,
    xi: float | None = None,
) -> DerivedConstants:
    """Evaluate the full constants table for a given problem size.

    These grow far beyond anything a desk-scale run can meet; they exist so
    the theoretical regime is inspectable next to the calibrated one.  The
    guess-ball radius is taken to be l2 (the fitted parameters always lie in
    that ball), and the cover cardinality is reported in log form.
    """
    H = horizon
    d0 = panel_size(d)
    alpha = eps / (12.0 * (H + 1))
    l2_bar = l2 * (8.0 * H * H * d0 / alpha + 1.0)
    sqrt_lam = H ** 1.5 * d / l2_bar
    lam = lambda_from_bound(H, d, l2_bar)
    eta_bar = eta * (10.0 * H * H * d0 / alpha + 1.0)
    lg = l2  # guess-ball radius stand-in

    eps_check = (
        math.sqrt(d / n)
        + math.sqrt((d * d * math.log1p(16.0 * n * l1 * l1 * l2_bar ** 3) + math.log(3.0 * H / delta)) / n)
        + math.sqrt(2.0 * d / n * math.log((d * lam + n * l1 * l1) / (d * lam)))
    )
    beta_bar = (
        H
        * math.sqrt(
            2.0 * d * H * (d0 + 1) * math.log1p(28.0 * math.sqrt(2.0 * d) * H * H * lg * l2_bar * l1 / alpha)
            + d * math.log(lam + n * l1 * l1 / d)
            - d * math.log(lam)
            + math.log(3.0 * H / delta)
        )
        + 1.0
    )
    beta = H ** 1.5 * d + eta_bar * math.sqrt(n) + beta_bar

    log_base = (
        math.log(96.0)
        + 0.5 * math.log(2.0 * d)
        + 2.0 * math.log(H)
        + 2.0 * math.log(l1)
        + math.log(lg)
        - math.log(alpha)
        + math.log(l2_bar)
        - 1.5 * math.log(H)
        - math.log(d)
    )
    inner_bar = _softplus_log(log_base + math.log(n))
    inner_tilde = _softplus_log(log_base + 0.5 * math.log(n))
    eps_bar_v = (
        H * math.sqrt((d * H * H * d0 * inner_bar + math.log(6.0 * H / delta)) / n)
        + 1.0 / math.sqrt(n)
        + H * eta_bar
        + 4.0 * H * c_conc * eps_check * beta
    )
    eps_tilde = c_conc * (
        H * math.sqrt((d * H * H * d0 * inner_tilde + math.log(6.0 * H / delta)) / n)
        + 1.0 / math.sqrt(n)
        + eps_bar_v
    )

    growth = math.log(2.0 * math.sqrt(n) * l1 * l2_bar / (H ** 1.5 * d))
    if xi is None:
        log_xi = -(
            math.log(24.0)
            + 0.5 * math.log(n)
            + 0.5 * math.log(2.0 * d)
            + 2.0 * math.log(H)
            + math.log(l1)
            - math.log(alpha)
            + H * growth
        )
        xi_val = math.exp(log_xi) if log_xi > -700 else 0.0
        xi_bar = 0.5 / math.sqrt(n)  # analytic value at the default xi
    else:
        log_xi = math.log(xi)
        xi_val = xi
        log_xi_bar = (
            math.log(12.0)
            + 0.5 * math.log(2.0 * d)
            + 2.0 * math.log(H)
            + math.log(l1)
            + log_xi
            - math.log(alpha)
            + H * growth
        )
        xi_bar = math.exp(log_xi_bar) if log_xi_bar < 700 else float("inf")
    log_cover = d * H * d0 * _softplus_log(math.log(2.0 * lg) - log_xi)

    return DerivedConstants(
        d0=d0,
        alpha=alpha,
        l2_bar=l2_bar,
        sqrt_lam=sqrt_lam,
        lam=lam,
        eta_bar=eta_bar,
        eps_check=eps_check,
        beta_bar=beta_bar,
        beta=beta,
        eps_bar=eps_bar_v,
        eps_tilde=eps_tilde,
        xi=xi_val,
        xi_bar=xi_bar,
        log_guess_cover=log_cover,
    )


def main() -> int:
    cfg = ExperimentConfig.from_json(CONFIG.read_text())
    inst = build_instance(cfg)
    eta_hat = estimate_misspecification(inst.mdp, inst.featmap, cfg.policy_sample, cfg.policy_sample_seed)
    n = cfg.data.n
    c_conc = concentrability(inst.mdp, inst.behavior).c_conc
    dc = derived_constants(
        d=cfg.env.d,
        horizon=cfg.env.horizon,
        eps=0.15 * inst.vstar,
        delta=cfg.calibration.delta,
        l1=inst.featmap.l1_bound,
        l2=inst.true_guess.radius_bound,
        eta=eta_hat,
        c_conc=c_conc,
        n=n,
    )
    print(f"instance: d={cfg.env.d} H={cfg.env.horizon} n={n} C_conc={c_conc:.4g} eta_hat={eta_hat:.2e}")
    print("closed-form table:")
    for name in ("d0", "alpha", "l2_bar", "lam", "eta_bar", "eps_check", "beta_bar", "beta", "eps_bar", "eps_tilde"):
        print(f"  {name:<10} = {getattr(dc, name):.6g}")
    print(f"  log-cardinality of the guess cover: {dc.log_guess_cover:.4g}")
    _, cal = calibrated_config(cfg, inst, n)
    print("calibrated thresholds at the same n:")
    print(f"  beta       = {cal['beta']:.6g}")
    print(f"  eps_bar    = {cal['eps_bar']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
