#!/usr/bin/env python3
"""Theoretical constants table versus calibrated thresholds on one instance.

The closed-form table is evaluated literally and printed next to the values
the calibration procedure actually certifies at desk scale, making the gap
between the two regimes visible.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from skiprl.envs import estimate_misspecification
from skiprl.harness import ExperimentConfig, calibrated_config, build_instance
from skiprl.learner import derived_constants

CONFIG = pathlib.Path(__file__).resolve().parent / "acceptance_config.json"


def main() -> int:
    cfg = ExperimentConfig.from_json(CONFIG.read_text())
    inst = build_instance(cfg)
    eta_hat = estimate_misspecification(inst.mdp, inst.featmap, cfg.policy_sample, cfg.policy_sample_seed)
    n = cfg.data.n
    dc = derived_constants(
        d=cfg.env.d,
        horizon=cfg.env.horizon,
        eps=0.15 * inst.vstar,
        delta=cfg.calibration.delta,
        l1=inst.featmap.l1_bound,
        l2=inst.true_guess.radius_bound,
        eta=eta_hat,
        c_conc=inst.c_conc,
        n=n,
    )
    print(f"instance: d={cfg.env.d} H={cfg.env.horizon} n={n} C_conc={inst.c_conc:.4g} eta_hat={eta_hat:.2e}")
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
