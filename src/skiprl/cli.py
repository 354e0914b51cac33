"""Command-line front end: gen-env, collect, learn, eval, sweep, verify, plot."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, oracles
from .learner import serialize_outcome, solve
from .mdp import Policy, ValidationError, save_mdp


def _load_cfg(path) -> harness.ExperimentConfig:
    return harness.load_config(path) if path else harness.ExperimentConfig()


def cmd_gen_env(args) -> int:
    cfg = _load_cfg(args.config)
    inst = harness.build_instance(cfg)
    save_mdp(args.out, inst.mdp, inst.featmap)
    c_conc = oracles.concentrability(inst.mdp, inst.behavior).c_conc
    print(f"wrote environment to {args.out} (v* = {inst.vstar:.6g}, C_conc = {c_conc:.6g})")
    return 0


def cmd_collect(args) -> int:
    if args.replicate < 0:
        raise ValidationError(f"--replicate must be >= 0, got {args.replicate}")
    cfg = _load_cfg(args.config)
    if args.n is not None:
        cfg.data.n = args.n
    inst = harness.build_instance(cfg)
    ds = harness.collect(inst, cfg.data.n, [cfg.data.seed, args.replicate])
    harness.save_dataset(ds, args.out)
    print(f"wrote {ds.n} trajectories to {args.out}")
    return 0


def cmd_learn(args) -> int:
    cfg = _load_cfg(args.config)
    inst = harness.build_instance(cfg)
    ds = harness.load_dataset(args.data)
    want = (inst.mdp.horizon, inst.mdp.num_actions, inst.featmap.d)
    got = (ds.horizon, *ds.visited_blocks[0][0].shape[1:])
    if got != want:
        raise ValidationError(f"dataset {args.data} has (H, A, d) = {got}; the environment has {want}")
    lc, cal = harness.calibrated_config(cfg, inst, ds.n)
    outcome = solve(ds, inst.guesses, lc, inst.featmap)
    with open(args.out, "w") as fh:
        fh.write(serialize_outcome(outcome))
    print(
        f"chosen guess {outcome.chosen_guess}, optimistic value {outcome.vbar_start:.6g}, "
        f"feasible {outcome.feasible_count}/{len(outcome.reports)} "
        f"(beta = {cal['beta']:.6g}, eps_bar = {cal['eps_bar']:.6g})"
    )
    return 0 if not outcome.all_rejected else 1


def cmd_eval(args) -> int:
    cfg = _load_cfg(args.config)
    inst = harness.build_instance(cfg)
    with open(args.outcome) as fh:
        doc = json.load(fh)
    policy = Policy([np.asarray(t) for t in doc["policy"]])
    gap = oracles.suboptimality(inst.mdp, policy)
    print(f"v*(s1) = {inst.vstar:.6g}, gap = {gap:.6g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    result = harness.sweep(cfg)
    paths = harness.emit_plots(result, cfg.output_dir)
    print(f"v*(s1) = {result.vstar:.6g}")
    for n, cal in sorted(result.calibrations.items()):
        print(f"n = {n}: beta = {cal['beta']:.6g}, eps_bar = {cal['eps_bar']:.6g}")
    for row in result.summary:
        print(f"n = {row['n']}: median gap {row['median_gap']:.6g} (IQR {row['iqr_low']:.6g}..{row['iqr_high']:.6g})")
    if "warning" in paths:
        print(paths["warning"])
    else:
        print(f"rows: {paths['rows']}  plot: {paths['plot']}")
    return 0


def cmd_verify(args) -> int:
    report = harness.verify(args.lemma, seed=args.seed)
    for entry in report["suites"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(
            f"{status}  {entry['name']}: worst slack {entry['worst_slack']:.3e} (tol {entry['tolerance']:.0e})"
            f"  [{entry['instances']}]"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report: {args.out}")
    return 0 if report["all_pass"] else 1


def cmd_plot(args) -> int:
    rows = harness.read_rows_csv(args.rows)
    paths = harness.write_tables(rows, harness.summarize(rows), args.out_dir)
    print(paths.get("plot", paths.get("warning", "")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skiprl", description="offline RL with state skipping, desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-env", help="generate an environment and write its document")
    g.add_argument("--config", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_env)

    c = sub.add_parser("collect", help="collect a trajectory dataset into a numpy .npz archive")
    c.add_argument("--config", default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--replicate", type=int, default=0)
    c.add_argument("--out", required=True, help="archive path, written as given (no suffix is added)")
    c.set_defaults(fn=cmd_collect)

    l = sub.add_parser("learn", help="solve the optimistic problem on a dataset")
    l.add_argument("--config", default=None)
    l.add_argument("--data", required=True, help="a collect archive (.npz); JSON-lines files are no longer read")
    l.add_argument("--out", required=True)
    l.set_defaults(fn=cmd_learn)

    e = sub.add_parser("eval", help="exact suboptimality of a stored outcome policy")
    e.add_argument("--config", default=None)
    e.add_argument("--outcome", required=True)
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep", help="replicate grid over n; writes CSV and SVG")
    s.add_argument("--config", default=None)
    s.add_argument("--out-dir", default=None)
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", help="run the lemma verification suites")
    suites = v.add_mutually_exclusive_group()
    suites.add_argument("--all", action="store_true", help="run every suite (the default without --lemma)")
    suites.add_argument("--lemma", action="append", choices=sorted(harness.VERIFY_SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("plot", help="regenerate plots from a rows CSV")
    pl.add_argument("--rows", required=True)
    pl.add_argument("--out-dir", required=True)
    pl.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
