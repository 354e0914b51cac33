"""Experiment orchestration: configs, persistence, sweeps, verification.

A run builds the environment from its seed, computes the exact optimal value
and the design-based guess, collects trajectories with the
behavior policy, optionally calibrates the confidence radius and tightness
threshold on held-out replicates, solves, and evaluates the returned policy
by exact dynamic programming.  Replicates are pure functions of (config, n,
replicate index), so a sweep's output does not depend on the order of its
cells; rows are sorted before writing and wall time is the only
nondeterministic field.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
import typing
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import learner, oracles
from .design import Guess, build_true_guess, guess_from_fit, guess_grid
from .envs import FeatureMap, fit_policy_stack, random_linear_mdp, sample_policies
from .learner import LearnerConfig, calibrate, solve
from .mdp import (
    DATASET_ARRAYS,
    Dataset,
    Policy,
    StagedMdp,
    ValidationError,
    code_dtype,
    is_integer,
    is_real,
    mix_policies,
    optimal_policy,
    random_policy,
    sample_trajectories,
    uniform_policy,
)
from .skipping import SkipParams

ROW_COLUMNS = ("n", "seed", "gap", "chosen_guess", "feasible_count", "tightness_max", "wall_ms")


class HarnessError(RuntimeError):
    """Wraps a module failure with the pipeline stage that raised it."""

    def __init__(self, stage, original):
        super().__init__(f"stage {stage!r} failed: {original}")
        self.stage = stage
        self.original = original


# ---------------------------------------------------------------------------
# configuration


@dataclass
class EnvSpec:
    d: int = 2
    horizon: int = 3
    stage_sizes: tuple = (1, 4, 4, 1)
    num_actions: int = 2
    reward_kind: str = "deterministic-mean"
    reward_scale: float = 1.0
    seed: int = 7


@dataclass
class DataSpec:
    n: int = 1000
    behavior: str = "uniform"        # "uniform" or "eps-greedy"
    mix: float = 0.5                 # uniform weight for eps-greedy
    seed: int = 101


@dataclass
class CalibrationSpec:
    enabled: bool = True
    replicates: int = 10
    delta: float = 0.05
    seed_offset: int = 1_000_000


@dataclass
class GuessGridSpec:
    count: int = 16
    spread: float = 0.3
    seed: int = 11


@dataclass
class SweepSpec:
    n_values: tuple = (100, 1000, 10000)
    replicates: int = 20


def _json_object(value, where: str) -> dict:
    """``value`` if it is a JSON object, else a ``ValidationError`` naming ``where``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {value!r}")
    return value


def _refuse_unknown(doc: dict, spec_cls, where: str) -> None:
    """Refuse the first key of ``doc`` that names no field of ``spec_cls``."""
    known = [f.name for f in fields(spec_cls)]
    for key in doc:
        if key not in known:
            raise ValidationError(f"unknown config key {key!r} {where}; known keys: {', '.join(known)}")


@dataclass
class ExperimentConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    data: DataSpec = field(default_factory=DataSpec)
    learn: LearnerConfig = field(default_factory=LearnerConfig)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    guesses: GuessGridSpec = field(default_factory=GuessGridSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    policy_sample: int = 200
    policy_sample_seed: int = 5
    output_dir: str = "results"

    def __post_init__(self):
        counts = {"env.d": self.env.d, "env.horizon": self.env.horizon, "env.num_actions": self.env.num_actions,
                  "env.seed": self.env.seed, "data.n": self.data.n, "data.seed": self.data.seed,
                  "guesses.seed": self.guesses.seed,
                  "guesses.count": self.guesses.count, "sweep.replicates": self.sweep.replicates,
                  "calibration.replicates": self.calibration.replicates,
                  "calibration.seed_offset": self.calibration.seed_offset, "policy_sample": self.policy_sample,
                  "policy_sample_seed": self.policy_sample_seed}
        for name, value in counts.items():
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        reals = {"env.reward_scale": self.env.reward_scale, "data.mix": self.data.mix,
                 "calibration.delta": self.calibration.delta, "guesses.spread": self.guesses.spread}
        for name, value in reals.items():
            if not is_real(value):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.calibration.enabled, (bool, np.bool_)):
            raise ValidationError(f"calibration.enabled must be true or false, got {self.calibration.enabled!r}")
        if not 0.0 <= self.guesses.spread < math.inf:  # also refuses NaN
            raise ValidationError(f"guesses.spread must be a finite number >= 0, got {self.guesses.spread!r}")
        for name in ("data.n", "guesses.count", "sweep.replicates", "calibration.replicates", "policy_sample", "env.d",
                     "env.horizon", "env.num_actions"):
            if counts[name] < 1:
                raise ValidationError(f"{name} must be >= 1, got {counts[name]!r}")
        values = list(self.sweep.n_values)
        if not values:
            raise ValidationError("sweep.n_values is empty; a sweep needs at least one n")
        for i, n in enumerate(values):
            if not is_integer(n):
                raise ValidationError(f"sweep.n_values[{i}] must be an integer, got {n!r}")
            if n in values[:i]:
                raise ValidationError(f"sweep.n_values repeats n = {n!r}; each n is one set of cells")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config of a JSON document: a missing key takes its default, and an
        unknown key, a section that is not an object or a list field that is not a
        list is refused, naming it."""
        _refuse_unknown(_json_object(doc, "the config document"), cls, "at the top level")

        def build(spec_cls, key):
            sub = dict(_json_object(doc.get(key, {}), f"config section {key!r}"))
            _refuse_unknown(sub, spec_cls, f"in section {key!r}")
            for name in ("stage_sizes", "n_values"):
                if name in sub:
                    if not isinstance(sub[name], (list, tuple)):
                        raise ValidationError(f"{key}.{name} must be a list, got {sub[name]!r}")
                    sub[name] = tuple(sub[name])
            return spec_cls(**sub)

        top = {k: doc[k] for k in ("policy_sample", "policy_sample_seed", "output_dir") if k in doc}
        return cls(
            env=build(EnvSpec, "env"),
            data=build(DataSpec, "data"),
            learn=build(LearnerConfig, "learn"),
            calibration=build(CalibrationSpec, "calibration"),
            guesses=build(GuessGridSpec, "guesses"),
            sweep=build(SweepSpec, "sweep"),
            **top,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_json(fh.read())


# ---------------------------------------------------------------------------
# environment assembly


@dataclass
class Instance:
    """Everything derived deterministically from the environment part of a config."""

    mdp: StagedMdp
    featmap: FeatureMap
    behavior: Policy
    vstar: float
    true_guess: Guess
    guesses: list


def learner_config(cfg: ExperimentConfig, d: int) -> LearnerConfig:
    """``cfg.learn``; ``d`` is unused, as the learner takes the feature width from its data."""
    return cfg.learn


def build_instance(cfg: ExperimentConfig) -> Instance:
    env = cfg.env
    try:
        mdp, featmap = random_linear_mdp(
            env.d,
            env.horizon,
            env.stage_sizes,
            env.num_actions,
            env.seed,
            env.reward_kind,
            env.reward_scale,
        )
    except Exception as err:
        raise HarnessError("gen-env", err) from err
    try:
        pistar, star_vals = optimal_policy(mdp)
        if cfg.data.behavior == "uniform":
            behavior = uniform_policy(mdp)
        elif cfg.data.behavior == "eps-greedy":
            behavior = mix_policies(pistar, uniform_policy(mdp), cfg.data.mix)
        else:
            raise ValidationError(f"unknown behavior kind {cfg.data.behavior!r}")
        policies = sample_policies(mdp, cfg.policy_sample, cfg.policy_sample_seed)
        true_guess = build_true_guess(mdp, featmap, policies)
        guesses = guess_grid(true_guess, cfg.guesses.spread, cfg.guesses.count, cfg.guesses.seed)
    except Exception as err:
        raise HarnessError("prepare", err) from err
    return Instance(
        mdp=mdp,
        featmap=featmap,
        behavior=behavior,
        vstar=float(star_vals.v[0][0]),
        true_guess=true_guess,
        guesses=guesses,
    )


def collect(inst: Instance, n: int, seed) -> Dataset:
    return sample_trajectories(inst.mdp, inst.behavior, n, seed, inst.featmap)


# ---------------------------------------------------------------------------
# runs and sweeps


@dataclass
class ReplicateRecord:
    n: int
    seed: int
    gap: float
    chosen_guess: int
    feasible_count: int
    tightness_max: float
    wall_ms: float

    def row(self) -> dict:
        return {k: getattr(self, k) for k in ROW_COLUMNS}


@dataclass
class ExperimentResult:
    rows: list
    summary: list          # per n: dict(n, median_gap, iqr_low, iqr_high)
    config_echo: str
    calibrations: dict     # n -> {"beta": ..., "eps_bar": ...}
    vstar: float


def calibrated_configs(cfg: ExperimentConfig, inst: Instance, n_values) -> list:
    """Per n of ``n_values``, in order, the learner config and its ``{"beta", "eps_bar"}``:
    calibrated when calibration is enabled, by one ``calibrate`` call over the whole
    grid, else the configured values.  A calibration failure is raised as stage
    ``calibrate``."""
    base = cfg.learn
    if not cfg.calibration.enabled:
        return [(base, {"beta": base.beta, "eps_bar": base.eps_bar}) for _ in n_values]
    spec = cfg.calibration
    try:
        cals = calibrate(inst.mdp, inst.featmap, inst.behavior, inst.true_guess, n_values, base,
                         spec.replicates, spec.delta, [cfg.data.seed, spec.seed_offset])
    except Exception as err:
        raise HarnessError("calibrate", err) from err
    return [(replace(base, beta=cal.beta, eps_bar=cal.eps_bar), {"beta": cal.beta, "eps_bar": cal.eps_bar})
            for cal in cals]


def calibrated_config(cfg: ExperimentConfig, inst: Instance, n: int) -> tuple:
    """``calibrated_configs`` at the single n."""
    (pair,) = calibrated_configs(cfg, inst, [n])
    return pair


def run_replicate(cfg: ExperimentConfig, inst: Instance, lc: LearnerConfig, n: int, replicate: int,
                  sample: Dataset | None = None):
    """One cell: collect, solve and evaluate replicate ``replicate`` at n.

    ``sample``, when given, is the replicate's dataset at n or more trajectories,
    and the cell solves its first n (``Dataset.prefix``), which are byte for byte
    the n a fresh collect would give; ``wall_ms`` then times the prefix view,
    the solve and the evaluation, not the sampling.
    """
    start = time.perf_counter()
    try:
        ds = collect(inst, n, [cfg.data.seed, replicate]) if sample is None else sample.prefix(n)
    except Exception as err:
        raise HarnessError("collect", err) from err
    try:
        outcome = solve(ds, inst.guesses, lc, inst.featmap)
    except Exception as err:
        raise HarnessError("learn", err) from err
    try:
        gap = oracles.suboptimality(inst.mdp, outcome.policy)
    except Exception as err:
        raise HarnessError("eval", err) from err
    wall_ms = (time.perf_counter() - start) * 1000.0
    record = ReplicateRecord(
        n=n,
        seed=replicate,
        gap=gap,
        chosen_guess=outcome.chosen_guess,
        feasible_count=outcome.feasible_count,
        tightness_max=outcome.tightness_max,
        wall_ms=wall_ms,
    )
    return record, outcome


def summarize(rows) -> list:
    out = []
    for n in sorted({r.n for r in rows}):
        gaps = np.array([r.gap for r in rows if r.n == n])
        out.append(
            {
                "n": int(n),
                "median_gap": float(np.median(gaps)),
                "iqr_low": float(np.quantile(gaps, 0.25)),
                "iqr_high": float(np.quantile(gaps, 0.75)),
            }
        )
    return out


def sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """The full pipeline for every (n, replicate) cell of the config's n grid, in one loop.

    The n points are paired: each replicate is sampled once, at the largest n,
    and every n of the grid solves a nested prefix of that one sample
    (``run_replicate`` with ``sample``).  Trajectory j depends only on
    ``[data.seed, replicate, j]``, so each row equals ``run_replicate`` on a
    fresh sample of its n.
    """
    inst = build_instance(cfg)
    n_values = cfg.sweep.n_values
    configs = calibrated_configs(cfg, inst, n_values)
    calibrations = {int(n): cal for n, (_, cal) in zip(n_values, configs)}
    rows = []
    for r in range(cfg.sweep.replicates):
        try:
            sample = collect(inst, max(n_values), [cfg.data.seed, r])
        except Exception as err:
            raise HarnessError("collect", err) from err
        rows.extend(run_replicate(cfg, inst, lc, n, r, sample)[0] for n, (lc, _) in zip(n_values, configs))
    rows.sort(key=lambda r: (r.n, r.seed))
    return ExperimentResult(
        rows=rows,
        summary=summarize(rows),
        config_echo=cfg.to_json(),
        calibrations=calibrations,
        vstar=inst.vstar,
    )


# ---------------------------------------------------------------------------
# dataset persistence


# the arrays of the earlier archive, which stored dense (n, H, A, d) features
DENSE_ARRAYS = ["actions", "features", "rewards", "states"]


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset's stored form, bit for bit, as one uncompressed ``.npz`` archive
    of the arguments of ``Dataset.of_blocks``: ``states`` and ``actions`` as
    stored, the dense ``rewards``, ``blocks`` (every stage's distinct feature
    blocks stacked stage after stage), ``block_counts`` (the H counts m_h) and
    ``codes`` (each row's block index at each stage, (n, H), in the
    ``code_dtype`` of the largest m_h).  It goes to a file object, so numpy adds
    no ``.npz`` suffix to ``path``.
    """
    groups = dataset.visited_blocks
    counts = np.array([len(blocks) for blocks, _ in groups])
    codes = np.stack([rows for _, rows in groups]).T.astype(code_dtype(counts.max()))
    with open(path, "wb") as fh:
        np.savez(fh, states=dataset.states, actions=dataset.actions, rewards=dataset.rewards,
                 blocks=np.concatenate([blocks for blocks, _ in groups]), block_counts=counts, codes=codes)


def load_dataset(path) -> Dataset:
    """The ``Dataset`` of a ``save_dataset`` archive.

    The archive is opened as ``np.load`` opens one, with ``allow_pickle=False``, so
    an object array is refused unpickled.  It must hold exactly the arrays of
    ``DATASET_ARRAYS``; ``Dataset.of_blocks`` then checks their dtype kinds and
    ranks, the stored form and the trajectory invariants once.  Every
    refusal is a ``ValidationError`` naming the file, and a refused row also
    names its trajectory.  Archives of dense features, the earlier format, and
    JSON-lines files, the format before that, are refused too.
    """
    with open(path, "rb") as fh:
        try:
            with np.lib.npyio.NpzFile(fh, allow_pickle=False) as archive:
                files = sorted(archive.files)
                arrays = {key: archive[key] for key in DATASET_ARRAYS} if files == sorted(DATASET_ARRAYS) else None
        except (EOFError, ValueError, zipfile.BadZipFile) as err:
            raise ValidationError(f"{path}: not a dataset archive: {err}") from err
    if files == DENSE_ARRAYS:
        raise ValidationError(f"{path}: an archive of dense features (states, actions, rewards, features), "
                              "the earlier dataset format, is no longer read; collect the dataset again")
    if arrays is None:
        raise ValidationError(f"{path}: not a dataset archive: it holds {files}, not {sorted(DATASET_ARRAYS)}")
    try:
        return Dataset.of_blocks(**arrays)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# CSV + SVG emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, records) -> None:
    """A header of ``columns``, then one line per record (a dict) of its ``columns``."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for record in records:
            fh.write(",".join(_fmt(record[c]) for c in columns) + "\n")


def write_rows_csv(rows, path) -> None:
    _write_csv(path, ROW_COLUMNS, (r.row() for r in rows))


def read_rows_csv(path) -> list:
    """Replicate records from a rows CSV written by ``write_rows_csv``."""
    types = typing.get_type_hints(ReplicateRecord)
    with open(path) as fh:
        return [ReplicateRecord(**{c: types[c](row[c]) for c in ROW_COLUMNS}) for row in csv.DictReader(fh)]


def write_summary_csv(summary, path) -> None:
    _write_csv(path, ("n", "median_gap", "iqr_low", "iqr_high"), summary)


def _svg_plot(rows, summary, width=640, height=420) -> str:
    """Self-contained gap-versus-n plot: markers, median line, IQR band."""
    margin = 60
    ns = sorted({r.n for r in rows})
    gaps = [r.gap for r in rows]
    lo_n, hi_n = min(ns), max(ns)
    span_x = max(np.log10(hi_n) - np.log10(lo_n), 1e-9)
    hi_g = max(max(gaps), 1e-9)

    def sx(n):
        return margin + (np.log10(n) - np.log10(lo_n)) / span_x * (width - 2 * margin)

    def sy(g):
        return height - margin - (g / (hi_g * 1.05)) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" font-size="13">trajectories n (log scale)</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height / 2:.1f})">suboptimality gap</text>',
    ]
    if len(summary) > 1:
        upper = " ".join(f"{sx(s['n']):.2f},{sy(s['iqr_high']):.2f}" for s in summary)
        lower = " ".join(f"{sx(s['n']):.2f},{sy(s['iqr_low']):.2f}" for s in reversed(summary))
        parts.append(f'<polygon points="{upper} {lower}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>')
        med = " ".join(f"{sx(s['n']):.2f},{sy(s['median_gap']):.2f}" for s in summary)
        parts.append(f'<polyline points="{med}" fill="none" stroke="#08519c" stroke-width="2"/>')
    for s in summary:
        parts.append(
            f'<circle cx="{sx(s["n"]):.2f}" cy="{sy(s["median_gap"]):.2f}" r="4" fill="#08519c"/>'
        )
    for r in rows:
        parts.append(f'<circle cx="{sx(r.n):.2f}" cy="{sy(r.gap):.2f}" r="1.8" fill="#444" fill-opacity="0.6"/>')
    for n in ns:
        parts.append(
            f'<text x="{sx(n):.2f}" y="{height - margin + 18}" text-anchor="middle" font-size="11">{n}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        g = frac * hi_g
        parts.append(f'<text x="{margin - 8}" y="{sy(g) + 4:.1f}" text-anchor="end" font-size="11">{g:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_tables(rows, summary, out_dir) -> dict:
    """Write rows.csv, summary.csv, and gap_vs_n.svg; no-op warning when empty."""
    os.makedirs(out_dir, exist_ok=True)
    if not rows:
        return {"warning": "empty result table; nothing emitted"}
    rows_path = os.path.join(out_dir, "rows.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    svg_path = os.path.join(out_dir, "gap_vs_n.svg")
    write_rows_csv(rows, rows_path)
    write_summary_csv(summary, summary_path)
    with open(svg_path, "w") as fh:
        fh.write(_svg_plot(rows, summary))
    return {"rows": rows_path, "summary": summary_path, "plot": svg_path}


def emit_plots(result: ExperimentResult, out_dir) -> dict:
    """``write_tables`` of a sweep, then its run_meta.json (config echo, calibrations, v*)."""
    paths = write_tables(result.rows, result.summary, out_dir)
    if "warning" in paths:
        return paths
    meta_path = os.path.join(out_dir, "run_meta.json")
    with open(meta_path, "w") as fh:
        json.dump(
            {
                "config": json.loads(result.config_echo),
                "calibrations": result.calibrations,
                "vstar": result.vstar,
            },
            fh,
            sort_keys=True,
        )
    return {**paths, "meta": meta_path}


# ---------------------------------------------------------------------------
# lemma verification suites


def _random_instance(rng, d_range=(1, 4), h_range=(2, 5), size_range=(2, 6), a_range=(2, 4)):
    """A random exact-linear (mdp, featmap); each range is a half-open ``rng.integers`` interval,
    drawn in the order d, H, the interior stage sizes, A, then the environment seed."""
    d = int(rng.integers(*d_range))
    H = int(rng.integers(*h_range))
    sizes = [1] + [int(rng.integers(*size_range)) for _ in range(H - 1)] + [1]
    A = int(rng.integers(*a_range))
    return random_linear_mdp(d, H, sizes, A, int(rng.integers(0, 2**31)))


def _suite_lsq(seed):
    return oracles.check_lsq_decomposition(seed), -1e-9, "100 random regression instances, d<=5, n<=50"


def _suite_elliptical(seed):
    return oracles.check_elliptical_potential(seed), -1e-9, "100 random vector streams, d<=5, n<=59"


def _suite_projection(seed):
    return oracles.check_projection_bound(seed), -1e-9, "100 random weighted sums, d<=5, n<=59"


def _suite_perf_diff(seed, triples=50):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(triples):
        mdp, _ = _random_instance(rng)
        pa, pb = random_policy(mdp, rng), random_policy(mdp, rng)
        worst = max(worst, oracles.check_perf_diff(mdp, pa, pb))
    return 1e-10 - worst, 0.0, f"{triples} random (MDP, policy, policy) triples"


def _suite_range_bound(seed, instances=5, policy_count=60):
    rng = np.random.default_rng(seed)
    worst = float("inf")
    for _ in range(instances):
        mdp, featmap = _random_instance(rng, size_range=(2, 5))
        fit = fit_policy_stack(mdp, featmap, sample_policies(mdp, policy_count, int(rng.integers(0, 2**31))))
        worst = min(worst, oracles.check_range_bound(mdp, featmap, guess_from_fit(fit), fit))
    return worst, -1e-6, f"{instances} exact-linear instances, {policy_count} sampled policies each"


def _suite_skip_realizability(seed, instances=4, thetas=3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        mdp, featmap = _random_instance(rng, size_range=(2, 5))
        d, H = featmap.d, mdp.horizon
        behavior = uniform_policy(mdp)
        policies = sample_policies(mdp, 40, int(rng.integers(0, 2**31)))
        guess = build_true_guess(mdp, featmap, policies)
        params = SkipParams(alpha=float(rng.uniform(0.05, 0.9)))
        for _ in range(thetas):
            theta = rng.normal(size=d)

            def f(stage, state, _theta=theta):
                return learner.clipped_v(_theta, featmap, stage, state)

            for h in range(H):
                worst = max(
                    worst,
                    oracles.check_skip_realizability(mdp, featmap, guess, behavior, f, h, params),
                )
    return 1e-6 - worst, 0.0, f"{instances} exact-linear instances, {thetas} clipped value functions each"


def _suite_concentrability(seed, instances=6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        # rng.integers(2, 3) is always 2 and consumes no draw, so A = 2 keeps the stream
        mdp, _ = _random_instance(rng, d_range=(1, 3), h_range=(2, 4), size_range=(2, 4), a_range=(2, 3))
        behavior = uniform_policy(mdp)
        dp = oracles.concentrability(mdp, behavior).c_conc
        brute = oracles.concentrability_by_enumeration(mdp, behavior)
        worst = max(worst, abs(dp - brute))
    return 1e-10 - worst, 0.0, f"{instances} instances small enough for exhaustive policy enumeration"


VERIFY_SUITES = {
    "lsq-decomposition": _suite_lsq,
    "elliptical-potential": _suite_elliptical,
    "projection-bound": _suite_projection,
    "perf-diff": _suite_perf_diff,
    "range-bound": _suite_range_bound,
    "skip-realizability": _suite_skip_realizability,
    "concentrability": _suite_concentrability,
}


def verify(suites=None, seed: int = 0) -> dict:
    """Run the selected lemma suites; report worst slack and pass/fail each."""
    names = list(VERIFY_SUITES) if suites is None else list(suites)
    report = {"seed": seed, "suites": [], "all_pass": True}
    for name in names:
        if name not in VERIFY_SUITES:
            raise ValidationError(f"unknown verification suite {name!r}")
        t0 = time.perf_counter()
        slack, tolerance, instances = VERIFY_SUITES[name](seed)
        passed = bool(slack >= tolerance)
        report["suites"].append(
            {
                "name": name,
                "worst_slack": float(slack),
                "tolerance": tolerance,
                "instances": instances,
                "pass": passed,
                "elapsed_s": round(time.perf_counter() - t0, 3),
            }
        )
        report["all_pass"] = report["all_pass"] and passed
    return report
