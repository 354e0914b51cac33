import numpy as np
import pytest

from skiprl.design import guess_from_fit
from skiprl.envs import FeatureMap, fit_policy_stack, random_linear_mdp, sample_policies
from skiprl.learner import MEMBER_TOL, RADIUS_TOL, stage_covariance
from skiprl.mdp import Dataset, StagedMdp, _byte_order


def random_tabular_mdp(rng, horizon=None, max_states=6, max_actions=4, reward_kind="deterministic-mean"):
    """Arbitrary (not necessarily linear) stage-structured MDP for property tests."""
    H = horizon or int(rng.integers(1, 6))
    sizes = [1] + [int(rng.integers(1, max_states + 1)) for _ in range(H - 1)] + [1]
    A = int(rng.integers(1, max_actions + 1))
    transitions = [rng.dirichlet(np.ones(sizes[h + 1]), size=(sizes[h], A)) for h in range(H)]
    rewards = [rng.uniform(0, 1, size=(sizes[h], A)) for h in range(H)] + [np.zeros((1, A))]
    return StagedMdp(H, sizes, A, transitions, rewards, reward_kind)


def one_step_bandit(r0=0.3, r1=0.7):
    """H=1 MDP: one decision between two arms, then terminal."""
    return StagedMdp(
        horizon=1,
        stage_sizes=(1, 1),
        num_actions=2,
        transitions=[np.ones((1, 2, 1))],
        reward_means=[np.array([[r0, r1]]), np.zeros((1, 2))],
    )


def unit_featmap(mdp):
    """The one-column feature map phi = 1 of ``mdp``, for sampling an MDP that has no
    feature map of its own."""
    return FeatureMap(d=1, phi=[np.ones((k, mdp.num_actions, 1)) for k in mdp.stage_sizes], l1_bound=1.0)


def dense_dataset(states, actions, rewards, features):
    """The ``Dataset`` of dense (n, H, A, d) ``features`` through ``Dataset.of_blocks``,
    the checked constructor a loaded archive takes: each stage is grouped by the bytes
    of every row's block (``mdp._byte_order``), as a fresh grouping is."""
    firsts, codes = zip(*(_byte_order(features[:, h]) for h in range(features.shape[1])))
    blocks = [features[first, h] for h, first in enumerate(firsts)]
    return Dataset.of_blocks(states, actions, rewards, np.concatenate(blocks),
                             np.array([len(b) for b in blocks]), np.stack(codes, axis=1))


def anchor_distance(sets, ds, h, theta, lam) -> float:
    """min over stage h's anchors a of sqrt((theta - a)^T X_h (theta - a)), with X_h the
    matrix of ``stage_covariance(ds, h, lam)``, one anchor at a time, without the
    learner's stacked distance kernels."""
    X = stage_covariance(ds, h, lam).matrix
    return min(float(np.sqrt(max((theta - a) @ X @ (theta - a), 0.0))) for a in sets.stage_sets[h].anchors)


def is_member(sets, ds, h, theta, config) -> bool:
    """Whether ``theta`` passes stage h's ellipsoid test on ``ds``: inside the theta_radius
    ball and within beta of an anchor in the metric of X_h, with the learner's tolerances."""
    theta = np.asarray(theta, dtype=float)
    return (np.linalg.norm(theta) <= config.theta_radius + RADIUS_TOL
            and anchor_distance(sets, ds, h, theta, config.lam) <= config.beta + MEMBER_TOL)


def zero_reward_mdp(rng, horizon=3):
    mdp = random_tabular_mdp(rng, horizon=horizon)
    rewards = [np.zeros_like(r) for r in mdp.reward_means]
    return StagedMdp(mdp.horizon, mdp.stage_sizes, mdp.num_actions, mdp.transitions, rewards)


@pytest.fixture(scope="session")
def fixed_instance():
    """The fixed d=2, H=3, |S_h|=4, |A|=2 environment used by the calibrated checks."""
    return random_linear_mdp(2, 3, (1, 4, 4, 1), 2, seed=10)


@pytest.fixture(scope="session")
def small_linear_batch():
    """20 exact-linear instances (d<=3, H<=4, |S_h|<=5, |A|<=3), each with the fit of
    a 200-policy sample and the guess built from that fit.

    Shared by the realizability and range-bound suites, which the contract
    requires to run on the same instances and policy samples.
    """
    rng = np.random.default_rng(2024)
    batch = []
    for _ in range(20):
        d = int(rng.integers(1, 4))
        H = int(rng.integers(2, 5))
        sizes = [1] + [int(rng.integers(2, 6)) for _ in range(H - 1)] + [1]
        A = int(rng.integers(2, 4))
        mdp, featmap = random_linear_mdp(d, H, sizes, A, int(rng.integers(0, 2**31)))
        fit = fit_policy_stack(mdp, featmap, sample_policies(mdp, 200, int(rng.integers(0, 2**31))))
        batch.append((mdp, featmap, fit, guess_from_fit(fit)))
    return batch
