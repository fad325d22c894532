"""Shared builders and oracles for the test suite."""

import json
import math
from pathlib import Path

import numpy as np

from divset import (
    DiversityConfig,
    DiversityKind,
    RewardScaling,
    TabularMdp,
    reward_table,
    validate_mdp,
)

ROOT = Path(__file__).resolve().parent.parent

# one config per kernel form: repulsive, van der Waals, the generalized
# l0 * l of the committed configs, a generalized kernel with a logarithmic
# repulsive term, and the appendix scaling
KERNEL_CASES = (
    DiversityConfig(kind=DiversityKind.REPULSIVE),
    DiversityConfig(kind=DiversityKind.VAN_DER_WAALS, contact_distance=0.8),
    DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.45,
        attractive_coeff=0.0, repulsive_power=-1.0, attractive_power=3.0,
    ),
    DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.6,
        attractive_coeff=0.3, repulsive_power=-2.0, attractive_power=1.5,
    ),
    DiversityConfig(
        kind=DiversityKind.GENERALIZED, contact_distance=0.7,
        attractive_coeff=0.5, repulsive_power=0.0, attractive_power=3.0,
        scaling=RewardScaling.APPENDIX_CODE,
    ),
)


def random_mdp(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    feature_dim: int,
    discount: float = 0.95,
) -> TabularMdp:
    """Dense random MDP: Dirichlet transition rows, uniform rewards and features.

    Dense rows make every policy-induced chain irreducible and aperiodic,
    so average-criterion quantities are well defined for every policy.
    """
    mdp = TabularMdp(
        transition=rng.dirichlet(np.ones(num_states), size=(num_states, num_actions)),
        reward=rng.uniform(0.0, 1.0, size=(num_states, num_actions)),
        features=rng.uniform(0.0, 1.0, size=(num_states * num_actions, feature_dim)),
        discount=discount,
        initial_dist=np.full(num_states, 1.0 / num_states),
    )
    validate_mdp(mdp)
    return mdp


def deterministic_action_tables(num_states: int, num_actions: int) -> np.ndarray:
    """All action assignments, one row per deterministic policy."""
    grids = np.meshgrid(*([np.arange(num_actions)] * num_states), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _power_potential(l: float, l0: float, p: float) -> float:
    """The integral of l (l / l0)^p dl."""
    if p == -2.0:
        return l0**2 * math.log(l / l0)
    return l ** (p + 2.0) / ((p + 2.0) * l0**p)


def own_objective_term(psis: np.ndarray, i: int, cfg: DiversityConfig) -> float:
    """Member i's summand f(l_i) of the set objective, other members held fixed.

    Each kernel's potential is written out here in terms of l itself, apart
    from the package's own formulation in x = l / l0.
    """
    dists = np.linalg.norm(psis - psis[i], axis=1)
    dists[i] = np.inf
    l = float(dists.min())
    l0 = cfg.contact_distance
    if cfg.kind == DiversityKind.REPULSIVE:
        f = 0.5 * l * l
    elif cfg.kind == DiversityKind.VAN_DER_WAALS:
        f = 0.5 * l * l - 0.2 * l**5 / l0**3
    else:
        a = cfg.attractive_coeff
        repulsive = _power_potential(l, l0, cfg.repulsive_power)
        attractive = _power_potential(l, l0, cfg.attractive_power)
        f = (1.0 - a) * repulsive - a * attractive
    if cfg.scaling == RewardScaling.APPENDIX_CODE:
        f /= psis.shape[1]
    return f


def member_reward(
    features_sa: np.ndarray, psis: np.ndarray, i: int, cfg: DiversityConfig
) -> np.ndarray:
    """Member i's (S, A) diversity reward as both trainers form it from
    reward_table: c[i] * (phi . diff[i])."""
    c, diff = reward_table(psis, cfg)
    return c[i] * (features_sa @ diff[i])


def golden_kshot_config(out: Path) -> dict:
    """Sampled-trainer chain config with an n=2 method, scored under an
    always-on and a Periodic ActionFailure."""
    return {
        "master_seed": 13,
        "output_dir": str(out),
        "environment": {"type": "chain", "length": 5, "end_reward": 1.0},
        "diversity": {"kind": "Repulsive", "contact_distance": 1.0},
        "strategy": {"kind": "DominoLagrangian", "alpha": 0.8},
        "trainer": {"mode": "sampled", "total_episodes": 60, "episode_length": 12, "eval_every": 60},
        "kshot": {
            "methods": [
                {"name": "pair", "strategy": {"kind": "DominoLagrangian", "alpha": 0.8}, "set_size": 2}
            ],
            "perturbations": [
                {"kind": "ActionFailure", "magnitudes": [0.0, 0.3]},
                {
                    "kind": "ActionFailure",
                    "magnitudes": [0.6],
                    "schedule": {"type": "Periodic", "period": 4, "duration": 2, "start": 1},
                },
            ],
            "k_select": 3,
            "n_eval": 5,
            "horizon": 12,
            "n_train_seeds": 2,
            "bootstrap_resamples": 40,
        },
    }


def golden_four_rooms_config(out: Path) -> dict:
    """The committed four-rooms sweep cut down to 2 alphas x 2 set sizes x
    2 seeds of 30 outer iterations: the exact trainer on the one-class
    path, the Generalized kernel and DominoLagrangian."""
    d = json.loads((ROOT / "configs" / "four_rooms_qd.json").read_text())
    d["output_dir"] = str(out)
    d["seeds"] = [0, 1]
    d["sweep"] = {"alpha": [0.7, 0.9], "set_size": [5, 10]}
    d["trainer"]["outer_iterations"] = 30
    return d
