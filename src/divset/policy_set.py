"""Sets of policies and the bounded Lagrange machinery.

A PolicySet holds n policies as one (n, S, A) array, one raw Lagrange
parameter per policy, and running estimates of each policy's value and
expected features. The first policy (index 0) is the extrinsic anchor:
its mixing weight is pinned to 1 by convention (the stored mu[0] is
inert), so it always optimises the extrinsic reward alone and its value
anchors the near-optimality constraint for everyone else.

For i >= 1 the reward seen by the policy player is the bounded mix

    r_i = sigma(mu_i) r_e + (1 - sigma(mu_i)) r_d,

and the Lagrange player descends the loss sum_i sigma(mu_i) (v~_i - alpha
v~_1), whose plain-gradient update moves mu_i by
-lr * sigma'(mu_i) * (v~_i - alpha v~_1), projected onto the box
[-MU_BOUND, MU_BOUND]. The sign is the whole point: mu_i rises (more
extrinsic) exactly when the policy is below the constraint alpha v~_1 and
falls when it is above it.

A PolicySet may also stack several sets: its arrays then carry leading
set axes before the member axis, policies (..., n, S, A), mu and avg_value
(..., n), avg_psi (..., n, d), and vstar_estimate is a scalar or an array
that broadcasts against them, such as (sets, 1). extrinsic_weights, the
moving averages, both Lagrange steps and strategies.weights then act on
every set in one call, and each set's entries get the bits they would get
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MU_BOUND",
    "MovingAverageConfig",
    "PolicySet",
    "AdamState",
    "init_set",
    "update_moving_averages",
    "lagrange_step",
    "lagrange_step_adam",
    "policy_set_to_json",
    "policy_set_from_json",
]

_SIGMOID_CLIP = 60.0


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -_SIGMOID_CLIP), _SIGMOID_CLIP)))


@dataclass(frozen=True)
class MovingAverageConfig:
    value_decay: float = 0.9
    feature_decay: float = 0.99


@dataclass
class PolicySet:
    policies: np.ndarray  # (n, S, A); policies[i, s, a] = pi_i(a | s)
    mu: np.ndarray  # (n,) raw pre-sigmoid parameters; entry 0 is inert
    avg_value: np.ndarray  # (n,) running extrinsic value estimates v~
    avg_psi: np.ndarray  # (n, d) running expected-feature estimates psi~
    vstar_estimate: float = 0.0  # v~ of the anchor / exact optimum, per trainer

    @property
    def n(self) -> int:
        return self.mu.shape[-1]

    def extrinsic_weights(self) -> np.ndarray:
        """sigma(mu_i) per member, with each set's anchor pinned to exactly 1."""
        w = np.asarray(sigmoid(self.mu), dtype=float)
        w[..., 0] = 1.0
        return w


def init_set(
    n: int,
    d: int,
    num_states: int,
    num_actions: int,
    *,
    policy_init: str = "uniform",
    rng: np.random.Generator | None = None,
) -> PolicySet:
    """Fresh set: mu_i = sigma^{-1}(0.5) = 0 for i >= 1, psi~ rows 1/d, v~ = 0.

    policy_init is "uniform" or "random" (uniform-random simplex rows;
    requires rng).
    """
    if n < 1:
        raise ValueError(f"need at least one policy, got n={n}")
    if policy_init == "uniform":
        policies = np.full((n, num_states, num_actions), 1.0 / num_actions)
    elif policy_init == "random":
        if rng is None:
            raise ValueError('policy_init="random" requires an rng')
        policies = rng.dirichlet(np.ones(num_actions), size=(n, num_states))
    else:
        raise ValueError(f"unknown policy_init {policy_init!r}")
    return PolicySet(
        policies=policies,
        mu=np.zeros(n),
        avg_value=np.zeros(n),
        avg_psi=np.full((n, d), 1.0 / d),
    )


def update_moving_averages(
    pset: PolicySet,
    members: int | np.ndarray,
    values: float | np.ndarray,
    psis: np.ndarray,
    cfg: MovingAverageConfig,
) -> PolicySet:
    """x~ <- decay * x~ + (1 - decay) * x for the given members, per statistic.

    members indexes pset's rows (one index, an index array, or ... for
    every member of every set), or, for a stacked set, its (set, member)
    pairs as a tuple of index arrays; values and psis are the matching
    measured values and feature rows. An exact trainer passes its members'
    exact values and expected features, a sampled one the mean reward and
    mean feature row of an episode.
    Mutates and returns pset.
    """
    a_v, a_f = cfg.value_decay, cfg.feature_decay
    pset.avg_value[members] = a_v * pset.avg_value[members] + (1.0 - a_v) * values
    pset.avg_psi[members] = a_f * pset.avg_psi[members] + (1.0 - a_f) * psis
    return pset


# Projection bound for the multiplier parameters. The no-regret view of the
# multiplier player needs a compact decision set, and in practice the bound
# is what keeps recovery fast: without it mu drifts arbitrarily far into the
# sigmoid's flat tails during long satisfied (or violated) phases and the
# damped gradient then needs hundreds of steps to climb back out.
MU_BOUND = 4.0


def _lagrange_grads(pset: PolicySet, alpha: float) -> np.ndarray:
    """d/dmu_i of sigma(mu_i) (v~_i - alpha vstar), for i >= 1."""
    w = sigmoid(pset.mu[..., 1:])
    return w * (1.0 - w) * (pset.avg_value[..., 1:] - alpha * pset.vstar_estimate)


def lagrange_step(pset: PolicySet, alpha: float, lr: float) -> PolicySet:
    """One projected gradient-descent step on the Lagrange loss.

    sign(delta mu_i) = sign(alpha vstar - v~_i): a policy above its
    constraint drifts toward diversity, one below it toward the extrinsic
    reward. After the step mu is projected onto [-MU_BOUND, MU_BOUND].
    The anchor's mu is untouched.
    """
    mu = pset.mu[..., 1:]
    mu -= lr * _lagrange_grads(pset, alpha)
    np.minimum(np.maximum(mu, -MU_BOUND, out=mu), MU_BOUND, out=mu)
    return pset


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def lagrange_step_adam(
    pset: PolicySet,
    alpha: float,
    lr: float,
    state: AdamState,
    *,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> PolicySet:
    """Adam on the same gradient, with the same [-MU_BOUND, MU_BOUND] projection."""
    g = _lagrange_grads(pset, alpha)
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * g**2
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    mu = pset.mu[..., 1:]
    mu -= lr * m_hat / (np.sqrt(v_hat) + eps)
    np.minimum(np.maximum(mu, -MU_BOUND, out=mu), MU_BOUND, out=mu)
    return pset


def policy_set_to_json(pset: PolicySet) -> str:
    payload = {
        "policies": pset.policies.tolist(),
        "mu": pset.mu.tolist(),
        "avg_value": pset.avg_value.tolist(),
        "avg_psi": pset.avg_psi.tolist(),
        "vstar_estimate": pset.vstar_estimate,
    }
    return json.dumps(payload)


def policy_set_from_json(text: str) -> PolicySet:
    payload = json.loads(text)
    return PolicySet(
        policies=np.array(payload["policies"], dtype=float),
        mu=np.array(payload["mu"], dtype=float),
        avg_value=np.array(payload["avg_value"], dtype=float),
        avg_psi=np.array(payload["avg_psi"], dtype=float),
        vstar_estimate=float(payload["vstar_estimate"]),
    )
