"""Tabular MDP primitives: occupancies, values, features, best responses.

Conventions used throughout:

- A tabular MDP is (S, A, P, r, Phi, gamma, d0) with transition tensor
  P[s, a, s'] = Pr(s' | s, a), extrinsic reward r[s, a], a feature matrix
  Phi with one row per state-action pair (row index s * A + a), discount
  gamma in [0, 1) and initial distribution d0.

- Occupancies are distributions over state-action pairs (length S * A,
  summing to one) and come in two flavors:

    average:     d(s, a) = rho(s) pi(a | s), where rho is the stationary
                 distribution of the policy-induced chain P_pi.
    discounted:  d(s, a) = (1 - gamma) sum_t gamma^t Pr(s_t = s, a_t = a),
                 with t starting at 0 and s_0 ~ d0.

  Both sum to one, so expected rewards / features under either flavor are
  plain inner products: v = <r, d>, psi = Phi^T d. For the discounted
  flavor this makes v the (1 - gamma)-normalised discounted return.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Criterion",
    "Policy",
    "Occupancy",
    "TabularMdp",
    "InvalidMdpError",
    "NonUnichainError",
    "ConvergenceError",
    "validate_mdp",
    "uniform_policy",
    "deterministic_policy",
    "random_policy",
    "policy_transition_matrix",
    "stationary_distribution",
    "discounted_occupancy",
    "occupancy",
    "policy_value",
    "expected_features",
    "best_response",
]

_SIMPLEX_TOL = 1e-9
_STATIONARY_RESIDUAL_TOL = 1e-9
_SMOOTHING_EPS = 1e-6
# Aperiodicity transform weight for relative value iteration: the lazy chain
# P~ = (1 - tau) I + tau P has the same stationary distributions and gains
# for unchanged rewards, but is aperiodic under every policy.
_APERIODICITY_TAU = 0.5

# Sweeps without a 10% span improvement before relative value iteration is
# declared plateaued. Geometric convergence fast enough to hit 1e-9 within
# max_iter improves by far more than 10% per window, so only numerically
# stalled runs trigger it.
_STALL_WINDOW = 5_000


class InvalidMdpError(ValueError):
    """An MDP tuple violates its shape / stochasticity contract."""


class NonUnichainError(RuntimeError):
    """The policy-induced chain has no unique stationary distribution."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class Criterion(str, Enum):
    """Which long-run criterion an occupancy / best response refers to."""

    AVERAGE = "average"
    DISCOUNTED = "discounted"


@dataclass(frozen=True)
class Policy:
    """A stationary stochastic policy; probs[s, a] = pi(a | s)."""

    probs: np.ndarray

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class Occupancy:
    """A state-action visitation distribution of a given flavor."""

    criterion: Criterion
    d: np.ndarray  # length S * A, row-major over (s, a)

    def state_marginal(self, num_actions: int) -> np.ndarray:
        return self.d.reshape(-1, num_actions).sum(axis=1)


@dataclass(frozen=True)
class TabularMdp:
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    features: np.ndarray  # (S * A, d)
    discount: float
    initial_dist: np.ndarray  # (S,)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def features_sa(self) -> np.ndarray:
        """Features reshaped to (S, A, d)."""
        return self.features.reshape(self.num_states, self.num_actions, -1)

    @cached_property
    def transition_cdf(self) -> np.ndarray:
        """Cumulative next-state rows, (S, A, S); computed once per MDP.

        Shared by every rollout on this MDP, so it is read-only, and the
        transition tensor must not be edited in place after first use.
        """
        cdf = np.cumsum(self.transition, axis=2)
        cdf.flags.writeable = False
        return cdf


def validate_mdp(mdp: TabularMdp) -> None:
    """Check the full MDP contract; raises InvalidMdpError naming the offender."""
    P, r, phi, d0 = mdp.transition, mdp.reward, mdp.features, mdp.initial_dist
    if P.ndim != 3 or P.shape[0] != P.shape[2]:
        raise InvalidMdpError(f"transition must be (S, A, S), got {P.shape}")
    S, A = P.shape[0], P.shape[1]
    if r.shape != (S, A):
        raise InvalidMdpError(f"reward must be {(S, A)}, got {r.shape}")
    if phi.ndim != 2 or phi.shape[0] != S * A:
        raise InvalidMdpError(f"features must be ({S * A}, d), got {phi.shape}")
    if d0.shape != (S,):
        raise InvalidMdpError(f"initial_dist must be ({S},), got {d0.shape}")
    for name, arr in (("transition", P), ("reward", r), ("features", phi), ("initial_dist", d0)):
        if not np.all(np.isfinite(arr)):
            raise InvalidMdpError(f"{name} contains non-finite entries")
    if not 0.0 <= mdp.discount < 1.0:
        raise InvalidMdpError(f"discount must be in [0, 1), got {mdp.discount}")
    if np.any(P < -_SIMPLEX_TOL):
        s, a, t = np.unravel_index(int(np.argmin(P)), P.shape)
        raise InvalidMdpError(f"transition[{s}, {a}, {t}] = {P[s, a, t]} is negative")
    row_sums = P.sum(axis=2)
    bad = np.abs(row_sums - 1.0) > _SIMPLEX_TOL
    if np.any(bad):
        s, a = np.argwhere(bad)[0]
        raise InvalidMdpError(f"transition row ({s}, {a}) sums to {row_sums[s, a]!r}, not 1")
    if np.any(d0 < -_SIMPLEX_TOL) or abs(d0.sum() - 1.0) > _SIMPLEX_TOL:
        raise InvalidMdpError(f"initial_dist is not a distribution (sum {d0.sum()!r})")


def _validate_policy(policy: Policy, mdp: TabularMdp) -> None:
    p = policy.probs
    if p.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"policy shape {p.shape} does not match MDP {(mdp.num_states, mdp.num_actions)}")
    if np.any(p < -_SIMPLEX_TOL) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-8):
        s = int(np.argmax(np.abs(p.sum(axis=1) - 1.0)))
        raise ValueError(f"policy row {s} is not a distribution (sum {p.sum(axis=1)[s]!r})")


def uniform_policy(num_states: int, num_actions: int) -> Policy:
    return Policy(np.full((num_states, num_actions), 1.0 / num_actions))


def deterministic_policy(actions: np.ndarray, num_actions: int) -> Policy:
    probs = np.zeros((len(actions), num_actions))
    probs[np.arange(len(actions)), actions] = 1.0
    return Policy(probs)


def random_policy(rng: np.random.Generator, num_states: int, num_actions: int) -> Policy:
    """Rows drawn uniformly from the simplex (flat Dirichlet)."""
    probs = rng.dirichlet(np.ones(num_actions), size=num_states)
    return Policy(probs)


def policy_transition_matrix(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """P_pi[s, s'] = sum_a pi(a | s) P(s' | s, a)."""
    return np.einsum("sa,sat->st", policy.probs, mdp.transition)


def _solve_stationary(P_pi: np.ndarray) -> np.ndarray | None:
    """Solve rho^T P_pi = rho^T, sum rho = 1 by a direct linear solve.

    The rows of (P_pi^T - I) sum to the zero vector, so exactly one of the
    stationarity equations is redundant for a unichain and we may replace
    it with the normalisation. Returns None when the chain admits no
    unique solution (rank deficiency shows up as a singular system or as
    a solution that fails the residual / nonnegativity checks).
    """
    S = P_pi.shape[0]
    A = P_pi.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        rho = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(rho)) or rho.min() < -1e-8:
        return None
    if np.max(np.abs(rho @ P_pi - rho)) > _STATIONARY_RESIDUAL_TOL:
        return None
    rho = np.clip(rho, 0.0, None)
    return rho / rho.sum()


def stationary_distribution(mdp: TabularMdp, policy: Policy) -> Occupancy:
    """Average-flavor occupancy d(s, a) = rho(s) pi(a | s).

    If the induced chain is reducible into several recurrent classes the
    direct solve is rank deficient; we then retry once with the policy
    smoothed toward uniform (eps = 1e-6) and warn, since the smoothed
    chain is irreducible whenever the MDP is connected under the union of
    actions. A second failure raises NonUnichainError.
    """
    probs = policy.probs
    P_pi = policy_transition_matrix(mdp, policy)
    rho = _solve_stationary(P_pi)
    if rho is None:
        warnings.warn(
            "policy-induced chain has no unique stationary distribution; "
            f"retrying with eps={_SMOOTHING_EPS} uniform smoothing",
            RuntimeWarning,
            stacklevel=2,
        )
        probs = (1.0 - _SMOOTHING_EPS) * policy.probs + _SMOOTHING_EPS / mdp.num_actions
        P_pi = np.einsum("sa,sat->st", probs, mdp.transition)
        rho = _solve_stationary(P_pi)
        if rho is None:
            raise NonUnichainError(
                "stationary equations remain rank-deficient after smoothing; "
                "the chain has multiple recurrent classes"
            )
    d = (rho[:, None] * probs).ravel()
    return Occupancy(Criterion.AVERAGE, d)


def discounted_occupancy(mdp: TabularMdp, policy: Policy) -> Occupancy:
    """Discounted occupancy with weights (1 - gamma) gamma^t from t = 0.

    The state marginal m solves m = (1 - gamma) d0 + gamma P_pi^T m, i.e.
    the flow-conservation equations; d(s, a) = m(s) pi(a | s).
    """
    S = mdp.num_states
    gamma = mdp.discount
    P_pi = policy_transition_matrix(mdp, policy)
    m = np.linalg.solve(np.eye(S) - gamma * P_pi.T, (1.0 - gamma) * mdp.initial_dist)
    d = (m[:, None] * policy.probs).ravel()
    return Occupancy(Criterion.DISCOUNTED, d)


def occupancy(mdp: TabularMdp, policy: Policy, criterion: Criterion) -> Occupancy:
    if criterion == Criterion.AVERAGE:
        return stationary_distribution(mdp, policy)
    return discounted_occupancy(mdp, policy)


def policy_value(mdp: TabularMdp, occ: Occupancy) -> float:
    """Expected extrinsic reward under the occupancy.

    Average flavor: the gain. Discounted flavor: the (1 - gamma)-normalised
    discounted return from d0.
    """
    return float(mdp.reward.ravel() @ occ.d)


def expected_features(mdp: TabularMdp, occ: Occupancy) -> np.ndarray:
    """psi = Phi^T d, a length-d vector."""
    return mdp.features.T @ occ.d


def _greedy(Q: np.ndarray) -> Policy:
    # argmax returns the first maximiser, i.e. ties break to the lowest index
    actions = np.argmax(Q, axis=1)
    return deterministic_policy(actions, Q.shape[1])


def best_response(
    mdp: TabularMdp,
    reward: np.ndarray,
    criterion: Criterion,
    *,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    stall_tol: float = 1e-4,
    v_init: np.ndarray | None = None,
    return_values: bool = False,
) -> Policy | tuple[Policy, np.ndarray]:
    """Exact greedy maximiser of an arbitrary reward matrix.

    Discounted: value iteration until the max-norm change is <= tol, then
    the greedy deterministic policy (ties to the lowest action index).

    Average: relative value iteration on the lazy chain
    (1 - tau) I + tau P with rewards unchanged, run until the span of the
    Bellman update difference is <= tol. The transform preserves every
    policy's stationary distribution and gain and makes the iteration
    converge on unichain instances.

    On slowly mixing instances (e.g. a greedy policy that only leaves a
    region through slip noise) the span can plateau above tol at the
    iteration's numerical floor. The greedy policy is stable long before
    that point and its gain is within the span of optimal, so a plateau
    at span <= stall_tol is accepted; a plateau above stall_tol raises
    ConvergenceError reporting the final span. Pass stall_tol=0.0 to
    insist on tol exactly. A plateau means no 10% span improvement over
    a window of sweeps.

    v_init warm-starts the iteration (useful when solving a slowly
    changing sequence of rewards). With return_values=True the final
    value iterate is returned alongside the policy.
    """
    if reward.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"reward must be {(mdp.num_states, mdp.num_actions)}, got {reward.shape}")
    V = np.zeros(mdp.num_states) if v_init is None else np.array(v_init, dtype=float)
    P = mdp.transition

    if criterion == Criterion.DISCOUNTED:
        gamma = mdp.discount
        Q = reward + gamma * (P @ V)
        for _ in range(max_iter):
            V_new = Q.max(axis=1)
            if np.max(np.abs(V_new - V)) <= tol:
                V = V_new
                break
            V = V_new
            Q = reward + gamma * (P @ V)
        else:
            raise ConvergenceError(
                f"value iteration did not reach tol={tol} in {max_iter} iterations"
            )
        policy = _greedy(reward + gamma * (P @ V))
        return (policy, V) if return_values else policy

    tau = _APERIODICITY_TAU
    # Q(s, a) = r(s, a) + (1 - tau) V(s) + tau sum_s' P(s' | s, a) V(s')
    Q = reward + (1.0 - tau) * V[:, None] + tau * (P @ V)
    best_span = np.inf
    since_improved = 0
    for _ in range(max_iter):
        V_new = Q.max(axis=1)
        delta = V_new - V
        span = float(delta.max() - delta.min())
        V = V_new - V_new[0]  # keep the relative iterate bounded
        if span <= tol:
            break
        if span < 0.9 * best_span:
            best_span = span
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= _STALL_WINDOW:
                if span <= stall_tol:
                    break
                raise ConvergenceError(
                    f"relative value iteration stalled at span={span!r} "
                    f"(tol={tol}, stall_tol={stall_tol}); "
                    "the instance may not be unichain"
                )
        Q = reward + (1.0 - tau) * V[:, None] + tau * (P @ V)
    else:
        if span > stall_tol:
            raise ConvergenceError(
                f"relative value iteration did not reach tol={tol} in "
                f"{max_iter} iterations (final span={span!r}, stall_tol={stall_tol})"
            )
    policy = _greedy(reward + (1.0 - tau) * V[:, None] + tau * (P @ V))
    return (policy, V) if return_values else policy
