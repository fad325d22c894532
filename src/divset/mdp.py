"""Tabular MDP primitives: occupancies, values, features, best responses.

Conventions used throughout:

- A tabular MDP is (S, A, P, r, Phi, gamma, d0) with transition tensor
  P[s, a, s'] = Pr(s' | s, a), extrinsic reward r[s, a], a feature matrix
  Phi with one row per state-action pair (row index s * A + a), discount
  gamma in [0, 1) and initial distribution d0.

- Policies and occupancies are plain numpy arrays. A policy is its (S, A)
  array of probabilities pi[s, a] = pi(a | s), each row on the simplex; a
  set of n policies is one (n, S, A) array. An occupancy d is a length
  S * A array, row-major over (s, a), so d.reshape(S, A) indexes it by
  state and action.

- Occupancies are distributions over state-action pairs (length S * A,
  summing to one) and come in two flavors:

    average:     d(s, a) = rho(s) pi(a | s), where rho is the Cesaro limit
                 of d0 P_pi^t: the stationary distribution of P_pi when it
                 has one closed class, and otherwise each closed class's
                 own stationary distribution, weighted by the d0 mass that
                 ends up in that class.
    discounted:  d(s, a) = (1 - gamma) sum_t gamma^t Pr(s_t = s, a_t = a),
                 with t starting at 0 and s_0 ~ d0.

  Both sum to one, so expected rewards / features under either flavor are
  plain inner products: v = <r, d>, psi = Phi^T d. For the discounted
  flavor this makes v the (1 - gamma)-normalised discounted return.

- Best responses are exact: Howard policy iteration over deterministic
  policies, which evaluates each policy by linear solves (the discounted
  values, or the gain and bias of every closed class of a multichain P_pi)
  and stops once no state's action improves. There is no tolerance to tune.
  best_response takes one (S, A) reward or an (n, S, A) stack and runs the
  n iterations in lockstep: each round gathers the policy matrices of the
  members still changing and evaluates them with one stacked solve. When
  every policy of the MDP is irreducible (reach_under_every_policy is all
  true, as on a grid with slip) the average criterion skips class
  detection and the gain stage; other MDPs keep the multichain evaluation,
  member by member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Criterion",
    "TabularMdp",
    "InvalidMdpError",
    "validate_mdp",
    "deterministic_policy",
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
# Howard's policy iteration switches a state's action only for a gain of
# more than this fraction of the largest |q|, so rounding noise cannot make
# it cycle.
_IMPROVEMENT_RTOL = 1e-12


class InvalidMdpError(ValueError):
    """An MDP tuple violates its shape / stochasticity contract."""


class Criterion(str, Enum):
    """Which long-run criterion an occupancy / best response refers to."""

    AVERAGE = "average"
    DISCOUNTED = "discounted"


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
    def transition_cdf(self) -> list[tuple[list[float], list[int]]]:
        """Sparse cumulative next-state rows, one per (s, a) at index s * A + a.

        Each row is a pair of Python lists (cum, outcomes): outcomes holds
        the next states with positive probability in increasing order, and
        cum the cumulative sums of the dense row at those states. The
        skipped zero entries add 0.0, which is exact, so cum holds the very
        values of the dense cumsum. Computed once per MDP and shared by
        every rollout on it: treat the rows as read-only, and do not edit
        the transition tensor in place after first use.
        """
        S, A = self.num_states, self.num_actions
        P = self.transition.reshape(S * A, S)
        rows = []
        for p, cum in zip(P, np.cumsum(P, axis=1)):
            outcomes = np.flatnonzero(p)
            rows.append((cum[outcomes].tolist(), outcomes.tolist()))
        return rows

    @cached_property
    def initial_cdf(self) -> list[float]:
        """Cumulative sums of initial_dist as a Python list, computed once per
        MDP and shared by every rollout on it; treat it as read-only."""
        return np.cumsum(self.initial_dist).tolist()

    @cached_property
    def reach_under_every_policy(self) -> np.ndarray:
        """reach[s, t]: t can follow s whatever the actions; (S, S), computed once per MDP.

        Every policy reaches at least these pairs, so best_response starts
        each policy's reachability from them. On a grid with slip they are
        all pairs: then every policy is irreducible, with one closed class
        and one gain, and best_response takes its unichain fast path, which
        needs neither a closure per policy nor the gain stage.
        """
        reach = _transitive_closure(np.all(self.transition > 0, axis=1))
        reach.flags.writeable = False
        return reach


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


def deterministic_policy(actions: np.ndarray, num_actions: int) -> np.ndarray:
    """The (S, A) policy that takes actions[s] in state s; for (n, S) actions,
    the (n, S, A) stack of such policies."""
    probs = np.zeros((*actions.shape, num_actions))
    np.put_along_axis(probs, actions[..., None], 1.0, axis=-1)
    return probs


def policy_transition_matrix(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """P_pi[s, s'] = sum_a pi(a | s) P(s' | s, a)."""
    return np.einsum("sa,sat->st", policy, mdp.transition)


def _solve_stationary(P_pi: np.ndarray) -> np.ndarray:
    """Solve rho^T P_pi = rho^T, sum rho = 1 for a chain with one closed class.

    The rows of (P_pi^T - I) sum to the zero vector, so exactly one of the
    stationarity equations is redundant and we may replace it with the
    normalisation. With one closed class the system is nonsingular, so a
    singular system, a negative entry or a residual above 1e-9 can only be
    a numerical fault, and raises LinAlgError.
    """
    S = P_pi.shape[0]
    A = P_pi.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    rho = np.linalg.solve(A, b)
    if (
        not np.all(np.isfinite(rho))
        or rho.min() < -1e-8
        or np.max(np.abs(rho @ P_pi - rho)) > _STATIONARY_RESIDUAL_TOL
    ):
        raise np.linalg.LinAlgError("the stationary solve is not a distribution of its chain")
    rho = np.clip(rho, 0.0, None)
    return rho / rho.sum()


def stationary_distribution(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Average-flavor occupancy d(s, a) = rho(s) pi(a | s), rho the Cesaro limit of d0 P_pi^t.

    With one closed class rho is P_pi's stationary distribution, whatever
    d0. With several (Puterman 1994, App. A), each class C gets the
    stationary distribution of its own block P_pi[C, C], weighted by the
    mass that d0 ends up putting into C: its own d0 mass plus what the
    transient states pass into it, one solve with the transient rows of
    I - P_pi.
    """
    P_pi = policy_transition_matrix(mdp, policy)
    S, reach = len(P_pi), mdp.reach_under_every_policy
    # when every pair is reachable under every policy, every policy has one class
    cls = np.zeros(S, dtype=int) if reach.all() else _closed_classes(P_pi, reach)
    heads = np.flatnonzero(cls == np.arange(S))
    if len(heads) == 1:
        rho = _solve_stationary(P_pi)
    else:
        identity = np.eye(S)
        M = np.where((cls >= 0)[:, None], identity, identity - P_pi)
        into = np.linalg.solve(M, (cls[:, None] == heads).astype(float))
        rho = np.zeros(S)
        for head, mass in zip(heads, mdp.initial_dist @ into):
            C = cls == head
            rho[C] = mass * _solve_stationary(P_pi[np.ix_(C, C)])
    return (rho[:, None] * policy).ravel()


def discounted_occupancy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Discounted occupancy with weights (1 - gamma) gamma^t from t = 0.

    The state marginal m solves m = (1 - gamma) d0 + gamma P_pi^T m, i.e.
    the flow-conservation equations; d(s, a) = m(s) pi(a | s).
    """
    S = mdp.num_states
    gamma = mdp.discount
    P_pi = policy_transition_matrix(mdp, policy)
    m = np.linalg.solve(np.eye(S) - gamma * P_pi.T, (1.0 - gamma) * mdp.initial_dist)
    return (m[:, None] * policy).ravel()


def occupancy(mdp: TabularMdp, policy: np.ndarray, criterion: Criterion) -> np.ndarray:
    if criterion == Criterion.AVERAGE:
        return stationary_distribution(mdp, policy)
    return discounted_occupancy(mdp, policy)


def policy_value(mdp: TabularMdp, occ: np.ndarray) -> float:
    """Expected extrinsic reward under the occupancy d.

    Average flavor: the gain. Discounted flavor: the (1 - gamma)-normalised
    discounted return from d0.
    """
    return float(mdp.reward.ravel() @ occ)


def expected_features(mdp: TabularMdp, occ: np.ndarray) -> np.ndarray:
    """psi = Phi^T d, a length-d vector."""
    return mdp.features.T @ occ


def _transitive_closure(edges: np.ndarray) -> np.ndarray:
    """reach[s, t]: t can follow s in zero or more steps of a boolean (S, S) relation."""
    reach = edges | np.eye(len(edges), dtype=bool)
    while not reach.all():  # repeated squaring; a boolean matmul is an or of ands
        closure = reach @ reach
        if np.array_equal(closure, reach):
            break
        reach = closure
    return reach


def _closed_classes(P_pi: np.ndarray, reach_floor: np.ndarray) -> np.ndarray:
    """Each state's closed class under P_pi, named by its lowest state; -1 if transient.

    reach_floor[s, t] marks pairs already known to have t reachable from s.
    """
    reach = _transitive_closure((P_pi > 0) | reach_floor)
    # a state is recurrent iff every state it reaches reaches it back; it
    # then reaches exactly its own class
    recurrent = ~np.any(reach & ~reach.T, axis=1)
    return np.where(recurrent, np.argmax(reach, axis=1), -1)


def _gain_and_bias(
    P_pi: np.ndarray, r_pi: np.ndarray, cls: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multichain evaluation (Puterman 1994, ch. 9): g = P_pi g and g + h = r_pi + P_pi h.

    cls names each state's closed class (_closed_classes). Each class has one
    gain and a bias that is 0 at its lowest state, whose column of I - P_pi
    then carries the class gain. The transient states are set aside for
    that solve, then take their gain and bias from the classes they enter.
    """
    S = len(r_pi)
    recurrent = cls >= 0
    heads = np.flatnonzero(cls == np.arange(S))
    identity = np.eye(S)
    M = np.where(recurrent[:, None], identity - P_pi, identity)
    M[:, heads] = cls[:, None] == heads
    x = np.linalg.solve(M, np.where(recurrent, r_pi, 0.0))
    g = np.where(recurrent, x[cls], 0.0)
    h = np.where(recurrent, x, 0.0)
    h[heads] = 0.0
    if not recurrent.all():
        M = np.where(recurrent[:, None], identity, identity - P_pi)
        g = np.linalg.solve(M, g)
        h = np.linalg.solve(M, np.where(recurrent, h, r_pi - g))
    return g, h


def _improve(actions: np.ndarray, q: np.ndarray, allowed: np.ndarray | bool = True) -> np.ndarray:
    """Per member and state, the lowest allowed action whose q beats the
    current action's by more than _IMPROVEMENT_RTOL * that member's max |q|;
    else the current one. actions is (m, S) and q is (m, S, A)."""
    m, S = actions.shape
    current = q[np.arange(m)[:, None], np.arange(S), actions][:, :, None]
    slack = _IMPROVEMENT_RTOL * np.abs(q).max(axis=(1, 2), keepdims=True)
    better = allowed & (q > current + slack)
    return np.where(better.any(axis=2), np.argmax(better, axis=2), actions)


def _multichain_round(mdp: TabularMdp, reward: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """One average-criterion Howard round for one member on any MDP.

    Each state takes the best action for P g and, once no gain improves,
    the best action for r + P h among the actions that keep the gain.
    """
    P = mdp.transition
    states = np.arange(mdp.num_states)
    P_pi, r_pi = P[states, actions], reward[states, actions]
    cls = _closed_classes(P_pi, mdp.reach_under_every_policy)
    g, h = _gain_and_bias(P_pi, r_pi, cls)
    gain_q = (P @ g)[None]
    improved = _improve(actions[None], gain_q)
    if np.array_equal(improved[0], actions):
        slack = _IMPROVEMENT_RTOL * np.abs(gain_q).max()
        keeps_gain = gain_q >= gain_q[:, states, actions][:, :, None] - slack
        improved = _improve(actions[None], (reward + P @ h)[None], keeps_gain)
    return improved[0]


def best_response(
    mdp: TabularMdp, reward: np.ndarray, criterion: Criterion, start: np.ndarray | None = None
) -> np.ndarray:
    """Optimal deterministic policies for a stack of arbitrary reward matrices.

    reward is one (S, A) matrix or an (n, S, A) stack, and the result has
    the same shape: the best response to each reward. start, if given, has
    reward's shape too.

    Howard policy iteration (Puterman 1994, ch. 6, 8 and 9) from the
    greedy actions of start, or of reward when no start is given. The n
    iterations run in lockstep, and each round evaluates every member whose
    policy changed in the previous round exactly, then improves it:

    - discounted: v solves (I - gamma P_pi) v = r_pi, and each state takes
      the best action for r + gamma P v;
    - average, when every policy is irreducible (reach_under_every_policy
      is all true): one class, so the gain is one number and cannot pick
      an action. The bias h solves g + h = r_pi + P_pi h with h = 0 at
      state 0, and each state takes the best action for r + P h;
    - average, on any other MDP: g and h are the multichain gain and bias
      (_gain_and_bias), member by member; each state takes the best action
      for P g and, once no gain improves, the best action for r + P h among
      the actions that keep the gain.

    The first two stack the members' policy matrices into one linear solve.
    P @ h stays one product per member: one product over the stack would
    change the low bits of q. A state switches only to an action that beats
    its current one by more than a relative 1e-12, and then to the
    lowest-index such action. Ties therefore keep the current action, which
    makes each member's loop end; a member leaves the stack once no state
    switches.
    """
    S, A = mdp.num_states, mdp.num_actions
    if reward.ndim not in (2, 3) or reward.shape[-2:] != (S, A):
        raise ValueError(f"reward must be {(S, A)} or (n, {S}, {A}), got {reward.shape}")
    if start is not None and start.shape != reward.shape:
        raise ValueError(f"start must have reward's shape {reward.shape}, got {start.shape}")
    rewards = reward.reshape(-1, S, A)
    actions = np.argmax(rewards if start is None else start.reshape(-1, S, A), axis=2)
    P, states = mdp.transition, np.arange(S)
    discounted = criterion == Criterion.DISCOUNTED
    stacked = discounted or mdp.reach_under_every_policy.all()
    live = np.arange(len(rewards))
    while live.size:
        a, r = actions[live], rewards[live]
        if stacked:
            r_pi = r[np.arange(len(a))[:, None], states, a]
            # the policy matrices, turned in place into I - gamma P_pi, or
            # into I - P_pi with the column of h(0) = 0 carrying the gain
            M = P[states, a]
            if discounted:
                M *= mdp.discount
            np.subtract(np.eye(S), M, out=M)
            if not discounted:
                M[:, :, 0] = 1.0
            x = np.linalg.solve(M, r_pi[:, :, None])[:, :, 0]
            if discounted:
                q = r + mdp.discount * np.stack([P @ v for v in x])
            else:
                x[:, 0] = 0.0
                q = r + np.stack([P @ h for h in x])
            improved = _improve(a, q)
        else:
            improved = np.stack([_multichain_round(mdp, r_i, a_i) for r_i, a_i in zip(r, a)])
        changed = np.any(improved != a, axis=1)
        actions[live] = improved
        live = live[changed]
    return deterministic_policy(actions, A).reshape(reward.shape)
