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
  state and action. The occupancy functions also take an (..., S, A)
  stack of policies, and policy_value and expected_features an (..., S * A)
  stack of occupancies; each row of a stacked result has the bytes of its
  own single call (one right-hand side per solve, and no product over the
  stack).

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
  values, or the gain and bias of every closed class of P_pi) and moves
  each state to its best action (Howard's greedy rule) until no state's
  action improves; no tolerance to tune. best_response iterates for n
  members in lockstep, one stacked evaluation per round. Their rewards are
  given in a basis of K reward columns with one coefficient row per member,
  and evaluation is linear in the reward, so each evaluation solves the K
  columns at once (K right-hand sides per matrix). It returns each policy's
  evaluation of every column: with the extrinsic reward and the feature
  columns, d0 . gain is the policy's value and expected features, and
  passing evaluations back with their policies as a later call's start
  replaces that call's first solve.
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
# Howard's policy iteration moves a state to its best action only when that
# action beats the current one by more than this fraction of the largest
# |q|, so rounding noise cannot make it cycle.
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
        cum the dense row's inf-tailed cumulative sums (_cdf_rows) at those
        states, so the next state of a uniform draw u is
        outcomes[bisect_right(cum, u)]. Computed once per MDP and shared by
        every rollout on it: treat the rows as read-only, and do not edit
        the transition tensor in place after first use.
        """
        S, A = self.num_states, self.num_actions
        P = self.transition.reshape(S * A, S)
        rows = []
        for p, cum in zip(P, _cdf_rows(P)):
            outcomes = np.flatnonzero(p)
            rows.append((cum[outcomes].tolist(), outcomes.tolist()))
        return rows

    @cached_property
    def initial_cdf(self) -> list[float]:
        """The inf-tailed cumulative sums of initial_dist (_cdf_rows) as a
        Python list: the initial state of a uniform draw u is
        bisect_right(initial_cdf, u). Computed once per MDP and shared by
        every rollout on it; treat it as read-only."""
        return _cdf_rows(self.initial_dist).tolist()

    @cached_property
    def reach_under_every_policy(self) -> np.ndarray:
        """reach[s, t]: t can follow s whatever the actions; (S, S), computed once per MDP.

        Every policy reaches at least these pairs, so class detection starts
        from them. On a grid with slip they are all pairs: then every policy
        is irreducible, with one closed class, and none needs detecting.
        """
        reach = _transitive_closure(np.all(self.transition > 0, axis=1))
        reach.flags.writeable = False
        return reach


def _cdf_rows(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with every entry that reaches its
    row's total set to +inf. bisect_right on such a row maps a uniform draw
    u to the outcome whose interval holds u. Rounding can leave the total
    short of 1; a u at or past it lands on the last outcome whose
    probability survives in the sums, never on a later one that rounding
    absorbed."""
    cum = probs.cumsum(axis=-1)
    np.putmask(cum, cum == cum[..., -1:], np.inf)
    return cum


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
    """P_pi[s, s'] = sum_a pi(a | s) P(s' | s, a); (..., S, S) for an (..., S, A) stack."""
    return np.einsum("...sa,sat->...st", policy, mdp.transition)


def _solve_stationary(P_pi: np.ndarray) -> np.ndarray:
    """Solve rho^T P_pi = rho^T, sum rho = 1 for each chain of an (..., S, S)
    stack with one closed class, one single-column solve per chain.

    The rows of (P_pi^T - I) sum to the zero vector, so exactly one of the
    stationarity equations is redundant and we may replace it with the
    normalisation. With one closed class the system is nonsingular, so a
    singular system, a negative entry or a residual above 1e-9 can only be
    a numerical fault, and raises LinAlgError.

    The system is built in place on P_pi, seen transposed, and P_pi's
    diagonal and last column are restored exactly after the solve, so the
    residual is checked against the chains as given.
    """
    S = P_pi.shape[-1]
    diagonal = np.einsum("...ii->...i", P_pi)  # writeable; diagonal() is read-only
    saved_diagonal, saved_column = diagonal.copy(), P_pi[..., -1].copy()
    A = P_pi.swapaxes(-1, -2)
    diagonal -= 1.0
    A[..., -1, :] = 1.0
    b = np.broadcast_to(np.eye(S)[-1], A.shape[:-1])
    rho = np.linalg.solve(A, b[..., None])[..., 0]
    P_pi[..., -1] = saved_column
    diagonal[...] = saved_diagonal
    residual = np.abs((rho[..., None, :] @ P_pi)[..., 0, :] - rho)
    if not np.all(np.isfinite(rho) & (rho >= -1e-8) & (residual <= _STATIONARY_RESIDUAL_TOL)):
        raise np.linalg.LinAlgError("the stationary solve is not a distribution of its chain")
    rho = np.clip(rho, 0.0, None)
    return rho / rho.sum(axis=-1, keepdims=True)


def stationary_distribution(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Average-flavor occupancy d(s, a) = rho(s) pi(a | s), rho the Cesaro limit of d0 P_pi^t.

    With one closed class rho is P_pi's stationary distribution, whatever
    d0; a stack's members with one class are solved together. With several
    (Puterman 1994, App. A), each class C gets the stationary distribution
    of its own block P_pi[C, C], weighted by the mass that d0 ends up
    putting into C: its own d0 mass plus what the transient states pass
    into it, one solve with the transient rows of I - P_pi.
    """
    P_pi = policy_transition_matrix(mdp, policy)
    S, reach = mdp.num_states, mdp.reach_under_every_policy
    rho = np.zeros(P_pi.shape[:-1])
    chains, rows = P_pi.reshape(-1, S, S), rho.reshape(-1, S)  # views, one row per policy
    # when every pair is reachable under every policy, every policy has one class
    table = np.zeros(rows.shape, dtype=int) if reach.all() else _closed_classes(chains, reach)
    several = np.count_nonzero(table == np.arange(S), axis=1) > 1
    # a boolean mask copies its rows, so the mask is taken only when some member needs it
    rows[~several] = _solve_stationary(chains[~several] if several.any() else chains)
    for i in np.flatnonzero(several):
        cls, heads = table[i], np.flatnonzero(table[i] == np.arange(S))
        M = _identity_rows(np.eye(S) - chains[i], cls >= 0)
        into = np.linalg.solve(M, (cls[:, None] == heads).astype(float))
        for head, mass in zip(heads, mdp.initial_dist @ into):
            C = cls == head
            rows[i, C] = mass * _solve_stationary(chains[i][np.ix_(C, C)])
    return (rho[..., None] * policy).reshape(*rho.shape[:-1], mdp.reward.size)


def discounted_occupancy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Discounted occupancy with weights (1 - gamma) gamma^t from t = 0.

    The state marginal m solves m = (1 - gamma) d0 + gamma P_pi^T m, i.e.
    the flow-conservation equations; d(s, a) = m(s) pi(a | s).
    """
    gamma = mdp.discount
    M = gamma * policy_transition_matrix(mdp, policy).swapaxes(-1, -2)
    np.subtract(np.eye(mdp.num_states), M, out=M)  # I - gamma P_pi^T, in place
    b = np.broadcast_to((1.0 - gamma) * mdp.initial_dist, M.shape[:-1])
    m = np.linalg.solve(M, b[..., None])[..., 0]
    return (m[..., None] * policy).reshape(*m.shape[:-1], mdp.reward.size)


def occupancy(mdp: TabularMdp, policy: np.ndarray, criterion: Criterion) -> np.ndarray:
    """The criterion's occupancy of a policy, or one row per policy of a stack."""
    if criterion == Criterion.AVERAGE:
        return stationary_distribution(mdp, policy)
    return discounted_occupancy(mdp, policy)


def policy_value(mdp: TabularMdp, occ: np.ndarray) -> float | np.ndarray:
    """Expected extrinsic reward under the occupancy d; (...,) for an (..., S * A) stack.

    Average flavor: the gain. Discounted flavor: the (1 - gamma)-normalised
    discounted return from d0.
    """
    values = (occ[..., None, :] @ mdp.reward.reshape(-1, 1))[..., 0, 0]
    return float(values) if occ.ndim == 1 else values


def expected_features(mdp: TabularMdp, occ: np.ndarray) -> np.ndarray:
    """psi = Phi^T d, a length-d vector; (..., d) for an (..., S * A) stack."""
    return (mdp.features.T @ occ[..., None])[..., 0]


def _transitive_closure(edges: np.ndarray) -> np.ndarray:
    """reach[..., s, t]: t can follow s in zero or more steps of each boolean (S, S) relation."""
    reach = edges | np.eye(edges.shape[-1], dtype=bool)
    while not reach.all():  # repeated squaring; a boolean matmul is an or of ands
        closure = reach @ reach
        if np.array_equal(closure, reach):  # a converged member squares to itself
            break
        reach = closure
    return reach


def _closed_classes(P_pi: np.ndarray, reach_floor: np.ndarray) -> np.ndarray:
    """Each state's closed class under P_pi, (S, S) or stacked, named by its lowest
    state; -1 if transient. reach_floor[s, t]: t is known to be reachable from s."""
    reach = _transitive_closure((P_pi > 0) | reach_floor)
    # a state is recurrent iff every state it reaches reaches it back; it
    # then reaches exactly its own class
    recurrent = ~np.any(reach & ~reach.swapaxes(-1, -2), axis=-1)
    return np.where(recurrent, np.argmax(reach, axis=-1), -1)


def _identity_rows(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """M, (S, S) or (m, S, S), with the identity's rows where rows is true, in
    place. On the recurrent rows of I - P_pi this gives the transient system."""
    idx = np.nonzero(rows)
    M[idx] = 0.0
    M[idx + idx[-1:]] = 1.0
    return M


def _classes(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """(table, members, heads, columns, transient, several) for an (m, S) table of closed
    classes: the (member, state) pairs of the class heads, the states of each head's class, and
    the members with transient states and with more than one class."""
    members, heads = np.nonzero(table == np.arange(table.shape[1]))
    columns = table[members] == heads[:, None]
    transient = np.flatnonzero((table < 0).any(axis=1))
    several = np.flatnonzero(np.bincount(members, minlength=len(table)) > 1)
    return table, members, heads, columns, transient, several


def _gain_and_bias(M: np.ndarray, r_pi: np.ndarray, classes: tuple) -> tuple[np.ndarray, ...]:
    """Multichain evaluation (Puterman 1994, ch. 8-9) of the (m, S, S) stack M = I - P_pi,
    which this overwrites: g = P_pi g and g + h = r_pi + P_pi h for each of the K reward columns
    of the (m, S, K) r_pi, each member bit for bit as alone. g and h are (m, S, K), g (m, 1, K)
    when every member has one class and no transient state.

    Each class (classes, from _classes) has one gain and a bias that is 0 at its head, whose column
    of M carries the gain in one stacked solve without the transient states; two more, over the
    members that have any, carry gains and biases into them.
    """
    cls, members, heads, columns, some, several = classes  # some: with transient states
    rhs = r_pi
    if some.size:
        transient = cls < 0
        into = _identity_rows(M[some], ~transient[some])
        _identity_rows(M, transient)
        rhs = np.where(transient[..., None], 0.0, r_pi)
    M[members, :, heads] = columns
    h = np.linalg.solve(M, rhs)
    if some.size or several.size:
        g = h[np.arange(len(h))[:, None], cls]
    else:  # one class each and no transient state: one gain per member and column
        g = h[members, heads][:, None]
    h[members, heads] = 0.0
    if some.size:
        g[transient] = h[transient] = 0.0
        g[some] = np.linalg.solve(into, g[some])
        bias_rhs = np.where(transient[some][..., None], r_pi[some] - g[some], h[some])
        h[some] = np.linalg.solve(into, bias_rhs)
    return g, h


def _combine(columns: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k coefficients[:, k] * columns[..., k] for (n, ..., K) columns and (n, K)
    coefficients: one multiply and one add per column, in column order, so the bytes
    depend on no BLAS kernel. With K = 1 and coefficient 1 it is the column itself."""
    c = coefficients.reshape(len(coefficients), *[1] * (columns.ndim - 2), -1)
    total = c[..., 0] * columns[..., 0]
    for k in range(1, columns.shape[-1]):
        total += c[..., k] * columns[..., k]
    return total


def _improve(
    actions: np.ndarray, q: np.ndarray, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Howard's greedy rule, per member and state: the lowest-index allowed
    action of largest q if it beats the current action's q by more than
    _IMPROVEMENT_RTOL * that member's max |q|; else the current one.
    actions is (m, S), q is (m, S, A) and allowed, if given, q's shape."""
    m, S = actions.shape
    current = q[np.arange(m)[:, None], np.arange(S), actions]
    slack = _IMPROVEMENT_RTOL * np.abs(q).max(axis=(1, 2))[:, None]
    if allowed is not None:
        q = np.where(allowed, q, -np.inf)
    # the row max and its lowest index, one column at a time: numpy's max and
    # argmax over a short last axis cost several times more
    best, choice = q[..., 0], np.zeros((m, S), dtype=np.intp)
    for a in range(1, q.shape[2]):
        column = q[..., a]
        choice[column > best] = a  # strictly greater, so ties keep the lowest index
        best = np.maximum(best, column)
    return np.where(best > current + slack, choice, actions)


def best_response(
    mdp: TabularMdp,
    basis: np.ndarray,
    coefficients: np.ndarray,
    criterion: Criterion,
    start: np.ndarray | None = None,
    evaluations: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Optimal deterministic policies for a stack of rewards in a reward basis.

    basis holds K reward columns, (S, A, K) shared by every member or
    (n, S, A, K) one basis per member, and coefficients is (n, K): member
    i's reward is sum_k coefficients[i, k] basis[..., k]. A plain (S, A)
    reward is the K = 1 basis reward[..., None] with coefficient 1, and an
    (n, S, A) stack of rewards the per-member basis rewards[..., None].
    start, if given, is (n, S, A). evaluations, if given, are start's
    policies' rows of what this function returned for them, in any earlier
    call on the same MDP and basis (a policy's evaluation depends on nothing
    else); start must then be those deterministic policies.

    Returns the (n, S, A) policies and their evaluations (gains, biases),
    each (n, S, K): column k evaluates the policy on basis column k.
    Evaluation is linear in the reward, so member i's evaluation of its own
    reward is the columns weighted by coefficients[i], and d0 . gains[i, :, k]
    is the criterion's value of its policy on column k (policy_value of its
    occupancy). Average criterion: the multichain gain g and bias h.
    Discounted: the bias is the value v and the gain (1 - gamma) v.

    Howard policy iteration (Puterman 1994, ch. 6, 8 and 9) from the
    greedy actions of start, or of each member's reward when no start is
    given. The n iterations run in lockstep: each round evaluates the
    members whose policy changed in the last round with one stacked solve,
    all K columns at once, and improves them with one q product (one gemm).
    Given evaluations stand in for the first round's solve.

    - discounted: v solves (I - gamma P_pi) v = r_pi, and q = r + gamma P v;
    - average: g and h are the multichain gain and bias (_gain_and_bias),
      and q = r + P h. A member with several closed classes moves by P g
      while its gain improves, then by q among the actions that keep the
      gain; with one class P g cannot pick an action. Class detection is
      skipped when every policy is irreducible (reach_under_every_policy).

    A state moves to its best action (Howard's greedy rule), the
    lowest-index one of largest q, only when that beats the current action
    by more than a relative 1e-12. Ties keep the current action, which ends
    each member's loop; a member leaves the stack once no state switches.
    """
    S, A = mdp.num_states, mdp.num_actions
    if basis.ndim not in (3, 4) or basis.shape[-3:-1] != (S, A):
        raise ValueError(f"basis must be ({S}, {A}, K) or (n, {S}, {A}, K), got {basis.shape}")
    n, K = len(coefficients), basis.shape[-1]
    if coefficients.shape != (n, K) or basis.ndim == 4 and len(basis) != n:
        raise ValueError(
            f"coefficients must be (n, {K}) for basis {basis.shape}, got {coefficients.shape}"
        )
    if start is not None and start.shape != (n, S, A):
        raise ValueError(f"start must be {(n, S, A)}, got {start.shape}")
    if evaluations is not None and (
        start is None or len(evaluations) != 2 or any(e.shape != (n, S, K) for e in evaluations)
    ):
        raise ValueError(f"evaluations must be two {(n, S, K)} arrays, with a start")
    columns = np.broadcast_to(basis, (n, S, A, K))
    rewards = _combine(columns, coefficients)
    cells = columns.reshape(n, S * A, K)  # a view, row s * A + a
    actions = np.argmax(rewards if start is None else start, axis=2)
    states = np.arange(S)
    # row s * A + a of P; each round gathers its policy matrices into the head
    # of one buffer, and takes every member's q = r + P h in one product
    rows, buffer = mdp.transition.reshape(S * A, S), np.empty((n, S, S))
    gains, biases = np.empty((n, S, K)), np.empty((n, S, K))
    discounted = criterion == Criterion.DISCOUNTED
    # without detection each policy has one class headed by state 0; m members take the first m rows
    one_class = _classes(np.broadcast_to(0, (n, S)))
    detect = not discounted and not mdp.reach_under_every_policy.all()
    live = np.arange(n)
    while live.size:
        a, r, c = actions[live], rewards[live], coefficients[live]
        pairs = states * A + a
        if evaluations is None or detect:
            # the policy matrices, turned in place into I - gamma P_pi or I - P_pi;
            # the indices are in range, and mode="raise" would gather into a copy of out
            M = rows.take(pairs, axis=0, out=buffer[: len(a)], mode="clip")
        if detect:
            classes = _classes(_closed_classes(M, mdp.reach_under_every_policy))
        else:
            classes = [index[: len(a)] for index in one_class]
        if evaluations is not None:  # the first round of a call with start's evaluations
            g, h = evaluations
            evaluations = None
        elif discounted:
            M *= mdp.discount
            np.subtract(np.eye(S), M, out=M)
            h = np.linalg.solve(M, cells[live[:, None], pairs])
            g = (1.0 - mdp.discount) * h
        else:
            np.subtract(np.eye(S), M, out=M)
            g, h = _gain_and_bias(M, cells[live[:, None], pairs], classes)
        gains[live], biases[live] = g, h
        h = _combine(h, c)
        allowed = None
        if discounted:
            q = r + mdp.discount * (h @ rows.T).reshape(r.shape)
        else:
            q = r + (h @ rows.T).reshape(r.shape)
            several = classes[-1]
            if several.size:
                # a member whose gain improves moves by P g; the others move
                # by r + P h among the actions that keep the gain
                gain_q = (_combine(g[several], c[several]) @ rows.T).reshape(-1, S, A)
                current = np.take_along_axis(gain_q, a[several][..., None], axis=2)
                slack = _IMPROVEMENT_RTOL * np.abs(gain_q).max(axis=(1, 2))[:, None, None]
                gains_up = np.any(gain_q > current + slack, axis=(1, 2))[:, None, None]
                q[several] = np.where(gains_up, gain_q, q[several])
                allowed = np.ones(q.shape, dtype=bool)
                allowed[several] = gains_up | (gain_q >= current - slack)
        improved = _improve(a, q, allowed)
        changed = np.any(improved != a, axis=1)
        actions[live] = improved
        live = live[changed]
    return deterministic_policy(actions, A), (gains, biases)
