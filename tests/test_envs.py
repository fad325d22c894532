"""Environment builders and test-time perturbations."""

import numpy as np
import pytest

from divset import (
    FeatureKind,
    GridSpec,
    Periodic,
    Perturbation,
    PerturbationKind,
    TabularMdp,
    UnreachableGoalError,
    build_chain,
    build_gridworld,
    deterministic_policy,
    four_rooms_spec,
    grid_cells,
    perturb,
    sample_episodes,
)

from helpers import random_mdp


def test_chain_dynamics_and_features():
    mdp = build_chain(5, end_reward=1.5)
    assert (mdp.num_states, mdp.num_actions, mdp.feature_dim) == (5, 3, 1)
    # interior moves
    assert mdp.transition[2, 0, 1] == 1.0
    assert mdp.transition[2, 1, 3] == 1.0
    assert mdp.transition[2, 2, 2] == 1.0
    # boundary clamps
    assert mdp.transition[0, 0, 0] == 1.0
    assert mdp.transition[4, 1, 4] == 1.0
    # reward only for standing on the last state
    expected = np.zeros((5, 3))
    expected[4, :] = 1.5
    assert np.array_equal(mdp.reward, expected)
    # position feature is the raw state index
    assert np.array_equal(mdp.features.ravel(), np.repeat(np.arange(5.0), 3))
    with pytest.raises(ValueError, match="length"):
        build_chain(1)
    with pytest.raises(ValueError, match="feature kind"):
        build_chain(5, FeatureKind.XY_PLUS_GOAL_DISTANCE)


def test_gridworld_walls_bounce_and_slip_mixes():
    spec = GridSpec(width=3, height=1, slip_prob=0.2, goal_cells={(0, 2): 1.0})
    mdp = build_gridworld(spec)
    # moving up from a 1-row grid stays put (after slip mixing, mass is conserved)
    assert np.allclose(mdp.transition.sum(axis=2), 1.0)
    # action 3 (right) from cell 0: 0.8 direct + 0.05 slip-right, plus
    # up/down/stay-equivalents landing back on 0
    assert mdp.transition[0, 3, 1] == pytest.approx(0.8 + 0.2 / 4)
    assert mdp.transition[0, 3, 0] == pytest.approx(0.2 / 4 * 3)
    assert mdp.reward[2, 0] == 1.0


def test_gridworld_base_reward_is_paid_everywhere():
    spec = GridSpec(width=2, height=2, goal_cells={(1, 1): 0.5}, base_reward=0.25)
    mdp = build_gridworld(spec)
    assert np.allclose(mdp.reward[:3], 0.25)
    assert np.allclose(mdp.reward[3], 0.75)  # goal extra stacks on the floor


def test_feature_kinds():
    one_hot = build_gridworld(GridSpec(width=2, height=2, feature_kind=FeatureKind.ONE_HOT_STATE))
    assert np.array_equal(one_hot.features, np.repeat(np.eye(4), 4, axis=0))
    xy = build_gridworld(GridSpec(width=3, height=2))
    assert xy.features.min() == 0.0 and xy.features.max() == 1.0
    assert np.allclose(xy.features[0], [0.0, 0.0])  # cell (0, 0)
    assert np.allclose(xy.features[-1], [1.0, 1.0])  # cell (1, 2), scaled
    with pytest.raises(ValueError, match="goal"):
        build_gridworld(GridSpec(width=2, height=2, feature_kind=FeatureKind.XY_PLUS_GOAL_DISTANCE))
    dist = build_gridworld(
        GridSpec(width=3, height=1, goal_cells={(0, 2): 1.0}, feature_kind=FeatureKind.XY_PLUS_GOAL_DISTANCE)
    )
    assert dist.feature_dim == 3
    assert dist.features[0, 2] == pytest.approx(2.0 / 3.0)  # two steps to the goal


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="slip_prob"):
        build_gridworld(GridSpec(width=2, height=2, slip_prob=1.5))
    with pytest.raises(ValueError, match="goal cell"):
        build_gridworld(GridSpec(width=2, height=2, goal_cells={(5, 5): 1.0}))
    with pytest.raises(ValueError, match="start"):
        build_gridworld(GridSpec(width=2, height=2, start=(3, 0)))
    with pytest.raises(ValueError, match="base_reward"):
        build_gridworld(GridSpec(width=2, height=2, base_reward=-1.0))


def test_four_rooms_geometry():
    spec = four_rooms_spec()
    assert (spec.width, spec.height) == (9, 9)
    assert spec.start == (0, 0)
    assert spec.base_reward == 0.5
    # the dividing row and column minus four doors
    assert len(spec.walls) == 13
    for door in ((4, 2), (4, 6), (2, 4), (6, 4)):
        assert door not in spec.walls
    cells = grid_cells(spec)
    assert len(cells) == 81 - 13
    # all four corners carry peak extras on top of the floor
    assert spec.goal_cells[(8, 8)] == pytest.approx(0.5)
    assert spec.goal_cells[(0, 0)] == pytest.approx(0.47)
    assert spec.goal_cells[(8, 0)] == pytest.approx(0.40)
    assert spec.goal_cells[(0, 8)] == pytest.approx(0.40)
    # graded rims decay per step toward the floor
    assert spec.goal_cells[(0, 1)] == pytest.approx(0.97 * 0.9 - 0.5)
    mdp = build_gridworld(spec)
    assert mdp.num_states == 68


def test_action_failure_mixes_toward_staying_put():
    mdp = build_chain(4)
    p = Perturbation(kind=PerturbationKind.ACTION_FAILURE, magnitude=0.3)
    out = perturb(mdp, p, seed=0)
    stay = np.zeros_like(mdp.transition)
    stay[np.arange(4), :, np.arange(4)] = 1.0
    assert np.allclose(out.transition, 0.7 * mdp.transition + 0.3 * stay)
    assert np.array_equal(out.reward, mdp.reward)
    assert out.unperturbed is mdp
    # magnitude zero is the identity
    zero = perturb(mdp, Perturbation(kind=PerturbationKind.ACTION_FAILURE, magnitude=0.0), seed=0)
    assert np.allclose(zero.transition, mdp.transition)
    with pytest.raises(ValueError, match="magnitude"):
        perturb(mdp, Perturbation(kind=PerturbationKind.ACTION_FAILURE, magnitude=1.5), seed=0)


def test_a_perturbation_checks_its_magnitude_against_its_kind():
    for kind in PerturbationKind:
        Perturbation(kind=kind, magnitude=0.0)
        Perturbation(kind=kind, magnitude=1.0)
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError, match=f"{kind.value} magnitude"):
                Perturbation(kind=kind, magnitude=bad)
        # probabilities and fractions end at 1; RewardShift's radius does not
        if kind == PerturbationKind.REWARD_SHIFT:
            Perturbation(kind=kind, magnitude=7.0)
        else:
            with pytest.raises(ValueError, match=r"must be in \[0, 1\], got 1.5"):
                Perturbation(kind=kind, magnitude=1.5)


def test_action_remap_permutes_whole_states():
    mdp = build_chain(6, end_reward=1.0)
    p = Perturbation(kind=PerturbationKind.ACTION_REMAP, magnitude=1.0)
    out = perturb(mdp, p, seed=3)
    changed = 0
    for s in range(6):
        # rows are permutations of the original action rows of the same state
        orig = {tuple(mdp.transition[s, a]) for a in range(3)}
        new = {tuple(out.transition[s, a]) for a in range(3)}
        assert orig == new
        assert sorted(out.reward[s]) == sorted(mdp.reward[s])
        if not np.array_equal(out.transition[s], mdp.transition[s]):
            changed += 1
    assert changed > 0
    half = perturb(mdp, Perturbation(kind=PerturbationKind.ACTION_REMAP, magnitude=0.5), seed=3)
    untouched = sum(
        np.array_equal(half.transition[s], mdp.transition[s]) for s in range(6)
    )
    assert untouched >= 3  # floor(0.5 * 6) = 3 states drawn for remapping


def test_grid_level_perturbations_require_the_grid_spec():
    mdp = build_chain(4)
    for kind in (
        PerturbationKind.SLIP_INCREASE,
        PerturbationKind.REWARD_SHIFT,
        PerturbationKind.BLOCK_CELLS,
    ):
        with pytest.raises(ValueError, match="GridSpec"):
            perturb(mdp, Perturbation(kind=kind, magnitude=0.1), seed=0)


def test_slip_increase_rebuilds_the_grid():
    spec = GridSpec(width=3, height=3, slip_prob=0.1, goal_cells={(2, 2): 1.0})
    mdp = build_gridworld(spec)
    p = Perturbation(kind=PerturbationKind.SLIP_INCREASE, magnitude=0.2)
    out = perturb(mdp, p, seed=0, grid_spec=spec)
    bumped = build_gridworld(
        GridSpec(width=3, height=3, slip_prob=0.3, goal_cells={(2, 2): 1.0})
    )
    assert np.allclose(out.transition, bumped.transition)
    assert np.array_equal(out.reward, bumped.reward)


def test_reward_shift_radius_zero_is_the_identity():
    spec = GridSpec(width=3, height=3, goal_cells={(2, 2): 1.0}, base_reward=0.1)
    mdp = build_gridworld(spec)
    p = Perturbation(kind=PerturbationKind.REWARD_SHIFT, magnitude=0.0)
    out = perturb(mdp, p, seed=5, grid_spec=spec)
    assert np.allclose(out.reward, mdp.reward)
    assert np.allclose(out.transition, mdp.transition)


def test_reward_shift_preserves_the_goal_mass():
    spec = GridSpec(width=4, height=4, goal_cells={(3, 3): 1.0}, base_reward=0.1)
    mdp = build_gridworld(spec)
    p = Perturbation(kind=PerturbationKind.REWARD_SHIFT, magnitude=2.0)
    out = perturb(mdp, p, seed=5, grid_spec=spec)
    extras = out.reward[:, 0] - 0.1
    assert extras.max() == pytest.approx(1.0)
    assert (extras > 1e-12).sum() == 1  # the single goal moved somewhere


def test_block_cells_bounces_and_detects_stranded_starts():
    spec = GridSpec(width=5, height=1, goal_cells={(0, 4): 1.0}, start=(0, 0))
    mdp = build_gridworld(spec)
    # blocking every unprotected cell cuts the only corridor
    p = Perturbation(kind=PerturbationKind.BLOCK_CELLS, magnitude=1.0)
    with pytest.raises(UnreachableGoalError):
        perturb(mdp, p, seed=0, grid_spec=spec)
    # a partial block keeps rows stochastic and rewards intact where open
    spec2 = GridSpec(width=4, height=4, goal_cells={(3, 3): 1.0}, start=(0, 0))
    mdp2 = build_gridworld(spec2)
    out = perturb(
        mdp2, Perturbation(kind=PerturbationKind.BLOCK_CELLS, magnitude=0.2), seed=1, grid_spec=spec2
    )
    assert np.allclose(out.transition.sum(axis=2), 1.0)
    # a blocked cell self-loops under every action; no open cell does
    blocked = [
        s
        for s in range(16)
        if np.all(out.transition[s, :, s] == 1.0)
        and not np.all(mdp2.transition[s, :, s] == 1.0)
    ]
    assert len(blocked) == 2  # floor(0.2 * 14) unprotected cells blocked
    for s in blocked:
        assert np.all(out.reward[s] == 0.0)


def test_periodic_schedule_expands_the_clock():
    mdp = build_chain(3, end_reward=1.0)
    sched = Periodic(period=2, duration=1)
    p = Perturbation(kind=PerturbationKind.ACTION_FAILURE, magnitude=1.0, schedule=sched)
    out = perturb(mdp, p, seed=0)
    # the clock is the step index: the dynamics stay on the base states
    assert out.num_states == 3
    assert out.schedule == sched and out.unperturbed is mdp
    assert out.transition[1, 1, 1] == 1.0
    assert np.array_equal(out.reward, mdp.reward)
    right = deterministic_policy(np.full(3, 1, dtype=int), 3)
    rngs = [np.random.default_rng(seed) for seed in range(10)]
    paths, _, rewards = sample_episodes(out, right, 8, rngs)
    for path, episode_rewards in zip(paths, rewards):
        for t in range(8):
            s = path[t]
            # phase 0 is active: full failure freezes the state;
            # phase 1 is inactive: ordinary dynamics move right
            expected = s if t % 2 == 0 else min(s + 1, 2)
            assert path[t + 1] == expected
            # rewards follow the dynamics in force at each phase
            assert episode_rewards[t] == (1.0 if s == 2 else 0.0)


def test_rollout_on_a_clock_expanded_mdp_uses_base_state_indexing():
    mdp = build_chain(3, end_reward=1.0)
    sched = Periodic(period=3, duration=1)
    p = Perturbation(kind=PerturbationKind.ACTION_FAILURE, magnitude=1.0, schedule=sched)
    out = perturb(mdp, p, seed=0)
    policy = deterministic_policy(np.full(3, 1, dtype=int), 3)  # indexed by base states
    rngs = [np.random.default_rng(seed) for seed in range(10)]
    paths, actions, _ = sample_episodes(out, policy, 9, rngs)
    assert paths.shape == (10, 10)
    assert np.all((paths >= 0) & (paths < 3))
    assert np.array_equal(actions, np.full((10, 9), 1))
    for path in paths:
        states = path[:-1]
        # the clock phase advances by one every step: only steps 0, 3, 6 freeze
        moved = path[1:] != states
        assert not np.any(moved[::3])
        assert np.array_equal(moved, (np.arange(9) % 3 != 0) & (states < 2))


def _clock_expanded(mdp: TabularMdp, perturbed: TabularMdp, sched: Periodic) -> TabularMdp:
    """Reference: the (state, phase) MDP that realises a Periodic schedule.

    State s at phase k is index s * period + k. Every step advances the
    phase by one; the perturbed dynamics apply in active phases.
    """
    S, A, period = mdp.num_states, mdp.num_actions, sched.period
    SE = S * period
    transition = np.zeros((SE, A, SE))
    reward = np.zeros((SE, A))
    states = np.arange(S)
    for phase in range(period):
        src = states * period + phase
        dst = states * period + (phase + 1) % period
        now = perturbed if sched.active(phase) else mdp
        transition[np.ix_(src, np.arange(A), dst)] = now.transition
        reward[src] = now.reward
    initial = np.zeros(SE)
    initial[states * period] = mdp.initial_dist
    return TabularMdp(
        transition=transition,
        reward=reward,
        features=np.repeat(mdp.features.reshape(S, A, -1), period, axis=0).reshape(SE * A, -1),
        discount=mdp.discount,
        initial_dist=initial,
    )


def test_periodic_rollouts_match_the_clock_expanded_mdp():
    mdp = random_mdp(np.random.default_rng(3), 5, 3, 2)
    remap = Perturbation(kind=PerturbationKind.ACTION_REMAP, magnitude=1.0)
    always = perturb(mdp, remap, seed=0)
    assert not np.array_equal(always.reward, mdp.reward)
    probs = np.random.default_rng(4).dirichlet(np.ones(3), size=5)
    for sched in (Periodic(period=3, duration=1), Periodic(period=4, duration=2, start=3)):
        scheduled = perturb(mdp, Perturbation(remap.kind, remap.magnitude, sched), seed=0)
        oracle = _clock_expanded(mdp, always, sched)
        oracle_policy = np.repeat(probs, sched.period, axis=0)
        got = sample_episodes(scheduled, probs, 30, [np.random.default_rng(s) for s in range(20)])
        ref = sample_episodes(oracle, oracle_policy, 30, [np.random.default_rng(s) for s in range(20)])
        (path, actions, rewards), (ref_path, ref_actions, ref_rewards) = got, ref
        assert np.array_equal(path, ref_path // sched.period)
        assert np.array_equal(actions, ref_actions)
        assert np.array_equal(rewards, ref_rewards)
        features = mdp.features[path[:, :-1] * 3 + actions]
        assert np.array_equal(features, oracle.features[ref_path[:, :-1] * 3 + ref_actions])
    # a long period costs no memory: the dynamics stay on the base states
    long = perturb(mdp, Perturbation(remap.kind, remap.magnitude, Periodic(50, 1, 49)), seed=0)
    assert long.transition.shape == mdp.transition.shape


def test_periodic_validation():
    with pytest.raises(ValueError):
        Periodic(period=2, duration=3)
    with pytest.raises(ValueError):
        Periodic(period=2, duration=1, start=2)
    assert Periodic(period=4, duration=2, start=1).active(1)
    assert not Periodic(period=4, duration=2, start=1).active(3)
