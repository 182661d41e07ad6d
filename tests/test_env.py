
import numpy as np
import pytest

from swarmcomm import env
from swarmcomm.autodiff import Tensor
from swarmcomm.dsl import eval_program, parse_program
from swarmcomm.env import (
    EnvError,
    GlobalState,
    PolicyStep,
    RewardParams,
    TaskConfig,
    WorldBatch,
    advance,
    apply_link_failure,
    check_actions,
    rollout,
    sample_initial,
    step_rewards,
    world_step,
)
from swarmcomm.policy import CombinedPolicy
from swarmcomm.transformer import init_for_task

from conftest import make_rng
from reference import mask_from_selections, trajectory_return


def cross_cfg(**kw):
    defaults = dict(task_kind="random-cross", n_agents_per_group=2, horizon=5)
    defaults.update(kw)
    return TaskConfig(**defaults)


def formation_state(positions, goals):
    positions = np.asarray(positions, dtype=float)
    return GlobalState("random-cross", positions, np.asarray(goals, dtype=float), np.zeros(len(positions), dtype=int))


class ZeroPolicy:
    """Stays put and never communicates; formation tasks only."""

    name = "zero"
    full_comm = False

    def step(self, states, obs, rngs, p_fail, goal_perm_inv=None, weights=None):
        b, n = states.shape[0], states.shape[1]
        delivered = apply_link_failure(np.zeros((b, n, n), dtype=bool), p_fail, rngs)
        return PolicyStep(
            actions=Tensor(np.zeros((b, n, 2))),
            delivered=[delivered],
            attentions=[np.zeros((b, n, n))],
            messages=[np.zeros((b, n, n, 1))],
        )


def observe(state, sigma, rng):
    """One world's observations through the batched step."""
    cfg = cross_cfg(obs_noise_sigma=sigma)
    out = world_step(ZeroPolicy(), cfg, RewardParams(), WorldBatch.stack([state]), Tensor(state.positions[None]), [rng])
    return out.obs.data[0]


def step(state, actions, cfg):
    """One world's next positions under the given actions."""
    batch = WorldBatch.stack([state])
    return advance(batch.positions, batch.goals, np.asarray(actions, dtype=float)[None], cfg).data[0]


def reward_formation(state, params):
    pos = state.positions[None]
    rel = pos[:, None, :, :] - pos[:, :, None, :]
    return step_rewards(pos, rel, state.goals[None], None, True, params).per_world()[0]


def reward_unlabeled(weights):
    return step_rewards(None, None, None, np.asarray(weights, dtype=float)[None], False, RewardParams()).per_world()[0]


class TestTaskConfig:
    def test_validation(self):
        with pytest.raises(EnvError):
            TaskConfig(horizon=0)
        with pytest.raises(EnvError):
            TaskConfig(obs_noise_sigma=-1.0)
        with pytest.raises(EnvError):
            TaskConfig(group_presence_prob=1.5)
        with pytest.raises(EnvError):
            TaskConfig(task_kind="nope")

    def test_json_roundtrip(self, tmp_path):
        cfg = cross_cfg(obs_noise_sigma=0.1, min_groups=2)
        rewards = RewardParams(collision_weight=2.0)
        path = tmp_path / "cfg.json"
        env.save_config(path, cfg, rewards)
        cfg2, rewards2 = env.load_config(path)
        assert cfg2 == cfg
        assert rewards2 == rewards

    def test_rounds_by_task(self):
        assert cross_cfg().comm_rounds == 1
        assert TaskConfig(task_kind="unlabeled-goals").comm_rounds == 2


class TestSampleInitial:
    def test_cross_all_groups_goal_is_negated_start_center(self):
        # presence 1 -> exactly 4 groups; each goal box center = -(start center)
        cfg = cross_cfg(group_presence_prob=1.0, box_half_width=0.5, box_offset=4.0)
        rng = make_rng(1)
        for _ in range(10):
            state = sample_initial(cfg, rng)
            assert state.n_agents == 8
            assert sorted(set(state.group_ids.tolist())) == [0, 1, 2, 3]
            centers = 4.0 * np.array([(-1, 0), (0, -1), (1, 0), (0, 1)], dtype=float)
            for g in range(4):
                members = state.group_ids == g
                assert np.all(np.abs(state.positions[members] - centers[g]) <= 0.5 + 1e-12)
                assert np.all(np.abs(state.goals[members] + centers[g]) <= 0.5 + 1e-12)

    def test_cross_zero_presence_rejected(self):
        cfg = cross_cfg(group_presence_prob=0.0)
        with pytest.raises(EnvError):
            sample_initial(cfg, make_rng(0))

    def test_cross_respects_min_groups(self):
        cfg = cross_cfg(group_presence_prob=0.33, min_groups=2)
        rng = make_rng(2)
        for _ in range(50):
            state = sample_initial(cfg, rng)
            assert len(set(state.group_ids.tolist())) >= 2

    def test_grid_goal_boxes_distinct_and_adjacent(self):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=2, box_offset=4.0, box_half_width=0.5)
        rng = make_rng(3)
        starts = np.array([(-1, 0), (0, 0), (1, 0)], dtype=float)
        for _ in range(50):
            state = sample_initial(cfg, rng)
            cells = []
            for g in range(3):
                members = state.group_ids == g
                center = np.round(np.mean(state.goals[members], axis=0) / 4.0)
                cells.append(tuple(center))
                # 4-adjacency to the group's start box
                assert abs(center - starts[g]).sum() == pytest.approx(1.0)
                assert np.all(np.abs(state.goals[members] - 4.0 * center) <= 0.5 + 1e-12)
            assert len(set(cells)) == 3

    def test_unlabeled_single_agent_goal_list(self):
        # N=1: the only goal is trivially the nearest
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=1)
        state = sample_initial(cfg, make_rng(4))
        assert state.goal_order.tolist() == [[0]]
        states = WorldBatch.stack([state]).agent_states(state.positions[None]).data
        np.testing.assert_array_equal(states[0, 0, 2:], state.goals[0])

    def test_unlabeled_goal_order_is_distance_sorted(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=5)
        state = sample_initial(cfg, make_rng(5))
        for i in range(5):
            d = np.linalg.norm(state.goals[state.goal_order[i]] - state.positions[i], axis=1)
            assert np.all(np.diff(d) >= -1e-12)

    def test_goal_perm_inv_inverts_order(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=4)
        state = sample_initial(cfg, make_rng(6))
        inv = state.goal_perm_inv()
        for i in range(4):
            np.testing.assert_array_equal(state.goal_order[i][inv[i]], np.arange(4))


class TestObserve:
    def test_zero_noise_relative_positions(self):
        state = formation_state([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
        obs = observe(state, 0.0, make_rng(0))
        np.testing.assert_allclose(obs[0, 1], [3.0, 4.0])
        np.testing.assert_allclose(obs[1, 0], [-3.0, -4.0])
        np.testing.assert_allclose(obs[0, 0], [0.0, 0.0])

    def test_zero_noise_antisymmetry(self):
        rng = make_rng(7)
        positions = rng.normal(size=(6, 2))
        state = formation_state(positions, positions)
        obs = observe(state, 0.0, rng)
        np.testing.assert_allclose(obs, -obs.transpose(1, 0, 2), atol=1e-12)

    def test_noise_is_unbiased(self):
        # law of large numbers: mean of o[0,1] - (x1 - x0) within 3*sigma/sqrt(n);
        # 10^5 copies of the world stepped at once from one generator
        sigma = 0.1
        n_samples = 100_000
        state = formation_state([[0.0, 0.0], [1.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]])
        rng = make_rng(8)
        batch = WorldBatch.stack([state] * n_samples)
        out = world_step(ZeroPolicy(), cross_cfg(obs_noise_sigma=sigma), RewardParams(), batch,
                         Tensor(batch.positions), [rng] * n_samples)
        noise = out.obs.data[:, 0, 1] - np.array([1.0, 2.0])
        bound = 3.0 * sigma / np.sqrt(n_samples)
        assert np.all(np.abs(noise.mean(axis=0)) < bound)

    def test_diagonal_is_exactly_zero_with_noise(self):
        state = formation_state([[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        obs = observe(state, 5.0, make_rng(9))
        np.testing.assert_array_equal(obs[np.arange(2), np.arange(2)], np.zeros((2, 2)))


class TestStep:
    def test_formation_integration(self):
        cfg = cross_cfg(dt=0.1)
        state = formation_state([[0.0, 0.0]], [[1.0, 1.0]])
        nxt = step(state, [[0.5, 0.0]], cfg)
        np.testing.assert_allclose(nxt, [[0.05, 0.0]])

    def test_zero_action_is_fixed_point(self):
        cfg = cross_cfg()
        state = formation_state([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
        nxt = step(state, np.zeros((2, 2)), cfg)
        np.testing.assert_array_equal(nxt, state.positions)

    def test_unlabeled_convex_combination(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=2, dt=1.0, v_max=10.0)
        state = GlobalState(
            "unlabeled-goals",
            positions=[[0.0, 0.0], [5.0, 5.0]],
            goals=[[2.0, 0.0], [0.0, 2.0]],
            group_ids=[0, 0],
            goal_order=[[0, 1], [0, 1]],
        )
        nxt = step(state, [[0.5, 0.5], [1.0, 0.0]], cfg)
        np.testing.assert_allclose(nxt[0], [1.0, 1.0])
        np.testing.assert_allclose(nxt[1], [2.0, 0.0])

    def test_unlabeled_velocity_in_convex_hull(self):
        rng = make_rng(10)
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, dt=1.0)
        state = GlobalState(
            "unlabeled-goals",
            positions=rng.normal(size=(3, 2)),
            goals=rng.normal(size=(3, 2)),
            group_ids=[0, 0, 0],
            goal_order=[[0, 1, 2]] * 3,
        )
        w = rng.dirichlet(np.ones(3), size=3)
        nxt = step(state, w, cfg)
        velocity = nxt - state.positions
        for i in range(3):
            directions = state.goals - state.positions[i]
            # velocity must be reproducible as a convex combination of goal offsets
            np.testing.assert_allclose(velocity[i], w[i] @ directions, atol=1e-12)

    def test_non_finite_action_rejected(self):
        cfg = cross_cfg()
        with pytest.raises(EnvError):
            check_actions(np.array([[[np.nan, 0.0]]]), cfg)

    def test_velocity_above_vmax_rejected(self):
        cfg = cross_cfg(v_max=0.5)
        with pytest.raises(EnvError):
            check_actions(np.array([[[1.0, 0.0]]]), cfg)


class TestRewards:
    def test_all_at_goals_no_collisions(self):
        state = formation_state([[0.0, 0.0], [10.0, 10.0]], [[0.0, 0.0], [10.0, 10.0]])
        r = reward_formation(state, RewardParams(1.0, 1.0))
        assert r == pytest.approx(0.0)

    def test_single_agent_unit_distance(self):
        state = formation_state([[0.0, 0.0]], [[1.0, 0.0]])
        r = reward_formation(state, RewardParams())
        assert r == pytest.approx(-1.0)

    def test_coincident_pair_hinge(self):
        # brute force over ordered pairs: hinge = max(1*(2 - 0/1), 0) = 2 per
        # ordered pair, two ordered pairs -> collision term 4, distances 0
        state = formation_state([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])
        r = reward_formation(state, RewardParams(1.0, 1.0))
        assert r == pytest.approx(-4.0)

    def test_collision_term_nonnegative_total_nonpositive(self):
        rng = make_rng(11)
        params = RewardParams(0.7, 0.4)
        for _ in range(100):
            pos = rng.normal(size=(4, 2))
            goals = rng.normal(size=(4, 2))
            state = formation_state(pos, goals)
            r = reward_formation(state, params)
            assert r <= 1e-12

    def test_unlabeled_perfect_cover(self):
        assert reward_unlabeled([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0)

    def test_unlabeled_shared_goal(self):
        assert reward_unlabeled([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(-1.0)

    def test_unlabeled_split_weights(self):
        assert reward_unlabeled([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(-1.0)


class TestLinkFailure:
    def test_p_zero_keeps_everything(self):
        sel = mask_from_selections([{1, 2}, {0}, set()])[None]
        out = apply_link_failure(sel, 0.0, [make_rng(0)])
        np.testing.assert_array_equal(out, sel)

    def test_p_one_drops_everything(self):
        sel = mask_from_selections([{1, 2}, {0}, {0, 1}])[None]
        out = apply_link_failure(sel, 1.0, [make_rng(0)])
        assert not out.any()

    def test_delivered_subset_of_requested(self):
        rng = make_rng(12)
        sel = rng.random((3, 20, 20)) < 0.25
        out = apply_link_failure(sel, 0.3, [rng] * 3)
        assert not (out & ~sel).any()

    def test_half_failure_fraction(self):
        # binomial bound: 10^4 edges at p=0.5 -> delivered fraction 0.5 +/- 0.02
        rng = make_rng(13)
        out = apply_link_failure(np.ones((1, 100, 100), dtype=bool), 0.5, [rng])
        frac = out.sum() / 10_000
        assert abs(frac - 0.5) < 0.02

    def test_each_world_draws_from_its_own_generator(self):
        # world b's block is the first (N, N) draw of rngs[b], whoever shares the batch
        sel = np.ones((3, 4, 4), dtype=bool)
        out = apply_link_failure(sel, 0.4, [make_rng(s) for s in (5, 6, 7)])
        for b, seed in enumerate((5, 6, 7)):
            np.testing.assert_array_equal(out[b], make_rng(seed).random((4, 4)) >= 0.4)


class TestRollout:
    def test_length_and_reward_count(self):
        cfg = cross_cfg(horizon=1, group_presence_prob=1.0)
        traj = rollout(ZeroPolicy(), cfg, make_rng(0))
        assert len(traj) == 1
        assert np.isfinite(traj.steps[0].reward)

    def test_fixed_seed_is_bit_identical(self):
        cfg = cross_cfg(horizon=4, group_presence_prob=1.0, obs_noise_sigma=0.1)
        t1 = rollout(ZeroPolicy(), cfg, make_rng(42))
        t2 = rollout(ZeroPolicy(), cfg, make_rng(42))
        assert np.array_equal(t1.final_state.positions, t2.final_state.positions)
        for s1, s2 in zip(t1.steps, t2.steps):
            assert np.array_equal(s1.obs, s2.obs)
            assert s1.reward == s2.reward

    def test_zero_velocity_policy_closed_form_loss(self):
        # stationary agents far apart: cumulative loss = T * sum_i |x0_i - g_i|
        cfg = cross_cfg(horizon=7, group_presence_prob=1.0, n_agents_per_group=1, obs_noise_sigma=0.0)
        rng = make_rng(14)
        traj = rollout(ZeroPolicy(), cfg, rng)
        start = traj.steps[0].state
        expected = -cfg.horizon * np.linalg.norm(start.positions - start.goals, axis=1).sum()
        assert trajectory_return(traj) == pytest.approx(expected)

    def test_spawned_streams_are_order_independent(self):
        # the concurrency contract: per-rollout generators spawned from one
        # master seed give the same trajectories whatever order they run in
        cfg = cross_cfg(horizon=3, group_presence_prob=1.0, obs_noise_sigma=0.1)
        forward = [
            rollout(ZeroPolicy(), cfg, rng) for rng in env.spawn_rollout_rngs(99, 4)
        ]
        reversed_runs = [
            rollout(ZeroPolicy(), cfg, rng) for rng in reversed(env.spawn_rollout_rngs(99, 4))
        ]
        for t1, t2 in zip(forward, reversed(reversed_runs)):
            assert np.array_equal(t1.final_state.positions, t2.final_state.positions)
            assert trajectory_return(t1) == trajectory_return(t2)


class TestWorldStep:
    def test_draw_order_noise_then_rule_uniforms_then_link_block(self):
        cfg = cross_cfg(group_presence_prob=1.0, obs_noise_sigma=0.2, link_failure_prob=0.3)
        params = init_for_task(cfg, make_rng(1), key_dim=4, msg_dim=4, hidden_dim=8)
        program = parse_program(
            "#dsl v1 features=V1 rules=2 state_dim=4\n"
            "argmax(map(-d, filter(theta >= -1.85, l)))\n"
            "random(filter(d >= 0.5, l))\n"
        )
        policy = CombinedPolicy(params, [program], v_max=cfg.v_max)
        state = sample_initial(cfg, make_rng(2))
        n = state.n_agents
        rng = make_rng(3)
        out = world_step(policy, cfg, RewardParams(), WorldBatch.stack([state]), Tensor(state.positions[None]), [rng])
        ref = make_rng(3)
        noise = 0.2 * ref.standard_normal((n, n, 2))
        rand_u = np.zeros((1, n, 2))
        rand_u[0, :, 1] = ref.random(n)
        link_u = ref.random((n, n))
        assert rng.random() == ref.random()  # nothing else was drawn
        off = ~np.eye(n, dtype=bool)
        rel = state.positions[None, :, :] - state.positions[:, None, :]
        np.testing.assert_array_equal(out.obs.data[0][off], (rel + noise)[off])
        requested = eval_program(program, out.states.data, out.obs.data, rand_u)[0]
        np.testing.assert_array_equal(out.policy.delivered[0][0], requested & (link_u >= 0.3))
