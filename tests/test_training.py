import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm.autodiff import Tensor
from swarmcomm.dsl import DetRule, FeatureMap, Program, RandRule, ScoreExpr, feature_names, true_predicate
from swarmcomm.env import GlobalState, RewardParams, TaskConfig, WorldBatch, sample_initial
from swarmcomm.policy import CombinedPolicy, TfFullPolicy
from swarmcomm.training import (
    CurveRow,
    TrainConfig,
    retrain,
    sample_world_batch,
    train_oracle,
    unroll_score,
    validation_score,
    write_curve_csv,
)
from swarmcomm.transformer import init_for_task

from conftest import make_rng
from reference import every_input_backward, simulated_return


def single_agent_sampler(distance: float):
    """Worlds with one agent at `distance` from a random goal (0 = already there)."""

    def sampler(cfg, batch, rng):
        worlds = []
        for _ in range(batch):
            goal = rng.uniform(-3.0, 3.0, size=2)
            if distance == 0.0:
                pos = goal.copy()
            else:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                pos = goal - distance * np.array([np.cos(angle), np.sin(angle)])
            worlds.append(
                GlobalState("random-cross", pos[None, :], goal[None, :], np.zeros(1, dtype=int))
            )
        return worlds

    return sampler


def single_agent_cfg(horizon=50):
    return TaskConfig(
        task_kind="random-cross",
        n_agents_per_group=1,
        horizon=horizon,
        obs_noise_sigma=0.0,
        v_max=0.5,
        dt=0.1,
    )


def eval_mean_loss(params, cfg, sampler, n_eval, seed, discounted=False, gamma=0.99):
    rng = make_rng(seed)
    worlds = sampler(cfg, n_eval, rng)
    policy = TfFullPolicy(params, v_max=cfg.v_max)
    totals = []
    for world in worlds:
        totals.append(simulated_return(policy, cfg, world, rng, gamma=gamma if discounted else 1.0))
    return -float(np.mean(totals))


def nearest_program(state_dim=4, k=1):
    fmap = FeatureMap("v1")
    names = feature_names(fmap, state_dim)
    w = np.zeros(fmap.dim(state_dim))
    w[names.index("d")] = -1.0
    return Program(
        tuple(DetRule(ScoreExpr(tuple(w)), true_predicate(fmap, state_dim)) for _ in range(k)),
        fmap,
    )


class TestUnrollRolloutConsistency:
    """The taped unroll (batch-summed rewards) and one-world rollouts agree."""

    def test_formation_scores_match(self):
        cfg = TaskConfig(
            task_kind="random-cross",
            n_agents_per_group=2,
            horizon=8,
            obs_noise_sigma=0.0,
            group_presence_prob=1.0,
        )
        rng = make_rng(0)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        worlds = sample_world_batch(cfg, 3, rng)
        rewards = RewardParams()
        gamma = 0.97
        score = float(unroll_score(params, worlds, cfg, rewards, gamma, make_rng(1)).data)
        policy = TfFullPolicy(params, v_max=cfg.v_max)
        per_world = [
            simulated_return(policy, cfg, w, make_rng(2), rewards, gamma)
            for w in worlds
        ]
        assert score == pytest.approx(float(np.mean(per_world)), abs=1e-9)

    def test_unlabeled_scores_match(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=6, obs_noise_sigma=0.0)
        rng = make_rng(3)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
        worlds = [sample_initial(cfg, rng) for _ in range(2)]
        gamma = 0.99
        score = float(unroll_score(params, worlds, cfg, RewardParams(), gamma, make_rng(4)).data)
        policy = TfFullPolicy(params, v_max=cfg.v_max)
        per_world = [
            simulated_return(policy, cfg, w, make_rng(5), gamma=gamma)
            for w in worlds
        ]
        assert score == pytest.approx(float(np.mean(per_world)), abs=1e-9)


class TestBackwardMatchesEveryInputWalk:
    """One training iteration's weight gradients are bitwise those of a walk that computes every input's gradient."""

    def _check_iteration(self, cfg, seed, programs=None):
        rng = make_rng(seed)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        worlds = sample_world_batch(cfg, 4, rng)
        tape = ad.Tape()
        weights = {name: tape.leaf(value, requires_grad=True) for name, value in params.store.params.items()}
        score = unroll_score(params, worlds, cfg, RewardParams(), 0.99, rng, programs=programs, tape=tape, weights=weights)
        expected = every_input_backward(tape, score)
        grads = ad.backward(tape, score)
        assert set(grads) == {t.node_id for t in weights.values()}
        for name, t in weights.items():
            assert grads[t.node_id].tobytes() == expected[t.node_id].tobytes(), name
        assert any(np.any(g != 0.0) for g in grads.values())

    def test_crossing(self):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=6, group_presence_prob=1.0)
        self._check_iteration(cfg, seed=40)

    def test_grid_with_lossy_links(self):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=6, link_failure_prob=0.3)
        self._check_iteration(cfg, seed=41)

    def test_retrain_with_a_random_rule(self):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=6, group_presence_prob=1.0)
        fmap = FeatureMap("v1")
        program = Program((RandRule(true_predicate(fmap, 4)), nearest_program().rules[0]), fmap)
        self._check_iteration(cfg, seed=42, programs=[program])


class TestTrainOracle:
    def test_zero_rollouts_returns_initial_params(self):
        cfg = single_agent_cfg(horizon=5)
        rng = make_rng(6)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        frozen = {k: v.copy() for k, v in params.store.params.items()}
        result = train_oracle(cfg, TrainConfig(n_rollouts=0), make_rng(7), params=params)
        for name, value in result.params.store.params.items():
            np.testing.assert_array_equal(value, frozen[name])

    def test_agent_already_at_goal_learns_to_stay(self):
        # analytic optimum is 0 for the stay-still policy; the trained policy
        # must keep |discounted cumulative reward| below 0.05 * horizon
        cfg = single_agent_cfg()
        sampler = single_agent_sampler(0.0)
        train_cfg = TrainConfig(
            n_rollouts=3200, batch_size=16, learning_rate=3e-3, seed=11, val_interval=20
        )
        result = train_oracle(cfg, train_cfg, make_rng(11), world_sampler=sampler)
        loss = eval_mean_loss(result.params, cfg, sampler, 20, seed=99, discounted=True)
        assert loss < 0.05 * cfg.horizon

    def test_straight_line_approach_is_near_optimal(self):
        # greedy closed form: distance D shrinks by v_max*dt per step, so the
        # optimal cumulative loss is sum_t max(D - t*v_max*dt, 0) = 10.5 at D=1
        distance = 1.0
        cfg = single_agent_cfg()
        per_step = cfg.v_max * cfg.dt
        optimum = sum(max(distance - t * per_step, 0.0) for t in range(cfg.horizon))
        assert optimum == pytest.approx(10.5)
        sampler = single_agent_sampler(distance)
        train_cfg = TrainConfig(
            n_rollouts=4800, batch_size=16, learning_rate=3e-3, seed=12, val_interval=20
        )
        result = train_oracle(cfg, train_cfg, make_rng(12), world_sampler=sampler)
        loss = eval_mean_loss(result.params, cfg, sampler, 20, seed=100, discounted=False)
        assert loss <= 1.10 * optimum

    def test_fixed_seed_reproducible_params(self):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=6, obs_noise_sigma=0.05)
        train_cfg = TrainConfig(n_rollouts=32, batch_size=8, seed=5)
        r1 = train_oracle(cfg, train_cfg, make_rng(5))
        r2 = train_oracle(cfg, train_cfg, make_rng(5))
        for name in r1.params.store.params:
            np.testing.assert_array_equal(
                r1.params.store.params[name], r2.params.store.params[name]
            )
        assert [(c.iteration, c.mean_reward) for c in r1.curve] == [
            (c.iteration, c.mean_reward) for c in r2.curve
        ]

    @pytest.mark.parametrize("val_interval", [0, -3])
    def test_val_interval_below_one_rejected(self, val_interval):
        with pytest.raises(ValueError, match="val_interval"):
            TrainConfig(val_interval=val_interval)

    @pytest.mark.parametrize("n_rollouts", [1, 15])
    def test_fewer_rollouts_than_one_batch_rejected(self, n_rollouts):
        # fewer than one batch runs no iteration, so the "trained" params would be the initial ones
        with pytest.raises(ValueError, match=f"^n_rollouts must be 0 or at least the batch size 16, got {n_rollouts}$"):
            TrainConfig(n_rollouts=n_rollouts, batch_size=16)
        assert TrainConfig(n_rollouts=0, batch_size=16).n_iterations == 0
        assert TrainConfig(n_rollouts=16, batch_size=16).n_iterations == 1

    def test_grad_norm_recorded_and_finite(self):
        cfg = single_agent_cfg(horizon=5)
        result = train_oracle(cfg, TrainConfig(n_rollouts=32, batch_size=8), make_rng(13))
        assert len(result.curve) == 4
        assert all(np.isfinite(row.grad_norm) for row in result.curve)
        assert all(np.isfinite(row.mean_reward) for row in result.curve)


class TestLossTrend:
    """Minibatch loss is finite and trends downward over the first 50 iterations."""

    @pytest.mark.parametrize(
        "cfg",
        [
            TaskConfig(task_kind="random-cross", n_agents_per_group=5, horizon=50),
            TaskConfig(task_kind="random-grid", n_agents_per_group=5, horizon=50),
            TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=5, horizon=50),
        ],
        ids=["random-cross", "random-grid", "unlabeled-goals"],
    )
    def test_first_50_iterations_trend_down(self, cfg):
        train_cfg = TrainConfig(n_rollouts=50 * 8, batch_size=8, seed=21, val_interval=100)
        result = train_oracle(cfg, train_cfg, make_rng(21))
        losses = np.array([-row.mean_reward for row in result.curve])
        assert losses.shape == (50,)
        assert np.all(np.isfinite(losses))
        slope = np.polyfit(np.arange(50), losses, 1)[0]
        assert slope < 0.0


class TestRetrain:
    def _cfg_and_oracle(self):
        cfg = TaskConfig(
            task_kind="random-cross",
            n_agents_per_group=2,
            horizon=10,
            group_presence_prob=1.0,
            obs_noise_sigma=0.05,
        )
        rng = make_rng(30)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        return cfg, params

    def test_zero_rollouts_keeps_combined_policy_identical(self):
        cfg, params = self._cfg_and_oracle()
        program = nearest_program()
        result = retrain(params, [program], cfg, TrainConfig(n_rollouts=0), make_rng(31))
        state = sample_initial(cfg, make_rng(32))
        states = WorldBatch.stack([state]).agent_states(state.positions[None])
        obs = Tensor(np.zeros((1, state.n_agents, state.n_agents, 2)))
        before = CombinedPolicy(params, [program], v_max=cfg.v_max).step(states, obs, [make_rng(33)], 0.0)
        after = CombinedPolicy(result.params, [program], v_max=cfg.v_max).step(states, obs, [make_rng(33)], 0.0)
        np.testing.assert_array_equal(before.actions.data, after.actions.data)

    def test_program_arity_checked(self):
        cfg, params = self._cfg_and_oracle()
        with pytest.raises(ValueError):
            retrain(params, [], cfg, TrainConfig(n_rollouts=16), make_rng(34))

    def test_retrain_improves_hardened_validation_score(self):
        cfg, params = self._cfg_and_oracle()
        program = nearest_program()
        before = validation_score(params, cfg, RewardParams(), 0.99, seed=77, batch=8, programs=[program])
        result = retrain(
            params,
            [program],
            cfg,
            TrainConfig(n_rollouts=400, batch_size=8, learning_rate=3e-3, seed=35, val_interval=10),
            make_rng(35),
        )
        after = validation_score(
            result.params, cfg, RewardParams(), 0.99, seed=77, batch=8, programs=[program]
        )
        assert after > before


class TestCurveCsv:
    def test_written_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [CurveRow(0, -1.5, 2.0), CurveRow(1, -1.2, 1.0)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,mean_reward,grad_norm"
        assert lines[1].startswith("0,-1.5")
