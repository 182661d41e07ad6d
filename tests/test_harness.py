import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from swarmcomm import cli, env, harness
from swarmcomm.autodiff import Tensor
from swarmcomm.env import PolicyStep, RewardParams, TaskConfig, apply_link_failure
from swarmcomm.harness import (
    DEFAULT_GRID,
    HarnessError,
    Metrics,
    RunManifest,
    SweepCell,
    evaluate,
    evaluate_many,
    file_sha256,
    metrics_to_csv,
    metrics_to_json,
    report,
    resolve_seed,
    select_best_cell,
    sweep,
)
from swarmcomm.dsl import CommGraph, degree_stats, parse_program
from swarmcomm.env import rollout
from swarmcomm.jsondoc import DecodeError
from swarmcomm.policy import CombinedPolicy, StackedPolicy, TfFullPolicy, make_policy
from swarmcomm.synth import SynthConfig, collect_dataset
from swarmcomm.transformer import init_for_task

from conftest import make_rng
from reference import graph_mask, mask_from_selections, metrics_from_json, save_config, trajectory_return


class ConstantGraphPolicy:
    """Scripted policy with a fixed communication graph; formation tasks."""

    name = "scripted"
    full_comm = False

    def __init__(self, selections):
        self.selections = selections

    def step(self, states, obs, rngs, p_fail, goal_perm_inv=None, weights=None):
        b, n = states.shape[0], states.shape[1]
        requested = np.broadcast_to(mask_from_selections(self.selections), (b, n, n))
        return PolicyStep(
            actions=Tensor(np.zeros((b, n, 2))),
            delivered=[apply_link_failure(requested, p_fail, rngs)],
            attentions=[np.zeros((b, n, n))],
            messages=[np.zeros((b, n, n, 1))],
        )


def small_cfg(**kw):
    defaults = dict(
        task_kind="random-cross",
        n_agents_per_group=1,
        horizon=4,
        group_presence_prob=1.0,
        obs_noise_sigma=0.05,
    )
    defaults.update(kw)
    return TaskConfig(**defaults)


def metrics_fixture(policy, loss, degree):
    return Metrics(
        policy=policy,
        task="random-cross",
        seed=0,
        n_rollouts=10,
        loss_mean=loss,
        loss_std=0.1,
        in_deg_mean=degree / 2,
        in_deg_std=0.0,
        out_deg_mean=degree / 2,
        out_deg_std=0.0,
        total_deg_mean=degree,
        total_deg_std=0.0,
        combined_J=-loss,
        comm_weight=1.0,
    )


class TestEvaluate:
    def test_single_agent_world_has_zero_degree(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=1, horizon=3)
        params = init_for_task(cfg, make_rng(0), key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
        metrics = evaluate(TfFullPolicy(params), cfg, 3, 1.0, 0)
        assert metrics.full_comm
        assert metrics.total_deg_mean == 0.0

    def test_fixed_seed_identical_metrics(self):
        cfg = small_cfg()
        params = init_for_task(cfg, make_rng(1), key_dim=4, msg_dim=4, hidden_dim=8)
        policy = TfFullPolicy(params, v_max=cfg.v_max)
        m1 = evaluate(policy, cfg, 5, 1.0, 17)
        m2 = evaluate(policy, cfg, 5, 1.0, 17)
        assert m1 == m2

    def test_scripted_graph_matches_hand_counts(self):
        # agent 0 hears 1 and 2; agent 1 hears 0: degrees by hand:
        # node0 in2 out1 -> 3, node1 in1 out1 -> 2, node2 in0 out1 -> 1, node3 0
        cfg = small_cfg()
        policy = ConstantGraphPolicy([{1, 2}, {0}, set(), set()])
        metrics = evaluate(policy, cfg, 4, 1.0, 3, verify_degrees=True)
        assert metrics.in_deg_mean == pytest.approx(2.0)
        assert metrics.out_deg_mean == pytest.approx(1.0)
        assert metrics.total_deg_mean == pytest.approx(3.0)
        assert metrics.in_deg_std == pytest.approx(0.0)

    def test_combined_objective_uses_comm_weight(self):
        cfg = small_cfg(obs_noise_sigma=0.0)
        policy = ConstantGraphPolicy([{1}, set(), set(), set()])
        m1 = evaluate(policy, cfg, 2, 1.0, 5, gamma=0.99)
        m2 = evaluate(policy, cfg, 2, 2.0, 5, gamma=0.99)
        # one edge -> per-step max degree 1, summed over 4 steps: J drops by 4
        assert m1.combined_J - m2.combined_J == pytest.approx(4.0)

    def test_full_comm_reports_zero_degrees(self):
        cfg = small_cfg()
        params = init_for_task(cfg, make_rng(2), key_dim=4, msg_dim=4, hidden_dim=8)
        metrics = evaluate(TfFullPolicy(params, v_max=cfg.v_max), cfg, 2, 1.0, 7)
        assert metrics.full_comm
        assert metrics.in_deg_mean == 0.0
        assert metrics.out_deg_mean == 0.0
        assert metrics.total_deg_mean == 0.0

    def test_rollout_count_validated(self):
        cfg = small_cfg()
        with pytest.raises(HarnessError):
            evaluate(ConstantGraphPolicy([set()] * 4), cfg, 0, 1.0, 0)

    def test_rollout_peak_degree_logged(self):
        # constant graph: the whole-rollout max equals the per-step mean
        cfg = small_cfg()
        policy = ConstantGraphPolicy([{1, 2}, {0}, set(), set()])
        metrics = evaluate(policy, cfg, 3, 1.0, 11)
        assert metrics.rollout_max_deg_mean == pytest.approx(3.0)
        assert metrics.rollout_max_deg_mean >= metrics.total_deg_mean


def lossy_cross_setup():
    """Crossing worlds of mixed agent counts, one random rule, lossy links."""
    cfg = TaskConfig(
        task_kind="random-cross", n_agents_per_group=2, horizon=6, group_presence_prob=0.5,
        obs_noise_sigma=0.2, link_failure_prob=0.3,
    )
    params = init_for_task(cfg, make_rng(60), key_dim=4, msg_dim=4, hidden_dim=8)
    program = parse_program(
        "#dsl v1 features=V1 rules=2 state_dim=4\n"
        "argmax(map(-d, filter(theta >= -1.85, l)))\n"
        "random(filter(d >= 0.5, l))\n"
    )
    return cfg, CombinedPolicy(params, [program], v_max=cfg.v_max)


class TestLockstep:
    def test_lockstep_evaluate_equals_one_stream_at_a_time(self):
        cfg, policy = lossy_cross_setup()
        n_rollouts, seed = 8, 61
        trajs = [rollout(policy, cfg, g) for g in env.spawn_rollout_rngs(seed, n_rollouts)]
        assert len({t.steps[0].state.n_agents for t in trajs}) > 1
        # the same streams stepped in lockstep, grouped by agent count as evaluate groups them
        rngs = env.spawn_rollout_rngs(seed, n_rollouts)
        starts = [env.sample_initial(cfg, g) for g in rngs]
        for n in sorted({s.n_agents for s in starts}):
            members = [k for k, s in enumerate(starts) if s.n_agents == n]
            steps = env.simulate(policy, cfg, [starts[k] for k in members], [rngs[k] for k in members])
            for t, (out, rewards) in enumerate(steps):
                for b, k in enumerate(members):
                    for r, delivered in enumerate(out.policy.delivered):
                        assert trajs[k].steps[t].round_graphs[r].edges == CommGraph.from_mask(delivered[b]).edges
                    assert rewards[b] == pytest.approx(trajs[k].steps[t].reward, rel=1e-12)
        metrics = evaluate(policy, cfg, n_rollouts, 1.0, seed)
        losses = [-trajectory_return(t) / cfg.horizon for t in trajs]
        assert metrics.loss_mean == pytest.approx(float(np.mean(losses)), rel=1e-12)
        degrees = [np.mean([degree_stats(graph_mask(s.graph))[2] for s in t.steps]) for t in trajs]
        assert metrics.total_deg_mean == float(np.mean(degrees))

    def test_rollout_does_not_depend_on_its_batch(self):
        cfg, policy = lossy_cross_setup()
        cfg = replace(cfg, group_presence_prob=1.0)
        rngs = env.spawn_rollout_rngs(62, 4)
        starts = [env.sample_initial(cfg, g) for g in rngs]
        together = list(env.simulate(policy, cfg, starts, rngs))
        own = env.spawn_rollout_rngs(62, 4)[2]
        alone = list(env.simulate(policy, cfg, [env.sample_initial(cfg, own)], [own]))
        for (a, ra), (b, rb) in zip(alone, together):
            for da, db in zip(a.policy.delivered, b.policy.delivered):
                np.testing.assert_array_equal(da[0], db[2])
            np.testing.assert_allclose(a.next_positions.data[0], b.next_positions.data[2], rtol=1e-12, atol=0)
            assert ra[0] == pytest.approx(rb[2], rel=1e-12)


def lossy_cross_policies():
    """Four combined policies over one network: the lossy setup's program and three others, one of them V2."""
    cfg, policy = lossy_cross_setup()
    others = [
        "#dsl v1 features=V1 rules=1 state_dim=4\nrandom(filter(d >= 0.2, l))\n",
        "#dsl v1 features=V2 rules=2 state_dim=4\nargmax(map(c0xx - d, filter(c1xy >= -0.5, l)))\n"
        "random(filter(theta + c0yy >= 0, l))\n",
        "#dsl v1 features=V1 rules=2 state_dim=4\nargmax(map(d, filter(1.0 >= 0, l)))\nrandom(filter(theta >= 0, l))\n",
    ]
    programs = [policy.programs[0], *(parse_program(text) for text in others)]
    return cfg, [CombinedPolicy(policy.params, [p], v_max=cfg.v_max) for p in programs]


class TestEvaluateMany:
    @staticmethod
    def _spy_batches(monkeypatch):
        batches = []
        real = harness.simulate

        def spy(policy, cfg, worlds, rngs, reward_params=None):
            batches.append((type(policy).__name__, len(worlds)))
            return real(policy, cfg, worlds, rngs, reward_params)

        monkeypatch.setattr(harness, "simulate", spy)
        return batches

    @staticmethod
    def _assert_same_metrics(together, alone):
        for name in ("in_deg_mean", "in_deg_std", "out_deg_mean", "out_deg_std", "total_deg_mean",
                     "total_deg_std", "rollout_max_deg_mean", "n_rollouts", "policy", "seed"):
            assert getattr(together, name) == getattr(alone, name), name
        for name in ("loss_mean", "loss_std", "combined_J"):
            assert getattr(together, name) == pytest.approx(getattr(alone, name), rel=1e-12, abs=0), name

    @pytest.mark.parametrize("n_rollouts", [5, 2])
    def test_equals_separate_evaluate_calls(self, monkeypatch, n_rollouts):
        # mixed agent counts, V1 and V2 feature maps, random rules and lossy
        # links; with 2 rollouts the 8 worlds outnumber the chunk bound of 4
        cfg, policies = lossy_cross_policies()
        alone = [evaluate(p, cfg, n_rollouts, 1.0, 63) for p in policies]
        batches = self._spy_batches(monkeypatch)
        together = evaluate_many(policies, cfg, n_rollouts, 1.0, 63)
        bound = max(n_rollouts, len(policies))
        assert all(size <= bound for _, size in batches)
        assert any(kind == "StackedPolicy" for kind, _ in batches)
        for t, a in zip(together, alone):
            self._assert_same_metrics(t, a)

    def test_stacked_step_delivers_the_edges_of_each_policy_alone(self):
        cfg, policies = lossy_cross_policies()
        cfg = replace(cfg, group_presence_prob=1.0)
        rngs = [g for _ in policies for g in env.spawn_rollout_rngs(64, 2)]
        starts = [env.sample_initial(cfg, g) for g in rngs]
        together = list(env.simulate(StackedPolicy(policies, [2] * len(policies)), cfg, starts, rngs))
        for p, policy in enumerate(policies):
            own = env.spawn_rollout_rngs(64, 2)
            alone = list(env.simulate(policy, cfg, [env.sample_initial(cfg, g) for g in own], own))
            for (a, ra), (b, rb) in zip(alone, together):
                for da, db in zip(a.policy.delivered, b.policy.delivered):
                    assert np.array_equal(da, db[2 * p : 2 * p + 2])
                np.testing.assert_allclose(ra, rb[2 * p : 2 * p + 2], rtol=1e-12, atol=0)

    def test_single_policy_batches_as_evaluate_does(self, monkeypatch):
        cfg, policies = lossy_cross_policies()
        batches = self._spy_batches(monkeypatch)
        evaluate(policies[0], cfg, 8, 1.0, 65)
        group_sizes: dict[int, int] = {}
        for g in env.spawn_rollout_rngs(65, 8):
            n = env.sample_initial(cfg, g).n_agents
            group_sizes[n] = group_sizes.get(n, 0) + 1
        assert len(group_sizes) > 1
        assert batches == [("CombinedPolicy", size) for size in group_sizes.values()]

    def test_policies_that_do_not_stack_are_rejected(self):
        cfg, policies = lossy_cross_policies()
        with pytest.raises(HarnessError):
            evaluate_many([policies[0], TfFullPolicy(policies[0].params, v_max=cfg.v_max)], cfg, 2, 1.0, 0)
        other_params = init_for_task(cfg, make_rng(66), key_dim=4, msg_dim=4, hidden_dim=8)
        with pytest.raises(HarnessError):
            evaluate_many([policies[0], CombinedPolicy(other_params, policies[1].programs, v_max=cfg.v_max)],
                          cfg, 2, 1.0, 0)
        with pytest.raises(HarnessError):
            evaluate_many([ConstantGraphPolicy([set()]), ConstantGraphPolicy([set()])], cfg, 2, 1.0, 0)
        full = [TfFullPolicy(policies[0].params, v_max=cfg.v_max) for _ in range(2)]
        with pytest.raises(HarnessError):
            evaluate_many(full, cfg, 2, 1.0, 0)


class TestSweep:
    def test_single_cell_grid_returns_that_cell(self):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=4, obs_noise_sigma=0.05)
        rng = make_rng(4)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        dataset = collect_dataset(params, cfg, 2, rng)
        grid = {"degree_weight": (0.5,), "n_rules": (1,), "feature_version": ("v1",)}
        result = sweep(
            dataset,
            lambda programs: make_policy("combined", params, v_max=cfg.v_max, programs=programs),
            SynthConfig(mcmc_steps=20),
            cfg,
            make_rng(5),
            n_val_rollouts=2,
            grid=grid,
        )
        assert len(result.cells) == 1
        assert result.best is result.cells[0]
        assert result.best.degree_weight == 0.5

    def test_two_round_cell_keeps_every_round_program(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=2, horizon=3, obs_noise_sigma=0.05)
        rng = make_rng(6)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
        dataset = collect_dataset(params, cfg, 2, rng)
        grid = {"degree_weight": (0.5,), "n_rules": (1,), "feature_version": ("v1",)}
        result = sweep(
            dataset,
            lambda programs: make_policy("combined", params, v_max=cfg.v_max, programs=programs),
            SynthConfig(mcmc_steps=10),
            cfg,
            make_rng(7),
            n_val_rollouts=2,
            grid=grid,
        )
        assert [r.program.n_rules for r in result.best.results] == [1, 1]
        rebuilt = CombinedPolicy(params, [r.program for r in result.best.results], v_max=cfg.v_max)
        again = evaluate(rebuilt, cfg, 2, 1.0, 0)
        assert np.isfinite(again.loss_mean)

    def test_near_tie_prefers_lower_degree(self):
        cells = [
            SweepCell(0.3, 2, "v1", None, metrics_fixture("a", 1.00, 5.0)),
            SweepCell(0.5, 2, "v1", None, metrics_fixture("b", 1.02, 3.0)),
            SweepCell(0.7, 2, "v1", None, metrics_fixture("c", 2.00, 1.0)),
        ]
        best = select_best_cell(cells, near_tie=0.05)
        assert best.degree_weight == 0.5

    def test_clear_winner_ignores_degree(self):
        cells = [
            SweepCell(0.3, 2, "v1", None, metrics_fixture("a", 1.0, 5.0)),
            SweepCell(0.5, 2, "v1", None, metrics_fixture("b", 2.0, 0.5)),
        ]
        assert select_best_cell(cells).degree_weight == 0.3

    def test_default_grid_has_32_cells(self):
        combos = [
            (lam, k, fv)
            for lam in DEFAULT_GRID["degree_weight"]
            for k in DEFAULT_GRID["n_rules"]
            for fv in DEFAULT_GRID["feature_version"]
        ]
        assert len(combos) == 32

    def test_full_default_grid_completes_on_random_grid(self):
        # 4 tradeoffs x 4 rule counts x 2 feature maps on a small grid-task
        # dataset; short chains keep the 32 syntheses affordable
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=5, obs_noise_sigma=0.05)
        rng = make_rng(40)
        params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8)
        dataset = collect_dataset(params, cfg, 3, rng)
        result = sweep(
            dataset,
            lambda programs: make_policy("combined", params, v_max=cfg.v_max, programs=programs),
            SynthConfig(mcmc_steps=10),
            cfg,
            make_rng(41),
            n_val_rollouts=2,
        )
        assert len(result.cells) == 32
        seen = {(c.degree_weight, c.n_rules, c.feature_version) for c in result.cells}
        assert len(seen) == 32
        assert result.best in result.cells


class TestReport:
    def test_artifacts_written(self, tmp_path):
        metrics = [metrics_fixture("tf-full", 1.0, 0.0), metrics_fixture("combined", 1.2, 3.0)]
        metrics[0].full_comm = True
        paths = report(metrics, tmp_path)
        assert paths["json"].exists()
        assert paths["csv"].exists()
        svg = paths["loss_svg"].read_text()
        assert svg.count("<rect") == 2
        degree_svg = paths["degree_svg"].read_text()
        assert degree_svg.count("<rect") == 1  # full-comm bar omitted

    def test_csv_column_order(self):
        text = metrics_to_csv([metrics_fixture("p", 1.0, 2.0)])
        header = text.splitlines()[0]
        assert header == (
            "policy,task,seed,loss_mean,loss_std,in_deg_mean,in_deg_std,"
            "out_deg_mean,out_deg_std,total_deg_mean,total_deg_std,combined_J"
        )

    def test_json_roundtrip(self):
        metrics = [metrics_fixture("p", 1.0, 2.0)]
        again = metrics_from_json(metrics_to_json(metrics))
        assert again == metrics

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            report([], tmp_path)


class TestManifest:
    def test_capture_save_load(self, tmp_path):
        src = tmp_path / "input.json"
        src.write_text("{}")
        manifest = RunManifest.capture("evaluate", {"rollouts": 3}, 5, [src])
        manifest.outputs = ["out.json"]
        path = tmp_path / "m.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.command == "evaluate"
        assert loaded.args == {"rollouts": 3}
        assert loaded.seed == 5
        assert loaded.input_hashes[str(src)] == file_sha256(src)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"args": {}}, "missing key(s): seed"),
            ({"args": [], "seed": 1}, "args must be a JSON object"),
            ({"args": {}, "seed": 1, "outputs": ["a", 2]}, "outputs must be a list whose items are each a string"),
            ({"args": {}, "seed": 1, "input_hashes": {"a": 1}}, "input_hashes must be a JSON object whose items"),
            ({"args": {}, "seed": 1, "created_unix": True}, "created_unix must be a finite number"),
        ],
    )
    def test_load_checks_every_field(self, tmp_path, fields, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"command": "evaluate", **fields}))
        with pytest.raises(DecodeError) as err:
            RunManifest.load(path)
        assert message in str(err.value)

    def test_load_keeps_an_integer_float_field_as_written(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"command": "evaluate", "args": {}, "seed": 1, "created_unix": 5}))
        RunManifest.load(path).save(path)
        assert '"created_unix": 5,' in path.read_text()

    def test_resolve_seed_env_override(self, monkeypatch):
        monkeypatch.delenv("SWARM_SEED", raising=False)
        assert resolve_seed(3) == 3
        assert resolve_seed(None, default=9) == 9
        monkeypatch.setenv("SWARM_SEED", "42")
        assert resolve_seed(3) == 42


def _bad_config(key, value):
    return "config", lambda ws: json.dumps({**json.loads((ws / "task.json").read_text()), key: value})


def _bad_params(edit):
    def text(ws):
        doc = json.loads((ws / "oracle.json").read_text())
        edit(doc)
        return json.dumps(doc)

    return "params", text


def _bad_rule(rule):
    return "program", lambda ws: f"#dsl v1 features=V1 rules=1 state_dim=4\n{rule}\n"


# malformed inputs, each a (kind of file, text of the file from the workspace)
BAD_INPUTS = {
    "horizon=2.5": _bad_config("horizon", 2.5),
    "horizon=true": _bad_config("horizon", True),
    "n_agents_per_group=1.5": _bad_config("n_agents_per_group", 1.5),
    "v_max=NaN": _bad_config("v_max", float("nan")),
    "dt=Infinity": _bad_config("dt", float("inf")),
    "obs_noise_sigma=NaN": _bad_config("obs_noise_sigma", float("nan")),
    # initial states are drawn from ranges 2 * box_half_width and 2 * box_offset wide
    "box_half_width=1e308": _bad_config("box_half_width", 1e308),
    "box_offset=-1e308": _bad_config("box_offset", -1e308),
    "params=[]": _bad_params(lambda doc: doc.update(params=[])),
    "meta.rounds='1'": _bad_params(lambda doc: doc["meta"].update(rounds="1")),
    "meta.hidden_dim=7": _bad_params(lambda doc: doc["meta"].update(hidden_dim=7)),
    "dataset-header=[1]": ("dataset", lambda ws: "[1]\n" + (ws / "data.jsonl").read_text().split("\n", 1)[1]),
    "number=1.2.3": _bad_rule("random(filter(d >= 1.2.3, l))"),
    "number=1e": _bad_rule("argmax(map(1e*d, filter(d >= 0, l)))"),
    "manifest={": ("manifest", lambda ws: "{"),
    "manifest=[]": ("manifest", lambda ws: "[]"),
    "manifest-args={}": ("manifest", lambda ws: json.dumps({"command": "evaluate", "args": {}, "seed": 1})),
}


def _bad_dataset(source, edit):
    """A dataset ("grid": the workspace's, "coverage": N = 3, two rounds) with its header and rows edited."""

    def text(datasets):
        header, *rows = [json.loads(line) for line in datasets[source].read_text().splitlines()]
        edit(header, rows)
        return "".join(json.dumps(doc) + "\n" for doc in [header, *rows])

    return text


def _cut_columns(key, width):
    def edit(header, rows):
        for row in rows:
            row[key] = [r[:width] for r in row[key]]

    return edit


# malformed datasets, each a function of {"grid": path, "coverage": path} giving the file's text
BAD_DATASETS = {
    "s-2-wide": _bad_dataset("grid", _cut_columns("s", 2)),
    "coverage-without-goal_perm_inv": _bad_dataset("coverage", lambda h, rows: rows[0].pop("goal_perm_inv")),
    "a-2-wide-for-3-goals": _bad_dataset("coverage", _cut_columns("a", 2)),
    "goal_perm_inv=9": _bad_dataset("coverage", lambda h, rows: rows[0]["goal_perm_inv"][0].__setitem__(0, 9)),
    "n-wrong": _bad_dataset("grid", lambda h, rows: rows[0].update(n=4)),
    "header-msg_dim=99": _bad_dataset("grid", lambda h, rows: h.update(msg_dim=99)),
    "header-task_kind": _bad_dataset("grid", lambda h, rows: h["task"].update(task_kind="random-cross")),
    "o=NaN": _bad_dataset("grid", lambda h, rows: rows[0]["o"][0][1].__setitem__(0, float("nan"))),
    "unknown-row-key": _bad_dataset("grid", lambda h, rows: rows[0].update(extra=1)),
    "s=true": _bad_dataset("grid", lambda h, rows: rows[0]["s"][0].__setitem__(1, True)),
}


@pytest.fixture(scope="module")
def coverage_dataset(tmp_path_factory):
    """A two-round unlabeled-goals dataset with N = 3, collected under an untrained oracle."""
    path = tmp_path_factory.mktemp("coverage") / "data.jsonl"
    cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=2)
    params = init_for_task(cfg, make_rng(0), key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
    collect_dataset(params, cfg, 1, make_rng(1)).save_jsonl(path)
    return path


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A tiny end-to-end pipeline run through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg = TaskConfig(
        task_kind="random-grid",
        n_agents_per_group=1,
        horizon=4,
        obs_noise_sigma=0.05,
        box_offset=4.0,
    )
    save_config(root / "task.json", cfg, RewardParams())
    rc = cli.main(
        [
            "train-oracle",
            "--config", str(root / "task.json"),
            "--out", str(root / "oracle.json"),
            "--rollouts", "16",
            "--batch", "8",
            "--seed", "0",
            "--curve", str(root / "curve.csv"),
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "collect",
            "--params", str(root / "oracle.json"),
            "--config", str(root / "task.json"),
            "--rollouts", "3",
            "--out", str(root / "data.jsonl"),
            "--seed", "1",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "synthesize",
            "--dataset", str(root / "data.jsonl"),
            "--lambda", "0.5",
            "--rules", "2",
            "--steps", "30",
            "--out", str(root / "program.txt"),
            "--chain-log", str(root / "chain.csv"),
            "--seed", "2",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "retrain",
            "--params", str(root / "oracle.json"),
            "--program", str(root / "program.txt"),
            "--config", str(root / "task.json"),
            "--rollouts", "8",
            "--batch", "8",
            "--out", str(root / "retrained.json"),
            "--seed", "3",
        ]
    )
    assert rc == 0
    return root


class TestCli:
    def test_pipeline_outputs_exist(self, cli_workspace):
        for name in ("oracle.json", "curve.csv", "data.jsonl", "program.txt", "chain.csv", "retrained.json"):
            assert (cli_workspace / name).exists(), name

    def test_program_file_has_header(self, cli_workspace):
        text = (cli_workspace / "program.txt").read_text()
        assert text.startswith("#dsl v1 features=V1 rules=2")

    def test_evaluate_writes_metrics(self, cli_workspace):
        out = cli_workspace / "metrics.json"
        rc = cli.main(
            [
                "evaluate",
                "--params", str(cli_workspace / "retrained.json"),
                "--config", str(cli_workspace / "task.json"),
                "--policy", "combined",
                "--program", str(cli_workspace / "program.txt"),
                "--rollouts", "3",
                "--out", str(out),
                "--seed", "4",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["policy"] == "combined"
        assert np.isfinite(doc["loss_mean"])

    def test_evaluate_tf_full(self, cli_workspace):
        out = cli_workspace / "metrics_tf.json"
        rc = cli.main(
            [
                "evaluate",
                "--params", str(cli_workspace / "oracle.json"),
                "--config", str(cli_workspace / "task.json"),
                "--policy", "tf-full",
                "--rollouts", "2",
                "--out", str(out),
                "--seed", "5",
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["full_comm"] is True

    def test_attn_dump(self, cli_workspace):
        out = cli_workspace / "attn.jsonl"
        rc = cli.main(
            [
                "attn-dump",
                "--params", str(cli_workspace / "oracle.json"),
                "--config", str(cli_workspace / "task.json"),
                "--policy", "tf-full",
                "--out", str(out),
                "--seed", "6",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header["kind"] == "attention-dump"
        assert len(lines) == header["length"] + 1
        row = json.loads(lines[1])
        attn = np.asarray(row["attention"][0])
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones(attn.shape[0]), atol=1e-9)

    def test_unknown_flag_exits_nonzero(self, cli_workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--bogus-flag", "1"])
        assert exc.value.code != 0

    def test_missing_input_categorized(self, tmp_path, capsys):
        rc = cli.main(
            [
                "collect",
                "--params", str(tmp_path / "nope.json"),
                "--config", str(tmp_path / "nope2.json"),
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert rc == 1
        assert "error[missing-input]" in capsys.readouterr().err

    def test_malformed_config_categorized(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(
            [
                "collect",
                "--params", str(bad),
                "--config", str(bad),
                "--out", str(tmp_path / "d.jsonl"),
            ]
        )
        assert rc == 1
        assert "error[bad-config]" in capsys.readouterr().err

    def test_dim_mismatch_categorized(self, cli_workspace, tmp_path, capsys):
        other_cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)
        save_config(tmp_path / "other.json", other_cfg, RewardParams())
        rc = cli.main(
            [
                "evaluate",
                "--params", str(cli_workspace / "oracle.json"),
                "--config", str(tmp_path / "other.json"),
                "--policy", "tf-full",
                "--rollouts", "1",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 1
        assert "error[dim-mismatch]" in capsys.readouterr().err

    def test_params_for_another_round_count_categorized(self, cli_workspace, tmp_path, capsys):
        doc = json.loads((cli_workspace / "oracle.json").read_text())
        doc["meta"]["rounds"] = 0
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main([
            "evaluate", "--params", str(bad), "--config", str(cli_workspace / "task.json"),
            "--rollouts", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[dim-mismatch]" in err and "rounds 0" in err
        assert "Traceback" not in err

    def test_rerun_from_manifest_reproduces_bytes(self, cli_workspace):
        data = cli_workspace / "data.jsonl"
        original = data.read_bytes()
        rc = cli.main(["rerun", str(data) + ".manifest.json"])
        assert rc == 0
        assert data.read_bytes() == original

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        doc = {**asdict(TaskConfig()), **asdict(RewardParams()), "n_agents_per_grop": 1}
        (tmp_path / "task.json").write_text(json.dumps(doc))
        rc = cli.main([
            "train-oracle", "--config", str(tmp_path / "task.json"),
            "--out", str(tmp_path / "oracle.json"), "--rollouts", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[bad-config]" in err
        assert "n_agents_per_grop" in err
        assert "Traceback" not in err
        assert not (tmp_path / "oracle.json").exists()

    def test_params_values_not_fitting_shape_categorized(self, cli_workspace, tmp_path, capsys):
        doc = json.loads((cli_workspace / "oracle.json").read_text())
        entry = doc["params"]["out.b2"]
        entry["values"] = entry["values"][:-1]
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main([
            "evaluate", "--params", str(bad), "--config", str(cli_workspace / "task.json"),
            "--policy", "tf-full", "--rollouts", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[bad-config]" in err
        assert str(bad) in err

    def test_truncated_dataset_line_categorized(self, cli_workspace, tmp_path, capsys):
        text = (cli_workspace / "data.jsonl").read_text()
        bad = tmp_path / "data.jsonl"
        bad.write_text(text[: len(text) - 40])
        rc = cli.main([
            "synthesize", "--dataset", str(bad), "--steps", "2", "--out", str(tmp_path / "p.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[bad-config]" in err
        assert str(bad) in err

    def test_rerun_refuses_changed_input(self, cli_workspace, tmp_path, capsys):
        cfg = tmp_path / "task.json"
        cfg.write_bytes((cli_workspace / "task.json").read_bytes())
        out = tmp_path / "data.jsonl"
        assert cli.main([
            "collect", "--params", str(cli_workspace / "oracle.json"), "--config", str(cfg),
            "--rollouts", "1", "--out", str(out), "--seed", "1",
        ]) == 0
        original = out.read_bytes()
        doc = json.loads(cfg.read_text())
        doc["horizon"] = 5
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["rerun", str(out) + ".manifest.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[changed-input]" in err
        assert str(cfg) in err
        assert out.read_bytes() == original

    def test_rerun_replays_recorded_seed_despite_swarm_seed(self, cli_workspace, tmp_path, monkeypatch):
        def collect(out):
            return cli.main([
                "collect", "--params", str(cli_workspace / "oracle.json"),
                "--config", str(cli_workspace / "task.json"), "--rollouts", "1", "--out", str(out),
                "--seed", "1",
            ])

        monkeypatch.delenv("SWARM_SEED", raising=False)
        out = tmp_path / "data.jsonl"
        assert collect(out) == 0
        original = out.read_bytes()
        monkeypatch.setenv("SWARM_SEED", "99")
        assert collect(tmp_path / "other.jsonl") == 0
        assert (tmp_path / "other.jsonl").read_bytes() != original
        assert cli.main(["rerun", str(out) + ".manifest.json"]) == 0
        assert out.read_bytes() == original
        assert os.environ["SWARM_SEED"] == "99"

    def test_two_round_pipeline(self, tmp_path):
        # coverage task: synthesize emits one program file per round and the
        # combined policy consumes both
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=2, horizon=3, obs_noise_sigma=0.05)
        save_config(tmp_path / "task.json", cfg, RewardParams())
        assert cli.main([
            "train-oracle", "--config", str(tmp_path / "task.json"),
            "--out", str(tmp_path / "oracle.json"), "--rollouts", "8", "--batch", "8", "--seed", "0",
        ]) == 0
        assert cli.main([
            "collect", "--params", str(tmp_path / "oracle.json"),
            "--config", str(tmp_path / "task.json"), "--rollouts", "2",
            "--out", str(tmp_path / "data.jsonl"), "--seed", "1",
        ]) == 0
        assert cli.main([
            "synthesize", "--dataset", str(tmp_path / "data.jsonl"),
            "--rules", "1", "--steps", "15", "--out", str(tmp_path / "program.txt"), "--seed", "2",
            "--chain-log", str(tmp_path / "chain.csv"),
        ]) == 0
        assert (tmp_path / "program.txt").exists()
        assert (tmp_path / "program.round2.txt").exists()
        # one chain log per round, named like the programs, both in the manifest
        chains = [tmp_path / "chain.csv", tmp_path / "chain.round2.csv"]
        for chain in chains:
            assert len(chain.read_text().strip().split("\n")) == 15 + 1
        manifest = json.loads((tmp_path / "program.txt.manifest.json").read_text())
        assert {str(c) for c in chains} <= set(manifest["outputs"])
        assert cli.main([
            "evaluate", "--params", str(tmp_path / "oracle.json"),
            "--config", str(tmp_path / "task.json"), "--policy", "combined",
            "--program", str(tmp_path / "program.txt"),
            "--program", str(tmp_path / "program.round2.txt"),
            "--rollouts", "2", "--out", str(tmp_path / "metrics.json"), "--seed", "3",
        ]) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["task"] == "unlabeled-goals"

    def test_two_round_sweep_writes_one_program_per_round(self, tmp_path):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=2, horizon=3, obs_noise_sigma=0.05)
        save_config(tmp_path / "task.json", cfg, RewardParams())
        assert cli.main([
            "train-oracle", "--config", str(tmp_path / "task.json"),
            "--out", str(tmp_path / "oracle.json"), "--rollouts", "8", "--batch", "8", "--seed", "0",
        ]) == 0
        assert cli.main([
            "collect", "--params", str(tmp_path / "oracle.json"),
            "--config", str(tmp_path / "task.json"), "--rollouts", "2",
            "--out", str(tmp_path / "data.jsonl"), "--seed", "1",
        ]) == 0
        out_dir = tmp_path / "sweep"
        assert cli.main([
            "sweep", "--dataset", str(tmp_path / "data.jsonl"), "--config", str(tmp_path / "task.json"),
            "--steps", "3", "--val-rollouts", "1", "--out-dir", str(out_dir), "--seed", "2",
        ]) == 0
        programs = [out_dir / "sweep_best_program.txt", out_dir / "sweep_best_program.round2.txt"]
        best = json.loads((out_dir / "sweep_best.json").read_text())
        for path in programs:
            assert parse_program(path.read_text()).n_rules == best["n_rules"]
        manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
        assert {str(p) for p in programs} <= set(manifest["outputs"])
        assert cli.main([
            "evaluate", "--params", str(tmp_path / "oracle.json"),
            "--config", str(tmp_path / "task.json"), "--policy", "combined",
            "--program", str(programs[0]), "--program", str(programs[1]),
            "--rollouts", "2", "--out", str(tmp_path / "metrics.json"), "--seed", "3",
        ]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "retrain"])
    def test_program_for_another_state_dim_categorized(self, cli_workspace, tmp_path, capsys, command):
        # a coverage program (state_dim 12) against the grid task's parameters (state_dim 4)
        program = tmp_path / "coverage_program.txt"
        program.write_text("#dsl v1 features=V1 rules=1 state_dim=12\nargmax(map(-d, filter(sn1 >= 0, l)))\n")
        out = tmp_path / "out.json"
        argv = [
            command, "--params", str(cli_workspace / "oracle.json"),
            "--config", str(cli_workspace / "task.json"), "--program", str(program), "--out", str(out),
        ]
        if command == "evaluate":
            argv += ["--policy", "combined", "--rollouts", "1"]
        else:
            argv += ["--rollouts", "8", "--batch", "8"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error[dim-mismatch]" in err
        assert str(program) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "retrain"])
    @pytest.mark.parametrize("field", ["rules=x", "state_dim=4.5"])
    def test_non_integer_program_header_is_bad_config(self, cli_workspace, tmp_path, capsys, command, field):
        header = {"rules": "rules=1", "state_dim": "state_dim=4"}
        header[field.split("=")[0]] = field
        program = tmp_path / "program.txt"
        program.write_text(f"#dsl v1 features=V1 {header['rules']} {header['state_dim']}\nrandom(filter(d >= 0, l))\n")
        out = tmp_path / "out.json"
        argv = [
            command, "--params", str(cli_workspace / "oracle.json"),
            "--config", str(cli_workspace / "task.json"), "--program", str(program), "--out", str(out),
        ]
        if command == "evaluate":
            argv += ["--policy", "combined", "--rollouts", "1"]
        else:
            argv += ["--rollouts", "8", "--batch", "8"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error[bad-config]" in err
        assert str(program) in err and field.split("=")[0] in err
        assert "Traceback" not in err
        assert not out.exists()

    def _one_error_line(self, argv, capsys):
        with np.errstate(all="ignore"):
            assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[")
        return lines[0]

    @pytest.mark.parametrize("command", ["evaluate", "collect", "attn-dump", "retrain"])
    def test_params_that_overflow_in_a_rollout_are_one_non_finite_line(self, cli_workspace, tmp_path, capsys, command):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=2, horizon=4, obs_noise_sigma=0.05)
        save_config(tmp_path / "task.json", cfg, RewardParams())
        doc = json.loads((cli_workspace / "oracle.json").read_text())
        for name in ("out.w1", "out.w2"):
            doc["params"][name]["values"] = [1e200] * len(doc["params"][name]["values"])
        params = tmp_path / "huge.json"
        params.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, "--params", str(params), "--config", str(tmp_path / "task.json"), "--out", str(out)]
        if command in ("evaluate", "collect"):
            argv += ["--rollouts", "1"]
        elif command == "retrain":
            argv += ["--program", str(cli_workspace / "program.txt"), "--rollouts", "2", "--batch", "2"]
        assert self._one_error_line(argv, capsys).startswith("error[non-finite]: non-finite result in ")
        assert not out.exists()

    def test_an_overflow_prints_no_numpy_warning_ahead_of_its_error_line(self, cli_workspace, tmp_path):
        # in a fresh interpreter: pytest would capture numpy's RuntimeWarnings apart from stderr
        doc = json.loads((cli_workspace / "oracle.json").read_text())
        for name in ("out.w1", "out.w2"):
            doc["params"][name]["values"] = [1e200] * len(doc["params"][name]["values"])
        (tmp_path / "huge.json").write_text(json.dumps(doc))
        src = Path(cli.__file__).resolve().parents[1]
        run = subprocess.run(
            [
                sys.executable, "-m", "swarmcomm.cli", "evaluate", "--params", str(tmp_path / "huge.json"),
                "--config", str(cli_workspace / "task.json"), "--policy", "tf-full", "--rollouts", "1",
                "--out", str(tmp_path / "m.json"),
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"},
        )
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[non-finite]: non-finite result in "), run.stderr

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("dt", 1e308, "error[non-finite]: non-finite result in div"),
            ("box_offset", 1e300, "error[non-finite]: non-finite result in "),
            ("collision_distance", 1e-320, "error[non-finite]: non-finite result in div"),
            ("v_max", 1e308, "error[bad-config]: velocity exceeds v_max"),
        ],
    )
    def test_a_config_that_overflows_in_a_rollout_is_one_error_line(
        self, cli_workspace, tmp_path, capsys, key, value, expected
    ):
        config = tmp_path / "task.json"
        config.write_text(json.dumps({**json.loads((cli_workspace / "task.json").read_text()), key: value}))
        out = tmp_path / "m.json"
        argv = [
            "evaluate", "--params", str(cli_workspace / "oracle.json"), "--config", str(config),
            "--rollouts", "1", "--out", str(out),
        ]
        assert self._one_error_line(argv, capsys).startswith(expected)
        assert not out.exists()

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_malformed_input_is_one_bad_config_line(self, cli_workspace, tmp_path, capsys, case):
        kind, text = BAD_INPUTS[case]
        ws = cli_workspace
        bad = tmp_path / f"bad-{kind}"
        bad.write_text(text(ws))
        out = tmp_path / "out.json"
        inputs = {"params": ws / "oracle.json", "config": ws / "task.json", kind: bad}
        if kind == "dataset":
            argv = ["synthesize", "--dataset", str(bad), "--steps", "2", "--out", str(out)]
        elif kind == "manifest":
            argv = ["rerun", str(bad)]
        else:
            argv = [
                "evaluate", "--params", str(inputs["params"]), "--config", str(inputs["config"]),
                "--rollouts", "1", "--out", str(out),
            ]
            if kind == "program":
                argv += ["--policy", "combined", "--program", str(bad)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[bad-config]: ")
        assert str(bad) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("case", list(BAD_DATASETS))
    def test_malformed_dataset_is_one_bad_config_line(self, cli_workspace, coverage_dataset, tmp_path, capsys, case):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(BAD_DATASETS[case]({"grid": cli_workspace / "data.jsonl", "coverage": coverage_dataset}))
        out = tmp_path / "program.txt"
        assert cli.main(["synthesize", "--dataset", str(bad), "--steps", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[bad-config]: ")
        assert str(bad) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("rollouts", "x"), ("rollouts", 1.5), ("rollouts", True), ("out", 987654)])
    def test_rerun_checks_the_type_of_every_recorded_option(self, cli_workspace, tmp_path, capsys, option, value):
        doc = json.loads((cli_workspace / "data.jsonl.manifest.json").read_text())
        out = tmp_path / "data.jsonl"
        doc["args"]["out"] = str(out)
        doc["args"][option] = value
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert cli.main(["rerun", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[bad-config]: ")
        assert str(manifest) in lines[0] and f"option {option} " in lines[0]
        assert not out.exists()

    def test_sweep_checks_dims_before_any_chain(self, coverage_dataset, tmp_path, capsys, monkeypatch):
        save_config(tmp_path / "cross.json", TaskConfig(), RewardParams())
        chains = []
        monkeypatch.setattr(harness, "sweep", lambda *a, **kw: chains.append(a))
        out_dir = tmp_path / "sweep"
        rc = cli.main([
            "sweep", "--dataset", str(coverage_dataset), "--config", str(tmp_path / "cross.json"),
            "--steps", "2", "--val-rollouts", "1", "--out-dir", str(out_dir),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error[dim-mismatch]: ")
        assert chains == [] and not out_dir.exists()

    def test_rerun_names_every_missing_option(self, cli_workspace, tmp_path, capsys):
        doc = json.loads((cli_workspace / "data.jsonl.manifest.json").read_text())
        del doc["args"]["rollouts"], doc["args"]["config"]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert cli.main(["rerun", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "error[bad-config]" in err and str(manifest) in err
        assert "config, rollouts" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train-oracle", "--batch", "0"),
            ("train-oracle", "--discount", "1.5"),
            ("evaluate", "--rollouts", "0"),
            ("sweep", "--val-rollouts", "0"),
            ("collect", "--rollouts", "-1"),
            ("collect", "--seed", "-1"),
            ("synthesize", "--rules", "0"),
            # bad float options: non-finite or out of range
            ("evaluate", "--gamma", "-3"),
            ("evaluate", "--gamma", "1.5"),
            ("evaluate", "--gamma", "nan"),
            ("evaluate", "--comm-weight", "nan"),
            ("evaluate", "--comm-weight", "inf"),
            ("evaluate", "--comm-weight", "-1"),
            ("sweep", "--comm-weight", "nan"),
            ("synthesize", "--lambda", "nan"),
            ("synthesize", "--lambda", "inf"),
            ("synthesize", "--lambda", "0"),
            ("synthesize", "--beta", "nan"),
            ("synthesize", "--beta", "-1"),
            ("train-oracle", "--lr", "nan"),
            ("train-oracle", "--lr", "inf"),
            ("train-oracle", "--lr", "-1"),
            ("train-oracle", "--clip", "nan"),
            ("train-oracle", "--clip", "inf"),
            ("train-oracle", "--clip", "-1"),
            # a flag the chosen policy (the default, tf-full) does not read; p.txt does not exist
            ("evaluate", "--k", "3"),
            ("evaluate", "--program", "p.txt"),
        ],
    )
    def test_bad_counts_are_usage_errors(self, cli_workspace, tmp_path, capsys, command, flag, value):
        ws = cli_workspace
        out = tmp_path / "out"
        argv = {
            "train-oracle": ["--config", str(ws / "task.json"), "--out", str(out)],
            "evaluate": ["--params", str(ws / "oracle.json"), "--config", str(ws / "task.json"), "--out", str(out)],
            "sweep": ["--dataset", str(ws / "data.jsonl"), "--config", str(ws / "task.json"), "--out-dir", str(out)],
            "collect": ["--params", str(ws / "oracle.json"), "--config", str(ws / "task.json"), "--out", str(out)],
            "synthesize": ["--dataset", str(ws / "data.jsonl"), "--out", str(out)],
        }[command]
        assert cli.main([command, *argv, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[usage]") and len(err.splitlines()) == 1
        assert flag.lstrip("-").split("-")[0] in err
        assert "Traceback" not in err
        assert not out.exists()
