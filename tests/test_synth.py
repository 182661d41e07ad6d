import json

import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm import dsl
from swarmcomm.dsl import DetRule, FeatureMap, PredicateAtom, Program, RandRule, ScoreExpr, feature_names, true_predicate
from swarmcomm.env import TaskConfig
from swarmcomm.synth import (
    SurrogateEvaluator,
    SynthConfig,
    SynthDataset,
    SynthError,
    collect_dataset,
    initial_program,
    mcmc_synthesize,
    mh_accept,
    propose,
    propose_with_move,
    synthesize_multiround,
    write_chain_csv,
    _MOVES,
)
from swarmcomm.transformer import _harden, _net, _squash, init_for_task

from conftest import make_rng
from reference import objective_for_masks


def tiny_cfg(**kw):
    defaults = dict(
        task_kind="random-grid",
        n_agents_per_group=1,
        horizon=5,
        obs_noise_sigma=0.05,
        box_offset=4.0,
    )
    defaults.update(kw)
    return TaskConfig(**defaults)


def tiny_dataset(n_rollouts=4, seed=0, cfg=None):
    cfg = cfg or tiny_cfg()
    rng = make_rng(seed)
    params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
    return collect_dataset(params, cfg, n_rollouts, rng)


def fmap_for(dataset):
    return FeatureMap("v1"), dataset.state_dim


def nearest_program(state_dim, k=1):
    fmap = FeatureMap("v1")
    names = feature_names(fmap, state_dim)
    w = np.zeros(fmap.dim(state_dim))
    w[names.index("d")] = -1.0
    return Program(
        tuple(DetRule(ScoreExpr(tuple(w)), true_predicate(fmap, state_dim)) for _ in range(k)),
        fmap,
    )


class TestCollect:
    def test_tuple_count_is_rollouts_times_horizon(self):
        dataset = tiny_dataset(n_rollouts=4)
        assert dataset.n_tuples == 4 * 5

    def test_headline_rollout_budget_yields_15000_tuples(self):
        # 300 rollouts x 50-step horizon
        cfg = tiny_cfg(horizon=50)
        dataset = tiny_dataset(n_rollouts=300, cfg=cfg)
        assert dataset.n_tuples == 15_000

    def test_empty_dataset_rejected_by_synthesis(self):
        dataset = tiny_dataset(n_rollouts=0)
        assert dataset.n_tuples == 0
        with pytest.raises(SynthError):
            SurrogateEvaluator(dataset, 0.5)

    def test_fixed_seed_byte_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        tiny_dataset(n_rollouts=3, seed=7).save_jsonl(p1)
        tiny_dataset(n_rollouts=3, seed=7).save_jsonl(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_roundtrip(self, tmp_path):
        cross = tiny_cfg(task_kind="random-cross", horizon=2, group_presence_prob=0.5)
        datasets = {
            "grid": tiny_dataset(n_rollouts=2),
            "cross": tiny_dataset(n_rollouts=3, seed=0, cfg=cross),
            "coverage": tiny_dataset(n_rollouts=2, cfg=tiny_cfg(task_kind="unlabeled-goals", n_agents_per_group=3)),
            "lossy-grid": tiny_dataset(n_rollouts=2, cfg=tiny_cfg(n_agents_per_group=2, link_failure_prob=0.3)),
        }
        assert [b.n_agents for b in datasets["cross"].blocks] == [2, 1]  # not sorted
        assert datasets["coverage"].rounds == 2
        for name, dataset in datasets.items():
            path = tmp_path / f"{name}.jsonl"
            dataset.save_jsonl(path)
            loaded = SynthDataset.load_jsonl(path)
            assert loaded.n_tuples == dataset.n_tuples
            assert loaded.task == dataset.task
            assert loaded.rounds == dataset.rounds
            # blocks keep the order in which the file's agent counts first appear
            counts = [json.loads(line)["n"] for line in path.read_text().splitlines()[1:]]
            assert [b.n_agents for b in loaded.blocks] == list(dict.fromkeys(counts))
            assert [b.n_agents for b in loaded.blocks] == [b.n_agents for b in dataset.blocks]
            for b1, b2 in zip(dataset.blocks, loaded.blocks):
                pairs = [(b1.states, b2.states), (b1.obs, b2.obs), (b1.actions, b2.actions)]
                pairs += list(zip(b1.messages, b2.messages)) + list(zip(b1.attention, b2.attention))
                assert len(pairs) == 3 + 2 * dataset.rounds
                if name == "coverage":
                    pairs.append((b1.goal_perm_inv, b2.goal_perm_inv))
                    assert b2.goal_perm_inv.dtype == np.int64
                else:
                    assert b1.goal_perm_inv is None and b2.goal_perm_inv is None
                for a, b in pairs:
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), name
                for arr in b2.messages + b2.attention:
                    assert arr.flags["C_CONTIGUOUS"]

    def test_attention_rows_cached_as_distributions(self):
        dataset = tiny_dataset(n_rollouts=2)
        for block in dataset.blocks:
            for att in block.attention:
                np.testing.assert_allclose(att.sum(axis=-1), np.ones(att.shape[:2]), atol=1e-9)


class TestSurrogateObjective:
    def test_plugin_formula_values(self):
        # single tuple, selections engineered so the reconstruction is exact:
        # agent 0 hears {1, 2} and agent 1 hears {0}; node 0 has degree 3
        dataset = tiny_dataset(n_rollouts=1, cfg=tiny_cfg(horizon=1))
        block = dataset.blocks[0]
        sel = np.zeros((1, 3, 3), dtype=bool)
        sel[0, 0, 1] = sel[0, 0, 2] = sel[0, 1, 0] = True
        ev = SurrogateEvaluator(dataset, 0.5, rng=make_rng(0))
        # bake the oracle actions to equal the reconstruction under this mask
        probe = objective_for_masks(ev, [sel])
        block.actions = block.actions + 0.0  # keep dtype
        recon_gap = probe.imitation
        # replace actions with the exact reconstruction, then J = -0.5 * 3
        weights = dataset.params.store.params
        hard = _harden(block.attention[0], sel)[2]
        received = block.messages[0]  # receiver-major: [m, i, j] = message j -> i
        msum = np.einsum("mij,mijd->mid", hard, received)
        x = np.concatenate([block.states, msum], axis=-1).reshape(3, -1)
        u = ad.mlp_forward(x, *_net(weights, "out"), None)[1].reshape(1, 3, 2)
        block.actions = _squash(u, dataset.task.v_max, "squash")[3]
        exact = objective_for_masks(ev, [sel])
        assert exact.imitation == pytest.approx(0.0, abs=1e-12)
        assert exact.mean_max_degree == pytest.approx(3.0)
        assert exact.objective == pytest.approx(-1.5)
        # shift one action by total L1 0.3 with degree 2: J = -0.3 - 1.0 * 2
        sel2 = np.zeros((1, 3, 3), dtype=bool)
        sel2[0, 0, 1] = sel2[0, 0, 2] = True
        hard2 = _harden(block.attention[0], sel2)[2]
        msum2 = np.einsum("mij,mijd->mid", hard2, received)
        x2 = np.concatenate([block.states, msum2], axis=-1).reshape(3, -1)
        u2 = ad.mlp_forward(x2, *_net(weights, "out"), None)[1].reshape(1, 3, 2)
        block.actions = _squash(u2, dataset.task.v_max, "squash")[3]
        block.actions[0, 1, 0] += 0.2
        block.actions[0, 2, 1] -= 0.1
        ev2 = SurrogateEvaluator(dataset, 1.0, rng=make_rng(0))
        got = objective_for_masks(ev2, [sel2])
        assert got.imitation == pytest.approx(0.3, abs=1e-9)
        assert got.mean_max_degree == pytest.approx(2.0)
        assert got.objective == pytest.approx(-2.3, abs=1e-9)

    def test_doubling_tradeoff_strictly_decreases_objective(self):
        dataset = tiny_dataset(n_rollouts=3)
        program = nearest_program(dataset.state_dim)
        j1 = SurrogateEvaluator(dataset, 0.5, rng=make_rng(1)).evaluate(program)
        j2 = SurrogateEvaluator(dataset, 1.0, rng=make_rng(1)).evaluate(program)
        assert j2 < j1

    def test_full_mask_with_self_reconstructs_oracle_actions(self):
        # sanity ceiling: keeping every sender plus self leaves the soft rows
        # untouched, so the cached-message reconstruction must reproduce the
        # rollout actions bit-for-bit (up to renormalization epsilon)
        for cfg in (tiny_cfg(), TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)):
            dataset = tiny_dataset(n_rollouts=2, cfg=cfg)
            ev = SurrogateEvaluator(dataset, 0.5, round_index=dataset.rounds - 1, rng=make_rng(2))
            masks = [np.ones((b.n_tuples, b.n_agents, b.n_agents), dtype=bool) for b in dataset.blocks]
            out = objective_for_masks(ev, masks)
            assert out.imitation == pytest.approx(0.0, abs=1e-9)

    def test_full_communication_beats_no_communication_at_imitating(self):
        dataset = tiny_dataset(n_rollouts=3)
        ev = SurrogateEvaluator(dataset, 0.5, rng=make_rng(3))
        eye_masks = [
            np.broadcast_to(~np.eye(b.n_agents, dtype=bool), (b.n_tuples, b.n_agents, b.n_agents))
            for b in dataset.blocks
        ]
        none_masks = [np.zeros((b.n_tuples, b.n_agents, b.n_agents), dtype=bool) for b in dataset.blocks]
        assert objective_for_masks(ev, eye_masks).imitation < objective_for_masks(ev, none_masks).imitation

    def test_common_random_numbers_make_reevaluation_exact(self):
        dataset = tiny_dataset(n_rollouts=3)
        fmap = FeatureMap("v1")
        program = Program((RandRule(true_predicate(fmap, dataset.state_dim)),), fmap)
        ev = SurrogateEvaluator(dataset, 0.5, rng=make_rng(4))
        assert ev.evaluate(program) == ev.evaluate(program)

    def test_round_specific_objective_for_two_rounds(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)
        dataset = tiny_dataset(n_rollouts=2, cfg=cfg)
        program = nearest_program(dataset.state_dim)
        j0 = SurrogateEvaluator(dataset, 0.5, round_index=0, rng=make_rng(5)).evaluate(program)
        j1 = SurrogateEvaluator(dataset, 0.5, round_index=1, rng=make_rng(5)).evaluate(program)
        assert np.isfinite(j0) and np.isfinite(j1)
        with pytest.raises(SynthError):
            SurrogateEvaluator(dataset, 0.5, round_index=2, rng=make_rng(5)).evaluate(program)


class TestSelectionCache:
    """The evaluator's caches change no score: chains equal ones scored without them."""

    @staticmethod
    def _chains(dataset, cfg, seed, round_index=0):
        cached = mcmc_synthesize(dataset, cfg, make_rng(seed), round_index=round_index)
        # the same chain with an evaluator built from the same draws, its pick
        # cache, linear-form caches and score memo cleared before every candidate
        rng = make_rng(seed)
        ev = SurrogateEvaluator(dataset, cfg.degree_weight, round_index, cfg.rand_rule_samples, rng)
        visited_random = []

        def uncached_objective(program):
            ev._picks.clear()
            ev._forms.clear()
            ev._memo.clear()
            visited_random.append(any(isinstance(r, RandRule) for r in program.rules))
            return ev.evaluate(program)

        uncached = mcmc_synthesize(dataset, cfg, rng, round_index=round_index, objective_fn=uncached_objective)
        assert any(visited_random)
        return cached, uncached

    @staticmethod
    def _assert_same_chain(a, b):
        assert a.program == b.program
        assert a.objective == b.objective
        assert [(c.current, c.incumbent, c.accepted) for c in a.chain] == [
            (c.current, c.incumbent, c.accepted) for c in b.chain
        ]

    def test_chain_with_random_rules_and_two_samples_is_unchanged(self):
        dataset = tiny_dataset(n_rollouts=3, cfg=tiny_cfg(n_agents_per_group=2))
        cfg = SynthConfig(mcmc_steps=300, n_rules=3, rand_rule_samples=2)
        self._assert_same_chain(*self._chains(dataset, cfg, 30))

    @pytest.mark.parametrize("round_index", [0, 1])
    def test_both_rounds_of_a_two_round_task_are_unchanged(self, round_index):
        task = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)
        dataset = tiny_dataset(n_rollouts=2, cfg=task)
        cfg = SynthConfig(mcmc_steps=300, n_rules=2)
        self._assert_same_chain(*self._chains(dataset, cfg, 31, round_index))

    def test_identical_rules_in_two_slots_keep_their_own_uniforms(self):
        dataset = tiny_dataset(n_rollouts=3, cfg=tiny_cfg(n_agents_per_group=2))
        fmap = FeatureMap("v1")
        rule = RandRule(true_predicate(fmap, dataset.state_dim))
        ev = SurrogateEvaluator(dataset, 0.5, rand_samples=2, rng=make_rng(33))
        for program in (Program((rule,), fmap), Program((rule, rule), fmap)):
            feats = ev._features(fmap)
            for sample in range(2):
                got = ev.selections(program, sample)
                for block, f, crn in zip(got, feats, ev._crn):
                    u = crn[:, :, : program.n_rules, sample]
                    assert np.array_equal(block, dsl.eval_program_batch(program, f, rand_u=u))

    def test_cache_holds_at_most_four_entries_per_rule(self, monkeypatch):
        dataset = tiny_dataset(n_rollouts=3)
        cfg = SynthConfig(mcmc_steps=300, n_rules=3, rand_rule_samples=2)
        rng = make_rng(32)
        ev = SurrogateEvaluator(dataset, cfg.degree_weight, 0, cfg.rand_rule_samples, rng)
        evaluations = []
        real_picks = dsl.rule_picks
        monkeypatch.setattr(dsl, "rule_picks", lambda *a: evaluations.append(1) or real_picks(*a))
        sizes = []

        def objective(program):
            value = ev.evaluate(program)
            forms = [len(f.cache) for f in ev._forms["v1"]]
            sizes.append((len(ev._picks), max(forms), len(ev._memo)))
            return value

        mcmc_synthesize(dataset, cfg, rng, objective_fn=objective)
        picks, forms, memo = np.max(sizes, axis=0)
        # the pick cache, each block's linear forms and the score memo stay within their bounds
        assert picks <= 4 * cfg.n_rules and forms <= 8 * cfg.n_rules and memo <= 256
        # a proposal edits one rule: far fewer evaluations than K per sample and candidate
        candidates = cfg.mcmc_steps + 1
        assert len(evaluations) < 0.5 * candidates * cfg.n_rules * cfg.rand_rule_samples * len(dataset.blocks)
        # mostly one of its weight vectors, once for every sample: about one matvec per candidate and block
        counters = ev.counters()
        assert counters["matvec_blocks"] < 1.5 * candidates * len(dataset.blocks)
        assert counters["scored"] + counters["memo_hits"] == candidates * cfg.rand_rule_samples

    def test_evaluators_sharing_a_dataset_score_as_on_a_fresh_copy(self):
        # blocks build their features once, for every evaluator
        task = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)
        shared = tiny_dataset(n_rollouts=2, cfg=task)
        rng = make_rng(34)
        programs = [initial_program(SynthConfig(n_rules=2, feature_version=v), shared.state_dim, rng) for v in ("v1", "v2")]
        for _ in range(6):
            programs.append(propose(programs[-2], rng))
        for round_index in (0, 1):
            for sample_seed in (35, 36):
                ev = SurrogateEvaluator(shared, 0.5, round_index, 2, make_rng(sample_seed))
                fresh = SurrogateEvaluator(tiny_dataset(n_rollouts=2, cfg=task), 0.5, round_index, 2, make_rng(sample_seed))
                for program in programs:
                    assert ev.evaluate_detailed(program) == fresh.evaluate_detailed(program)
        assert {key[0] for b in shared.blocks for key in b._derived} == {"features"}


class TestPropose:
    def _program(self, dataset, k=3):
        return initial_program(SynthConfig(n_rules=k), dataset.state_dim, make_rng(6))

    def test_differs_in_exactly_one_rule(self):
        dataset = tiny_dataset(n_rollouts=1)
        program = self._program(dataset)
        rng = make_rng(7)
        for _ in range(200):
            candidate = propose(program, rng)
            diffs = sum(1 for a, b in zip(program.rules, candidate.rules) if a != b)
            assert diffs == 1
            assert candidate.n_rules == program.n_rules
            assert candidate.feature_map == program.feature_map

    def test_det_only_mode_never_emits_random_rules(self):
        dataset = tiny_dataset(n_rollouts=1)
        program = self._program(dataset)
        rng = make_rng(8)
        for _ in range(2000):
            program = propose(program, rng, allow_random_rules=False)
            assert all(isinstance(rule, DetRule) for rule in program.rules)

    def test_every_move_category_observed(self):
        dataset = tiny_dataset(n_rollouts=1)
        program = self._program(dataset)
        rng = make_rng(9)
        seen = set()
        # walk the chain so connective moves become reachable once predicates grow
        for _ in range(10_000):
            candidate, move = propose_with_move(program, rng)
            seen.add(move)
            program = candidate
        assert seen == set(_MOVES)

    def test_depth_bound_always_respected(self):
        dataset = tiny_dataset(n_rollouts=1)
        program = self._program(dataset)
        rng = make_rng(10)
        for _ in range(2000):
            program = propose(program, rng)
            for rule in program.rules:
                assert rule.pred.depth() <= 2


class TestChain:
    def test_mh_accept_laws(self):
        rng = make_rng(11)
        assert all(mh_accept(1.0, 1.0, rng) for _ in range(1000))
        hits = sum(mh_accept(-1.0, 1.0, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(np.exp(-1.0), abs=0.02)

    def test_incumbent_objective_is_nondecreasing(self):
        dataset = tiny_dataset(n_rollouts=3)
        cfg = SynthConfig(mcmc_steps=200, n_rules=2)
        result = mcmc_synthesize(dataset, cfg, make_rng(12))
        values = [row.incumbent for row in result.chain]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert result.objective == values[-1]

    def test_chain_replays_exactly_from_seed(self):
        dataset = tiny_dataset(n_rollouts=3)
        cfg = SynthConfig(mcmc_steps=120, n_rules=2)
        r1 = mcmc_synthesize(dataset, cfg, make_rng(13))
        r2 = mcmc_synthesize(dataset, cfg, make_rng(13))
        assert r1.program == r2.program
        assert [(c.current, c.accepted) for c in r1.chain] == [
            (c.current, c.accepted) for c in r2.chain
        ]

    def test_single_round_multiround_degenerates_to_plain_chain(self):
        dataset = tiny_dataset(n_rollouts=3)
        cfg = SynthConfig(mcmc_steps=60, n_rules=1)
        plain = mcmc_synthesize(dataset, cfg, make_rng(14))
        multi = synthesize_multiround(dataset, cfg, make_rng(14))
        assert len(multi) == 1
        assert multi[0].program == plain.program
        assert multi[0].objective == plain.objective

    def test_two_round_synthesis_returns_independent_programs(self):
        cfg_task = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=4)
        dataset = tiny_dataset(n_rollouts=2, cfg=cfg_task)
        cfg = SynthConfig(mcmc_steps=40, n_rules=1)
        results = synthesize_multiround(dataset, cfg, make_rng(15))
        assert len(results) == 2
        assert all(np.isfinite(r.objective) for r in results)

    def test_chain_csv(self, tmp_path):
        dataset = tiny_dataset(n_rollouts=1)
        cfg = SynthConfig(mcmc_steps=10, n_rules=1)
        result = mcmc_synthesize(dataset, cfg, make_rng(16))
        path = tmp_path / "chain.csv"
        write_chain_csv(path, result.chain)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,objective_current,objective_incumbent,accepted"
        assert len(lines) == 11
        for line, row in zip(lines[1:], result.chain):
            _, current, incumbent, _ = line.split(",")
            assert float(current) == row.current
            assert float(incumbent) == row.incumbent

    def test_mini_grid_space_finds_exhaustive_optimum(self):
        # enumerable space: one rule, threshold on d from a 5-value grid,
        # deterministic or random; independent uniform proposals
        dataset = tiny_dataset(n_rollouts=3)
        fmap = FeatureMap("v1")
        names = feature_names(fmap, dataset.state_dim)
        dim = fmap.dim(dataset.state_dim)
        score = np.zeros(dim)
        score[names.index("d")] = -1.0
        thresholds = (0.5, 1.0, 2.0, 4.0, 8.0)

        def program_for(kind, tau):
            w = np.zeros(dim)
            w[names.index("d")] = 1.0
            w[-1] = -tau
            pred = PredicateAtom(tuple(w))
            rule = DetRule(ScoreExpr(tuple(score)), pred) if kind == "det" else RandRule(pred)
            return Program((rule,), fmap)

        space = [program_for(kind, tau) for kind in ("det", "rand") for tau in thresholds]
        ev = SurrogateEvaluator(dataset, 0.5, rng=make_rng(17))
        exhaustive = max(ev.evaluate(p) for p in space)
        cfg = SynthConfig(mcmc_steps=400, n_rules=1)
        result = mcmc_synthesize(
            dataset,
            cfg,
            make_rng(18),
            propose_fn=lambda p, r: space[r.integers(0, len(space))],
            initial=space[0],
            objective_fn=ev.evaluate,
        )
        assert result.objective == pytest.approx(exhaustive, rel=1e-12)
