import numpy as np
import pytest

from swarmcomm.dsl import (
    DetRule,
    FeatureMap,
    PredicateAtom,
    Program,
    RandRule,
    ScoreExpr,
    feature_names,
    true_predicate,
)
from swarmcomm.autodiff import Tensor
from swarmcomm.dsl import CommGraph
from swarmcomm.env import GlobalState, TaskConfig, WorldBatch, rollout
from swarmcomm.policy import (
    CombinedPolicy,
    NoCommPolicy,
    TfFullPolicy,
    TopKAttnPolicy,
    dist_mask,
    make_policy,
    topk_attention_mask,
)
from swarmcomm.transformer import init_transformer

from conftest import make_rng
from reference import graph_mask, harden_row


def formation_state(positions, goals=None):
    positions = np.asarray(positions, dtype=float)
    goals = positions.copy() if goals is None else np.asarray(goals, dtype=float)
    return GlobalState("random-cross", positions, goals, np.zeros(len(positions), dtype=int))


def small_params(seed=0, **kw):
    kw.setdefault("key_dim", 4)
    kw.setdefault("msg_dim", 4)
    kw.setdefault("hidden_dim", 8)
    return init_transformer("random-cross", 4, 2, 1, make_rng(seed), **kw)


class OneStep:
    """One world's policy step through the batched protocol, noise-free observations."""

    def __init__(self, policy, state, rng, p_fail=0.0):
        pos = state.positions[None]
        obs = pos[:, None, :, :] - pos[:, :, None, :]
        out = policy.step(WorldBatch.stack([state]).agent_states(pos), Tensor(obs), [rng], p_fail)
        self.action = out.actions.data[0]
        self.attentions = [a[0] for a in out.attentions]
        self.messages = [m[0] for m in out.messages]
        self.graph = CommGraph.from_mask(np.logical_or.reduce([d[0] for d in out.delivered]))


def dist_mask_select(positions, i, k):
    """Row i of the vectorised k-nearest mask, as sender ids."""
    return np.flatnonzero(dist_mask(np.asarray(positions, dtype=float)[None], k)[0, i]).tolist()


def topk_attention_select(row, i, k):
    """Row i of the vectorised top-k attention mask, with row as receiver i's scores."""
    soft = np.zeros((1, len(row), len(row)))
    soft[0, i] = row
    return np.flatnonzero(topk_attention_mask(soft, k)[0, i]).tolist()


def nearest_program(k=1):
    # score = -d with an always-true filter: each rule picks the nearest agent
    fmap = FeatureMap("v1")
    names = feature_names(fmap, 4)
    w_score = np.zeros(fmap.dim(4))
    w_score[names.index("d")] = -1.0
    rules = tuple(DetRule(ScoreExpr(tuple(w_score)), true_predicate(fmap, 4)) for _ in range(k))
    return Program(rules, fmap)


class TestHardAttention:
    def test_single_selection(self):
        out = harden_row(np.array([0.5, 0.3, 0.2]), {0})
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_renormalization_example(self):
        out = harden_row(np.array([0.5, 0.3, 0.2]), {0, 2})
        np.testing.assert_allclose(out, [0.7142857142857143, 0.0, 0.2857142857142857])
        assert out[0] == pytest.approx(0.7143, abs=5e-5)
        assert out[2] == pytest.approx(0.2857, abs=5e-5)

    def test_full_selection_unchanged(self):
        row = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(harden_row(row, {0, 1, 2}), row)

    def test_empty_selection_zero_row(self):
        np.testing.assert_array_equal(harden_row(np.array([0.5, 0.5]), set()), np.zeros(2))

    def test_randomized_pairs_against_definition(self):
        rng = make_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            row = rng.dirichlet(np.ones(n))
            sel = {int(j) for j in rng.choice(n, size=rng.integers(0, n + 1), replace=False)}
            out = harden_row(row, sel)
            if not sel:
                assert np.array_equal(out, np.zeros(n))
                continue
            z = sum(row[j] for j in sel)
            for j in range(n):
                expected = row[j] / z if j in sel else 0.0
                assert out[j] == pytest.approx(expected, abs=1e-12)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestSelectors:
    def test_dist_collinear(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert dist_mask_select(positions, 1, 1) == [0]

    def test_dist_full_neighborhood(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert sorted(dist_mask_select(positions, 0, 2)) == [1, 2]

    def test_dist_equidistant_tie(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert dist_mask_select(positions, 0, 1) == [1]

    def test_dist_k_bound(self):
        with pytest.raises(ValueError):
            dist_mask_select(np.zeros((3, 2)), 0, 3)

    def test_topk_basic(self):
        assert sorted(topk_attention_select(np.array([0.5, 0.3, 0.2]), 2, 2)) == [0, 1]

    def test_topk_is_argmax_for_k1(self):
        assert topk_attention_select(np.array([0.1, 0.7, 0.2]), 0, 1) == [1]

    def test_topk_uniform_tie_low_ids(self):
        assert topk_attention_select(np.full(5, 0.2), 4, 2) == [0, 1]

    def test_cardinality_exact(self):
        rng = make_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            row = rng.dirichlet(np.ones(n))
            positions = rng.normal(size=(n, 2))
            i = int(rng.integers(0, n))
            assert len(topk_attention_select(row, i, k)) == k
            assert len(dist_mask_select(positions, i, k)) == k
            assert i not in topk_attention_select(row, i, k)
            assert i not in dist_mask_select(positions, i, k)


class TestPolicies:
    def test_tf_full_requests_everyone(self):
        params = small_params()
        policy = TfFullPolicy(params, v_max=0.5)
        state = formation_state([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        step = OneStep(policy, state, make_rng(0))
        expected = {(j, i) for i in range(3) for j in range(3) if i != j}
        assert step.graph.edges == frozenset(expected)
        # reliable links leave the soft rows untouched (they include self)
        np.testing.assert_allclose(step.attentions[0].sum(axis=-1), np.ones(3), atol=1e-9)
        assert np.all(step.attentions[0] > 0)

    def test_combined_full_program_matches_masked_self_soft(self):
        # a program that always selects every other agent reproduces tf-full
        # minus the self-attention mass
        params = small_params(seed=2)
        state = formation_state([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        program = nearest_program(k=1)
        policy = CombinedPolicy(params, [program], v_max=0.5)
        step = OneStep(policy, state, make_rng(0))
        soft = OneStep(TfFullPolicy(params, v_max=0.5), state, make_rng(0))
        for i in range(3):
            sel = {j for j, dst in step.graph.edges if dst == i}
            row = soft.attentions[0][i].copy()
            expect = harden_row(row, sel)
            np.testing.assert_allclose(step.attentions[0][i], expect, atol=1e-9)

    def test_combined_empty_selection_acts_on_state_alone(self):
        params = small_params(seed=3)
        fmap = FeatureMap("v1")
        never = np.zeros(fmap.dim(4))
        never[-1] = -1.0
        program = Program((RandRule(PredicateAtom(tuple(never))),), fmap)
        policy = CombinedPolicy(params, [program], v_max=0.5)
        state = formation_state([[0.0, 0.0], [1.0, 1.0]])
        step = OneStep(policy, state, make_rng(0))
        assert step.graph.edges == frozenset()
        np.testing.assert_array_equal(step.attentions[0], np.zeros((2, 2)))
        nocomm = OneStep(NoCommPolicy(params, v_max=0.5), state, make_rng(0))
        np.testing.assert_allclose(step.action, nocomm.action, atol=1e-12)

    def test_combined_fixed_seed_deterministic(self):
        params = small_params(seed=4)
        fmap = FeatureMap("v1")
        dim = fmap.dim(4)
        program = Program((RandRule(true_predicate(fmap, 4)),), fmap)
        policy = CombinedPolicy(params, [program], v_max=0.5)
        state = formation_state([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        s1 = OneStep(policy, state, make_rng(9))
        s2 = OneStep(policy, state, make_rng(9))
        assert s1.graph.edges == s2.graph.edges
        np.testing.assert_array_equal(s1.action, s2.action)

    def test_combined_decentralized_messages(self):
        # zeroing all non-selected messages cannot change any action
        params = small_params(seed=5)
        program = nearest_program(k=1)
        policy = CombinedPolicy(params, [program], v_max=0.5)
        state = formation_state([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        step = OneStep(policy, state, make_rng(0))
        hard = step.attentions[0]
        messages = step.messages[0]
        received = messages.transpose(1, 0, 2)
        msum_full = np.einsum("ij,ijd->id", hard, received)
        kept = np.where(hard[:, :, None] > 0, received, 0.0)
        msum_masked = np.einsum("ij,ijd->id", hard, kept)
        np.testing.assert_allclose(msum_full, msum_masked, atol=1e-12)

    def test_topk_out_degree_can_exceed_k(self):
        # uniform attention (zero weights) ties every receiver to the lowest-id
        # senders, so sender 0 serves everyone: in-degree k, out-degree N-1
        params = small_params()
        for name in params.store.params:
            params.store.params[name][:] = 0.0
        policy = TopKAttnPolicy(params, k=1, v_max=0.5)
        n = 5
        state = formation_state(np.arange(n * 2, dtype=float).reshape(n, 2))
        step = OneStep(policy, state, make_rng(0))
        in_degrees = graph_mask(step.graph).sum(axis=1)
        assert max(in_degrees) <= 1
        assert graph_mask(step.graph)[:, 0].sum() == n - 1

    def test_no_comm_policy_has_no_edges(self):
        params = small_params(seed=6)
        policy = NoCommPolicy(params, v_max=0.5)
        state = formation_state([[0.0, 0.0], [1.0, 0.0]])
        step = OneStep(policy, state, make_rng(0))
        assert step.graph.edges == frozenset()

    def test_link_failure_shrinks_delivered_set(self):
        params = small_params(seed=7)
        policy = TfFullPolicy(params, v_max=0.5)
        state = formation_state(np.arange(12, dtype=float).reshape(6, 2))
        step = OneStep(policy, state, make_rng(8), p_fail=0.5)
        assert len(step.graph.edges) < 30
        rows = step.attentions[0]
        np.testing.assert_allclose(rows.sum(axis=-1), np.ones(6), atol=1e-9)

    def test_make_policy_dispatch(self):
        params = small_params()
        assert make_policy("tf-full", params, v_max=0.5).name == "tf-full"
        assert make_policy("dist", params, v_max=0.5, k=2).name == "dist"
        assert make_policy("hard-attn", params, v_max=0.5, k=2).name == "hard-attn"
        assert make_policy("no-comm", params, v_max=0.5).name == "no-comm"
        assert make_policy("combined", params, v_max=0.5, programs=[nearest_program()]).name == "combined"
        with pytest.raises(ValueError):
            make_policy("dist", params, v_max=0.5)
        with pytest.raises(ValueError):
            make_policy("warp", params)

    def test_combined_in_rollout_respects_rule_budget(self):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=5, group_presence_prob=1.0)
        params = small_params(seed=9)
        program = nearest_program(k=2)
        policy = CombinedPolicy(params, [program], v_max=cfg.v_max)
        traj = rollout(policy, cfg, make_rng(10))
        for step in traj.steps:
            for i in range(step.state.n_agents):
                assert graph_mask(step.graph)[i].sum() <= 2
