import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm.transformer import (
    TransformerParams,
    forward_policy,
    forward_round,
    harden_rows,
    init_transformer,
    squash_action,
)

from conftest import central_difference, make_rng, relative_error
from reference import act, message, soft_attention


def small_params(task="random-cross", state_dim=4, action_dim=2, rounds=1, seed=0, **kw):
    kw.setdefault("key_dim", 4)
    kw.setdefault("msg_dim", 4)
    kw.setdefault("hidden_dim", 8)
    kw.setdefault("internal_dim", 4)
    return init_transformer(task, state_dim, action_dim, rounds, make_rng(seed), **kw)


def random_world(rng, n, state_dim=4):
    states = rng.normal(size=(1, n, state_dim))
    obs = rng.normal(size=(1, n, n, 2))
    obs[:, np.arange(n), np.arange(n)] = 0.0
    return states, obs


class TestMessage:
    def test_zero_weights_zero_message(self):
        params = small_params()
        for name in params.store.params:
            params.store.params[name][:] = 0.0
        out = message(params, np.ones(4), np.ones(2))
        np.testing.assert_array_equal(out, np.zeros(params.msg_dim))

    def test_pure_function(self):
        params = small_params(seed=1)
        s, o = np.array([1.0, 2.0, 0.5, -1.0]), np.array([0.3, -0.7])
        np.testing.assert_array_equal(message(params, s, o), message(params, s, o))

    def test_depends_only_on_inputs(self):
        # the same (state, observation) pair produces the same message no
        # matter which recipient slot it is computed for
        params = small_params(seed=2)
        rng = make_rng(3)
        s = rng.normal(size=4)
        o = rng.normal(size=2)
        msgs = [message(params, s, o) for _ in range(3)]
        assert all(np.array_equal(msgs[0], m) for m in msgs)

    def test_round_index_bound(self):
        params = small_params()
        with pytest.raises(ValueError):
            message(params, np.ones(4), np.ones(2), round_index=1)

    def test_round_two_uses_internal_vector(self):
        params = small_params(task="unlabeled-goals", state_dim=6, action_dim=2, rounds=2)
        h = np.ones(params.internal_dim)
        out = message(params, np.ones(6), np.ones(2), round_index=1, h_i=h)
        assert out.shape == (params.msg_dim,)
        with pytest.raises(ValueError):
            message(params, np.ones(6), np.ones(2), round_index=1)


class TestSoftAttention:
    def test_equal_logits_uniform(self):
        keys = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (5, 1))
        row = soft_attention(np.array([2.0, 0.0, 0.0, 0.0]), keys, 4)
        np.testing.assert_allclose(row, np.full(5, 0.2), atol=1e-12)

    def test_single_sender(self):
        row = soft_attention(np.ones(4), np.ones((1, 4)), 4)
        np.testing.assert_allclose(row, [1.0])

    def test_softmax_of_one_zero(self):
        # scaled logits (1, 0): keys engineered so <q, k>/sqrt(d) = (1, 0)
        d = 4
        q = np.array([2.0, 0.0, 0.0, 0.0])
        keys = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        row = soft_attention(q, keys, d)
        np.testing.assert_allclose(row, [0.7310585786300049, 0.2689414213699951], atol=1e-12)


class TestSquash:
    def test_zero_input_zero_output(self):
        out = squash_action(np.zeros((1, 2)), 1.0)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_saturates_at_vmax(self):
        out = squash_action(np.array([[1000.0, 0.0]]), 0.5)
        assert np.linalg.norm(out.data) == pytest.approx(0.5, abs=1e-9)

    def test_unit_input(self):
        out = squash_action(np.array([[1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out.data, [[np.tanh(1.0), 0.0]], atol=1e-12)

    def test_never_exceeds_vmax(self):
        rng = make_rng(4)
        u = rng.normal(size=(100, 2)) * 10.0
        out = squash_action(u, 0.5)
        assert np.all(np.linalg.norm(out.data, axis=-1) <= 0.5 + 1e-12)


class TestAct:
    def test_one_hot_attention_selects_single_message(self):
        params = small_params(seed=5)
        rng = make_rng(6)
        msgs = rng.normal(size=(4, params.msg_dim))
        s = rng.normal(size=4)
        row = np.array([0.0, 0.0, 1.0, 0.0])
        direct = act(params, s, msgs, row, v_max=0.5)
        only = act(params, s, np.tile(msgs[2], (4, 1)), np.full(4, 0.25), v_max=0.5)
        np.testing.assert_allclose(direct, only, atol=1e-12)

    def test_sender_permutation_invariance(self):
        params = small_params(seed=7)
        rng = make_rng(8)
        msgs = rng.normal(size=(5, params.msg_dim))
        row = rng.dirichlet(np.ones(5))
        s = rng.normal(size=4)
        perm = rng.permutation(5)
        a1 = act(params, s, msgs, row, v_max=0.5)
        a2 = act(params, s, msgs[perm], row[perm], v_max=0.5)
        np.testing.assert_allclose(a1, a2, atol=1e-12)

    def test_unlabeled_weights_form_simplex(self):
        params = small_params(task="unlabeled-goals", state_dim=8, action_dim=3, seed=9)
        rng = make_rng(10)
        out = act(params, rng.normal(size=8), rng.normal(size=(3, params.msg_dim)), np.full(3, 1 / 3))
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0)


class TestForward:
    def test_action_composes_single_agent_ops(self):
        params = small_params(seed=11)
        rng = make_rng(12)
        n = 4
        states, obs = random_world(rng, n)
        result = forward_policy(params, states, obs, v_max=0.5)
        for i in range(n):
            q = result.rounds[0].queries.data[0, i]
            keys = result.rounds[0].keys.data[0, i]
            row = soft_attention(q, keys, params.key_dim)
            np.testing.assert_allclose(result.rounds[0].attention.data[0, i], row, atol=1e-12)
            received = np.stack([message(params, states[0, j], obs[0, j, i]) for j in range(n)])
            expected = act(params, states[0, i], received, row, v_max=0.5)
            np.testing.assert_allclose(result.actions.data[0, i], expected, atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        params = small_params(seed=13)
        rng = make_rng(14)
        states, obs = random_world(rng, 6)
        result = forward_policy(params, states, obs, v_max=0.5)
        rows = result.rounds[0].attention.data
        np.testing.assert_allclose(rows.sum(axis=-1), np.ones((1, 6)), atol=1e-9)
        assert np.all(rows > 0)

    def test_full_selection_mask_matches_masked_self_renormalization(self):
        # selecting every other sender is, by definition, the soft row with the
        # self column removed and renormalized
        params = small_params(seed=17)
        rng = make_rng(18)
        n = 5
        states, obs = random_world(rng, n)
        mask = np.ones((1, n, n)) - np.eye(n)[None]
        result = forward_policy(params, states, obs, v_max=0.5, select_fn=lambda r, soft: mask)
        soft = forward_policy(params, states, obs, v_max=0.5).rounds[0].attention.data
        expected = soft * mask
        expected /= expected.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(result.rounds[0].attention.data, expected, atol=1e-9)

    def test_relabeling_permutation_equivariance(self):
        params = small_params(seed=19)
        rng = make_rng(20)
        n = 5
        states, obs = random_world(rng, n)
        perm = rng.permutation(n)
        actions = forward_policy(params, states, obs, v_max=0.5).actions.data
        actions_p = forward_policy(
            params, states[:, perm], obs[:, perm][:, :, perm], v_max=0.5
        ).actions.data
        np.testing.assert_allclose(actions_p[0], actions[0, perm], atol=1e-10)

    def test_velocity_bound_holds(self):
        params = small_params(seed=21)
        rng = make_rng(22)
        states, obs = random_world(rng, 4)
        states = states * 10.0
        result = forward_policy(params, states, obs, v_max=0.5)
        assert np.all(np.linalg.norm(result.actions.data, axis=-1) <= 0.5 + 1e-12)

    def test_unlabeled_action_is_global_permutation_of_simplex(self):
        n = 3
        params = small_params(
            task="unlabeled-goals", state_dim=2 + 2 * n, action_dim=n, rounds=2, seed=23
        )
        rng = make_rng(24)
        states = rng.normal(size=(1, n, 2 + 2 * n))
        obs = rng.normal(size=(1, n, n, 2))
        order = np.stack([rng.permutation(n) for _ in range(n)])[None]
        inv = np.argsort(order[0], axis=-1)[None]
        result = forward_policy(params, states, obs, goal_perm_inv=inv)
        weights = result.actions.data[0]
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(n), atol=1e-9)

    def test_two_round_zero_internal_net_kills_state_dependence(self):
        # zero internal network -> h = 0 for every agent, so round-2 messages
        # depend only on the observation path
        n = 3
        params = small_params(
            task="unlabeled-goals", state_dim=2 + 2 * n, action_dim=n, rounds=2, seed=25
        )
        for name in list(params.store.params):
            if name.startswith("internal."):
                params.store.params[name][:] = 0.0
        rng = make_rng(26)
        obs = rng.normal(size=(1, n, n, 2))
        inv = np.tile(np.arange(n), (1, n, 1))
        s1 = rng.normal(size=(1, n, 2 + 2 * n))
        s2 = rng.normal(size=(1, n, 2 + 2 * n))
        m1 = forward_policy(params, s1, obs, goal_perm_inv=inv).rounds[1].messages.data
        m2 = forward_policy(params, s2, obs, goal_perm_inv=inv).rounds[1].messages.data
        np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_round_index_bound(self):
        params = small_params()
        with pytest.raises(ValueError):
            forward_round(params, np.zeros((1, 2, 4)), np.zeros((1, 2, 2, 2)), round_index=1)


class TestHardenRows:
    def test_empty_selection_gives_zero_row(self):
        soft = ad.softmax(np.zeros((1, 2, 3)))
        mask = np.zeros((1, 2, 3))
        hard = harden_rows(soft, mask)
        np.testing.assert_array_equal(hard.data, np.zeros((1, 2, 3)))

    def test_kept_mass_is_renormalized_exactly(self):
        # the kept weight is ~5e-9 of the row; dividing by exactly z gives 1.0
        soft = ad.softmax(np.array([[0.0, 50.0, 1.0]]))
        hard = harden_rows(soft, np.array([[1.0, 0.0, 0.0]]))
        assert hard.data[0, 0] == 1.0
        np.testing.assert_array_equal(hard.data[0, 1:], [0.0, 0.0])

    def test_gradient_flows_through_kept_weights_only(self):
        tape = ad.Tape()
        logits = tape.leaf(np.array([[0.3, -0.2, 0.9]]), requires_grad=True)
        soft = ad.softmax(logits)
        mask = np.array([[1.0, 0.0, 1.0]])
        hard = harden_rows(soft, mask)
        out = ad.tensor_sum(ad.mul(hard, np.array([[1.0, 5.0, 2.0]])))
        grads = ad.backward(tape, out)
        g = grads[logits.node_id]

        def scalar(v):
            s = np.exp(v - v.max())
            s /= s.sum()
            masked = s * mask[0]
            return float((masked / masked.sum() * np.array([1.0, 5.0, 2.0])).sum())

        numeric = central_difference(scalar, logits.data[0])
        assert relative_error(g[0], numeric) < 1e-5


class TestParamsIO:
    def test_save_load_roundtrip(self, tmp_path):
        params = small_params(task="unlabeled-goals", state_dim=6, action_dim=2, rounds=2, seed=27)
        path = tmp_path / "oracle.json"
        params.save(path)
        loaded = TransformerParams.load(path)
        assert loaded.task_kind == "unlabeled-goals"
        assert loaded.rounds == 2
        assert loaded.state_dim == 6
        assert set(loaded.store.params) == set(params.store.params)
        for name in params.store.params:
            np.testing.assert_array_equal(loaded.store.params[name], params.store.params[name])

    def test_loaded_params_forward_identically(self, tmp_path):
        params = small_params(seed=28)
        path = tmp_path / "p.json"
        params.save(path)
        loaded = TransformerParams.load(path)
        rng = make_rng(29)
        states, obs = random_world(rng, 3)
        a1 = forward_policy(params, states, obs, v_max=0.5).actions.data
        a2 = forward_policy(loaded, states, obs, v_max=0.5).actions.data
        np.testing.assert_array_equal(a1, a2)


class TestGradients:
    def test_forward_gradient_matches_fd_on_sampled_weights(self):
        params = small_params(seed=30)
        rng = make_rng(31)
        states, obs = random_world(rng, 3)
        target = rng.normal(size=(1, 3, 2))

        def objective() -> float:
            out = forward_policy(params, states, obs, v_max=0.5)
            return float(ad.tensor_sum(ad.mul(out.actions, target)).data)

        tape = ad.Tape()
        weights = {k: tape.leaf(v, requires_grad=True) for k, v in params.store.params.items()}
        out = forward_policy(params, states, obs, v_max=0.5, weights=weights)
        loss = ad.tensor_sum(ad.mul(out.actions, tape.constant(target)))
        grads = ad.backward(tape, loss)
        h = 1e-5
        for name in ("msg.w1", "key.w2", "query.w1", "out.w2", "msg.b2"):
            w = params.store.params[name]
            g = grads[weights[name].node_id]
            for _ in range(3):
                idx = tuple(rng.integers(0, s) for s in w.shape)
                orig = w[idx]
                w[idx] = orig + h
                up = objective()
                w[idx] = orig - h
                dn = objective()
                w[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(g[idx] - fd) < 1e-4 * max(1.0, abs(fd))
