"""The fused ops of a training step against the op chain they replace.

forward_round, output_head, env.step_rewards and env.advance each record one
tape op. Their gradients match central differences; their values, and the
weight gradients of whole training iterations, are bitwise those of the
primitive-op chain in tests/reference.py; a non-finite intermediate still
raises; and a training iteration holds the few records the fusion leaves.
Hardening and squashing are kernels of these ops, not ops of their own: the
masked forward_round (its mask leaves a row empty, so both of hardening's
branches run) and the formation output_head check them.
"""

import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm import env
from swarmcomm.autodiff import NonFiniteValue, Tape
from swarmcomm.dsl import FeatureMap, Program, RandRule, true_predicate
from swarmcomm.env import RewardParams, TaskConfig
from swarmcomm.training import sample_world_batch, unroll_score
from swarmcomm.transformer import forward_round, init_for_task, init_transformer, output_head

import reference
from conftest import central_difference, make_rng
from test_training import nearest_program

B, N = 2, 3
DIMS = dict(key_dim=3, msg_dim=3, hidden_dim=5, internal_dim=3)


def params_for(kind, seed=0):
    if kind == "formation":
        return init_transformer("random-cross", 4, 2, 1, make_rng(seed), **DIMS)
    return init_transformer("unlabeled-goals", 2 + 2 * N, N, 2, make_rng(seed), **DIMS)


def round_inputs(params, round_index, seed):
    rng = make_rng(seed)
    inputs = {
        "states": rng.normal(size=(B, N, params.state_dim)),
        "obs": rng.normal(size=(B, N, N, 2)),
    }
    if round_index == 1:
        inputs["internal"] = rng.normal(size=(B, N, params.internal_dim))
    suffix = "" if round_index == 0 else "2"
    nets = [f"key{suffix}", "msg" if round_index == 0 else "msg2", f"query{suffix}"]
    nets += ["internal"] * (params.rounds == 2 and round_index == 0)
    for name, value in params.store.params.items():
        if name.split(".")[0] in nets:
            inputs[name] = value + rng.normal(scale=0.3, size=value.shape)
    return inputs


def fixed_mask(seed):
    """A (B, N, N) selection with one empty row, so hardening's z == 0 branch is taken."""
    mask = make_rng(seed).random((B, N, N)) < 0.6
    mask[0, 1] = False
    mask[1, 2, 0] = True
    return mask


def run_round(params, round_index, mask, inputs):
    internal = inputs.get("internal")
    select = (lambda r, soft: mask) if mask is not None else None
    rs = forward_round(params, inputs["states"], inputs["obs"], round_index, internal, select_fn=select, weights=inputs)
    return rs.internal if params.rounds == 2 and round_index == 0 else rs.msg_sum


def run_head(params, inputs, perm_inv):
    return output_head(params, inputs, inputs["states"], inputs["msg_sum"], v_max=0.7, goal_perm_inv=perm_inv)


def head_inputs(params, seed):
    rng = make_rng(seed)
    inputs = {
        "states": rng.normal(size=(B, N, params.state_dim)),
        "msg_sum": rng.normal(size=(B, N, params.msg_dim)),
    }
    for name, value in params.store.params.items():
        if name.startswith("out."):
            inputs[name] = value + rng.normal(scale=0.3, size=value.shape)
    return inputs


def perm_inv_for(kind, seed):
    if kind == "formation":
        return None
    rng = make_rng(seed)
    return np.stack([np.stack([rng.permutation(N) for _ in range(N)]) for _ in range(B)])


def check_against_central_differences(op, inputs, seed, samples=5):
    """The taped gradient of sum(op(inputs) * proj) w.r.t. every input, on a few entries each."""
    rng = make_rng(seed)
    proj = None

    def scalar(values):
        nonlocal proj
        out = op(values)
        if proj is None:
            proj = rng.normal(size=out.shape)
        return out, ad.tensor_sum(ad.mul(out, proj))

    tape = Tape()
    leaves = {name: tape.leaf(value, requires_grad=True) for name, value in inputs.items()}
    out, loss = scalar(leaves)
    assert len(tape.records) == 3  # the fused op, then mul and sum
    grads = ad.backward(tape, loss)
    for name, value in inputs.items():
        picks = rng.choice(value.size, size=min(samples, value.size), replace=False)

        def f(flat, name=name, value=value):
            return float(scalar({**inputs, name: flat.reshape(value.shape)})[1].data)

        numeric = central_difference(lambda v: f(_set(value, picks, v)), value.ravel()[picks])
        analytic = grads[leaves[name].node_id].ravel()[picks]
        # atol: a gradient that is zero by symmetry (key.b2: softmax ignores a shift common to a row)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8, err_msg=name)


def _set(value, picks, v):
    flat = value.ravel().copy()
    flat[picks] = v
    return flat


class TestCentralDifferences:
    @pytest.mark.parametrize("kind, round_index", [("formation", 0), ("coverage", 0), ("coverage", 1)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_forward_round(self, kind, round_index, masked):
        params = params_for(kind, seed=1)
        mask = fixed_mask(2) if masked else None
        inputs = round_inputs(params, round_index, seed=3)
        check_against_central_differences(lambda v: run_round(params, round_index, mask, v), inputs, seed=4)

    @pytest.mark.parametrize("kind", ["formation", "coverage"])
    def test_output_head(self, kind):
        params = params_for(kind, seed=5)
        perm_inv = perm_inv_for(kind, 6)
        check_against_central_differences(lambda v: run_head(params, v, perm_inv), head_inputs(params, 7), seed=8)

    @pytest.mark.parametrize("formation", [True, False])
    def test_step_rewards_and_advance(self, formation):
        rng = make_rng(13)
        cfg = TaskConfig(task_kind="random-cross" if formation else "unlabeled-goals", n_agents_per_group=N, dt=0.3)
        goals = rng.normal(size=(B, N, 2))
        pos = rng.normal(size=(B, N, 2))
        actions = rng.normal(size=(B, N, 2)) if formation else ad.softmax_forward(rng.normal(size=(B, N, N)))
        params = RewardParams(collision_distance=2.5)  # every pair inside the hinge, none at the kink
        if formation:
            rel = pos[:, None] - pos[:, :, None]
            check_against_central_differences(
                lambda v: env.step_rewards(v["pos"], v["rel"], goals, None, True, params).total,
                {"pos": pos, "rel": rel}, seed=14,
            )
        else:
            check_against_central_differences(
                lambda v: env.step_rewards(None, None, goals, v["actions"], False, params).total,
                {"actions": actions}, seed=14,
            )
        check_against_central_differences(
            lambda v: env.advance(v["pos"], goals, v["actions"], cfg), {"pos": pos, "actions": actions}, seed=15,
        )


def _taped(op, inputs):
    """op's output data and the gradients of a loss that also uses every input directly."""
    tape = Tape()
    leaves = {name: tape.leaf(value, requires_grad=True) for name, value in inputs.items()}
    out = op(leaves)
    loss = ad.tensor_sum(ad.mul(out, np.linspace(-1.0, 2.0, out.data.size).reshape(out.shape)))
    for leaf in leaves.values():  # a second use of each input: its gradients accumulate
        loss = ad.add(loss, ad.tensor_sum(ad.tanh(leaf)))
    grads = ad.backward(tape, loss)
    return out.data, {name: grads[leaf.node_id] for name, leaf in leaves.items()}


class TestBitwiseTheChain:
    @pytest.mark.parametrize("kind, round_index", [("formation", 0), ("coverage", 0), ("coverage", 1)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_forward_round(self, kind, round_index, masked):
        params = params_for(kind, seed=20)
        mask = fixed_mask(21) if masked else None
        inputs = round_inputs(params, round_index, seed=22)
        select = (lambda r, soft: mask) if mask is not None else None

        def run(op, values):
            return op(params, values["states"], values["obs"], round_index, values.get("internal"), select, values)

        fused, chain = run(forward_round, inputs), run(reference.chain_forward_round, inputs)
        for field in ("queries", "keys", "messages", "soft", "attention", "msg_sum", "internal"):
            if getattr(chain, field) is not None:
                assert getattr(fused, field).data.tobytes() == getattr(chain, field).data.tobytes(), field

        def output(op):
            def recorded(values):
                rs = run(op, values)
                return rs.internal if rs.internal is not None else rs.msg_sum

            return recorded

        fused_out, fused_grads = _taped(output(forward_round), inputs)
        chain_out, chain_grads = _taped(output(reference.chain_forward_round), inputs)
        assert fused_out.tobytes() == chain_out.tobytes()
        for name in inputs:
            assert fused_grads[name].tobytes() == chain_grads[name].tobytes(), name

    @pytest.mark.parametrize("kind", ["formation", "coverage"])
    def test_output_head(self, kind):
        params = params_for(kind, seed=23)
        perm_inv = perm_inv_for(kind, 24)
        inputs = head_inputs(params, 25)

        def run(op):
            return lambda v: op(params, v, v["states"], v["msg_sum"], v_max=0.7, goal_perm_inv=perm_inv)

        assert run(output_head)(inputs).data.tobytes() == run(reference.chain_output_head)(inputs).data.tobytes()
        fused_out, fused_grads = _taped(run(output_head), inputs)
        chain_out, chain_grads = _taped(run(reference.chain_output_head), inputs)
        assert fused_out.tobytes() == chain_out.tobytes()
        for name in inputs:
            assert fused_grads[name].tobytes() == chain_grads[name].tobytes(), name


def one_iteration(cfg, seed, programs=None):
    """The score of one training iteration, its weight gradients as bytes, and the tape's record count."""
    rng = make_rng(seed)
    params = init_for_task(cfg, rng, key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4)
    worlds = sample_world_batch(cfg, 4, rng)
    tape = ad.Tape()
    weights = {name: tape.leaf(value, requires_grad=True) for name, value in params.store.params.items()}
    score = unroll_score(params, worlds, cfg, RewardParams(), 0.99, rng, programs=programs, tape=tape, weights=weights)
    n_records = len(tape.records)
    grads = ad.backward(tape, score)
    return score.data.tobytes(), {name: grads[t.node_id].tobytes() for name, t in weights.items()}, n_records


class TestTrainingIterationIsBitwiseTheChain:
    """Values and weight gradients of one iteration, fused against the op chain."""

    def _check(self, monkeypatch, cfg, seed, programs=None):
        fused = one_iteration(cfg, seed, programs)
        reference.use_op_chain(monkeypatch)
        chain = one_iteration(cfg, seed, programs)
        assert fused[0] == chain[0]
        assert fused[1] == chain[1]
        assert fused[2] < chain[2]

    def test_crossing(self, monkeypatch):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=6, group_presence_prob=1.0)
        self._check(monkeypatch, cfg, seed=40)

    def test_grid_with_lossy_links(self, monkeypatch):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=2, horizon=6, link_failure_prob=0.3)
        self._check(monkeypatch, cfg, seed=41)

    def test_retrain_with_a_random_rule(self, monkeypatch):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=6, group_presence_prob=1.0)
        fmap = FeatureMap("v1")
        program = Program((RandRule(true_predicate(fmap, 4)), nearest_program().rules[0]), fmap)
        self._check(monkeypatch, cfg, seed=42, programs=[program])

    def test_coverage(self, monkeypatch):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=3, horizon=6)
        self._check(monkeypatch, cfg, seed=43)


class TestNonFinite:
    def test_a_saturated_pre_activation_raises_on_the_tape_only(self):
        params = params_for("formation", seed=30)
        inputs = round_inputs(params, 0, seed=31)
        inputs["key.w1"] = np.full_like(inputs["key.w1"], 1e200)
        inputs["states"] = np.full_like(inputs["states"], 1e200)
        with np.errstate(all="ignore"):
            run_round(params, 0, None, inputs)  # tanh saturates, so off the tape the values stay finite
            tape = Tape()
            with pytest.raises(NonFiniteValue, match="forward_round"):
                run_round(params, 0, None, {k: tape.constant(v) for k, v in inputs.items()})

    def test_overflowing_logits_raise_off_the_tape_too(self):
        params = params_for("formation", seed=32)
        inputs = round_inputs(params, 0, seed=33)
        inputs["key.w2"] = np.full_like(inputs["key.w2"], 1e200)
        inputs["query.w2"] = np.full_like(inputs["query.w2"], 1e200)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue, match=r"div \(forward_round\)"):
            run_round(params, 0, None, inputs)

    def test_output_head_and_rewards_name_the_op(self):
        params = params_for("formation", seed=34)
        inputs = head_inputs(params, 35)
        inputs["out.w2"] = np.full_like(inputs["out.w2"], 1e300)
        inputs["out.b2"] = np.full_like(inputs["out.b2"], 1e308)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue, match=r"sqrt \(output_head\)"):
            run_head(params, inputs, None)
        pos = np.zeros((1, 2, 2))
        pos[0, 1] = 1.0
        rel = pos[:, None] - pos[:, :, None]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue, match=r"div \(step_rewards\)"):
            env.step_rewards(pos, rel, pos, None, True, RewardParams(collision_distance=1e-320))


class TestRecordsPerIteration:
    """A lost fusion shows here: the records of one training iteration at the benchmark's batch of 16."""

    def _records(self, cfg, seed):
        rng = make_rng(seed)
        params = init_for_task(cfg, rng)
        worlds = sample_world_batch(cfg, 16, rng)
        tape = ad.Tape()
        weights = {name: tape.leaf(value, requires_grad=True) for name, value in params.store.params.items()}
        unroll_score(params, worlds, cfg, RewardParams(), 0.99, rng, tape=tape, weights=weights)
        return len(tape.records)

    def test_cross(self):
        cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=5, min_groups=2, dt=0.4, horizon=50)
        assert self._records(cfg, seed=50) <= 800
        assert self._records(cfg, seed=50) == 591

    def test_coverage(self):
        cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=5, horizon=50)
        assert self._records(cfg, seed=51) == 643

    def test_grid_sweep(self):
        cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=5, horizon=20, link_failure_prob=0.3)
        assert self._records(cfg, seed=52) == 231
