"""Relabeling a world's agents permutes what the policy, the rule programs and the degree counts return, alike.

The model reads no agent order. Permute the agents of each world by p: the
states, the observations o[p][:, p], goal_perm_inv[p] and a random rule's
uniforms. Then forward_policy's actions and attention rows, eval_program_batch's
picks and degree_stats permute the same way, and step_rewards, the training
loss and its weight gradients stay the same up to the order of their sums
(1e-12 relative).

Features are drawn continuous, so deterministic rules meet no tie; each test
asserts that none occurred, since a tie goes to the lowest agent id. A random
rule picks passing sender number floor(u * count) in id order, so relabeling
changes which sender a uniform picks: the law holds for it only in
distribution, and its exact part is checked here: its filter, and so each
receiver's in-degree, permutes alike.
"""

import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm import dsl
from swarmcomm.dsl import BoolOp, DetRule, FeatureMap, PredicateAtom, Program, RandRule, ScoreExpr
from swarmcomm.env import GlobalState, RewardParams, TaskConfig, WorldBatch, step_rewards
from swarmcomm.training import sample_world_batch, unroll_score
from swarmcomm.transformer import forward_policy, init_for_task

from conftest import make_rng

B = 3
TASKS = {
    "formation": TaskConfig(task_kind="random-cross", n_agents_per_group=5, min_groups=2, obs_noise_sigma=0.0, horizon=6),
    "coverage": TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=5, obs_noise_sigma=0.0, horizon=6),
}


def close(got: np.ndarray, want: np.ndarray) -> None:
    """got equals want to 1e-12 relative to want's largest magnitude."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


def agents(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x (B, N, ...) with the agents of every world relabeled: agent a of the result is agent p[a] of x."""
    return x[:, p]


def pairs(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x (B, N, N, ...) over (receiver, sender) pairs, both axes relabeled by p."""
    return x[:, p][:, :, p]


def derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation of n agents that moves every one of them."""
    while True:
        p = rng.permutation(n)
        if (p != np.arange(n)).all():
            return p


def _atoms(pred):
    return [pred] if isinstance(pred, PredicateAtom) else _atoms(pred.left) + _atoms(pred.right)


def assert_no_tie(rule, feats: np.ndarray, margin: float = 1e-9) -> None:
    """Over the pairs of feats (..., N, N, d'), no atom's form lies within margin of its threshold and no
    deterministic rule's two best passing senders score within margin of each other."""
    n = feats.shape[-2]
    offdiag = ~np.eye(n, dtype=bool)
    forms = dsl.LinearForms(feats)
    for atom in _atoms(rule.pred):
        assert np.abs(forms.score(atom.weights)[..., offdiag]).min() > margin, "a pair on an atom's threshold"
    if isinstance(rule, DetRule):
        keep = dsl._eval_pred(rule.pred, forms) & offdiag
        ranked = -np.sort(-np.where(keep, forms.score(rule.score.weights), -np.inf), axis=-1)
        both = keep.sum(axis=-1) >= 2
        assert (ranked[both][:, 0] - ranked[both][:, 1]).min(initial=np.inf) > margin, "two passing senders score alike"


def world_inputs(kind: str, seed: int):
    """Parameters, a batch's states and noisy observations with the diagonal +0.0, goal_perm_inv, and p."""
    cfg = TASKS[kind]
    rng = make_rng(seed)
    params = init_for_task(cfg, rng)
    batch = WorldBatch.stack(sample_world_batch(cfg, B, rng))
    n = batch.positions.shape[1]
    states = batch.agent_states(batch.positions).data
    obs = batch.positions[:, None, :, :] - batch.positions[:, :, None, :] + 0.1 * rng.standard_normal((B, n, n, 2))
    obs[:, np.arange(n), np.arange(n)] = 0.0
    return cfg, params, states, obs, batch.goal_perm_inv, derangement(n, rng)


@pytest.mark.parametrize("hardened", [False, True], ids=["soft", "hardened"])
@pytest.mark.parametrize("kind", TASKS)
def test_forward_policy_permutes_actions_and_attention_rows(kind, hardened):
    cfg, params, states, obs, perm_inv, p = world_inputs(kind, seed=60)
    n = states.shape[1]
    mask = make_rng(61).random((B, n, n)) < 0.5
    mask[:, 0] = False  # agent 0 keeps nobody, so both of hardening's branches run
    select = (lambda r, soft: mask) if hardened else None
    select_p = (lambda r, soft: pairs(mask, p)) if hardened else None
    want = forward_policy(params, states, obs, cfg.v_max, select, perm_inv)
    got = forward_policy(params, agents(states, p), pairs(obs, p), cfg.v_max, select_p,
                         None if perm_inv is None else agents(perm_inv, p))
    close(got.actions.data, agents(want.actions.data, p))
    assert len(got.rounds) == params.rounds
    for rg, rw in zip(got.rounds, want.rounds):
        close(rg.attention.data, pairs(rw.attention.data, p))


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_rule_picks_and_degrees_permute_alike(version):
    rng = make_rng(62)
    n, ds = 7, 4
    fmap = FeatureMap(version)
    states, obs = rng.standard_normal((B, n, ds)), rng.standard_normal((B, n, n, 2))
    obs[:, np.arange(n), np.arange(n)] = 0.0
    p = derangement(n, rng)
    feats = dsl.featurize_agents(states, obs, fmap)
    feats_p = dsl.featurize_agents(agents(states, p), pairs(obs, p), fmap)
    assert np.array_equal(feats_p, pairs(feats, p))
    dim = fmap.dim(ds)

    def atom():
        return PredicateAtom(tuple(rng.standard_normal(dim)))

    det = Program((
        DetRule(ScoreExpr(tuple(rng.standard_normal(dim))), atom()),
        DetRule(ScoreExpr(tuple(rng.standard_normal(dim))), BoolOp("or", atom(), atom())),
        DetRule(ScoreExpr(tuple(rng.standard_normal(dim))), BoolOp("and", atom(), atom())),
    ), fmap)
    for rule in det.rules:
        assert_no_tie(rule, feats)
    sel = dsl.eval_program_batch(det, feats)
    sel_p = dsl.eval_program_batch(det, feats_p)
    assert sel.any() and not sel.all(axis=-1).any()
    assert np.array_equal(sel_p, pairs(sel, p))
    for got, want in zip(dsl.degree_stats(sel_p), dsl.degree_stats(sel)):
        assert np.array_equal(got, want)

    rand = Program((RandRule(atom()),), fmap)
    assert_no_tie(rand.rules[0], feats)
    u = rng.random((B, n, 1))
    picks = dsl.eval_program_batch(rand, feats, u)
    picks_p = dsl.eval_program_batch(rand, feats_p, agents(u, p))
    keep = dsl._eval_pred(rand.rules[0].pred, dsl.LinearForms(feats)) & ~np.eye(n, dtype=bool)
    assert np.array_equal(picks_p.sum(axis=-1), agents(picks.sum(axis=-1), p))
    assert np.array_equal(picks_p.sum(axis=-1), pairs(keep, p).any(axis=-1))
    assert not (picks_p & ~pairs(keep, p)).any()
    assert np.array_equal(dsl.degree_stats(picks_p)[0], dsl.degree_stats(picks)[0])


@pytest.mark.parametrize("kind", TASKS)
def test_step_rewards_stay_the_same(kind):
    cfg, params, states, obs, perm_inv, p = world_inputs(kind, seed=63)
    rng = make_rng(64)
    n = states.shape[1]
    pos = rng.standard_normal((B, n, 2))
    rel = pos[:, None, :, :] - pos[:, :, None, :]
    goals = rng.standard_normal((B, n, 2))
    actions = rng.random((B, n, params.action_dim))
    want = step_rewards(pos, rel, goals, actions, cfg.formation, RewardParams())
    got = step_rewards(agents(pos, p), pairs(rel, p), agents(goals, p) if cfg.formation else goals,
                       agents(actions, p), cfg.formation, RewardParams())
    close(got.total.data, want.total.data)
    if cfg.formation:  # per agent; coverage's terms are per goal, and goals are not relabeled
        close(got.goal, agents(want.goal, p))
        close(got.hinge, pairs(want.hinge, p))
        assert (want.hinge > 0).any()
    else:
        close(got.goal, want.goal)


def relabeled_world(world: GlobalState, p: np.ndarray) -> GlobalState:
    """The world with agent a holding agent p[a]'s position, goal (a formation's own goal) and goal order."""
    return GlobalState(
        world.task_kind,
        world.positions[p],
        world.goals[p] if world.goal_order is None else world.goals,
        world.group_ids[p],
        None if world.goal_order is None else world.goal_order[p],
    )


@pytest.mark.parametrize("kind", TASKS)
def test_loss_and_weight_gradients_stay_the_same(kind):
    cfg = TASKS[kind]
    rng = make_rng(65)
    params = init_for_task(cfg, rng)
    worlds = sample_world_batch(cfg, B, rng)
    p = derangement(worlds[0].n_agents, rng)

    def loss_and_grads(batch):
        tape = ad.Tape()
        weights = {name: tape.leaf(value, requires_grad=True) for name, value in params.store.params.items()}
        score = unroll_score(params, batch, cfg, RewardParams(), 0.99, make_rng(66), tape=tape, weights=weights)
        grads = ad.backward(tape, score)
        return score.data, {name: grads[t.node_id] for name, t in weights.items()}

    want_loss, want = loss_and_grads(worlds)
    got_loss, got = loss_and_grads([relabeled_world(w, p) for w in worlds])
    close(got_loss, want_loss)
    # one gradient vector: a weight whose gradient is zero in exact arithmetic (a key bias shifts a whole
    # softmax row) holds only rounding, which no per-weight relative bound can compare
    close(np.concatenate([got[name].ravel() for name in want]), np.concatenate([g.ravel() for g in want.values()]))
