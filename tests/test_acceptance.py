"""Acceptance suite: one test per criterion, shared pipeline fixtures.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; each test also prints an explicit ACCEPTANCE line on success. The two
end-to-end fixtures (formation crossing, goal coverage) train, distill, and
retrain real policies at desk scale, so this module dominates suite runtime.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm import cli
from swarmcomm.dsl import (
    CommGraph,
    DetRule,
    FeatureMap,
    PredicateAtom,
    Program,
    RandRule,
    ScoreExpr,
    degree_stats,
    eval_program_batch,
    feature_names,
    featurize_pairs,
)
from swarmcomm.env import RewardParams, TaskConfig, apply_link_failure, rollout
from swarmcomm.harness import evaluate
from swarmcomm.policy import (
    CombinedPolicy,
    NoCommPolicy,
    TfFullPolicy,
    TopKAttnPolicy,
)
from swarmcomm.synth import (
    SurrogateEvaluator,
    SynthConfig,
    collect_dataset,
    mcmc_synthesize,
    mh_accept,
    synthesize_multiround,
)
from swarmcomm.training import TrainConfig, retrain, sample_world_batch, train_oracle, unroll_score
from swarmcomm.transformer import forward_policy, init_for_task

from conftest import central_difference, make_rng, relative_error
from reference import featurize, graph_mask, harden_row, recount_degrees, save_config

# desk-scale pipeline knobs. The crossing config uses dt=0.4 so the goals are
# reachable inside the 50-step horizon (with dt=0.1 agents can cover only 2.5
# of the ~8 units separating starts from goals, no interactions ever happen,
# and the degree penalty correctly prunes all communication). The crossing
# tradeoff weight is 0.1: velocities are bounded by v_max=0.5, so per-tuple
# imitation gaps are O(1) and heavier weights price a unit of degree above the
# entire value of communicating.
ORACLE_ROLLOUTS = 2000
RETRAIN_ROLLOUTS = 500
COLLECT_ROLLOUTS = 40
CROSS_MCMC_STEPS = 4000
CROSS_TRADEOFF = 0.1
UNLABELED_MCMC_STEPS = 1500
UNLABELED_TRADEOFF = 0.5
RULES = 2
EVAL_SEEDS = [1000 + s for s in range(10)]
EVAL_ROLLOUTS = 20


def report_line(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


@dataclass
class Pipeline:
    cfg: TaskConfig
    rewards: RewardParams
    oracle_params: object
    programs: list
    retrained_params: object


@pytest.fixture(scope="module")
def cross_pipeline():
    cfg = TaskConfig(
        task_kind="random-cross", n_agents_per_group=5, horizon=50, min_groups=2, dt=0.4
    )
    rewards = RewardParams()
    rng = make_rng(1234)
    oracle = train_oracle(cfg, TrainConfig(n_rollouts=ORACLE_ROLLOUTS, batch_size=16, seed=1234), rng, rewards)
    dataset = collect_dataset(oracle.params, cfg, COLLECT_ROLLOUTS, rng, rewards)
    syn = mcmc_synthesize(
        dataset,
        SynthConfig(
            degree_weight=CROSS_TRADEOFF, mcmc_steps=CROSS_MCMC_STEPS, n_rules=RULES
        ),
        rng,
    )
    assert syn.breakdown.mean_max_degree > 0, "synthesis degenerated to the empty program"
    retrained = retrain(
        oracle.params,
        [syn.program],
        cfg,
        TrainConfig(n_rollouts=RETRAIN_ROLLOUTS, batch_size=16, seed=1234),
        rng,
        rewards,
    )
    return Pipeline(cfg, rewards, oracle.params, [syn.program], retrained.params)


@pytest.fixture(scope="module")
def unlabeled_pipeline():
    cfg = TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=5, horizon=50)
    rewards = RewardParams()
    rng = make_rng(77)
    oracle = train_oracle(cfg, TrainConfig(n_rollouts=ORACLE_ROLLOUTS, batch_size=16, seed=77), rng, rewards)
    dataset = collect_dataset(oracle.params, cfg, COLLECT_ROLLOUTS, rng, rewards)
    results = synthesize_multiround(
        dataset,
        SynthConfig(
            degree_weight=UNLABELED_TRADEOFF,
            mcmc_steps=UNLABELED_MCMC_STEPS,
            n_rules=RULES,
        ),
        rng,
    )
    programs = [r.program for r in results]
    retrained = retrain(
        oracle.params,
        programs,
        cfg,
        TrainConfig(n_rollouts=RETRAIN_ROLLOUTS, batch_size=16, seed=78),
        rng,
        rewards,
    )
    return Pipeline(cfg, rewards, oracle.params, programs, retrained.params)


def mean_loss(policy, cfg, rewards, seeds=EVAL_SEEDS, n=EVAL_ROLLOUTS):
    metrics = [evaluate(policy, cfg, n, 1.0, seed, rewards) for seed in seeds]
    return float(np.mean([m.loss_mean for m in metrics])), metrics


# ---------------------------------------------------------------------------
# criterion 1: autodiff correctness
# ---------------------------------------------------------------------------


def test_criterion_1_autodiff_correctness():
    start = time.time()
    rng = make_rng(100)
    # 100 randomized small tanh networks: full weight gradient vs central FD
    for trial in range(100):
        n_in = int(rng.integers(2, 5))
        n_hidden = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 3))
        x_in = rng.normal(size=(2, n_in))
        target = rng.normal(size=(2, n_out))
        w1_0 = rng.normal(size=(n_in, n_hidden))
        w2_0 = rng.normal(size=(n_hidden, n_out))
        flat0 = np.concatenate([w1_0.ravel(), w2_0.ravel()])
        split = n_in * n_hidden

        def run(flat):
            w1 = ad.reshape(ad.getitem(flat, slice(None, split)), (n_in, n_hidden))
            w2 = ad.reshape(ad.getitem(flat, slice(split, None)), (n_hidden, n_out))
            h = ad.tanh(ad.matmul(x_in, w1))
            out = ad.tanh(ad.matmul(h, w2))
            return ad.tensor_sum(ad.mul(out, target))

        tape = ad.Tape()
        leaf = tape.leaf(flat0, requires_grad=True)
        grads = ad.backward(tape, run(leaf))
        analytic = grads[leaf.node_id]
        numeric = central_difference(lambda v: float(run(v).data), flat0)
        assert relative_error(analytic, numeric) < 1e-4

    # unrolled 3-step, 3-agent rollout objective, gradient w.r.t. every weight
    cfg = TaskConfig(
        task_kind="random-grid", n_agents_per_group=1, horizon=3, obs_noise_sigma=0.05
    )
    params = init_for_task(cfg, make_rng(101), key_dim=4, msg_dim=4, hidden_dim=8)
    worlds = sample_world_batch(cfg, 2, make_rng(102))
    rewards = RewardParams()

    def objective_np() -> float:
        return float(
            unroll_score(params, worlds, cfg, rewards, 0.95, make_rng(103)).data
        )

    tape = ad.Tape()
    weights = {k: tape.leaf(v, requires_grad=True) for k, v in params.store.params.items()}
    score = unroll_score(
        params, worlds, cfg, rewards, 0.95, make_rng(103), tape=tape, weights=weights
    )
    grads = ad.backward(tape, score)
    h = 1e-5
    analytic_all, numeric_all = [], []
    for name, value in params.store.params.items():
        g = grads[weights[name].node_id]
        for idx in np.ndindex(value.shape):
            orig = value[idx]
            value[idx] = orig + h
            up = objective_np()
            value[idx] = orig - h
            dn = objective_np()
            value[idx] = orig
            analytic_all.append(g[idx])
            numeric_all.append((up - dn) / (2 * h))
    err = relative_error(np.asarray(analytic_all), np.asarray(numeric_all))
    assert err < 1e-4
    elapsed = time.time() - start
    assert elapsed < 60.0
    report_line("1 autodiff-correctness", f"rel err {err:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: attention laws
# ---------------------------------------------------------------------------


def test_criterion_2_attention_laws():
    rng = make_rng(200)
    cfg = TaskConfig(task_kind="random-cross", n_agents_per_group=2, horizon=5, group_presence_prob=1.0)
    params = init_for_task(cfg, rng, key_dim=8, msg_dim=8, hidden_dim=16)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        states = rng.normal(size=(1, n, 4))
        obs = rng.normal(size=(1, n, n, 2))
        soft = forward_policy(params, states, obs, v_max=0.5).rounds[0].attention.data[0]
        np.testing.assert_allclose(soft.sum(axis=-1), np.ones(n), atol=1e-9)
        assert np.all(soft > 0)
    # renormalization law on 10^4 randomized (row, selection) pairs
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 10))
        row = rng.dirichlet(np.full(n, rng.uniform(0.2, 3.0)))
        size = int(rng.integers(0, n + 1))
        sel = set(int(j) for j in rng.choice(n, size=size, replace=False))
        out = harden_row(row, sel)
        z = sum(row[j] for j in sel)
        for j in range(n):
            expected = row[j] / z if (j in sel and z > 0) else 0.0
            assert out[j] == pytest.approx(expected, abs=1e-12)
        if sel:
            assert out.sum() == pytest.approx(1.0, abs=1e-9)
        else:
            assert np.array_equal(out, np.zeros(n))
        checked += 1
    # the worked renormalization example
    out = harden_row(np.array([0.5, 0.3, 0.2]), {0, 2})
    assert out[0] == pytest.approx(0.7143, abs=5e-5)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(0.2857, abs=5e-5)
    report_line("2 attention-laws", "10^4 randomized pairs")


# ---------------------------------------------------------------------------
# criterion 3: rule interpreter equivalence
# ---------------------------------------------------------------------------


def _random_predicate(dim, rng):
    def atom():
        return PredicateAtom(tuple(rng.normal(size=dim)))

    roll = rng.random()
    if roll < 0.5:
        return atom()
    from swarmcomm.dsl import BoolOp

    op = "and" if rng.random() < 0.5 else "or"
    if roll < 0.8:
        return BoolOp(op, atom(), atom())
    op2 = "and" if rng.random() < 0.5 else "or"
    return BoolOp(op, BoolOp(op2, atom(), atom()), atom())


def _pred_holds(pred, phi):
    from swarmcomm.dsl import BoolOp

    if isinstance(pred, PredicateAtom):
        return float(np.dot(phi, pred.weights)) >= 0.0
    left = _pred_holds(pred.left, phi)
    right = _pred_holds(pred.right, phi)
    return (left and right) if pred.op == "and" else (left or right)


def _receiver_zero_features(s, cands, fmap):
    """Pair features (N, N, d') of a world whose receiver 0 sees candidate j at o_j."""
    n = len(cands) + 1
    obs = np.zeros((n, n, 2))
    for j, o in cands:
        obs[0, j] = o
    return featurize_pairs(np.broadcast_to(s, (n, n, len(s))), obs, fmap)


def test_criterion_3_dsl_oracle_equivalence():
    # the batched interpreter (the one rollouts and training run), receiver 0
    rng = make_rng(300)
    fmap = FeatureMap("v1")
    dim = fmap.dim(4)
    # deterministic rules vs exhaustive brute force, 1000 randomized programs
    for _ in range(1000):
        rule = DetRule(ScoreExpr(tuple(rng.normal(size=dim))), _random_predicate(dim, rng))
        n = int(rng.integers(2, 7))
        s = rng.normal(size=4)
        cands = [(j, rng.normal(size=2) * 2.0) for j in range(1, n)]
        best_id, best_score = None, -np.inf
        for j, o in cands:
            phi = featurize(s, o, fmap)
            if _pred_holds(rule.pred, phi):
                score = float(np.dot(phi, rule.score.weights))
                if score > best_score:
                    best_id, best_score = j, score
        mask = eval_program_batch(Program((rule,), fmap), _receiver_zero_features(s, cands, fmap)[None])
        picked = np.flatnonzero(mask[0, 0]).tolist()
        assert picked == ([] if best_id is None else [best_id])
    # nondeterministic rules: chi-square uniformity over randomized filter sets
    trials = 0
    while trials < 5:
        pred = _random_predicate(dim, rng)
        s = rng.normal(size=4)
        cands = [(j, rng.normal(size=2) * 2.0) for j in range(1, 9)]
        passing = [
            j for j, o in cands if _pred_holds(pred, featurize(s, o, fmap))
        ]
        if len(passing) < 2:
            continue
        trials += 1
        feats = _receiver_zero_features(s, cands, fmap)
        rand_u = make_rng(301 + trials).random((10_000, len(cands) + 1, 1))
        mask = eval_program_batch(
            Program((RandRule(pred),), fmap), np.broadcast_to(feats, (10_000,) + feats.shape), rand_u
        )[:, 0]
        assert np.all(mask.sum(axis=-1) == 1)
        counts = {j: int(mask[:, j].sum()) for j in passing}
        assert sum(counts.values()) == 10_000
        expected = 10_000 / len(passing)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square critical values at p = 0.01 for df = 1..7
        critical = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086, 6: 16.812, 7: 18.475}
        assert chi2 < critical[len(passing) - 1]
    report_line("3 dsl-oracle-equivalence", "1000 det programs, 5 chi-square sets")


# ---------------------------------------------------------------------------
# criterion 4: degree metric
# ---------------------------------------------------------------------------


def test_criterion_4_degree_metric(cross_pipeline):
    rng = make_rng(400)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            j, i = rng.integers(0, n, size=2)
            if j != i:
                edges.add((int(j), int(i)))
        graph = CommGraph(n, frozenset(edges))
        adj = np.zeros((n, n))
        for j, i in edges:
            adj[j, i] = 1.0
        assert degree_stats(graph_mask(graph))[2] == (int((adj.sum(0) + adj.sum(1)).max()) if n else 0)
    # K-rule combined policy: mean max in-degree <= K on every evaluation rollout
    pipe = cross_pipeline
    policy = CombinedPolicy(pipe.retrained_params, pipe.programs, v_max=pipe.cfg.v_max)
    k = pipe.programs[0].n_rules
    for seed in EVAL_SEEDS[:3]:
        metrics = evaluate(policy, pipe.cfg, 5, 1.0, seed, pipe.rewards)
        recount = recount_degrees(policy, pipe.cfg, 5, seed, pipe.rewards)
        assert {name: getattr(metrics, name) for name in recount} == pytest.approx(recount, rel=0, abs=1e-12)
        assert metrics.in_deg_mean <= k + 1e-12
    traj = rollout(policy, pipe.cfg, make_rng(401), pipe.rewards)
    for step_record in traj.steps:
        for i in range(step_record.state.n_agents):
            assert graph_mask(step_record.graph)[i].sum() <= k
    report_line("4 degree-metric", f"1000 graphs, in-degree <= K={k}")


# ---------------------------------------------------------------------------
# criterion 5: MCMC validity
# ---------------------------------------------------------------------------


def test_criterion_5_mcmc_validity():
    start = time.time()
    rng = make_rng(500)
    accept_up = sum(mh_accept(1.0, 1.0, rng) for _ in range(10_000)) / 10_000
    accept_down = sum(mh_accept(-1.0, 1.0, rng) for _ in range(10_000)) / 10_000
    assert accept_up == 1.0
    assert abs(accept_down - np.exp(-1.0)) < 0.02

    # enumerable mini space: K=1, threshold on the observation distance from a
    # 5-value grid, deterministic or random rule
    cfg = TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=5, obs_noise_sigma=0.05)
    params = init_for_task(cfg, make_rng(501), key_dim=4, msg_dim=4, hidden_dim=8)
    dataset = collect_dataset(params, cfg, 3, make_rng(502))
    fmap = FeatureMap("v1")
    names = feature_names(fmap, dataset.state_dim)
    dim = fmap.dim(dataset.state_dim)
    score = np.zeros(dim)
    score[names.index("d")] = -1.0

    def program_for(kind, tau):
        w = np.zeros(dim)
        w[names.index("d")] = 1.0
        w[-1] = -tau
        pred = PredicateAtom(tuple(w))
        rule = DetRule(ScoreExpr(tuple(score)), pred) if kind == "det" else RandRule(pred)
        return Program((rule,), fmap)

    space = [program_for(kind, tau) for kind in ("det", "rand") for tau in (0.5, 1.0, 2.0, 4.0, 8.0)]
    wins = 0
    for seed in range(10):
        ev = SurrogateEvaluator(dataset, 0.5, rng=make_rng(510 + seed))
        exhaustive = max(ev.evaluate(p) for p in space)
        chain_rng = make_rng(520 + seed)
        result = mcmc_synthesize(
            dataset,
            SynthConfig(degree_weight=0.5, mcmc_steps=10_000, n_rules=1, inv_temperature=1.0),
            chain_rng,
            propose_fn=lambda p, r: space[r.integers(0, len(space))],
            initial=space[0],
            objective_fn=ev.evaluate,
        )
        if abs(result.objective - exhaustive) <= 0.01 * abs(exhaustive):
            wins += 1
    assert wins >= 9
    elapsed = time.time() - start
    assert elapsed < 300.0
    report_line("5 mcmc-validity", f"{wins}/10 seeds at optimum, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end directional reproduction (formation crossing)
# ---------------------------------------------------------------------------


def test_criterion_6_directional_reproduction(cross_pipeline):
    pipe = cross_pipeline
    k = pipe.programs[0].n_rules
    tf_full = TfFullPolicy(pipe.oracle_params, v_max=pipe.cfg.v_max)
    hard_attn = TopKAttnPolicy(pipe.oracle_params, k=k, v_max=pipe.cfg.v_max)
    prog = CombinedPolicy(pipe.oracle_params, pipe.programs, v_max=pipe.cfg.v_max)
    prog_retrained = CombinedPolicy(pipe.retrained_params, pipe.programs, v_max=pipe.cfg.v_max)

    loss_tf, _ = mean_loss(tf_full, pipe.cfg, pipe.rewards)
    loss_hard, hard_metrics = mean_loss(hard_attn, pipe.cfg, pipe.rewards)
    loss_prog, prog_metrics = mean_loss(prog, pipe.cfg, pipe.rewards)
    loss_retr, retr_metrics = mean_loss(prog_retrained, pipe.cfg, pipe.rewards)

    # (a) near-oracle task performance
    assert loss_retr <= 1.2 * loss_tf
    # (b) lower maximum out-degree than attention thresholding at equal in-degree budget
    out_retr = float(np.mean([m.out_deg_mean for m in retr_metrics]))
    out_hard = float(np.mean([m.out_deg_mean for m in hard_metrics]))
    assert out_retr < out_hard
    # (c) retraining is necessary
    assert loss_prog > loss_retr
    # paired per-seed comparison: retraining helps on at least 8 of 10 seeds
    helped = sum(
        1 for m_r, m_p in zip(retr_metrics, prog_metrics) if m_r.loss_mean <= m_p.loss_mean
    )
    assert helped >= 8
    report_line(
        "6 directional-reproduction",
        f"loss tf {loss_tf:.2f} retr {loss_retr:.2f} prog {loss_prog:.2f}; "
        f"out-deg {out_retr:.2f} < {out_hard:.2f}; helped {helped}/10",
    )


# ---------------------------------------------------------------------------
# criterion 7: goal coverage with two communication rounds
# ---------------------------------------------------------------------------


def test_criterion_7_unlabeled_two_rounds(unlabeled_pipeline):
    pipe = unlabeled_pipeline
    combined = CombinedPolicy(pipe.retrained_params, pipe.programs, v_max=pipe.cfg.v_max)
    nocomm = NoCommPolicy(pipe.oracle_params, v_max=pipe.cfg.v_max)
    wins = 0
    for seed in EVAL_SEEDS:
        m_c = evaluate(combined, pipe.cfg, EVAL_ROLLOUTS, 1.0, seed, pipe.rewards)
        m_n = evaluate(nocomm, pipe.cfg, EVAL_ROLLOUTS, 1.0, seed, pipe.rewards)
        if m_c.loss_mean < m_n.loss_mean:
            wins += 1
    assert wins >= 9
    # on held-out rollouts, both rounds' synthesized graphs stay strictly below
    # the all-pairs policy's N-1 in-degree bound
    n = pipe.cfg.n_agents_per_group
    round_deg_sums = [0.0, 0.0]
    steps_seen = 0
    for seed in EVAL_SEEDS[:3]:
        traj = rollout(combined, pipe.cfg, make_rng(70_000 + seed), pipe.rewards)
        for step_record in traj.steps:
            for r, graph in enumerate(step_record.round_graphs):
                round_deg_sums[r] += degree_stats(graph_mask(graph))[2]
            steps_seen += 1
    round_means = [s / steps_seen for s in round_deg_sums]
    assert all(mean < n - 1 for mean in round_means)
    report_line(
        "7 unlabeled-two-rounds",
        f"combined beats no-comm on {wins}/10 seeds; "
        f"round degrees {round_means[0]:.2f}/{round_means[1]:.2f} < {n - 1}",
    )


# ---------------------------------------------------------------------------
# criterion 8: noisy links
# ---------------------------------------------------------------------------


def test_criterion_8_noisy_links(cross_pipeline):
    # delivered fraction under 50% failure
    rng = make_rng(800)
    delivered = apply_link_failure(np.ones((1, 100, 100), dtype=bool), 0.5, [rng])
    frac = delivered.sum() / 10_000
    assert abs(frac - 0.5) < 0.02

    pipe = cross_pipeline
    noisy_cfg = replace(pipe.cfg, link_failure_prob=0.5)
    noisy_retrained = retrain(
        pipe.oracle_params,
        pipe.programs,
        noisy_cfg,
        TrainConfig(n_rollouts=RETRAIN_ROLLOUTS, batch_size=16, seed=808),
        make_rng(808),
        pipe.rewards,
    )
    noisy_policy = CombinedPolicy(noisy_retrained.params, pipe.programs, v_max=pipe.cfg.v_max)
    reliable_policy = CombinedPolicy(pipe.retrained_params, pipe.programs, v_max=pipe.cfg.v_max)
    loss_noisy, _ = mean_loss(noisy_policy, noisy_cfg, pipe.rewards, seeds=EVAL_SEEDS[:5])
    loss_reliable, _ = mean_loss(reliable_policy, pipe.cfg, pipe.rewards, seeds=EVAL_SEEDS[:5])
    margin = loss_noisy - loss_reliable
    assert np.isfinite(margin)
    assert margin > 0.0
    report_line(
        "8 noisy-links",
        f"delivered fraction {frac:.3f}; loss margin {margin:.3f} "
        f"({loss_noisy:.3f} noisy vs {loss_reliable:.3f} reliable)",
    )


# ---------------------------------------------------------------------------
# criterion 9: stage-level reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    root = tmp_path
    cfg = TaskConfig(
        task_kind="random-grid", n_agents_per_group=1, horizon=4, obs_noise_sigma=0.05
    )
    save_config(root / "task.json", cfg, RewardParams())
    stages = [
        (
            "oracle.json",
            ["train-oracle", "--config", str(root / "task.json"), "--out", str(root / "oracle.json"),
             "--rollouts", "16", "--batch", "8", "--seed", "0"],
        ),
        (
            "data.jsonl",
            ["collect", "--params", str(root / "oracle.json"), "--config", str(root / "task.json"),
             "--rollouts", "3", "--out", str(root / "data.jsonl"), "--seed", "1"],
        ),
        (
            "program.txt",
            ["synthesize", "--dataset", str(root / "data.jsonl"), "--lambda", "0.5", "--rules", "1",
             "--steps", "25", "--out", str(root / "program.txt"), "--seed", "2"],
        ),
        (
            "retrained.json",
            ["retrain", "--params", str(root / "oracle.json"), "--program", str(root / "program.txt"),
             "--config", str(root / "task.json"), "--rollouts", "8", "--batch", "8",
             "--out", str(root / "retrained.json"), "--seed", "3"],
        ),
        (
            "metrics.json",
            ["evaluate", "--params", str(root / "retrained.json"), "--config", str(root / "task.json"),
             "--policy", "combined", "--program", str(root / "program.txt"), "--rollouts", "3",
             "--out", str(root / "metrics.json"), "--seed", "4"],
        ),
        (
            "attn.jsonl",
            ["attn-dump", "--params", str(root / "oracle.json"), "--config", str(root / "task.json"),
             "--policy", "tf-full", "--out", str(root / "attn.jsonl"), "--seed", "5"],
        ),
    ]
    for out_name, argv in stages:
        assert cli.main(argv) == 0
    snapshots = {name: (root / name).read_bytes() for name, _ in stages}
    for out_name, _ in stages:
        assert cli.main(["rerun", str(root / out_name) + ".manifest.json"]) == 0
        assert (root / out_name).read_bytes() == snapshots[out_name], out_name
    report_line("9 reproducibility", f"{len(stages)} stages bit-identical from manifests")
