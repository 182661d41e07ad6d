"""Time Metropolis-Hastings chain steps on an acceptance fixture's dataset.

    OPENBLAS_NUM_THREADS=1 python3 tools/chain_bench.py --root SOURCE_CHECKOUT \
        [--fixture cross|coverage] [--steps 300] [--cache DIR]

Imports swarmcomm from ROOT/src and builds the dataset that one of the
acceptance suite's fixtures searches: a 2,000-rollout oracle, then 40
collected rollouts (2,000 tuples). It then runs the first STEPS steps of that
fixture's chain with the same generator and times every candidate's
evaluation:

- ``cross`` (the default): the crossing fixture, seed 1234, tradeoff 0.1,
  2 rules, one round.
- ``coverage``: the goal-coverage fixture, seed 77, tradeoff 0.5, 2 rules.
  It times round 0 of its two rounds, whose chain draws from
  ``rng.spawn(2)[0]`` as ``synthesize_multiround`` does.

With --cache, the trained oracle and the generator state after training are
kept in DIR/FIXTURE and reused by later runs: training takes most of a
minute, and it is the same under every source tree that trains the same
oracle. Collection always runs.

Prints the minimum and median milliseconds per candidate, the evaluator's
deterministic counters, the share of evaluations the score memo answered
(``memo_hits / evaluations``, the traffic that keeps the memo) and the
(tuple, sender) rows whose round-2 messages were re-derived, and the sha256
of the chain log and the program as ``synthesize`` would write them; the last
line is the same as one JSON object. A matvec is one weight vector evaluated over every block
of the dataset. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ORACLE_ROLLOUTS = 2000
COLLECT_ROLLOUTS = 40
RULES = 2
# per fixture: task config, seed and tradeoff
FIXTURES = {
    "cross": (dict(task_kind="random-cross", n_agents_per_group=5, horizon=50, min_groups=2, dt=0.4), 1234, 0.1),
    "coverage": (dict(task_kind="unlabeled-goals", n_agents_per_group=5, horizon=50), 77, 0.5),
}


def _import(root: Path):
    src = root / "src"
    if not (src / "swarmcomm" / "synth.py").is_file():
        raise SystemExit(f"error: no swarmcomm sources under {src}")
    sys.path.insert(0, str(src))
    import swarmcomm
    from swarmcomm import dsl, env, synth, training, transformer

    if Path(swarmcomm.__file__).resolve().parent != (src / "swarmcomm").resolve():
        raise SystemExit(f"error: imported swarmcomm from {swarmcomm.__file__}, not {src}")
    return dsl, env, synth, training, transformer


def _oracle(cache, cfg, seed, rng, rewards, training, transformer):
    """The fixture's trained oracle; rng ends where the fixture's training leaves it."""
    params_path = cache / "oracle.json" if cache else None
    state_path = cache / "rng_after_training.json" if cache else None
    if cache and params_path.is_file() and state_path.is_file():
        rng.bit_generator.state = json.loads(state_path.read_text())
        return transformer.TransformerParams.load(params_path)
    train_cfg = training.TrainConfig(n_rollouts=ORACLE_ROLLOUTS, batch_size=16, seed=seed)
    params = training.train_oracle(cfg, train_cfg, rng, rewards).params
    if cache:
        cache.mkdir(parents=True, exist_ok=True)
        params.save(params_path)
        state_path.write_text(json.dumps(rng.bit_generator.state))
    return params


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="source checkout holding src/swarmcomm")
    parser.add_argument("--fixture", choices=sorted(FIXTURES), default="cross")
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--cache", type=Path, default=None, help="directory for the trained oracle")
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    import numpy as np

    dsl, env, synth, training, transformer = _import(args.root.resolve())
    task, seed, tradeoff = FIXTURES[args.fixture]
    cfg = env.TaskConfig(**task)
    rewards = env.RewardParams()
    rng = np.random.Generator(np.random.PCG64(seed))
    t0 = time.perf_counter()
    params = _oracle(args.cache and args.cache / args.fixture, cfg, seed, rng, rewards, training, transformer)
    dataset = synth.collect_dataset(params, cfg, COLLECT_ROLLOUTS, rng, rewards)
    setup_s = time.perf_counter() - t0
    if dataset.rounds > 1:  # synthesize_multiround's round-0 generator
        rng = rng.spawn(dataset.rounds)[0]

    synth_cfg = synth.SynthConfig(degree_weight=tradeoff, mcmc_steps=args.steps, n_rules=RULES)
    # the evaluator mcmc_synthesize would build, drawing its CRN from the same generator
    evaluator = synth.SurrogateEvaluator(dataset, synth_cfg.degree_weight, 0, synth_cfg.rand_rule_samples, rng)
    real_picks = dsl.rule_picks
    picks = 0

    def counted_picks(rule, *rest):
        nonlocal picks
        picks += 1
        return real_picks(rule, *rest)

    dsl.rule_picks = counted_picks
    seconds = []

    def objective(program):
        start = time.perf_counter()
        value = evaluator.evaluate(program)
        seconds.append(time.perf_counter() - start)
        return value

    result = synth.mcmc_synthesize(dataset, synth_cfg, rng, objective_fn=objective)
    dsl.rule_picks = real_picks

    with tempfile.TemporaryDirectory() as tmp:
        chain_csv = Path(tmp) / "chain.csv"
        synth.write_chain_csv(chain_csv, result.chain)
        chain_sha = hashlib.sha256(chain_csv.read_bytes()).hexdigest()
    program_sha = hashlib.sha256(dsl.print_program(result.program, dataset.state_dim).encode()).hexdigest()
    blocks = len(dataset.blocks)
    evaluations = len(seconds)
    counters = evaluator.counters()
    ms = [1e3 * s for s in seconds[1:]]  # the proposals; the first call scores the initial program
    doc = {
        "root": str(args.root),
        "fixture": args.fixture,
        "steps": args.steps,
        "tuples": dataset.n_tuples,
        "blocks": blocks,
        "setup_s": setup_s,
        "chain_s": sum(seconds),
        "ms_per_candidate": {"min": min(ms), "median": statistics.median(ms)},
        "evaluations": evaluations,
        "counters": counters,
        "rule_evaluations": picks // blocks,
        "matvecs_per_candidate": counters["matvec_blocks"] / blocks / evaluations,
        "memo_share": counters["memo_hits"] / evaluations,
        "objective": result.objective,
        "chain_sha256": chain_sha,
        "program_sha256": program_sha,
    }
    print(f"{args.steps} steps on {dataset.n_tuples} tuples in {blocks} blocks (set-up {setup_s:.1f} s)")
    print(f"ms per candidate: min {doc['ms_per_candidate']['min']:.2f}, median {doc['ms_per_candidate']['median']:.2f}")
    print(f"matvecs per candidate: {doc['matvecs_per_candidate']:.3f}; counters: {counters}")
    print(f"score memo answered {counters['memo_hits']} of {evaluations} evaluations ({doc['memo_share']:.1%})")
    rows = counters["rows_rescored"]
    share = rows / (evaluations * sum(b.n_tuples * b.n_agents for b in dataset.blocks))
    print(f"rows rescored: {rows} ({share:.1%} of the (tuple, sender) rows of every evaluation)")
    print(f"chain sha256 {chain_sha}\nprogram sha256 {program_sha}")
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
