"""Stochastic search for communication programs that imitate the trained oracle.

The search never re-simulates: it replays a cached dataset of per-timestep
tuples (state, observations, message matrices, attention matrices, oracle
action) collected once under the full-communication policy. Scoring a
candidate program only needs the program's selections, the hardened attention
rows, and one output-network pass, so a Metropolis-Hastings chain can afford
thousands of candidate evaluations.

Nondeterministic rules are scored under common random numbers: the uniforms
that drive their choices are drawn once per chain, so re-evaluating a program
always returns the same objective and the chain replays exactly from a seed.
"""

from __future__ import annotations

import csv
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import dsl
from .dsl import (
    BoolOp,
    DetRule,
    FeatureMap,
    Predicate,
    PredicateAtom,
    Program,
    RandRule,
    Rule,
    ScoreExpr,
    true_predicate,
)
from .env import RewardParams, TaskConfig, sample_initial, simulate
from .jsondoc import decode
from .policy import TfFullPolicy
from .transformer import TransformerParams, _mlp, harden_rows, output_head

Array = np.ndarray

_MAX_RULES = 8  # common-random-number buffer covers rule counts up to this


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    degree_weight: float = 0.5  # tradeoff between imitation and max degree
    mcmc_steps: int = 3000
    inv_temperature: float = 5.0
    n_rules: int = 2
    feature_version: str = "v1"
    allow_random_rules: bool = True
    rand_rule_samples: int = 1

    def __post_init__(self) -> None:
        if self.degree_weight <= 0:
            raise SynthError("degree_weight must be > 0")
        if self.mcmc_steps < 1:
            raise SynthError("mcmc_steps must be >= 1")
        if self.inv_temperature <= 0:
            raise SynthError("inv_temperature must be > 0")
        if not (1 <= self.n_rules <= _MAX_RULES):
            raise SynthError(f"n_rules must be in 1..{_MAX_RULES}")
        if self.rand_rule_samples < 1:
            raise SynthError("rand_rule_samples must be >= 1")


@dataclass
class DatasetBlock:
    """Tuples sharing one agent count, stacked for vectorized scoring."""

    states: Array  # (M, N, ds)
    obs: Array  # (M, N, N, 2)
    messages: list[Array]  # per round: (M, N, N, dm), [m, i, j] = message i -> j
    attention: list[Array]  # per round: (M, N, N) soft rows
    actions: Array  # (M, N, da), oracle actions (global goal order for coverage)
    goal_perm_inv: Optional[Array] = None  # (M, N, N) for unlabeled-goals

    @property
    def n_tuples(self) -> int:
        return self.states.shape[0]

    @property
    def n_agents(self) -> int:
        return self.states.shape[1]


@dataclass
class SynthDataset:
    task: TaskConfig
    params: TransformerParams
    blocks: list[DatasetBlock]

    @property
    def rounds(self) -> int:
        return self.params.rounds

    @property
    def n_tuples(self) -> int:
        return sum(b.n_tuples for b in self.blocks)

    @property
    def state_dim(self) -> int:
        return self.params.state_dim

    def save_jsonl(self, path: Union[str, Path]) -> None:
        header = {
            "kind": "synth-dataset",
            "task": asdict(self.task),
            "rounds": self.rounds,
            "state_dim": self.params.state_dim,
            "msg_dim": self.params.msg_dim,
            "action_dim": self.params.action_dim,
            "oracle": self.params.to_json_dict(),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for block in self.blocks:
                for m in range(block.n_tuples):
                    row = {
                        "n": block.n_agents,
                        "s": block.states[m].tolist(),
                        "o": block.obs[m].tolist(),
                        "msg": [msgs[m].tolist() for msgs in block.messages],
                        "alpha": [att[m].tolist() for att in block.attention],
                        "a": block.actions[m].tolist(),
                    }
                    if block.goal_perm_inv is not None:
                        row["goal_perm_inv"] = block.goal_perm_inv[m].tolist()
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "SynthDataset":
        with open(path) as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("kind") != "synth-dataset":
                raise SynthError("not a synth dataset file")
            task = decode(TaskConfig, header["task"])
            params = TransformerParams.from_json_dict(header["oracle"])
            rows: dict[int, list[dict]] = {}
            order: list[int] = []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                n = row["n"]
                if n not in rows:
                    rows[n] = []
                    order.append(n)
                rows[n].append(row)
        blocks = []
        for n in order:
            group = rows[n]
            rounds = len(group[0]["msg"])
            block = DatasetBlock(
                states=np.asarray([r["s"] for r in group], dtype=np.float64),
                obs=np.asarray([r["o"] for r in group], dtype=np.float64),
                messages=[
                    np.asarray([r["msg"][k] for r in group], dtype=np.float64)
                    for k in range(rounds)
                ],
                attention=[
                    np.asarray([r["alpha"][k] for r in group], dtype=np.float64)
                    for k in range(rounds)
                ],
                actions=np.asarray([r["a"] for r in group], dtype=np.float64),
                goal_perm_inv=(
                    np.asarray([r["goal_perm_inv"] for r in group], dtype=np.int64)
                    if "goal_perm_inv" in group[0]
                    else None
                ),
            )
            blocks.append(block)
        return cls(task, params, blocks)


def collect_dataset(
    params: TransformerParams,
    cfg: TaskConfig,
    n_rollouts: int,
    rng: np.random.Generator,
    reward_params: Optional[RewardParams] = None,
) -> SynthDataset:
    """Record one tuple per timestep from full-communication oracle rollouts.

    The rollouts run one after another, all drawing from rng. Sampling under
    the oracle (rather than any candidate program) keeps the whole chain
    re-simulation-free; distribution shift is accepted.
    """
    policy = TfFullPolicy(params, v_max=cfg.v_max)
    groups: dict[int, dict[str, list]] = {}
    order: list[int] = []
    for _ in range(n_rollouts):
        state = sample_initial(cfg, rng)
        n = state.n_agents
        if n not in groups:
            groups[n] = {"s": [], "o": [], "m": [], "alpha": [], "a": [], "perm": []}
            order.append(n)
        bucket = groups[n]
        for out, _ in simulate(policy, cfg, [state], [rng], reward_params):
            bucket["s"].append(out.states.data[0])
            bucket["o"].append(out.obs.data[0])
            bucket["m"].append([m[0] for m in out.policy.messages])
            bucket["alpha"].append([a[0] for a in out.policy.attentions])
            bucket["a"].append(out.policy.actions.data[0])
            if cfg.task_kind == "unlabeled-goals":
                bucket["perm"].append(state.goal_perm_inv())
    blocks = []
    for n in order:
        bucket = groups[n]
        rounds = params.rounds
        blocks.append(
            DatasetBlock(
                states=np.stack(bucket["s"]),
                obs=np.stack(bucket["o"]),
                messages=[np.stack([m[k] for m in bucket["m"]]) for k in range(rounds)],
                attention=[np.stack([a[k] for a in bucket["alpha"]]) for k in range(rounds)],
                actions=np.stack(bucket["a"]),
                goal_perm_inv=np.stack(bucket["perm"]) if bucket["perm"] else None,
            )
        )
    return SynthDataset(cfg, params, blocks)


# ---------------------------------------------------------------------------
# surrogate objective
# ---------------------------------------------------------------------------


@dataclass
class ObjectiveBreakdown:
    objective: float
    imitation: float  # mean over tuples of the summed L1 action gap
    mean_max_degree: float


class SurrogateEvaluator:
    """Scores candidate programs against one cached dataset and one CRN draw."""

    def __init__(
        self,
        dataset: SynthDataset,
        degree_weight: float,
        round_index: int = 0,
        rand_samples: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if dataset.n_tuples == 0:
            raise SynthError("empty dataset")
        if not (0 <= round_index < dataset.rounds):
            raise SynthError("round_index out of range")
        self.dataset = dataset
        self.degree_weight = float(degree_weight)
        self.round_index = round_index
        self.rand_samples = rand_samples
        rng = rng or np.random.Generator(np.random.PCG64(0))
        # common random numbers: one uniform per (tuple, agent, rule slot, sample)
        self._crn = [
            rng.random((b.n_tuples, b.n_agents, _MAX_RULES, rand_samples)) for b in dataset.blocks
        ]
        self._feat_cache: dict[str, list[Array]] = {}
        self._picks: OrderedDict[tuple, list[Array]] = OrderedDict()

    def _features(self, fmap: FeatureMap) -> list[Array]:
        cached = self._feat_cache.get(fmap.version)
        if cached is None:
            cached = []
            for block in self.dataset.blocks:
                m, n, ds = block.states.shape
                tiled = np.broadcast_to(block.states[:, :, None, :], (m, n, n, ds))
                cached.append(dsl.featurize_pairs(tiled, block.obs, fmap))
            self._feat_cache[fmap.version] = cached
        return cached

    def selections(self, program: Program, sample: int = 0) -> list[Array]:
        """Per block, the OR of the program's per-rule picks (see dsl.eval_program_batch).

        A rule's picks depend only on the rule (whose weight vectors fix the
        feature map), its slot (the CRN column that drives it) and the sample,
        so they are kept in a least-recently-used cache of at most 4 * K
        entries, each holding every block's (M, N, N) picks. A proposal edits
        one of the K rules, so scoring it evaluates that one rule again.
        """
        feats = self._features(program.feature_map)
        cache = self._picks
        out = [np.zeros(f.shape[:-1], dtype=bool) for f in feats]
        for slot, rule in enumerate(program.rules):
            key = (rule, slot, sample)
            picks = cache.get(key)
            if picks is None:
                picks = [
                    dsl.rule_picks(rule, f, crn[:, :, slot, sample]) for f, crn in zip(feats, self._crn)
                ]
                cache[key] = picks
                while len(cache) > 4 * program.n_rules:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            for sel, pick in zip(out, picks):
                sel |= pick
        return out

    def evaluate(self, program: Program) -> float:
        return self.evaluate_detailed(program).objective

    def evaluate_detailed(self, program: Program) -> ObjectiveBreakdown:
        totals = np.zeros(2)
        for sample in range(self.rand_samples):
            masks = self.selections(program, sample)
            imit, deg = self._score_masks(masks)
            totals += (imit, deg)
        imit, deg = totals / self.rand_samples
        return ObjectiveBreakdown(-imit - self.degree_weight * deg, imit, deg)

    def objective_for_masks(self, masks: Sequence[Array]) -> ObjectiveBreakdown:
        """Score explicit selection masks; the full-mask case is the sanity ceiling."""
        imit, deg = self._score_masks(list(masks))
        return ObjectiveBreakdown(-imit - self.degree_weight * deg, imit, deg)

    def _score_masks(self, masks: list[Array]) -> tuple[float, float]:
        ds = self.dataset
        weights = ds.params.store.params
        r = self.round_index
        total_imit = 0.0
        total_deg = 0.0
        for block, sel in zip(ds.blocks, masks):
            m, n = block.n_tuples, block.n_agents
            hard = harden_rows(block.attention[r], sel).data
            received = block.messages[r].transpose(0, 2, 1, 3)
            msg_sum = np.einsum("mij,mijd->mid", hard, received)
            if ds.rounds == 2 and r == 0:
                # re-derive round 2 from the perturbed internal state, but keep
                # the cached soft attention for the untouched round
                h = _mlp(
                    weights,
                    "internal",
                    np.concatenate([block.states, msg_sum], axis=-1).reshape(m * n, -1),
                ).data.reshape(m, n, -1)
                h_tiled = np.broadcast_to(h[:, :, None, :], (m, n, n, h.shape[-1]))
                msg2 = _mlp(
                    weights,
                    "msg2",
                    np.concatenate([h_tiled, block.obs], axis=-1).reshape(m * n * n, -1),
                ).data.reshape(m, n, n, -1)
                received2 = msg2.transpose(0, 2, 1, 3)
                msg_sum = np.einsum("mij,mijd->mid", block.attention[1], received2)
            recon = output_head(
                ds.params, weights, block.states, msg_sum, ds.task.v_max, block.goal_perm_inv
            ).data
            total_imit += float(np.abs(block.actions - recon).sum())
            total_deg += float(dsl.degree_stats(sel)[2].sum())
        n_tuples = ds.n_tuples
        return total_imit / n_tuples, total_deg / n_tuples


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------

_MOVES = ("perturb", "resample", "swap-kind", "toggle-connective", "grow-shrink", "fresh-rule")


def _random_atom(dim: int, rng: np.random.Generator) -> PredicateAtom:
    return PredicateAtom(tuple(rng.normal(0.0, 1.0, dim)))


def _random_predicate(dim: int, rng: np.random.Generator) -> Predicate:
    roll = rng.random()
    if roll < 0.5:
        return _random_atom(dim, rng)
    op = "and" if rng.random() < 0.5 else "or"
    if roll < 0.8:
        return BoolOp(op, _random_atom(dim, rng), _random_atom(dim, rng))
    op2 = "and" if rng.random() < 0.5 else "or"
    return BoolOp(
        op,
        BoolOp(op2, _random_atom(dim, rng), _random_atom(dim, rng)),
        _random_atom(dim, rng),
    )


def _random_rule(dim: int, allow_random: bool, rng: np.random.Generator) -> Rule:
    pred = _random_predicate(dim, rng)
    if allow_random and rng.random() < 0.5:
        return RandRule(pred)
    return DetRule(ScoreExpr(tuple(rng.normal(0.0, 1.0, dim))), pred)


def _atoms_of(pred: Predicate, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], PredicateAtom]]:
    if isinstance(pred, PredicateAtom):
        return [(path, pred)]
    return _atoms_of(pred.left, path + (0,)) + _atoms_of(pred.right, path + (1,))


def _connectives_of(pred: Predicate, path: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    if isinstance(pred, PredicateAtom):
        return []
    return [path] + _connectives_of(pred.left, path + (0,)) + _connectives_of(pred.right, path + (1,))


def _replace_at(pred: Predicate, path: tuple[int, ...], new: Predicate) -> Predicate:
    if not path:
        return new
    assert isinstance(pred, BoolOp)
    if path[0] == 0:
        return BoolOp(pred.op, _replace_at(pred.left, path[1:], new), pred.right)
    return BoolOp(pred.op, pred.left, _replace_at(pred.right, path[1:], new))


def _subtree_at(pred: Predicate, path: tuple[int, ...]) -> Predicate:
    for branch in path:
        assert isinstance(pred, BoolOp)
        pred = pred.left if branch == 0 else pred.right
    return pred


def _perturb_vector(weights: tuple[float, ...], rng: np.random.Generator) -> tuple[float, ...]:
    arr = np.asarray(weights) + rng.normal(0.0, 0.3, len(weights))
    return tuple(arr)


def propose_with_move(
    program: Program,
    rng: np.random.Generator,
    allow_random_rules: bool = True,
) -> tuple[Program, str]:
    """One local move on one rule; returns (candidate, move name)."""
    dim = len(_first_weights(program))
    for _ in range(64):
        move = _MOVES[rng.integers(0, len(_MOVES))]
        idx = int(rng.integers(0, program.n_rules))
        rule = program.rules[idx]
        new_rule = _apply_move(move, rule, dim, allow_random_rules, rng)
        if new_rule is None:
            continue
        rules = list(program.rules)
        rules[idx] = new_rule
        return Program(tuple(rules), program.feature_map), move
    raise SynthError("no applicable proposal move found")


def _first_weights(program: Program) -> tuple[float, ...]:
    rule = program.rules[0]
    if isinstance(rule, DetRule):
        return rule.score.weights
    return _atoms_of(rule.pred)[0][1].weights


def _apply_move(
    move: str, rule: Rule, dim: int, allow_random: bool, rng: np.random.Generator
) -> Optional[Rule]:
    pred = rule.pred
    if move == "perturb" or move == "resample":
        slots: list[str] = []
        if isinstance(rule, DetRule):
            slots.append("score")
        atom_paths = _atoms_of(pred)
        slots.extend(f"atom{k}" for k in range(len(atom_paths)))
        slot = slots[rng.integers(0, len(slots))]
        if slot == "score":
            assert isinstance(rule, DetRule)
            new_w = (
                _perturb_vector(rule.score.weights, rng)
                if move == "perturb"
                else tuple(rng.normal(0.0, 1.0, dim))
            )
            return DetRule(ScoreExpr(new_w), pred)
        path, atom = atom_paths[int(slot[4:])]
        new_w = (
            _perturb_vector(atom.weights, rng)
            if move == "perturb"
            else tuple(rng.normal(0.0, 1.0, dim))
        )
        new_pred = _replace_at(pred, path, PredicateAtom(new_w))
        return DetRule(rule.score, new_pred) if isinstance(rule, DetRule) else RandRule(new_pred)
    if move == "swap-kind":
        if isinstance(rule, DetRule):
            if not allow_random:
                return None
            return RandRule(pred)
        return DetRule(ScoreExpr(tuple(rng.normal(0.0, 1.0, dim))), pred)
    if move == "toggle-connective":
        paths = _connectives_of(pred)
        if not paths:
            return None
        path = paths[rng.integers(0, len(paths))]
        node = _subtree_at(pred, path)
        assert isinstance(node, BoolOp)
        flipped = BoolOp("or" if node.op == "and" else "and", node.left, node.right)
        new_pred = _replace_at(pred, path, flipped)
        return DetRule(rule.score, new_pred) if isinstance(rule, DetRule) else RandRule(new_pred)
    if move == "grow-shrink":
        grow_paths = [
            (path, atom)
            for path, atom in _atoms_of(pred)
            if len(path) < dsl.MAX_PREDICATE_DEPTH
        ]
        shrink_paths = _connectives_of(pred)
        options = [("grow", p) for p, _ in grow_paths] + [("shrink", p) for p in shrink_paths]
        if not options:
            return None
        kind, path = options[rng.integers(0, len(options))]
        if kind == "grow":
            atom = _subtree_at(pred, path)
            op = "and" if rng.random() < 0.5 else "or"
            new_pred = _replace_at(pred, path, BoolOp(op, atom, _random_atom(dim, rng)))
        else:
            node = _subtree_at(pred, path)
            assert isinstance(node, BoolOp)
            child = node.left if rng.random() < 0.5 else node.right
            new_pred = _replace_at(pred, path, child)
        if new_pred.depth() > dsl.MAX_PREDICATE_DEPTH:
            return None
        return DetRule(rule.score, new_pred) if isinstance(rule, DetRule) else RandRule(new_pred)
    if move == "fresh-rule":
        return _random_rule(dim, allow_random, rng)
    raise SynthError(f"unknown move {move!r}")


def propose(
    program: Program, rng: np.random.Generator, allow_random_rules: bool = True
) -> Program:
    return propose_with_move(program, rng, allow_random_rules)[0]


def initial_program(cfg: SynthConfig, state_dim: int, rng: np.random.Generator) -> Program:
    """Dense starting point: every rule deterministic with an always-true filter."""
    fmap = FeatureMap(cfg.feature_version)
    dim = fmap.dim(state_dim)
    rules = tuple(
        DetRule(ScoreExpr(tuple(rng.normal(0.0, 1.0, dim))), true_predicate(fmap, state_dim))
        for _ in range(cfg.n_rules)
    )
    return Program(rules, fmap)


# ---------------------------------------------------------------------------
# Metropolis-Hastings chain
# ---------------------------------------------------------------------------


def mh_accept(delta: float, inv_temperature: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, exp(inv_temperature * delta)); one uniform per call."""
    u = rng.random()
    return u < np.exp(min(0.0, inv_temperature * delta))


@dataclass
class ChainRow:
    step: int
    current: float
    incumbent: float
    accepted: bool


@dataclass
class SynthResult:
    program: Program
    objective: float
    chain: list[ChainRow] = field(default_factory=list)
    breakdown: Optional[ObjectiveBreakdown] = None


def write_chain_csv(path: Union[str, Path], chain: Sequence[ChainRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "objective_current", "objective_incumbent", "accepted"])
        for row in chain:
            writer.writerow([row.step, repr(float(row.current)), repr(float(row.incumbent)), int(row.accepted)])


ProposeFn = Callable[[Program, np.random.Generator], Program]
ObjectiveFn = Callable[[Program], float]


def mcmc_synthesize(
    dataset: SynthDataset,
    cfg: SynthConfig,
    rng: np.random.Generator,
    round_index: int = 0,
    propose_fn: Optional[ProposeFn] = None,
    initial: Optional[Program] = None,
    objective_fn: Optional[ObjectiveFn] = None,
) -> SynthResult:
    """Metropolis-Hastings over programs; returns the best program ever visited."""
    evaluator: Optional[SurrogateEvaluator] = None
    if objective_fn is None:
        evaluator = SurrogateEvaluator(
            dataset, cfg.degree_weight, round_index, cfg.rand_rule_samples, rng
        )
        objective_fn = evaluator.evaluate
    if propose_fn is None:
        propose_fn = lambda p, r: propose(p, r, cfg.allow_random_rules)
    current = initial if initial is not None else initial_program(cfg, dataset.state_dim, rng)
    current_score = objective_fn(current)
    best, best_score = current, current_score
    chain: list[ChainRow] = []
    for step in range(cfg.mcmc_steps):
        candidate = propose_fn(current, rng)
        candidate_score = objective_fn(candidate)
        if candidate_score > best_score:
            best, best_score = candidate, candidate_score
        accepted = mh_accept(candidate_score - current_score, cfg.inv_temperature, rng)
        if accepted:
            current, current_score = candidate, candidate_score
        chain.append(ChainRow(step, current_score, best_score, accepted))
    breakdown = evaluator.evaluate_detailed(best) if evaluator is not None else None
    return SynthResult(best, best_score, chain, breakdown)


def synthesize_multiround(
    dataset: SynthDataset, cfg: SynthConfig, rng: np.random.Generator
) -> list[SynthResult]:
    """One independent chain per communication round.

    Round r is scored with its own hard attention while every other round keeps
    the cached soft attention.
    """
    results = []
    round_rngs = [rng] if dataset.rounds == 1 else rng.spawn(dataset.rounds)
    for r in range(dataset.rounds):
        results.append(mcmc_synthesize(dataset, cfg, round_rngs[r], round_index=r))
    return results
