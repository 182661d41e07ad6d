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
import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
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
from .transformer import TransformerParams, _harden, _net, _pairs, output_head

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
        if not (math.isfinite(self.degree_weight) and self.degree_weight > 0):
            raise SynthError(f"degree_weight must be finite and > 0, got {self.degree_weight}")
        if self.mcmc_steps < 1:
            raise SynthError("mcmc_steps must be >= 1")
        if not (math.isfinite(self.inv_temperature) and self.inv_temperature > 0):
            raise SynthError(f"inv_temperature must be finite and > 0, got {self.inv_temperature}")
        if not (1 <= self.n_rules <= _MAX_RULES):
            raise SynthError(f"n_rules must be in 1..{_MAX_RULES}")
        if self.rand_rule_samples < 1:
            raise SynthError("rand_rule_samples must be >= 1")


_ROW_KEYS = ("n", "s", "o", "msg", "alpha", "a")  # plus goal_perm_inv for unlabeled-goals
_HEADER_KEYS = ["action_dim", "kind", "msg_dim", "oracle", "rounds", "state_dim", "task"]


def _agent_count(row: Any) -> int:
    n = row.get("n") if isinstance(row, dict) else None
    if type(n) is not int or n < 1:
        raise SynthError(f"every tuple needs a positive integer n, got {n!r:.60}")
    return n


def _stack(values: list, key: str, shape: tuple[int, ...], kinds: str = "fiu") -> Array:
    """The (M, *shape) array of M tuples' values of one row key: numbers only, floats finite."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.shape[1:] != shape or arr.dtype.kind not in kinds:
        raise SynthError(f"{key} must hold numbers of shape {shape} in every tuple, got {arr.dtype} {arr.shape[1:]}")
    arr = arr.astype(np.int64 if kinds == "iu" else np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise SynthError(f"{key} must be finite")
    return arr


def _numbers(value: Any) -> Any:
    """A rectangular nest of numbers as an array; anything else unchanged, for _stack to reject."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return value
    return arr if arr.dtype.kind in "fiu" else value


def _parse_row(line: str) -> dict:
    """One dataset line, its number lists turned into arrays as it is read.

    A row line holds fixed keys and numbers only, so a true or false token in
    it is a boolean standing in for a number.
    """
    if "true" in line or "false" in line:
        raise SynthError("dataset rows hold numbers only, got true or false")
    row = json.loads(line)
    _agent_count(row)
    for key, value in row.items():
        if key in ("msg", "alpha") and isinstance(value, list):
            row[key] = [_numbers(v) for v in value]
        elif key in ("s", "o", "a", "goal_perm_inv"):
            row[key] = _numbers(value)
    return row


@dataclass
class DatasetBlock:
    """Tuples sharing one agent count, stacked for vectorized scoring."""

    states: Array  # (M, N, ds)
    obs: Array  # (M, N, N, 2)
    messages: list[Array]  # per round: (M, N, N, dm), receiver-major, [m, i, j] = message j -> i
    attention: list[Array]  # per round: (M, N, N) soft rows
    actions: Array  # (M, N, da), oracle actions (global goal order for coverage)
    goal_perm_inv: Optional[Array] = None  # (M, N, da) for unlabeled-goals
    # arrays derived from the tuples, built on first use and shared by every evaluator
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, params: TransformerParams, rows: Sequence[dict]) -> "DatasetBlock":
        """Stack the tuples of one agent count, each a row as the dataset file holds it.

        A row holds _ROW_KEYS, plus goal_perm_inv exactly when the oracle is
        for unlabeled-goals, as arrays or nested lists. Each value must have
        the shape the oracle's dimensions give it, floats must be finite and
        each goal_perm_inv row must be a permutation of the goal indices.
        """
        n, r, da = _agent_count(rows[0]), params.rounds, params.action_dim
        keys = set(_ROW_KEYS) | ({"goal_perm_inv"} if params.task_kind == "unlabeled-goals" else set())
        for row in rows:
            if _agent_count(row) != n or set(row) != keys:
                raise SynthError(f"a {params.task_kind} tuple of n={n} has the keys {sorted(keys)}, got {sorted(row)}")
            if not all(isinstance(row[key], list) and len(row[key]) == r for key in ("msg", "alpha")):
                raise SynthError(f"msg and alpha must be lists of {r} rounds in every tuple")
        col = {key: [row[key] for row in rows] for key in keys}
        perm = _stack(col["goal_perm_inv"], "goal_perm_inv", (n, da), "iu") if "goal_perm_inv" in keys else None
        if perm is not None and not (np.sort(perm, axis=-1) == np.arange(da)).all():
            raise SynthError(f"every goal_perm_inv row must be a permutation of 0..{da - 1}")
        return cls(  # one stack per round keeps every round's block contiguous
            states=_stack(col["s"], "s", (n, params.state_dim)),
            obs=_stack(col["o"], "o", (n, n, 2)),
            messages=[  # rows hold them sender-major, the search reads them receiver-major
                np.ascontiguousarray(
                    _stack([m[k] for m in col["msg"]], "msg", (n, n, params.msg_dim)).transpose(0, 2, 1, 3)
                )
                for k in range(r)
            ],
            attention=[_stack([a[k] for a in col["alpha"]], "alpha", (n, n)) for k in range(r)],
            actions=_stack(col["a"], "a", (n, da)),
            goal_perm_inv=perm,
        )

    @property
    def n_tuples(self) -> int:
        return self.states.shape[0]

    @property
    def n_agents(self) -> int:
        return self.states.shape[1]

    def features(self, fmap: FeatureMap) -> Array:
        """Pair features (M, N, N, d') of every tuple under fmap (see dsl.featurize_agents), built once."""
        key = ("features", fmap.version)
        if key not in self._derived:
            self._derived[key] = dsl.featurize_agents(self.states, self.obs, fmap)
        return self._derived[key]


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
                        "msg": [msgs[m].transpose(1, 0, 2).tolist() for msgs in block.messages],
                        "alpha": [att[m].tolist() for att in block.attention],
                        "a": block.actions[m].tolist(),
                    }
                    if block.goal_perm_inv is not None:
                        row["goal_perm_inv"] = block.goal_perm_inv[m].tolist()
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "SynthDataset":
        """A header line, then one row per tuple (see DatasetBlock.from_rows).

        The header's rounds and dimensions must be the embedded oracle's and
        its task must fit the oracle (TransformerParams.task_mismatch).
        Blocks keep the order in which their agent counts first appear.
        """
        with open(path) as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("kind") != "synth-dataset" or sorted(header) != _HEADER_KEYS:
                raise SynthError(f"not a synth dataset file: its header holds the keys {', '.join(_HEADER_KEYS)}")
            params = TransformerParams.from_json_dict(header["oracle"])
            for key in ("rounds", "state_dim", "msg_dim", "action_dim"):
                if type(header[key]) is not int or header[key] != getattr(params, key):
                    raise SynthError(f"header {key} {header[key]!r:.60} is not the oracle's {getattr(params, key)}")
            task = decode(TaskConfig, header["task"])
            if params.task_mismatch(task):
                raise SynthError(f"header task: {params.task_mismatch(task)}")
            groups: dict[int, list[dict]] = {}
            for row in map(_parse_row, filter(str.strip, fh)):
                groups.setdefault(row["n"], []).append(row)
        return cls(task, params, [DatasetBlock.from_rows(params, rows) for rows in groups.values()])


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
    groups: dict[int, list[dict]] = {}
    for _ in range(n_rollouts):
        state = sample_initial(cfg, rng)
        for out, _ in simulate(policy, cfg, [state], [rng], reward_params):
            row = {
                "n": state.n_agents, "s": out.states.data[0], "o": out.obs.data[0], "a": out.policy.actions.data[0],
                "msg": [m[0] for m in out.policy.messages], "alpha": [a[0] for a in out.policy.attentions],
            }
            if cfg.task_kind == "unlabeled-goals":
                row["goal_perm_inv"] = state.goal_perm_inv()
            groups.setdefault(state.n_agents, []).append(row)
    return SynthDataset(cfg, params, [DatasetBlock.from_rows(params, rows) for rows in groups.values()])


# ---------------------------------------------------------------------------
# surrogate objective
# ---------------------------------------------------------------------------


@dataclass
class ObjectiveBreakdown:
    objective: float
    imitation: float  # mean over tuples of the summed L1 action gap
    mean_max_degree: float


_FORMS_PER_RULE = 8  # linear forms cached per block, per rule of the program
_MEMO_SIZE = 256  # scores cached by selection digest


def _lru(cache: OrderedDict, key: Any, compute: Callable[[], Any], bound: int) -> tuple[Any, bool]:
    """cache[key] and whether it was missing; a missing value is computed and
    stored, evicting the least recently used entries beyond bound."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        return value, False
    value = cache[key] = compute()
    while len(cache) > bound:
        cache.popitem(last=False)
    return value, True


class _CachedForms(dsl.LinearForms):
    """One block's linear forms under one feature map: atom masks and score
    vectors in a least-recently-used cache keyed by kind and weight tuple."""

    def __init__(self, feats: Array, bound: int):
        super().__init__(feats)
        self.bound = bound
        self.cache: OrderedDict[tuple, Array] = OrderedDict()
        self.matvecs = 0

    def atom(self, weights: tuple[float, ...]) -> Array:
        return self._lookup(("atom", weights), super().atom)

    def score(self, weights: tuple[float, ...]) -> Array:
        return self._lookup(("score", weights), super().score)

    def _lookup(self, key: tuple, compute: Callable[[tuple[float, ...]], Array]) -> Array:
        value, missed = _lru(self.cache, key, lambda: compute(key[1]), self.bound)
        self.matvecs += missed
        return value


class SurrogateEvaluator:
    """Scores candidate programs against one cached dataset and one CRN draw.

    A proposal edits one rule, so most of a candidate's work was done for an
    earlier one. Three least-recently-used caches keep it:
      - per rule, slot and sample, every block's picks (4 * K entries);
      - per block, each predicate atom's mask and each score vector's values
        (8 * K entries, K of the first program scored with that feature map);
      - per digest of the selection masks, the imitation and degree terms
        (256 entries).
    The pair features come from the dataset's blocks, which build them once
    for every evaluator. No cache changes a score: each returns exactly what
    recomputing would.
    """

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
        self._forms: dict[str, list[_CachedForms]] = {}
        self._picks: OrderedDict[tuple, list[Array]] = OrderedDict()
        self._memo: OrderedDict[bytes, tuple[float, float]] = OrderedDict()
        self.scored = 0  # candidate selections scored by _score_masks
        self.memo_hits = 0  # candidate selections whose score came from the memo

    def _features(self, fmap: FeatureMap) -> list[Array]:
        return [b.features(fmap) for b in self.dataset.blocks]

    def counters(self) -> dict[str, int]:
        """Deterministic work counts: matvecs (one weight vector over one block), scorings, memo hits."""
        matvecs = sum(f.matvecs for forms in self._forms.values() for f in forms)
        return {"matvec_blocks": matvecs, "scored": self.scored, "memo_hits": self.memo_hits}

    def selections(self, program: Program, sample: int = 0) -> list[Array]:
        """Per block, the OR of the program's per-rule picks (see dsl.eval_program_batch).

        A rule's picks depend only on the rule (whose weight vectors fix the
        feature map), its slot (the CRN column that drives it) and the sample;
        a rule missing from the pick cache is interpreted over the cached
        linear forms, so only its new weight vectors cost a matvec.
        """
        feats = self._features(program.feature_map)
        forms = self._forms.get(program.feature_map.version)
        if forms is None:
            bound = _FORMS_PER_RULE * program.n_rules
            forms = self._forms[program.feature_map.version] = [_CachedForms(f, bound) for f in feats]
        out = [np.zeros(f.shape[:-1], dtype=bool) for f in feats]
        for slot, rule in enumerate(program.rules):
            picks, _ = _lru(self._picks, (rule, slot, sample), lambda: [
                dsl.rule_picks(rule, f, crn[:, :, slot, sample], fm) for f, crn, fm in zip(feats, self._crn, forms)
            ], 4 * program.n_rules)
            for sel, pick in zip(out, picks):
                sel |= pick
        return out

    def evaluate(self, program: Program) -> float:
        return self.evaluate_detailed(program).objective

    def evaluate_detailed(self, program: Program) -> ObjectiveBreakdown:
        totals = np.zeros(2)
        for sample in range(self.rand_samples):
            totals += self._memo_score(self.selections(program, sample))
        imit, deg = totals / self.rand_samples
        return ObjectiveBreakdown(-imit - self.degree_weight * deg, imit, deg)

    def _memo_score(self, masks: list[Array]) -> tuple[float, float]:
        """_score_masks, memoised on a digest of the masks."""
        digest = hashlib.blake2b(digest_size=16)
        for mask in masks:
            digest.update(mask)
        score, missed = _lru(self._memo, digest.digest(), lambda: self._score_masks(masks), _MEMO_SIZE)
        self.scored += missed
        self.memo_hits += not missed
        return score

    def _score_masks(self, masks: list[Array]) -> tuple[float, float]:
        ds = self.dataset
        weights = ds.params.store.params
        r = self.round_index
        total_imit = 0.0
        total_deg = 0.0
        for block, sel in zip(ds.blocks, masks):
            m, n = block.n_tuples, block.n_agents
            hard = _harden(block.attention[r], sel)[2]
            msg_sum = np.einsum("mij,mijd->mid", hard, block.messages[r])
            if ds.rounds == 2 and r == 0:
                # re-derive round 2 from the perturbed internal state, but keep
                # the cached soft attention for the untouched round
                agg = np.concatenate([block.states, msg_sum], axis=-1).reshape(m * n, -1)
                h = ad.mlp_forward(agg, *_net(weights, "internal"), None)[1].reshape(m, n, -1)
                msg2 = ad.mlp_forward(_pairs(h, block.obs), *_net(weights, "msg2"), None)[1].reshape(m, n, n, -1)
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
