"""Rule programs that pick which other agents to request messages from.

A program is K rules. Each rule filters the other agents with a boolean
predicate over features of (own state, relative observation) and then either
takes the argmax of an affine score (deterministic rule) or picks uniformly at
random (nondeterministic rule). Rules that filter everything out select
nobody; the degree cost of an empty selection is zero.

The feature layout is versioned and fixed:
    [raw 2-D vectors of the state, raw observation vector,
     norms of each vector, angles of each vector (atan2, angle(0,0) := 0),
     (v2 only: coordinate products of each state vector with the observation),
     constant 1]
The observation norm and angle get the short names ``d`` and ``theta``; state
chunks are named positionally (``sx0, sy0, sn0, sa0, ...``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

Array = np.ndarray

FEATURE_VERSIONS = ("v1", "v2")


class DslError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureMap:
    version: str = "v1"

    def __post_init__(self) -> None:
        if self.version not in FEATURE_VERSIONS:
            raise DslError(f"unknown feature version {self.version!r}")

    def dim(self, state_dim: int) -> int:
        if state_dim % 2 != 0:
            raise DslError("state dimension must be even (pairs of coordinates)")
        chunks = state_dim // 2 + 1  # state 2-D chunks plus the observation vector
        d = 2 * chunks + chunks + chunks + 1
        if self.version == "v2":
            d += 4 * (state_dim // 2)
        return d


def feature_names(fmap: FeatureMap, state_dim: int) -> list[str]:
    n_state = state_dim // 2
    names: list[str] = []
    for k in range(n_state):
        names += [f"sx{k}", f"sy{k}"]
    names += ["ox", "oy"]
    names += [f"sn{k}" for k in range(n_state)] + ["d"]
    names += [f"sa{k}" for k in range(n_state)] + ["theta"]
    if fmap.version == "v2":
        for k in range(n_state):
            names += [f"c{k}xx", f"c{k}xy", f"c{k}yx", f"c{k}yy"]
    names.append("const")
    return names


def _angles(x: Array, y: Array) -> Array:
    out = np.arctan2(y, x)
    return np.where((x == 0.0) & (y == 0.0), 0.0, out)


def featurize_pairs(states: Array, obs: Array, fmap: FeatureMap) -> Array:
    """Features of (state, observation) pairs: states (..., ds), obs (..., 2) -> (..., d')."""
    states = np.asarray(states, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    lead = states.shape[:-1]
    ds = states.shape[-1]
    vecs = np.concatenate([states, obs], axis=-1).reshape(lead + (ds // 2 + 1, 2))
    xs, ys = vecs[..., 0], vecs[..., 1]
    norms = np.sqrt(xs * xs + ys * ys)
    angles = _angles(xs, ys)
    parts = [states, obs, norms, angles]
    if fmap.version == "v2":
        sx = states[..., 0::2]
        sy = states[..., 1::2]
        ox = obs[..., 0:1]
        oy = obs[..., 1:2]
        cross = np.stack([sx * ox, sx * oy, sy * ox, sy * oy], axis=-1)
        parts.append(cross.reshape(lead + (-1,)))
    parts.append(np.ones(lead + (1,)))
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateAtom:
    weights: tuple[float, ...]

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    left: "Predicate"
    right: "Predicate"

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise DslError(f"unknown boolean op {self.op!r}")
        if self.depth() > MAX_PREDICATE_DEPTH:
            raise DslError("predicate exceeds the depth bound")

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())


Predicate = Union[PredicateAtom, BoolOp]

MAX_PREDICATE_DEPTH = 2
MAX_PAREN_NESTING = 32  # far above what a predicate within the depth bound needs; keeps the parser's recursion shallow


@dataclass(frozen=True)
class ScoreExpr:
    weights: tuple[float, ...]


@dataclass(frozen=True)
class DetRule:
    score: ScoreExpr
    pred: Predicate


@dataclass(frozen=True)
class RandRule:
    pred: Predicate


Rule = Union[DetRule, RandRule]


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    feature_map: FeatureMap = field(default_factory=FeatureMap)

    def __post_init__(self) -> None:
        if len(self.rules) < 1:
            raise DslError("a program needs at least one rule")

    @property
    def n_rules(self) -> int:
        return len(self.rules)


def true_predicate(fmap: FeatureMap, state_dim: int) -> PredicateAtom:
    """Atom that always holds: the constant feature alone (1 >= 0)."""
    dim = fmap.dim(state_dim)
    weights = [0.0] * dim
    weights[-1] = 1.0
    return PredicateAtom(tuple(weights))


# ---------------------------------------------------------------------------
# interpreter
# ---------------------------------------------------------------------------


class LinearForms:
    """The linear form feats @ w of each weight vector over one feature array (..., d').

    A predicate atom keeps the rows whose form is >= 0; a score vector ranks
    rows by its form. A caller that interprets many programs over the same
    features can pass a subclass that caches both (see synth.SurrogateEvaluator).
    """

    def __init__(self, feats: Array):
        self.feats = feats

    def atom(self, weights: tuple[float, ...]) -> Array:
        """Boolean mask (...) of the rows a predicate atom keeps."""
        return self.feats @ np.asarray(weights) >= 0.0

    def score(self, weights: tuple[float, ...]) -> Array:
        """Score (...) of every row under a score vector."""
        return self.feats @ np.asarray(weights)


def _eval_pred(pred: Predicate, forms: LinearForms) -> Array:
    """Boolean mask over feature rows: (..., d') -> (...)."""
    if isinstance(pred, PredicateAtom):
        return forms.atom(pred.weights)
    left = _eval_pred(pred.left, forms)
    right = _eval_pred(pred.right, forms)
    return left & right if pred.op == "and" else left | right


def rule_picks(rule: Rule, feats: Array, u: Optional[Array] = None, forms: Optional[LinearForms] = None) -> Array:
    """Boolean mask (..., N, N) of the one sender each agent's rule picks.

    feats: (..., N, N, d') features for every ordered (receiver, sender) pair.
    u: uniforms (..., N) driving a nondeterministic rule. forms: the linear
    forms of feats, LinearForms(feats) when not given. The diagonal is
    always False, and an agent whose filter keeps nobody picks nobody.
    Deterministic rules pick the passing sender with the highest score, ties
    to the lowest id; a nondeterministic rule picks passing sender number
    floor(u * count) in id order.
    """
    n = feats.shape[-2]
    forms = LinearForms(feats) if forms is None else forms
    keep = _eval_pred(rule.pred, forms) & ~np.eye(n, dtype=bool)
    if isinstance(rule, DetRule):
        pick = np.argmax(np.where(keep, forms.score(rule.score.weights), -np.inf), axis=-1)
        return (np.arange(n) == pick[..., None]) & keep.any(axis=-1, keepdims=True)
    if u is None:
        raise DslError("a nondeterministic rule needs rand_u")
    count = keep.sum(axis=-1)
    target = np.minimum(np.floor(u * count), np.maximum(count - 1, 0)).astype(np.int64) + 1
    # the target-th passing sender is the one passing sender whose running count hits target
    return (np.cumsum(keep, axis=-1) == target[..., None]) & keep


def eval_program_batch(program: Program, feats: Array, rand_u: Optional[Array] = None) -> Array:
    """Selection mask over batches of worlds: the OR of every rule's picks.

    feats: (..., N, N, d') features for every ordered (receiver, sender) pair.
    rand_u: uniforms (..., N, K), column k driving rule k when it is
    nondeterministic; required when the program has such a rule.
    Returns a boolean mask (..., N, N) with mask[..., i, j] = True when agent i
    selects sender j (see rule_picks).
    """
    selected = np.zeros(feats.shape[:-1], dtype=bool)
    for k, rule in enumerate(program.rules):
        selected |= rule_picks(rule, feats, None if rand_u is None else rand_u[..., k])
    return selected


def featurize_agents(states: Array, obs: Array, fmap: FeatureMap) -> Array:
    """Features (..., N, N, d') of (receiver state, observation) pairs from states (..., N, ds), obs (..., N, N, 2)."""
    tiled = np.broadcast_to(states[..., :, None, :], obs.shape[:-1] + states.shape[-1:])
    return featurize_pairs(tiled, obs, fmap)


def eval_program(program: Program, states: Array, obs: Array, rand_u: Optional[Array] = None) -> Array:
    """Selection mask (B, N, N) from agent states (B, N, ds) and observations (B, N, N, 2)."""
    return eval_program_batch(program, featurize_agents(states, obs, program.feature_map), rand_u)


# ---------------------------------------------------------------------------
# communication graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommGraph:
    """Directed delivered-communication graph of one step; edge (j, i) means j -> i."""

    n_agents: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for j, i in self.edges:
            if j == i:
                raise DslError("communication graph cannot contain self-loops")
            if not (0 <= j < self.n_agents and 0 <= i < self.n_agents):
                raise DslError("edge endpoint out of range")

    @classmethod
    def from_mask(cls, mask: Array) -> "CommGraph":
        """Graph of a (N, N) mask whose entry [i, j] means receiver i hears sender j."""
        receivers, senders = np.nonzero(mask)
        return cls(mask.shape[0], frozenset(zip(senders.tolist(), receivers.tolist())))


def degree_stats(mask: Array) -> tuple[Array, Array, Array]:
    """Max in-, out- and total degree over the nodes of masks (..., N, N).

    mask[..., i, j] means receiver i hears sender j, so row sums are
    in-degrees and column sums out-degrees.
    """
    indeg = mask.sum(axis=-1)
    outdeg = mask.sum(axis=-2)
    return indeg.max(axis=-1), outdeg.max(axis=-1), (indeg + outdeg).max(axis=-1)


# ---------------------------------------------------------------------------
# surface syntax
# ---------------------------------------------------------------------------


class DimensionMismatch(DslError):
    pass


class ParseError(DslError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_KEYWORDS = {"argmax", "map", "filter", "random", "l", "and", "or"}


class _Tokenizer:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch in "(),*+-":
                self.tokens.append((ch, ch, col))
                i += 1
            elif ch == ">" and text[i : i + 2] == ">=":
                self.tokens.append((">=", ">=", col))
                i += 2
            elif ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                    j += 1
                try:
                    float(text[i:j])
                except ValueError:
                    raise ParseError(f"malformed number {text[i:j]!r}", self.line, col) from None
                self.tokens.append(("num", text[i:j], col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = word if word in _KEYWORDS else "name"
                self.tokens.append((kind, word, col))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", self.line, col)
        self.tokens.append(("eof", "", len(text) + 1))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.line, tok[2])
        return tok


class _RuleParser:
    """Recursive descent over one rule line."""

    def __init__(self, text: str, line: int, names: list[str]):
        self.toks = _Tokenizer(text, line)
        self.line = line
        self.names = names
        self.name_index = {name: k for k, name in enumerate(names)}
        self.dim = len(names)
        self.nesting = 0

    def parse_rule(self) -> Rule:
        kind, word, col = self.toks.next()
        if kind == "argmax":
            self.toks.expect("(")
            self.toks.expect("map")
            self.toks.expect("(")
            score = ScoreExpr(tuple(self._linear()))
            self.toks.expect(",")
            pred = self._filter()
            self.toks.expect(")")
            self.toks.expect(")")
            rule: Rule = DetRule(score, pred)
        elif kind == "random":
            self.toks.expect("(")
            pred = self._filter()
            self.toks.expect(")")
            rule = RandRule(pred)
        else:
            raise ParseError(f"expected 'argmax' or 'random', found {word!r}", self.line, col)
        self.toks.expect("eof")
        return rule

    def _filter(self) -> Predicate:
        self.toks.expect("filter")
        self.toks.expect("(")
        pred = self._pred_or()
        self.toks.expect(",")
        self.toks.expect("l")
        self.toks.expect(")")
        return pred

    def _pred_or(self) -> Predicate:
        left = self._pred_and()
        while self.toks.peek()[0] == "or":
            col = self.toks.next()[2]
            right = self._pred_and()
            left = self._combine("or", left, right, col)
        return left

    def _pred_and(self) -> Predicate:
        left = self._pred_atom_or_group()
        while self.toks.peek()[0] == "and":
            col = self.toks.next()[2]
            right = self._pred_atom_or_group()
            left = self._combine("and", left, right, col)
        return left

    def _combine(self, op: str, left: Predicate, right: Predicate, col: int) -> Predicate:
        try:
            return BoolOp(op, left, right)
        except DslError as exc:
            raise ParseError(str(exc), self.line, col) from exc

    def _pred_atom_or_group(self) -> Predicate:
        kind, _, col = self.toks.peek()
        if kind == "(":
            self.nesting += 1
            if self.nesting > MAX_PAREN_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_NESTING}", self.line, col)
            self.toks.next()
            inner = self._pred_or()
            self.toks.expect(")")
            self.nesting -= 1
            return inner
        lhs = self._linear()
        self.toks.expect(">=")
        rhs = self._linear()
        weights = [a - b for a, b in zip(lhs, rhs)]
        self._check_finite(weights, col)
        return PredicateAtom(tuple(weights))

    def _linear(self) -> list[float]:
        """Affine expression over feature names -> weight vector (constant folded last)."""
        weights = [0.0] * self.dim
        sign = 1.0
        kind, _, col = self.toks.peek()
        if kind == "-":
            self.toks.next()
            sign = -1.0
        elif kind == "+":
            self.toks.next()
        self._term(weights, sign)
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            self._term(weights, 1.0 if op == "+" else -1.0)
        self._check_finite(weights, col)
        return weights

    def _check_finite(self, weights: list[float], col: int) -> None:
        """A coefficient written as 1e999, or summed past the float range, would score every sender inf or nan."""
        if not all(math.isfinite(w) for w in weights):
            raise ParseError("expression has a coefficient that is not a finite float", self.line, col)

    def _term(self, weights: list[float], sign: float) -> None:
        kind, word, col = self.toks.peek()
        if kind == "num":
            self.toks.next()
            value = float(word)
            if self.toks.peek()[0] == "*":
                self.toks.next()
                name_tok = self.toks.next()
                if name_tok[0] != "name":
                    raise ParseError(f"expected feature name after '*', found {name_tok[1]!r}", self.line, name_tok[2])
                self._add_feature(weights, name_tok[1], sign * value, name_tok[2])
            else:
                weights[-1] += sign * value
        elif kind == "name":
            self.toks.next()
            self._add_feature(weights, word, sign, col)
        else:
            raise ParseError(f"expected a number or feature name, found {word!r}", self.line, col)

    def _add_feature(self, weights: list[float], name: str, coef: float, col: int) -> None:
        idx = self.name_index.get(name)
        if idx is None:
            raise ParseError(f"unknown feature name {name!r}", self.line, col)
        weights[idx] += coef


def parse_program(text: str, state_dim: Optional[int] = None) -> Program:
    """Parse the textual program format.

    The first non-empty line is a header: ``#dsl v1 features=V1|V2 rules=K
    state_dim=D``; each following non-empty line is one rule. A given
    state_dim must match the header's.
    """
    lines = text.splitlines()
    header = None
    header_line = 0
    rule_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if header is None:
            header = stripped
            header_line = lineno
        else:
            rule_lines.append((lineno, stripped))
    if header is None:
        raise ParseError("empty program text", 1, 1)
    fields = header.split()
    if len(fields) < 2 or fields[0] != "#dsl" or fields[1] != "v1":
        raise ParseError("expected header '#dsl v1 ...'", header_line, 1)
    meta = {}
    for item in fields[2:]:
        if "=" not in item:
            raise ParseError(f"malformed header field {item!r}", header_line, 1)
        key, value = item.split("=", 1)
        meta[key] = value
    version = meta.get("features", "V1").lower()
    if version not in FEATURE_VERSIONS:
        raise ParseError(f"unknown feature version {meta.get('features')!r}", header_line, 1)
    fmap = FeatureMap(version)

    def header_int(key: str) -> Optional[int]:
        if key not in meta:
            return None
        try:
            return int(meta[key])
        except ValueError:
            raise ParseError(f"header field {key}={meta[key]!r} is not an integer", header_line, 1) from None

    declared = header_int("state_dim")
    if declared is not None and (declared < 1 or declared % 2 != 0):
        raise ParseError(f"header field state_dim={declared} is not a positive even integer", header_line, 1)
    if state_dim is None:
        if declared is None:
            raise ParseError("header is missing state_dim", header_line, 1)
        state_dim = declared
    elif declared is not None and declared != state_dim:
        raise DimensionMismatch(f"program is for state_dim {declared}, expected {state_dim}")
    names = feature_names(fmap, state_dim)
    rules = []
    for lineno, line in rule_lines:
        rules.append(_RuleParser(line, lineno, names).parse_rule())
    if not rules:
        raise ParseError("program has no rules", header_line, 1)
    claimed = header_int("rules")
    if claimed is not None and claimed != len(rules):
        raise ParseError(f"header claims {claimed} rules but {len(rules)} found", header_line, 1)
    return Program(tuple(rules), fmap)


def _fmt_coef(value: float) -> str:
    return repr(float(value))


def _print_linear(weights: Sequence[float], names: list[str]) -> str:
    terms: list[str] = []
    for coef, name in zip(weights[:-1], names[:-1]):
        if coef == 0.0:
            continue
        if coef == 1.0:
            term = name
        elif coef == -1.0:
            term = f"-{name}"
        else:
            term = f"{_fmt_coef(coef)}*{name}"
        terms.append(term)
    const = weights[-1]
    if const != 0.0 or not terms:
        terms.append(_fmt_coef(const))
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _print_pred(pred: Predicate, names: list[str], parent: Optional[str] = None) -> str:
    if isinstance(pred, PredicateAtom):
        return f"{_print_linear(pred.weights, names)} >= 0"
    inner = f"{_print_pred(pred.left, names, pred.op)} {pred.op} {_print_pred(pred.right, names, pred.op)}"
    return f"({inner})" if parent is not None else inner


def print_program(program: Program, state_dim: int) -> str:
    """Canonical textual form; parse(print(p)) is structurally equal to p."""
    names = feature_names(program.feature_map, state_dim)
    lines = [
        f"#dsl v1 features={program.feature_map.version.upper()} "
        f"rules={program.n_rules} state_dim={state_dim}"
    ]
    for rule in program.rules:
        pred_text = _print_pred(rule.pred, names)
        if isinstance(rule, DetRule):
            lines.append(
                f"argmax(map({_print_linear(rule.score.weights, names)}, filter({pred_text}, l)))"
            )
        else:
            lines.append(f"random(filter({pred_text}, l))")
    return "\n".join(lines) + "\n"
