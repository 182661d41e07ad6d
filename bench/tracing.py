"""Span tracing of a pipeline round, from outside the program.

The tracer wraps public functions and methods of the swarmcomm modules and
installs each wrapper under every name a caller looks it up by: the modules
import names directly (``from .transformer import forward_policy``), so the
wrapper replaces the function in the defining module and in every module that
holds a reference to it. A span records its name, start, end and parent; spans
stay in memory and are written out when the round ends.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional, Union

Namer = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = []
        self.tape_records: list[int] = []  # tape length at each backward pass
        self.iteration_s: list[float] = []  # taped unroll start -> Adam step end
        self.accepted = 0
        self._iter_start: Optional[float] = None
        self.paused = False  # while set, wrapped functions run without spans or hooks

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        self._stack.pop()
        end = self.spans[idx][2] = time.perf_counter()
        return end

    def wrap(self, fn: Callable, namer: Namer, hook: Optional[Callable] = None) -> Callable:
        """Wrapper recording one span per call; hook(tracer, args, kwargs, result, start, end)."""
        fixed = namer if isinstance(namer, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(fixed or namer(args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.close(idx)
                if hook is not None:
                    hook(self, args, kwargs, result, self.spans[idx][1], end)

        return traced

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[n, round((s - t0) * 1e9), round((e - t0) * 1e9), p] for n, s, e, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------
    # per-layer summary

    def summary(self) -> dict:
        n = len(self.spans)
        child = [0.0] * n
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        candidate_s: list[float] = []
        for i, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            dur = end - start
            self_s[name] += dur - child[i]
            total_s[name] += dur
            calls[name] += 1
            if name == "synth.candidate":
                candidate_s.append(dur)

        def selfs(*names: str) -> float:
            return sum(self_s.get(x, 0.0) for x in names)

        def med(xs: list) -> float:
            return float(statistics.median(xs)) if xs else 0.0

        cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
        return {
            "autodiff.records_per_iter": med(self.tape_records),
            "autodiff.backward_s": selfs("autodiff.backward"),
            "autodiff.adam_s": selfs("autodiff.adam_step"),
            "transformer.forward_taped_s": selfs("transformer.forward_taped"),
            "transformer.forward_plain_s": selfs("transformer.forward_plain"),
            "transformer.params_io_s": selfs("transformer.params_save", "transformer.params_load"),
            "training.unroll_self_s": selfs("training.unroll_score"),
            "training.validation_s": total_s.get("training.validation_score", 0.0),
            "training.iter_ms": 1e3 * med(self.iteration_s),
            "training.iterations": len(self.iteration_s),
            "dsl.eval_program_s": selfs("dsl.eval_program"),
            "dsl.eval_program_calls": calls["dsl.eval_program"],
            "dsl.eval_program_batch_s": selfs("dsl.eval_program_batch"),
            "dsl.eval_program_batch_calls": calls["dsl.eval_program_batch"],
            "dsl.featurize_pairs_s": selfs("dsl.featurize_pairs"),
            "dsl.degree_stats_s": selfs("dsl.degree_stats"),
            "synth.candidates": calls["synth.propose"],
            "synth.accepted": self.accepted,
            "synth.candidate_ms": 1e3 * med(candidate_s),
            "synth.propose_s": selfs("synth.propose"),
            "synth.selection_s": selfs("synth.selections"),
            "synth.score_s": selfs("synth.score_masks"),
            "synth.evaluator_init_s": selfs("synth.evaluator_init"),
            "synth.collect_s": selfs("synth.collect_dataset"),
            "synth.dataset_save_s": selfs("synth.dataset_save"),
            "synth.dataset_load_s": selfs("synth.dataset_load"),
            "harness.manifest_s": selfs("harness.manifest_capture", "harness.file_sha256", "harness.manifest_save"),
            "env.rollout_self_s": selfs("env.rollout"),
            "env.world_steps": calls["policy.step"],
            "env.apply_link_failure_s": selfs("env.apply_link_failure"),
            "policy.step_self_s": selfs("policy.step"),
            "harness.evaluate_self_s": selfs("harness.evaluate"),
            "harness.sweep_self_s": selfs("harness.sweep"),
            "cli.self_s": cli_self,
            "trace.spans": n,
        }


# ----------------------------------------------------------------------
# hooks


def _count_records(tracer: Tracer, args, kwargs, result, start, end) -> None:
    tracer.tape_records.append(len(args[0].records))


def _mark_iteration_start(tracer: Tracer, args, kwargs, result, start, end) -> None:
    if kwargs.get("tape") is not None:
        tracer._iter_start = start


def _close_iteration(tracer: Tracer, args, kwargs, result, start, end) -> None:
    if tracer._iter_start is not None:
        tracer.iteration_s.append(end - tracer._iter_start)
        tracer._iter_start = None


def _count_accept(tracer: Tracer, args, kwargs, result, start, end) -> None:
    if result:
        tracer.accepted += 1


def _forward_namer(caller: str) -> Namer:
    """forward_policy runs taped (training), plain (policy) or untaped inside validation."""
    if caller != "training":
        return "transformer.forward_plain"

    def namer(args, kwargs) -> str:
        states = args[1] if len(args) > 1 else kwargs["states"]
        if getattr(states, "tape", None) is not None:
            return "transformer.forward_taped"
        return "transformer.forward_validation"

    return namer


# (defining module, function, span name or caller module -> namer, hook)
FUNCTIONS = [
    ("autodiff", "backward", "autodiff.backward", _count_records),
    ("autodiff", "adam_step", "autodiff.adam_step", _close_iteration),
    ("autodiff", "clip_grads", "autodiff.clip_grads", None),
    ("transformer", "forward_policy", _forward_namer, None),
    ("transformer", "init_for_task", "transformer.init_for_task", None),
    ("training", "train_oracle", "training.train_oracle", None),
    ("training", "retrain", "training.retrain", None),
    ("training", "unroll_score", "training.unroll_score", _mark_iteration_start),
    ("training", "validation_score", "training.validation_score", None),
    ("training", "write_curve_csv", "training.write_curve_csv", None),
    ("dsl", "eval_program", "dsl.eval_program", None),
    ("dsl", "eval_program_batch", "dsl.eval_program_batch", None),
    ("dsl", "featurize_pairs", "dsl.featurize_pairs", None),
    ("dsl", "degree_stats", "dsl.degree_stats", None),
    ("dsl", "parse_program", "dsl.parse_program", None),
    ("dsl", "print_program", "dsl.print_program", None),
    ("synth", "collect_dataset", "synth.collect_dataset", None),
    ("synth", "mcmc_synthesize", "synth.mcmc_synthesize", None),
    ("synth", "synthesize_multiround", "synth.synthesize_multiround", None),
    ("synth", "propose", "synth.propose", None),
    ("synth", "mh_accept", "synth.mh_accept", _count_accept),
    ("synth", "write_chain_csv", "synth.write_chain_csv", None),
    ("env", "rollout", "env.rollout", None),
    ("env", "apply_link_failure", "env.apply_link_failure", None),
    ("policy", "make_policy", "policy.make_policy", None),
    ("harness", "evaluate", "harness.evaluate", None),
    ("harness", "sweep", "harness.sweep", None),
    ("harness", "select_best_cell", "harness.select_best_cell", None),
    ("harness", "file_sha256", "harness.file_sha256", None),
]

# (defining module, class, method, span name, hook); classmethods stay classmethods
METHODS = [
    ("transformer", "TransformerParams", "save", "transformer.params_save", None),
    ("transformer", "TransformerParams", "load", "transformer.params_load", None),
    ("synth", "SynthDataset", "save_jsonl", "synth.dataset_save", None),
    ("synth", "SynthDataset", "load_jsonl", "synth.dataset_load", None),
    ("synth", "SurrogateEvaluator", "__init__", "synth.evaluator_init", None),
    ("synth", "SurrogateEvaluator", "evaluate", "synth.candidate", None),
    ("synth", "SurrogateEvaluator", "selections", "synth.selections", None),
    ("synth", "SurrogateEvaluator", "_score_masks", "synth.score_masks", None),
    ("policy", "_TransformerPolicy", "step", "policy.step", None),
    ("harness", "RunManifest", "capture", "harness.manifest_capture", None),
    ("harness", "RunManifest", "save", "harness.manifest_save", None),
]


def install(tracer: Tracer, modules: dict[str, ModuleType]) -> None:
    """Wrap every listed function under every module name that refers to it.

    ``modules`` maps short names ("dsl", "synth", ...) to the imported
    swarmcomm modules, the package itself included.
    """
    for mod_name, fn_name, namer, hook in FUNCTIONS:
        original = getattr(modules[mod_name], fn_name)
        for caller, module in modules.items():
            for attr, value in list(vars(module).items()):
                if value is original:
                    name = namer if isinstance(namer, str) else namer(caller)
                    setattr(module, attr, tracer.wrap(original, name, hook))
    for mod_name, cls_name, meth, name, hook in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, name, hook)))
        else:
            setattr(cls, meth, tracer.wrap(raw, name, hook))
