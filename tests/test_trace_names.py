"""bench/tracing.py wraps functions and methods it finds by name; a rename must fail here, not in a traced run.

And src/ defines only what the program, the tracer or the benchmark's checks use: what only tests call lives in
tests/reference.py.
"""

import ast
from pathlib import Path
from typing import Optional

import swarmcomm
from swarmcomm import autodiff, cli, dsl, env, harness, policy, synth, training, transformer

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
CHECKS = ROOT / "bench" / "checks.py"
SRC = ROOT / "src" / "swarmcomm"
# the autodiff primitives the acceptance tests' autodiff criterion differentiates: that criterion tests src/ code
CRITERION_1 = {("autodiff", name) for name in ("getitem", "matmul", "tanh", "tensor_sum")}

# the short names the benchmark's pipeline hands to tracing.install
MODULES = {
    "swarmcomm": swarmcomm, "autodiff": autodiff, "cli": cli, "dsl": dsl, "env": env, "harness": harness,
    "policy": policy, "synth": synth, "training": training, "transformer": transformer,
}


def _tracing_tables() -> dict:
    # compiled from the text, so loading it writes no bytecode next to it
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_exists_where_the_tracer_looks():
    tables = _tracing_tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [
        f"{mod}.{fn}" for mod, fn, *_ in tables["FUNCTIONS"] if not callable(getattr(MODULES[mod], fn, None))
    ]
    missing += [
        f"{mod}.{cls}.{meth}"
        for mod, cls, meth, *_ in tables["METHODS"]
        if meth not in getattr(getattr(MODULES[mod], cls, None), "__dict__", {})
    ]
    assert missing == []


def _swarmcomm_module(node: ast.ImportFrom) -> Optional[str]:
    """The swarmcomm module an import reads from: "" for the package itself, None outside swarmcomm."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None and node.module.split(".")[0] == "swarmcomm":
        return node.module.partition(".")[2]
    return None


def _imported_uses(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each ``from .m import name`` and each ``alias.name`` after ``from . import m as alias``."""
    aliases: dict[str, str] = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _swarmcomm_module(node)) is not None:
            for alias in node.names:
                if module:
                    uses.add((module, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.add((aliases[node.value.id], node.attr))
    return uses


def test_src_defines_nothing_that_only_tests_call():
    tables = _tracing_tables()
    named = {(mod, fn) for mod, fn, *_ in tables["FUNCTIONS"]} | {(mod, cls) for mod, cls, *_ in tables["METHODS"]}
    used = _imported_uses(ast.parse(CHECKS.read_text()))
    unused_here = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":  # a re-export is no use
            used |= _imported_uses(tree)
        # bare names each top-level statement reads: a definition's own body does not count for it
        names = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} for stmt in tree.body]
        for k, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(stmt.name in other for j, other in enumerate(names) if j != k):
                    unused_here.append((path.stem, stmt.name))
    assert sorted(d for d in unused_here if d not in used | named | CRITERION_1) == []
