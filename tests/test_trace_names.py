"""bench/tracing.py wraps functions and methods it finds by name; a rename must fail here, not in a traced run."""

from pathlib import Path

import swarmcomm
from swarmcomm import autodiff, cli, dsl, env, harness, policy, synth, training, transformer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

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
