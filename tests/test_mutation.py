"""Seeded mutation test of the dataset, manifest, task-config and parameter readers.

In the style of Miller, Fredriksen and So (CACM 1990): a tiny collected
dataset and its ``collect`` manifest are mutated from a fixed seed. Row and
header keys are dropped, duplicated or retyped, lines truncated, arrays
reshaped, and NaN, wrong widths or out-of-range indices written in; the
manifest's args and fields are retyped. The task config and the oracle's
parameter file are mutated the same way, and given huge, tiny or negative
numbers that overflow inside a rollout. A valid two-rule program's text loses
or repeats tokens, gets stray characters, unbalanced parentheses, unknown
feature names, non-finite or overflowing coefficients and a changed header.
Every mutant goes through ``cli.main`` (``synthesize --steps 1``, ``rerun``,
``evaluate --rollouts 1`` or ``evaluate --policy combined --rollouts 1``) and
must exit 0, or exit 1 with exactly one ``error[...]`` line; it must never
raise. A dataset with a boolean inside one of its arrays must exit 1 with one
``error[bad-config]`` line.
"""

import copy
import json
import random
import re

import pytest

from swarmcomm import cli
from swarmcomm.env import RewardParams, TaskConfig
from swarmcomm.transformer import init_for_task

from conftest import make_rng
from reference import save_config

SEED = 1990
N_DATASET_MUTANTS = 70  # per task kind
N_MANIFEST_MUTANTS = 60
N_BOOLEAN_MUTANTS = 15  # per task kind
N_CONFIG_MUTANTS = 60  # per task kind
N_PARAMS_MUTANTS = 60  # per task kind
N_PROGRAM_MUTANTS = 80  # per task kind

ARRAY_KEYS = ("s", "o", "msg", "alpha", "a", "goal_perm_inv")
# no valid count here: a manifest's rollouts of 2 ** 70 would run; no small int, which is an open file descriptor
ODD_VALUES = ("x", "", None, True, False, 1.5, -1, [], {}, [[]], [1.0, "x"], float("nan"), float("inf"))
ODD_ROW_VALUES = ODD_VALUES + (0, 7, 2 ** 70)
# valid or not, none a huge count: a horizon or group size of 2 ** 70 would run
EXTREMES = (0, -1, 2, 0.5, -0.5, 1e300, -1e300, 1e308, -1e308, 1e-320, 5e-324, -1e-320)
# a valid two-rule program per task: V1 features of grid's 4-wide states, V2 of coverage's 6-wide ones
PROGRAMS = {
    "grid": (
        "#dsl v1 features=V1 rules=2 state_dim=4\n"
        "random(filter(0.5*d - 1.0 >= 0 and (ox >= -2.0 or oy + 0.25*sx0 >= 0), l))\n"
        "argmax(map(-d + 0.5*theta - 0.1, filter(d - 0.2 >= 0 or -ox >= 1.5, l)))\n"
    ),
    "coverage": (
        "#dsl v1 features=V2 rules=2 state_dim=6\n"
        "argmax(map(-d + 2.0*c0xy, filter(sn1 - 0.5 >= 0 or (sa0 >= 0.1 and oy >= -1e-3), l)))\n"
        "random(filter(-d + 3 >= 0, l))\n"
    ),
}
PROGRAM_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9.]+(?:e[-+]?[0-9]+)?|>=|\S")
STRAY = ("(", ")", ",", "*", "+", "-", ">", "=", "#", "!", "@", ";", "[", "]", "{", "\\", "'", '"', "\t", "\x00", "é", "∞", "\u202e")
ODD_NUMBERS = ("nan", "inf", "-inf", "1e999", "-1e999", "1e308", "5e-324", "1e-400", "0x1p3", "1_0", "00", "1.2.3", ".", "e5")
ODD_NAMES = ("zz", "sx9", "theta2", "D", "l", "filter", "and", "or", "map", "random", "argmax", "const", "_")
ODD_HEADER_VALUES = ("", "0", "1", "3", "-1", "x", "V3", "v2", "V1", "2.5", "1e3", "99999999999999999999999", "٣")

TASKS = {
    "grid": TaskConfig(task_kind="random-grid", n_agents_per_group=1, horizon=2, obs_noise_sigma=0.05),
    "coverage": TaskConfig(task_kind="unlabeled-goals", n_agents_per_group=2, horizon=2),
}


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """Per task kind, the directory holding task.json, oracle.json, data.jsonl and its manifest."""
    dirs = {}
    for name, cfg in TASKS.items():
        root = tmp_path_factory.mktemp(name)
        save_config(root / "task.json", cfg, RewardParams())
        init_for_task(cfg, make_rng(0), key_dim=4, msg_dim=4, hidden_dim=8, internal_dim=4).save(root / "oracle.json")
        assert cli.main([
            "collect", "--params", str(root / "oracle.json"), "--config", str(root / "task.json"),
            "--rollouts", "1", "--out", str(root / "data.jsonl"), "--seed", "1",
        ]) == 0
        dirs[name] = root
    return dirs


def _inside(value, rng):
    """(list, index) of a random element somewhere inside a nested list, or None for a non-list."""
    if not isinstance(value, list) or not value:
        return None
    parent = value
    while True:
        i = rng.randrange(len(parent))
        if isinstance(parent[i], list) and parent[i] and rng.random() < 0.8:
            parent = parent[i]
        else:
            return parent, i


def _leaf(value, rng):
    """(list, index) of a number inside a nested list, or None."""
    while isinstance(value, list) and value:
        parent, i = value, rng.randrange(len(value))
        if not isinstance(value[i], list):
            return parent, i
        value = value[i]
    return None


def _mutate_row(rng, header, rows):
    row = rng.choice(rows)
    key = rng.choice(sorted(row))
    arrays = [k for k in ARRAY_KEYS if isinstance(row.get(k), list)]
    op = rng.choice(("drop", "retype", "duplicate", "unknown", "reshape", "width", "non-finite", "index", "header"))
    if op == "drop":
        del row[key]
    elif op == "retype":
        row[key] = rng.choice(ODD_ROW_VALUES)
    elif op == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), copy.deepcopy(row))
    elif op == "unknown":
        row["extra"] = rng.choice(ODD_ROW_VALUES)
    elif op == "reshape" and arrays:
        key = rng.choice(arrays)
        value = row[key]
        row[key] = rng.choice(([value], value[0], [x for item in value for x in (item if isinstance(item, list) else [item])]))
    elif op == "width" and arrays:
        key = rng.choice(arrays)
        parent, i = _inside(row[key], rng)
        if rng.random() < 0.5:
            del parent[i]
        else:
            parent.insert(i, copy.deepcopy(parent[i]))
    elif op == "non-finite" and arrays:
        key = rng.choice(arrays)
        spot = _leaf(row[key], rng)
        if spot:
            spot[0][spot[1]] = rng.choice((float("nan"), float("inf"), -float("inf")))
    elif op == "index":
        spot = _leaf(row.get("goal_perm_inv"), rng)
        if spot:
            key = "goal_perm_inv"
            spot[0][spot[1]] = rng.choice((-1, 2, 9, 1.5, 10 ** 12))
        else:
            key = "n"
            row["n"] = rng.choice((0, -1, 2, 4, 10 ** 6, 3.0))
    elif op == "header":
        key = rng.choice(sorted(header))
        if key in ("task", "oracle") and rng.random() < 0.7:
            inner = header[key] if key == "task" else header[key]["meta"]
            inner[rng.choice(sorted(inner))] = rng.choice(ODD_ROW_VALUES)
        elif isinstance(header[key], int) and rng.random() < 0.5:
            header[key] += rng.choice((-1, 1))
        else:
            header[key] = rng.choice(ODD_ROW_VALUES)
    return f"{op} {key}"


def _dataset_mutant(rng, text):
    lines = text.splitlines()
    if rng.random() < 0.1:
        k = rng.randrange(len(lines))
        lines[k] = lines[k][: rng.randrange(len(lines[k]))]
        return f"truncate line {k}", "\n".join(lines) + "\n"
    header, *rows = [json.loads(line) for line in lines]
    what = _mutate_row(rng, header, rows)
    return what, "".join(json.dumps(doc) + "\n" for doc in [header, *rows])


def _manifest_mutant(rng, text):
    doc = json.loads(text)
    if rng.random() < 0.1:
        return "truncate", text[: rng.randrange(len(text))]
    op = rng.choice(("retype-arg", "retype-arg", "drop-arg", "retype-field", "drop-field", "command", "seed"))
    if op == "retype-arg":
        key = rng.choice(sorted(doc["args"]))
        doc["args"][key] = rng.choice(ODD_VALUES)
    elif op == "drop-arg":
        key = rng.choice(sorted(doc["args"]))
        del doc["args"][key]
    elif op in ("retype-field", "drop-field"):
        key = rng.choice(sorted(doc))
        if op == "drop-field":
            del doc[key]
        else:
            doc[key] = rng.choice(ODD_VALUES)
    elif op == "command":
        key = doc["command"] = rng.choice(("train-oracle", "synthesize", "sweep", "rerun", "nope", "collect"))
    else:
        key = doc["seed"] = rng.choice((-1, 0, 2 ** 64, 2 ** 70))
    return f"{op} {key}", json.dumps(doc)


def _config_mutant(rng, text):
    doc = json.loads(text)
    if rng.random() < 0.1:
        return "truncate", text[: rng.randrange(len(text))]
    key = rng.choice(sorted(doc))
    op = rng.choice(("extreme", "extreme", "extreme", "retype", "drop", "unknown", "kind"))
    if op == "extreme":
        doc[key] = rng.choice(EXTREMES)
    elif op == "retype":
        doc[key] = rng.choice(ODD_VALUES)
    elif op == "drop":
        del doc[key]
    elif op == "unknown":
        doc["extra"] = rng.choice(ODD_VALUES)
    else:
        key = doc["task_kind"] = rng.choice(("random-cross", "random-grid", "unlabeled-goals"))
    return f"{op} {key} = {doc.get(key, '-')!r:.40}", json.dumps(doc)


def _params_mutant(rng, text):
    doc = json.loads(text)
    if rng.random() < 0.1:
        return "truncate", text[: rng.randrange(len(text))]
    name = rng.choice(sorted(doc["params"]))
    weight = doc["params"][name]
    values = weight["values"]
    op = rng.choice(("scale", "scale", "extreme", "extreme", "retype-value", "reshape", "cut", "drop", "meta"))
    if op == "scale":  # every weight of one network, which 1e200 makes overflow where a product enters
        factor = rng.choice((1e200, -1e200, 1e150, 0.0, 1e-320))
        net = name.split(".")[0]
        for key in [key for key in doc["params"] if key.split(".")[0] == net]:
            doc["params"][key]["values"] = [v * factor for v in doc["params"][key]["values"]]
    elif op == "extreme":
        values[rng.randrange(len(values))] = rng.choice(EXTREMES + (float("nan"), float("inf")))
    elif op == "retype-value":
        values[rng.randrange(len(values))] = rng.choice(ODD_VALUES)
    elif op == "reshape":
        weight["shape"] = rng.choice((weight["shape"][::-1], weight["shape"] + [1], [len(values)], [], ["x"]))
    elif op == "cut":
        del values[rng.randrange(len(values))]
    elif op == "drop":
        del doc["params"][name]
    else:
        name = rng.choice(sorted(doc["meta"]))
        doc["meta"][name] = rng.choice(ODD_VALUES + EXTREMES[:3])
    return f"{op} {name}", json.dumps(doc)


def _outcome(argv, capsys):
    """None when cli.main exits 0, or 1 with exactly one error[...] line; else what went wrong."""
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # the failure under test, reported per mutant
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    lines = err.splitlines()
    if rc == 0 and "Traceback" not in err:
        return None
    if rc == 1 and len(lines) == 1 and lines[0].startswith("error["):
        return None
    return f"exit {rc}, stderr {err[-300:]!r}"


def test_dataset_mutants_exit_cleanly(collected, tmp_path, capsys):
    rng = random.Random(SEED)
    failures = []
    for name, root in collected.items():
        text = (root / "data.jsonl").read_text()
        for k in range(N_DATASET_MUTANTS):
            what, mutant = _dataset_mutant(rng, text)
            path = tmp_path / f"{name}-{k}.jsonl"
            path.write_text(mutant)
            argv = ["synthesize", "--dataset", str(path), "--steps", "1", "--out", str(tmp_path / "p.txt"), "--seed", "3"]
            problem = _outcome(argv, capsys)
            if problem:
                failures.append(f"{name} mutant {k} ({what}): {problem}")
    assert not failures, "\n".join(failures)


def test_boolean_inside_an_array_is_one_bad_config_line(collected, tmp_path, capsys):
    rng = random.Random(SEED + 2)
    failures = []
    for name, root in collected.items():
        header, *rows = [json.loads(line) for line in (root / "data.jsonl").read_text().splitlines()]
        for k in range(N_BOOLEAN_MUTANTS):
            mutant = copy.deepcopy(rows)
            row = rng.choice(mutant)
            key = rng.choice([key for key in ARRAY_KEYS if key in row])
            parent, i = _leaf(row[key], rng)
            parent[i] = rng.choice((True, False))
            path = tmp_path / f"{name}-bool-{k}.jsonl"
            path.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *mutant]))
            argv = ["synthesize", "--dataset", str(path), "--steps", "1", "--out", str(tmp_path / "p.txt"), "--seed", "3"]
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # the failure under test, reported per mutant
                rc = f"raised {type(exc).__name__}: {exc}"
            lines = capsys.readouterr().err.splitlines()
            if rc != 1 or len(lines) != 1 or not lines[0].startswith("error[bad-config]: "):
                failures.append(f"{name} mutant {k} ({key} = {parent[i]}): exit {rc}, stderr {lines[-3:]}")
    assert not failures, "\n".join(failures)


def test_manifest_mutants_exit_cleanly(collected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutant may name a relative output path
    monkeypatch.delenv("SWARM_SEED", raising=False)
    rng = random.Random(SEED + 1)
    doc = json.loads((collected["grid"] / "data.jsonl.manifest.json").read_text())
    doc["args"]["out"] = str(tmp_path / "data.jsonl")
    text = json.dumps(doc)
    failures = []
    for k in range(N_MANIFEST_MUTANTS):
        what, mutant = _manifest_mutant(rng, text)
        path = tmp_path / f"manifest-{k}.json"
        path.write_text(mutant)
        problem = _outcome(["rerun", str(path)], capsys)
        if problem:
            failures.append(f"manifest mutant {k} ({what}): {problem}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind, mutate, n_mutants", [
    ("task.json", _config_mutant, N_CONFIG_MUTANTS),
    ("oracle.json", _params_mutant, N_PARAMS_MUTANTS),
])
def test_config_and_params_mutants_exit_cleanly(collected, tmp_path, capsys, kind, mutate, n_mutants):
    rng = random.Random(SEED + 3)
    failures = []
    for name, root in collected.items():
        text = (root / kind).read_text()
        for k in range(n_mutants):
            what, mutant = mutate(rng, text)
            path = tmp_path / f"{name}-{k}-{kind}"
            path.write_text(mutant)
            inputs = {"task.json": root / "task.json", "oracle.json": root / "oracle.json", kind: path}
            argv = [
                "evaluate", "--params", str(inputs["oracle.json"]), "--config", str(inputs["task.json"]),
                "--rollouts", "1", "--out", str(tmp_path / "m.json"), "--seed", "4",
            ]
            problem = _outcome(argv, capsys)
            if problem:
                failures.append(f"{name} {kind} mutant {k} ({what}): {problem}")
    assert not failures, "\n".join(failures)


def _program_mutant(rng, text):
    header, *rules = text.splitlines()
    op = rng.choice(("drop", "duplicate", "stray", "number", "name", "paren", "nest", "header", "line"))
    k = rng.randrange(len(rules))
    tokens = PROGRAM_TOKEN.findall(rules[k])
    i = rng.randrange(len(tokens))
    if op == "drop":
        del tokens[i]
    elif op == "duplicate":
        tokens.insert(i, tokens[i])
    elif op == "stray":
        tokens.insert(i, rng.choice(STRAY))
    elif op == "number":
        numbers = [j for j, tok in enumerate(tokens) if tok[0].isdigit()]
        tokens[rng.choice(numbers)] = rng.choice(ODD_NUMBERS)
    elif op == "name":
        names = [j for j, tok in enumerate(tokens) if tok[0].isalpha() and tok not in ("argmax", "map", "random", "filter", "l", "and", "or")]
        tokens[rng.choice(names)] = rng.choice(ODD_NAMES)
    elif op == "paren":
        parens = [j for j, tok in enumerate(tokens) if tok in "()"]
        del tokens[rng.choice(parens)]
    elif op == "nest":
        depth = rng.choice((3, 40, 2000))
        at = tokens.index("filter") + 2
        tokens[at:at] = ["("] * depth
        tokens.insert(tokens.index(",", at), ")" * depth)
    elif op == "header":
        fields = header.split()
        j = rng.randrange(2, len(fields))
        key = fields[j].split("=")[0]
        fields[j] = f"{key}={rng.choice(ODD_HEADER_VALUES)}" if rng.random() < 0.8 else rng.choice(("", key, f"{key}=", "=", "x=1"))
        header = " ".join(fields)
    else:
        rules.insert(k, rng.choice(("", "#dsl v1", rules[k], rules[k][: len(rules[k]) // 2])))
    rules[k] = " ".join(tokens) if op != "line" else rules[k]
    return op, "\n".join([header, *rules]) + "\n"


def test_program_mutants_exit_cleanly(collected, tmp_path, capsys):
    rng = random.Random(SEED + 4)
    failures = []
    for name, root in collected.items():
        valid = PROGRAMS[name]
        n_rounds = TASKS[name].comm_rounds
        for k in range(N_PROGRAM_MUTANTS):
            what, mutant = _program_mutant(rng, valid)
            paths = []
            for r in range(n_rounds):
                paths.append(tmp_path / f"{name}-{k}-{r}.txt")
                paths[-1].write_text(mutant if r == k % n_rounds else valid)
            argv = [
                "evaluate", "--params", str(root / "oracle.json"), "--config", str(root / "task.json"),
                "--policy", "combined", "--rollouts", "1", "--out", str(tmp_path / "m.json"), "--seed", "4",
            ]
            for path in paths:
                argv += ["--program", str(path)]
            problem = _outcome(argv, capsys)
            if problem:
                failures.append(f"{name} program mutant {k} ({what}): {problem}\n{mutant}")
    assert not failures, "\n".join(failures)
