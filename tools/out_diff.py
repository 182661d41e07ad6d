"""Compare two bench/pipeline.py round directories file by file.

    python3 tools/out_diff.py PARENT_ROUND_DIR CHANGE_ROUND_DIR

Every file under either directory is compared, subdirectories included,
except the per-run telemetry ``result.json``, ``stages.log`` and
``spans.json``. A manifest (``*.manifest.json``) is compared without its
``created_unix`` field. For a chain log (a CSV whose header starts with
``step,objective_current``) that differs, the report gives the first step
whose row differs and the largest absolute difference in
``objective_current`` over the steps both logs hold; for any other file, the
first line that differs. Prints one line per file and exits 1 on any
difference, including a file present on one side only. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Optional

SKIPPED = {"result.json", "stages.log", "spans.json"}
CHAIN_HEADER = "step,objective_current"


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED}


def _content(path: Path) -> bytes:
    """The bytes compared: the file's own, or a manifest's canonical JSON without created_unix."""
    raw = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        try:
            doc = json.loads(raw)
        except ValueError:
            return raw
        if isinstance(doc, dict):
            doc.pop("created_unix", None)
            return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return raw


def _objective(cell: str) -> float:
    # numpy >= 2 writes repr() of a float64 as np.float64(x)
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _chain_report(a: list[list[str]], b: list[list[str]]) -> str:
    body_a, body_b = a[1:], b[1:]
    first = next((k for k, (ra, rb) in enumerate(zip(body_a, body_b)) if ra != rb), min(len(body_a), len(body_b)))
    step = (body_a if first < len(body_a) else body_b)[first][0]
    worst = max((abs(_objective(ra[1]) - _objective(rb[1])) for ra, rb in zip(body_a, body_b)), default=0.0)
    lengths = "" if len(body_a) == len(body_b) else f", {len(body_a)} vs {len(body_b)} steps"
    return f"chain differs from step {step}, max |objective_current difference| {worst:.3g}{lengths}"


def _line_report(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1} differs: {x[:80]!r} vs {y[:80]!r}"
    return f"{len(la)} vs {len(lb)} lines, equal up to the shorter"


def compare(left: Path, right: Path, name: str) -> Optional[str]:
    """None when the two files are equal as compared here, else a one-line report."""
    raw_a, raw_b = _content(left / name), _content(right / name)
    if raw_a == raw_b:
        return None
    a, b = raw_a.decode(errors="replace"), raw_b.decode(errors="replace")
    if a.startswith(CHAIN_HEADER) and b.startswith(CHAIN_HEADER):
        try:
            return _chain_report(list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b))))
        except (ValueError, IndexError):
            pass  # a malformed row: fall back to the first differing line
    return _line_report(a, b)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path)
    parser.add_argument("right", type=Path)
    args = parser.parse_args(argv)
    for root in (args.left, args.right):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    left, right = _files(args.left), _files(args.right)
    differ = 0
    for name in sorted(left | right):
        if name not in right or name not in left:
            print(f"{name}: only in {args.left if name in left else args.right}")
            differ += 1
            continue
        report = compare(args.left, args.right, name)
        if report is None:
            digest = hashlib.sha256(_content(args.left / name)).hexdigest()[:16]
            print(f"{name}: equal sha256 {digest}")
        else:
            print(f"{name}: {report}")
            differ += 1
    print(f"{len(left | right)} files, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
