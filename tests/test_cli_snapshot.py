"""Every CLI command's --json report on tests/data/*.json, pinned byte for byte.

The snapshot holds one JSON object per line: the command line (config
named by file name), the exit code and the exact stdout.  A change that
alters any verdict, number or rendering shows up here as a diff.

Regenerate it, after checking that a change of output is intended, with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from gradedq.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SNAPSHOT = DATA / "cli_snapshot.jsonl"
CONFIGS = sorted(p.name for p in DATA.glob("*.json"))

CFG = "<config>"
COMMANDS = [
    ["check-master", CFG],
    ["q-square", CFG],
    ["axioms", CFG, "--suite", "courant", "--trials", "2"],
    ["axioms", CFG, "--suite", "leibniz", "--trials", "1"],
    ["rank", CFG],
    ["rank", CFG, "--n", "2"],
    ["classify", CFG],
    ["bracket", CFG, "--A", "A", "--B", "B"],
    ["genmetric", "build", CFG],
    ["genmetric", "act", CFG],
    ["genmetric", "extract", CFG],
]


def run(argv):
    """Exit code and stdout of one in-process CLI run."""
    resolved = [str(DATA / a) if a in CONFIGS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolved)
    return code, out.getvalue()


def load_snapshot():
    with SNAPSHOT.open(encoding="utf-8") as fh:
        return {tuple(e["argv"]): e for e in map(json.loads, fh)}


CASES = [[config if w == CFG else w for w in command] + ["--json"]
         for config in CONFIGS for command in COMMANDS]


@pytest.fixture(scope="module")
def snapshot():
    return load_snapshot()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_matches_snapshot(snapshot, monkeypatch, argv):
    monkeypatch.delenv("GB_SEED", raising=False)
    want = snapshot[tuple(argv)]
    code, stdout = run(argv)
    assert code == want["exit"]
    assert stdout == want["stdout"]


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(map(tuple, CASES))


if __name__ == "__main__":
    os.environ.pop("GB_SEED", None)
    with SNAPSHOT.open("w", encoding="utf-8") as fh:
        for argv in CASES:
            code, stdout = run(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": stdout},
                                sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {SNAPSHOT}")
