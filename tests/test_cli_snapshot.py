"""Every CLI command's report on tests/data/*.json, pinned byte for byte.

Each snapshot holds one JSON object per line: the command line (config
named by file name), the exit code, the exact stdout and, when not empty,
the exact stderr.
`cli_snapshot.jsonl` pins the --json reports and `cli_snapshot_text.jsonl`
the human text of the same runs.  A change that alters any verdict,
number or rendering shows up here as a diff.

Regenerate both, after checking that a change of output is intended, with

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
JSON_SNAPSHOT = DATA / "cli_snapshot.jsonl"
TEXT_SNAPSHOT = DATA / "cli_snapshot_text.jsonl"
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
    """Exit code, stdout and stderr of one in-process CLI run."""
    resolved = [str(DATA / a) if a in CONFIGS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def load_snapshot(path):
    with path.open(encoding="utf-8") as fh:
        return {tuple(e["argv"]): e for e in map(json.loads, fh)}


def cases(*flags):
    return [[config if w == CFG else w for w in command] + list(flags)
            for config in CONFIGS for command in COMMANDS]


SNAPSHOTS = {JSON_SNAPSHOT: cases("--json"), TEXT_SNAPSHOT: cases()}


@pytest.fixture(scope="module")
def snapshots():
    return {path: load_snapshot(path) for path in SNAPSHOTS}


@pytest.mark.parametrize("argv", [argv for group in SNAPSHOTS.values() for argv in group],
                         ids=" ".join)
def test_report_matches_snapshot(snapshots, monkeypatch, argv):
    monkeypatch.delenv("GB_SEED", raising=False)
    want = snapshots[JSON_SNAPSHOT if "--json" in argv else TEXT_SNAPSHOT][tuple(argv)]
    code, stdout, stderr = run(argv)
    assert code == want["exit"]
    assert stdout == want["stdout"]
    assert stderr == want.get("stderr", "")


def test_snapshot_covers_every_case(snapshots):
    for path, group in SNAPSHOTS.items():
        assert sorted(snapshots[path]) == sorted(map(tuple, group)), path.name


if __name__ == "__main__":
    os.environ.pop("GB_SEED", None)
    for path, group in SNAPSHOTS.items():
        with path.open("w", encoding="utf-8") as fh:
            for argv in group:
                code, stdout, stderr = run(argv)
                entry = {"argv": argv, "exit": code, "stdout": stdout}
                if stderr:
                    entry["stderr"] = stderr
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"wrote {len(group)} cases to {path}")
