"""Replay the golden corpus: every CLI call in tests/golden/ gives the same
exit code, stdout and stderr, byte for byte.  scripts/write_golden.py
rewrites the corpus."""

import importlib.util
import json
import pathlib

import pytest

from nablachains.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
_spec = importlib.util.spec_from_file_location("write_golden", REPO / "scripts" / "write_golden.py")
write_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_golden)


def test_the_corpus_holds_one_file_per_subcommand():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(write_golden.CALLS)


@pytest.mark.parametrize("subcommand", sorted(write_golden.CALLS))
def test_cli_output_is_the_corpus(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", write_golden.COLUMNS)
    entries = json.loads((GOLDEN / f"{subcommand}.json").read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries] == write_golden.CALLS[subcommand]
    changed = []
    for e in entries:
        code = main(list(e["argv"]))
        out, err = capsys.readouterr()
        if (code, write_golden.mask(out), err) != (e["exit"], e["stdout"], e["stderr"]):
            changed.append(" ".join(e["argv"])[:120])
    assert changed == []


def test_reproduce_results_output_is_the_corpus():
    want = (GOLDEN / "reproduce_results.txt").read_text(encoding="utf-8")
    assert write_golden.reproduce_results() == want
