"""The README's library example and sample transcript, run as written."""
from __future__ import annotations

import re
from pathlib import Path

from vcoupler.cli import EXIT_PASS, main

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()


def _fenced(pattern: str) -> str:
    match = re.search(pattern, README, re.S)
    assert match, f"no README block matches {pattern!r}"
    return match.group(1)


def test_library_example_runs_from_the_repo_root(monkeypatch, capsys):
    code = _fenced(r"## Library\n\n```python\n(.*?)```")
    monkeypatch.chdir(REPO)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ii2\n")


def test_check_transcript_matches_the_cli(monkeypatch, capsys):
    transcript = _fenced(r"```\n(criterion: .*?)```")
    monkeypatch.chdir(REPO)
    assert main(["check", "--config", "table1.json"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (transcript, "")
