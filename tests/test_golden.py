"""Golden corpus of the CLI contract: every command on a few canonical
configs, with its exit code, its stdout and the sha256 of each artifact.

``manifest.json`` is hashed without its version fields, so the corpus
holds across numpy and Python upgrades.  The corpus is
``tests/golden/corpus.json``; ``python tests/golden/regenerate.py``
rewrites it, and a change that moves a byte reruns it and lists the
changed entries.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from torusflow.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("configs/*.json"))
COMMANDS = sorted(_COMMANDS)
KEYS = [f"{config.stem}/{command}" for config in CONFIGS for command in COMMANDS]
_VERSION_FIELDS = ("package_version", "numpy_version", "python_version")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in _VERSION_FIELDS:
            del manifest[key]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_case(key: str, workdir: Path) -> dict:
    """Run ``torusflow <command> --config <config> --out out`` in-process
    from ``workdir``; the relative ``out`` keeps paths out of stdout and of
    the config hash."""
    config, command = key.split("/")
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(GOLDEN / "configs" / f"{config}.json"),
                         "--out", "out"])
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    artifacts = {p.name: _digest(p) for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": code, "stdout": stdout.getvalue(), "artifacts": artifacts}


def load_corpus() -> dict:
    return json.loads((GOLDEN / "corpus.json").read_text())


def test_corpus_covers_every_config_and_command():
    corpus = load_corpus()
    assert sorted(corpus) == sorted(KEYS)
    assert {entry["exit"] for entry in corpus.values()} <= {0, 2, 3}


@pytest.mark.parametrize("key", KEYS)
def test_cli_matches_the_golden_corpus(key, tmp_path, monkeypatch):
    monkeypatch.delenv("TORUSFLOW_PRECISION_BITS", raising=False)
    assert run_case(key, tmp_path) == load_corpus()[key]
