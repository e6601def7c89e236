"""Rewrite tests/golden/corpus.json from the CLI as it stands.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from test_golden import GOLDEN, KEYS, run_case  # noqa: E402


def main() -> None:
    os.environ.pop("TORUSFLOW_PRECISION_BITS", None)
    corpus = {}
    for key in KEYS:
        with tempfile.TemporaryDirectory() as tmp:
            corpus[key] = run_case(key, Path(tmp))
    (GOLDEN / "corpus.json").write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
