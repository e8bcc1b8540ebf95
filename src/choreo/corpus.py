"""Access to the example corpus: positive programs with run manifests and
negative programs with expected diagnostics."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .differential import load_manifest


def corpus_root():
    env = os.environ.get("CHOREO_CORPUS")
    if env:
        return Path(env)
    here = Path(__file__).resolve()
    for base in [here.parents[2], Path.cwd()]:
        cand = base / "corpus"
        if cand.is_dir():
            return cand
    raise FileNotFoundError("corpus directory not found; set CHOREO_CORPUS")


@dataclass
class CorpusProgram:
    name: str
    path: Path
    runs: list


def positive_entries():
    out = []
    root = corpus_root() / "positive"
    for path in sorted(root.glob("*.chor")):
        manifest = path.with_suffix(".run.json")
        runs = load_manifest(manifest) if manifest.exists() else []
        out.append(CorpusProgram(path.stem, path, runs))
    return out


def negative_entries():
    out = []
    root = corpus_root() / "negative"
    for path in sorted(root.glob("*.chor")):
        expected = json.loads(path.with_suffix(".expected.json").read_text())
        out.append((path, expected))
    return out


def extra_path(name):
    return corpus_root() / "extra" / name
