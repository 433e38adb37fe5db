"""Every exported name, and every dotted ``repro.`` name the docs mention,
resolves: a deleted symbol cannot leave a dangling ``__all__`` entry or a
stale reference in README.md or docs/."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["repro", *sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))]


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    cut = max(i for i in range(1, len(parts) + 1) if ".".join(parts[:i]) in MODULES)
    obj = importlib.import_module(".".join(parts[:cut]))
    for attr in parts[cut:]:
        obj = getattr(obj, attr)
    return obj


def test_every_all_entry_resolves():
    exported, missing = 0, []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, attr):
                missing.append(f"{name}.{attr}")
    assert exported > 500
    assert missing == []


def test_every_documented_name_resolves():
    """Names the docs mark ``(removed)`` are history, not references."""
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    names = {m[1] for path in docs
             for m in re.finditer(r"\b(repro(?:\.\w+)+)`?( \(removed\))?", path.read_text())
             if not m[2]}
    assert len(names) > 20
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []
