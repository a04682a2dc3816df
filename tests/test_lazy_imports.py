"""`rsplits` loads its submodules on first use, and only what a command runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsplits

SRC = str(Path(rsplits.__file__).resolve().parent.parent)

# Runs in a fresh interpreter: one graph verification and one bad --profile,
# then reports which rsplits modules got loaded, and which other modules were
# loaded that the interpreter (with whatever its site hooks import) did not
# already have before `import rsplits.cli`.
CHILD = """
import json, sys
before = set(sys.modules)
import rsplits.cli
code = rsplits.cli.main(["verify", "-g", sys.argv[1], "-r", "1"])
try:
    rsplits.cli.main(["verify", "--profile", "bogus"])
except SystemExit as exc:
    bogus = exc.code
loaded = sorted(name for name in sys.modules if name.startswith("rsplits"))
added = sorted(set(sys.modules) - before)
print(json.dumps({"code": code, "bogus": bogus, "loaded": loaded, "added": added}))
"""


def test_verify_graph_loads_only_what_it_runs(tmp_path):
    graph = tmp_path / "c6.txt"
    graph.write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(graph)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["bogus"] == 2
    assert "rsplits.splits" in report["loaded"]
    for name in ("rsplits.verification", "rsplits.ortho", "rsplits.bruteforce"):
        assert name not in report["loaded"]
    # The value types and reports are built without dataclasses, whose import
    # pulls in inspect, ast, dis and tokenize.
    for name in ("dataclasses", "inspect"):
        assert name not in report["added"]


@pytest.mark.parametrize("name", rsplits.__all__)
def test_public_name_is_the_defining_modules_object(name):
    obj = getattr(rsplits, name)
    assert obj.__module__.startswith("rsplits.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name not in vars(rsplits)


def test_names_follow_a_patched_module(monkeypatch):
    original = rsplits.close_full

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(rsplits.closure, "close_full", patched)
    assert rsplits.close_full is patched
    monkeypatch.undo()
    assert rsplits.close_full is original


def test_submodules_resolve():
    for name in ("bitset", "bruteforce", "cli", "ortho", "verification"):
        assert getattr(rsplits, name) is importlib.import_module(f"rsplits.{name}")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rsplits import *", namespace)
    for name in rsplits.__all__:
        assert namespace[name] is getattr(rsplits, name)


def test_dir_covers_all():
    assert set(rsplits.__all__) <= set(dir(rsplits))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rsplits.no_such_name
