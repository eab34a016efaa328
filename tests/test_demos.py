"""Smoke tests of the scripts under demos/, which call the library's public API."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ssdpsem
from ssdpsem import trainer

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_pipeline_walkthrough_runs():
    env = dict(os.environ)
    src = str(Path(ssdpsem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / "pipeline_walkthrough.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "sum(q) = 1.000000000000" in done.stdout


def test_guided_vs_baseline_train_one(small_train, small_manifest):
    spec = importlib.util.spec_from_file_location(
        "guided_vs_baseline", DEMOS / "guided_vs_baseline.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    record, init_state = demo.train_one("asp_saib", small_train, small_manifest)
    # the initial state is drawn from the encoder keys and the seed alone
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    init = trainer.init_from_config(cfg, small_train, small_manifest.relations)
    assert init_state.flat.tobytes() == init.flat.tobytes()
    assert len(record.epoch_losses) == 12
    assert record.epoch_losses[-1]["total"] < record.epoch_losses[0]["total"]
    assert not np.array_equal(init_state.params["clf.W"], record.state.params["clf.W"])


def _library_references(path):
    """(line, module, name) of each ``<module>.<name>`` that the script at
    ``path`` reads from a module it imports with ``from ssdpsem import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"ssdpsem.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ssdpsem"
               for alias in node.names}
    return [(node.lineno, modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def test_demos_reference_only_names_the_library_has():
    """Every ssdpsem name a demo reads exists.  The suite does not run
    guided_vs_baseline.main (about a minute), so without this check a demo
    could call a function the library no longer has and still pass."""
    missing = []
    for path in sorted(DEMOS.glob("*.py")):
        refs = _library_references(path)
        assert refs, path
        missing += [f"{path.name}:{line}: {module}.{name}" for line, module, name in refs
                    if not hasattr(importlib.import_module(module), name)]
    assert not missing
