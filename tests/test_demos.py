"""Smoke tests of the scripts under demos/, which call the library's public API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ssdpsem

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
    assert len(record.epoch_losses) == 12
    assert record.epoch_losses[-1]["total"] < record.epoch_losses[0]["total"]
    assert not np.array_equal(init_state.params["clf.W"], record.state.params["clf.W"])
