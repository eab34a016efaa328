"""The benchmark's workloads: the `ssdp` commands each one runs, the
operations it attempts, and how its outputs are checked and digested.

Every workload drives ``ssdpsem.cli.main`` in-process with the argument
lists a user would type after ``ssdp``; see README.md for why each was
chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ssdpsem import cli, encoder, evalkit, pipeline, sentiment

MODES = ("baseline", "asp", "saib", "asp_saib")
BATCH_SIZE = 16
REFERENCE = dict(layers=2, heads=2, d_model=16, d_ff=32, batch_size=BATCH_SIZE, lr=1e-3,
                 optimizer="adam", epochs=1, seed=0)
# Everything else is the library default: the 4 x 4 x 64 encoder, d_ff 128,
# batch 16, Adam 1e-3.
WIDE = dict(epochs=1, seed=0, mode="asp_saib")


@dataclass(frozen=True)
class Sizes:
    train: int
    dev: int
    test: int


FULL = Sizes(train=2000, dev=400, test=400)
SMOKE = Sizes(train=48, dev=16, test=16)


@dataclass
class Outcome:
    """What one repetition of a workload did, judged from its outputs."""

    attempted: int = 0  # training steps + eval items
    failed: int = 0
    items: int = 0  # instance-epochs trained + instances evaluated
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)


def run_cli(argv):
    """``ssdp <argv>`` in-process; returns (exit code, captured output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def steps_per_epoch(instances, batch_size):
    """Batches make_batches forms: same-length groups, partial ones kept."""
    lengths = Counter(len(inst.tokens) for inst in instances)
    return sum(math.ceil(count / batch_size) for count in lengths.values())


class Workload:
    name = ""

    def __init__(self, corpus_dir: Path, work_dir: Path):
        self.corpus_dir = corpus_dir
        self.work_dir = work_dir
        self.manifest, self.splits = cli._load_data_dir(corpus_dir)

    def commands(self, out: Path):
        """Argument lists for ``ssdp``, run in order by the timed body."""
        raise NotImplementedError

    def run(self, out: Path):
        """Timed body: returns (wall seconds, CPU seconds, [(argv, exit code, output)])."""
        results = []
        start, cpu_start = time.perf_counter(), time.process_time()
        for argv in self.commands(out):
            code, text = run_cli(argv)
            results.append((argv, code, text))
        return time.perf_counter() - start, time.process_time() - cpu_start, results

    def check(self, out: Path, results, full=True) -> Outcome:
        """Judge the outputs; ``full`` adds the checks that cost extra work."""
        raise NotImplementedError

    def _exit_errors(self, results):
        return [f"ssdp {argv[0]} exited {code}: {text.strip()[-300:]}"
                for argv, code, text in results if code != 0]


class AblateRef(Workload):
    name = "ablate-ref"

    def __init__(self, *args):
        super().__init__(*args)
        self.grid = self.work_dir / "ablate_grid.json"
        self.grid.write_text(json.dumps([{**REFERENCE, "mode": m} for m in MODES]),
                             encoding="utf-8")

    def commands(self, out):
        return [["ablate", "--grid", str(self.grid), "--data", str(self.corpus_dir),
                 "--out", str(out)]]

    def check(self, out, results, full=True):
        steps = steps_per_epoch(self.splits["train"], BATCH_SIZE)
        items = len(self.splits["test"])
        o = Outcome(attempted=len(MODES) * (steps + items),
                    items=len(MODES) * (len(self.splits["train"]) + items))
        o.errors = self._exit_errors(results)
        if o.errors:
            o.failed = o.attempted
            return o
        grid = out / "grid.csv"
        lines = grid.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if [r["mode"] for r in rows] != list(MODES):
            o.errors.append(f"grid.csv modes {[r['mode'] for r in rows]} != {list(MODES)}")
        f1 = {}
        for r in rows:
            for key in ("accuracy", "micro_p", "micro_r", "micro_f1", "macro_f1"):
                value = float(r[key])
                if not 0.0 <= value <= 1.0:
                    o.errors.append(f"grid.csv {r['mode']} {key} = {r[key]} outside [0, 1]")
            f1[r["mode"]] = float(r["micro_f1"])
        o.failed = o.attempted if o.errors else 0
        o.figures = {f"test_micro_f1.{m}": v for m, v in f1.items()}
        o.figures["test_micro_f1.mean"] = sum(f1.values()) / max(len(f1), 1)
        o.digests = {"grid.csv": sha256(grid)}
        return o


class TrainWide(Workload):
    name = "train-wide"

    def __init__(self, *args):
        super().__init__(*args)
        self.config = self.work_dir / "train_wide.json"
        self.config.write_text(json.dumps(WIDE), encoding="utf-8")

    def commands(self, out):
        return [
            ["train", "--config", str(self.config), "--data", str(self.corpus_dir),
             "--out", str(out / "train")],
            ["eval", "--checkpoint", str(out / "train" / "model.ckpt"),
             "--split", str(self.corpus_dir / "test.jsonl"),
             "--manifest", str(self.corpus_dir / "manifest.json"),
             "--out", str(out / "eval")],
        ]

    def check(self, out, results, full=True):
        steps = steps_per_epoch(self.splits["train"], BATCH_SIZE) * WIDE["epochs"]
        items = len(self.splits["test"])
        o = Outcome(attempted=steps + items,
                    items=len(self.splits["train"]) * WIDE["epochs"] + items)
        o.errors = self._exit_errors(results)
        if o.errors:
            o.failed = o.attempted
            return o
        metrics_csv = out / "train" / "metrics.csv"
        ckpt = out / "train" / "model.ckpt"
        lines = metrics_csv.read_text(encoding="utf-8").splitlines()
        if lines[0] != "step,l_re,l_asp,l_ib,total":
            o.errors.append(f"metrics.csv header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != steps:
            o.errors.append(f"metrics.csv has {len(rows)} rows for {steps} steps")
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            o.errors.append("metrics.csv step column is not 0..N-1")
        bad = [int(r[0]) for r in rows if not all(math.isfinite(v) for v in r)]
        if bad:
            o.errors.append(f"metrics.csv non-finite rows at steps {bad[:5]}")
        last_epoch = rows[-(steps // WIDE["epochs"]):]
        final_loss = sum(r[4] for r in last_epoch) / max(len(last_epoch), 1)
        f1_text = _report_value(out / "eval" / "report.txt", "micro_f1")
        if full:
            o.errors += _reload_errors(ckpt, self.splits["test"], self.manifest, f1_text)
        o.failed = o.attempted if o.errors else 0
        o.figures = {"test_micro_f1": float(f1_text), "final_loss": final_loss}
        o.digests = {"metrics.csv": sha256(metrics_csv), "model.ckpt": sha256(ckpt)}
        return o


def _report_value(path, key):
    """The token after ``key`` in an ``ssdp eval`` report.txt."""
    tokens = Path(path).read_text(encoding="utf-8").split()
    return tokens[tokens.index(key) + 1]


def _reload_errors(ckpt, test, manifest, f1_text):
    """The checkpoint must round-trip bytes and re-evaluate to the same F1."""
    errors = []
    state = encoder.load_checkpoint(ckpt)
    again = ckpt.with_name("reloaded.ckpt")
    encoder.save_checkpoint(state, again)
    if again.read_bytes() != ckpt.read_bytes():
        errors.append("model.ckpt does not round-trip through load/save")
    again.unlink()
    prepared, _ = pipeline.annotate(test, sentiment.load_lexicon(), "ISL")
    report = evalkit.evaluate(state, prepared, manifest.entity_types)
    if f"{report.micro_f1:.6f}" != f1_text:
        errors.append(f"reloaded checkpoint F1 {report.micro_f1:.6f} != reported {f1_text}")
    return errors


WORKLOADS = {w.name: w for w in (AblateRef, TrainWide)}
