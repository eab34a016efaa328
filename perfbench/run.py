#!/usr/bin/env python3
"""Benchmark of the ssdpsem experiment loop.

Run from the repository root:

    python3 perfbench/run.py --workload ablate-ref --seed 11 --seconds 58 --trace 0

One process, one caller at a time (a closed loop).  Set-up synthesizes the
workload corpus from ``--seed`` in fresh interpreters; the body then runs
the workload's ``ssdp`` commands in-process, repeated until ``--seconds``
of body time have passed.  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` runs the body once untraced and once
traced and reports the per-layer metrics.  The last line of standard
output is one JSON object; see README.md for its schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# BLAS threads, pinned before numpy loads and recorded: one thread keeps a
# run from competing with itself for the cores, so timings are steadier.
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_REPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ablate-ref", "train-wide"))
    p.add_argument("--seed", type=int, default=11, help="corpus seed (11: acceptance corpus)")
    p.add_argument("--seconds", type=float, default=58.0,
                   help="wall-time budget of the body")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SSDP_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def tree_digest(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def synthesize(out, seed, sizes):
    """One set-up: a fresh interpreter imports ssdpsem and runs `ssdp synth`.

    Returns the set-up's wall seconds and the CPU seconds (user + system)
    of that interpreter.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from ssdpsem import cli; "
            "sys.exit(cli.main(sys.argv[2:]))")
    argv = [sys.executable, "-c", code, str(SRC), "synth", "--seed", str(seed),
            "--out", str(out), "--train", str(sizes.train), "--dev", str(sizes.dev),
            "--test", str(sizes.test)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return seconds, cpu


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "ssdpsem").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit or None,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ssdpsem" / "cli.py").is_file():
        print(f"error: no ssdpsem sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (numpy must load after pin_threads)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = [synthesize(work / f"corpus{i}", args.seed, sizes)  # (wall, CPU)
              for i in range(SETUP_REPEATS)]
    corpus_dir = work / "corpus0"
    errors = []
    corpus_digest = tree_digest(corpus_dir)
    if any(tree_digest(work / f"corpus{i}") != corpus_digest for i in range(SETUP_REPEATS)):
        errors.append("ssdp synth is not deterministic across set-ups")

    workload = workloads.WORKLOADS[args.workload](corpus_dir, work)
    reps = []  # (wall seconds, CPU seconds, Outcome)
    # Peak RSS through set-up and the first body, before any check: a user
    # runs each `ssdp` command in a fresh process, while later repetitions
    # here inherit the allocator state of earlier ones and grow the peak.
    first_rss_mb = []

    def repeat(tracer=None):
        out = work / f"rep{len(reps)}"
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, results = workload.run(out)
        finally:
            if tracer is not None:
                tracer.restore()
        if not reps:
            first_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        outcome = workload.check(out, results, full=not reps)
        reps.append((wall, cpu, outcome))
        shutil.rmtree(out)
        return wall

    if args.trace:
        import tracer as tracing

        untraced = repeat()
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            traced_corpus = work / "corpus-traced"
            code, _ = workloads.run_cli(["synth", "--seed", str(args.seed), "--out",
                                         str(traced_corpus), "--train", str(sizes.train),
                                         "--dev", str(sizes.dev), "--test", str(sizes.test)])
        finally:
            setup_tracer.restore()
        if code != 0 or tree_digest(traced_corpus) != corpus_digest:
            errors.append("traced ssdp synth differs from the untraced set-up")
        body_tracer = tracing.Tracer()
        traced = repeat(body_tracer)
        layer = body_tracer.layer_metrics()
        layer["corpus.synthesize_corpus.s"] = setup_tracer.layer_metrics()[
            "corpus.synthesize_corpus.s"]
        layer["bench.trace_overhead_s"] = traced - untraced
        values = layer
        shares = {name: layer[name] / traced for name in
                  ("pipeline.annotate.self_s", "encoder.forward.s", "encoder.backward.s",
                   "objectives.batch_losses.self_s", "trainer.optimizer_step.s")}
    else:
        # At least MIN_REPS; past that, start a repetition only if it is
        # expected to end within --seconds.
        measured = last = 0.0
        while len(reps) < MIN_REPS or measured + last <= args.seconds:
            last = repeat()
            measured += last
        # CPU seconds of this single-threaded process: unlike wall time they
        # do not count time the host gives to other tenants (steal) or to
        # other processes, so they measure the program and not the scheduler.
        body = statistics.median(cpu for _, cpu, _ in reps)
        items = reps[0][2].items
        values = {
            "setup_s": statistics.median(cpu for _, cpu in setups),
            "workload_cpu_s": body,
            "items_per_cpu_s": items / body,
            "peak_rss_mb": first_rss_mb[0],
        }
        shares = {}
    figures = dict(reps[0][2].figures)
    if not args.trace:
        figures["workload_wall_s"] = statistics.median(wall for wall, _, _ in reps)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    first = reps[0][2]
    for i, (_, _, outcome) in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in outcome.errors]
        if outcome.digests != first.digests:
            errors.append(f"rep {i}: output digests differ from rep 0 "
                          f"({'traced' if args.trace and i else 'untraced'} run)")
    attempted = sum(o.attempted for _, _, o in reps)
    failed = sum(o.failed for _, _, o in reps)

    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "setup_wall_s_samples": [wall for wall, _ in setups],
        "setup_cpu_s_samples": [cpu for _, cpu in setups],
        "workload_wall_s_samples": [wall for wall, _, _ in reps],
        "workload_cpu_s_samples": [cpu for _, cpu, _ in reps],
        "figures": figures,
        "digests": {"corpus": corpus_digest, **first.digests},
        "body_shares": shares,
        "errors": errors,
        "metrics": metrics,
    }
    (WORK / f"result-{work.name}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                   encoding="utf-8")
    for key, value in record["environment"].items():
        print(f"env {key} {value}")
    for key, value in record["figures"].items():
        print(f"figure {key} {value}")
    for key, value in record["digests"].items():
        print(f"sha256 {key} {value}")
    for key, value in shares.items():
        print(f"share_of_traced_body {key} {value:.4f}")
    for e in errors:
        print(f"error {e}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    shutil.rmtree(work)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
