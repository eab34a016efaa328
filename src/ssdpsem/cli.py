"""Command-line entry point wiring corpus synthesis, annotation, training,
evaluation, ablation grids, gradient checking, and attention inspection.

Exit codes: 0 success; 1 bad flags or input, with a message naming the
file, line, key or instance; 2 runtime failure.
All floats in logs are printed with six decimals so runs diff cleanly.
The SSDP_THREADS environment variable caps the numeric-backend thread
count (0 or unset = automatic); it must be applied before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _apply_thread_cap():
    raw = os.environ.get("SSDP_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise SystemExit(f"SSDP_THREADS must be an integer, got {raw!r}")
    if cap > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


_apply_thread_cap()


from . import corpus, encoder, evalkit, pipeline, sentiment, syntax, trainer  # noqa: E402


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad flags, per contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    """argparse type for a count: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


class _Log:
    """Make the run directory and tee messages to stdout and its log.txt.

    Commands make one only once their input is read, so bad input leaves no
    directory; the log is created at the first message and holds no open
    file between messages.
    """

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "log.txt"
        self.mode = "w"

    def __call__(self, msg):
        print(msg)
        with open(self.path, self.mode, encoding="utf-8") as fh:
            fh.write(msg + "\n")
        self.mode = "a"


def _f(x):
    return f"{x:.6f}"


def _read_json(path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise corpus.ConfigError(f"{path}: bad JSON: {exc}") from exc


def _read_manifest(path):
    rec = _read_json(path)
    try:
        return corpus.manifest_from_dict(rec)
    except ValueError as exc:
        raise corpus.ConfigError(f"{path}: {exc}") from exc


def _load_data_dir(data_dir: Path, *names):
    """The manifest and the named splits, each of which must exist; with no
    names, every split present."""
    manifest = _read_manifest(data_dir / "manifest.json")
    paths = {split: data_dir / f"{split}.jsonl" for split in names or manifest.split_sizes}
    for split in names:
        if not paths[split].exists():
            raise corpus.ConfigError(f"{data_dir}: no {split!r} split ({split}.jsonl)")
    return manifest, {split: corpus.read_jsonl(path) for split, path in paths.items()
                      if path.exists()}


def _train_config(rec, where, seed_override=None) -> trainer.TrainConfig:
    """Build and fully validate one TrainConfig; errors name ``where``."""
    if not isinstance(rec, dict):
        raise corpus.ConfigError(f"{where}: expected a JSON object of TrainConfig keys")
    unknown = set(rec) - set(trainer.TrainConfig.__dataclass_fields__)
    if unknown:
        raise corpus.ConfigError(f"{where}: unknown config keys {sorted(unknown)}")
    if seed_override is not None:
        rec = {**rec, "seed": seed_override}
    try:
        return trainer.TrainConfig(**rec)
    except ValueError as exc:
        raise corpus.ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args):
    out = Path(args.out)
    manifest = corpus.default_manifest(
        seed=args.seed, train=args.train, dev=args.dev, test=args.test
    )
    splits = corpus.synthesize_corpus(manifest, args.coupling)
    log = _Log(out)
    (out / "manifest.json").write_text(
        json.dumps(corpus.manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for split, instances in splits.items():
        corpus.write_jsonl(instances, out / f"{split}.jsonl")
        log(f"wrote {split}: {len(instances)} instances")
    log(f"coupling {_f(args.coupling)} seed {args.seed}")
    return 0


def cmd_annotate(args):
    out = Path(args.out)
    if args.conllu:
        if not args.sidecar:
            raise corpus.ConfigError("--conllu requires --sidecar")
        instances = corpus.read_conllu(args.conllu, args.sidecar)
    elif args.jsonl:
        instances = corpus.read_jsonl(args.jsonl)
    else:
        raise corpus.ConfigError("provide --conllu/--sidecar or --jsonl")
    lexicon = sentiment.load_lexicon(args.lexicon)
    prepared, stats = pipeline.annotate(instances, lexicon, args.variant)
    log = _Log(out)
    corpus.write_jsonl([p.augmented for p in prepared], out / "annotated.jsonl")
    (out / "annotate_stats.json").write_text(
        json.dumps(
            {
                "instances": stats.instances,
                "sdp_fallbacks": stats.sdp_fallbacks,
                "fragments": stats.fragments,
                "tag_ties": stats.tag_stats.ties,
                "tag_no_hits": stats.tag_stats.no_hits,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    log(f"annotated {stats.instances} instances "
        f"({stats.sdp_fallbacks} SDP fallbacks, {stats.tag_stats.ties} tag ties)")
    return 0


def cmd_train(args):
    out = Path(args.out)
    config = _train_config(_read_json(args.config), args.config, args.seed)
    manifest, splits = _load_data_dir(Path(args.data), "train")
    prepared, _ = pipeline.annotate(
        splits["train"], sentiment.load_lexicon(args.lexicon), config.isl_variant
    )
    log = _Log(out)
    (out / "config.json").write_text(
        json.dumps(vars(config).copy(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    record = trainer.train(
        config,
        prepared,
        manifest.relations,
        checkpoint_path=out / "model.ckpt",
        metrics_path=out / "metrics.csv",
    )
    for row in record.epoch_losses:
        log(
            f"epoch {row['epoch']} l_re {_f(row['l_re'])} l_asp {_f(row['l_asp'])} "
            f"l_ib {_f(row['l_ib'])} total {_f(row['total'])}"
        )
    log(f"asp fallbacks {record.asp_fallbacks}")
    log(f"wall time {_f(record.wall_time)} s")
    return 0


def cmd_eval(args):
    out = Path(args.out)
    state = encoder.load_checkpoint(args.checkpoint)
    instances = corpus.read_jsonl(args.split)
    lexicon = sentiment.load_lexicon(args.lexicon)
    # prediction never reads the label signal, so any variant gives the same report
    prepared, _ = pipeline.annotate(instances, lexicon, "ISL")
    entity_types, no_relation = None, "no_relation"
    if args.manifest:
        manifest = _read_manifest(args.manifest)
        entity_types, no_relation = manifest.entity_types, manifest.no_relation_label
    report = evalkit.evaluate(state, prepared, entity_types, no_relation)
    text = evalkit.report_to_text(report, state.relations)
    log = _Log(out)
    (out / "report.txt").write_text(text, encoding="utf-8")
    rows = ["relation,precision,recall,f1,tp,fp,fn"]
    for label in state.relations:
        r = report.per_relation[label]
        rows.append(
            f"{label},{_f(r['precision'])},{_f(r['recall'])},{_f(r['f1'])},"
            f"{r['tp']},{r['fp']},{r['fn']}"
        )
    (out / "per_relation.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    log(text.rstrip("\n"))
    return 0


def cmd_ablate(args):
    out = Path(args.out)
    grid = _read_json(args.grid)
    if not isinstance(grid, list) or not grid:
        raise corpus.ConfigError("grid file must hold a non-empty JSON list of configs")
    configs = [_train_config(rec, f"{args.grid}: grid entry {i}") for i, rec in enumerate(grid)]
    manifest, splits = _load_data_dir(Path(args.data), "train", args.eval_split)
    lexicon = sentiment.load_lexicon(args.lexicon)
    results = evalkit.ablation_grid(
        configs, splits, manifest.relations, manifest.entity_types,
        eval_split=args.eval_split, lexicon=lexicon,
        no_relation=manifest.no_relation_label,
    )
    csv_text = evalkit.grid_to_csv(results)
    log = _Log(out)
    (out / "grid.csv").write_text(csv_text, encoding="utf-8")
    log(csv_text.rstrip("\n"))
    return 0


def cmd_gradcheck(args):
    out = Path(args.out)
    if args.config:
        config = _train_config(_read_json(args.config), args.config, args.seed)
    else:
        config = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32,
                                     seed=args.seed)
    if args.data:
        manifest, splits = _load_data_dir(Path(args.data), "train")
        instances = splits["train"][: args.instances]
        relations = manifest.relations
    else:
        manifest = corpus.default_manifest(seed=args.seed, train=args.instances,
                                           dev=1, test=1)
        instances = corpus.synthesize_corpus(manifest, 0.9)["train"]
        relations = manifest.relations
    prepared, _ = pipeline.annotate(instances, sentiment.load_lexicon(), config.isl_variant)
    report = trainer.gradcheck(config, prepared, relations,
                               max_coords_per_block=args.coords)
    log = _Log(out)
    lines = [
        f"{e.term} {e.block} max_rel_err {e.max_rel_err:.3e} coords {e.coords_checked} "
        f"kinks {e.kinks_skipped} {'ok' if e.passed else 'FAIL'}"
        for e in report.entries
    ]
    verdict = "PASS" if report.passed else "FAIL"
    total_kinks = sum(e.kinks_skipped for e in report.entries)
    lines.append(f"overall {verdict} max_rel_err {report.max_rel_err:.3e} "
                 f"kink-crossing coords skipped {total_kinks}")
    (out / "gradcheck.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    log(f"gradcheck {verdict}: max relative error {report.max_rel_err:.3e} "
        f"over {len(report.entries)} blocks")
    if not report.passed:
        raise RuntimeError("gradient check failed; see gradcheck.txt")
    return 0


def cmd_inspect(args):
    out = Path(args.out)
    state = encoder.load_checkpoint(args.checkpoint)
    instances = corpus.read_jsonl(args.data)
    matches = [i for i in instances if i.id == args.instance]
    if not matches:
        raise corpus.ConfigError(f"instance id {args.instance!r} not found in {args.data}")
    lexicon = sentiment.load_lexicon(args.lexicon)
    prepared = pipeline.annotate_instance(matches[0], lexicon, args.variant)
    log = _Log(out)
    csv_path = out / f"attention_{args.instance}.csv"
    svg_path = out / f"attention_{args.instance}.svg"
    a_avg, a_ib = evalkit.export_attention(state, prepared, csv_path, svg_path)
    mass = float((a_avg * prepared.signal.Q).sum())
    log(f"instance {args.instance}: {len(prepared.augmented.tokens)} tokens")
    log(f"marked attention mass {_f(mass)}")
    log(f"wrote {csv_path.name} and {svg_path.name}")
    return 0


def cmd_sdp_dump(args):
    instances = corpus.read_jsonl(args.jsonl)
    records = []
    for inst in instances:
        res, s, o = syntax.sdp_for_instance(inst)
        records.append(
            {
                "id": inst.id,
                "subj_head": s,
                "obj_head": o,
                "path": res.path,
                "tokens": [inst.tokens[i].surface for i in res.path],
                "fallback": res.fallback,
            }
        )
    text = "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sdp.jsonl").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Argument schema


def build_parser() -> _Parser:
    parser = _Parser(prog="ssdp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="generate a synthetic corpus into --out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--dev", type=int, default=400)
    p.add_argument("--test", type=int, default=400)
    p.add_argument("--coupling", type=float, default=0.9,
                   help="probability that relation polarity fixes gold sentiment")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate",
                       help="tag sentiment, extract SDPs, build label signals")
    p.add_argument("--conllu", help="CoNLL-U treebank file")
    p.add_argument("--sidecar", help="JSONL sidecar with spans/relations")
    p.add_argument("--jsonl", help="instances as JSONL (alternative input)")
    p.add_argument("--variant", default="ISL", choices=["EPL", "SPL", "ISL"])
    p.add_argument("--lexicon", help="sentiment lexicon TSV (default: bundled)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True, help="JSON file of TrainConfig keys")
    p.add_argument("--data", required=True, help="directory from `ssdp synth`")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, help="JSONL file of instances")
    p.add_argument("--manifest", help="manifest.json for entity-pair buckets")
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate",
                       help="train/evaluate a grid of configs")
    p.add_argument("--grid", required=True, help="JSON list of TrainConfig dicts")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-split", default="test")
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--config", help="JSON TrainConfig (default: small reference)")
    p.add_argument("--data", help="corpus directory (default: synthesize)")
    p.add_argument("--instances", type=_positive_int, default=3)
    p.add_argument("--coords", type=_positive_int, default=25, help="coordinates per block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect",
                       help="export attention for one instance as CSV + SVG")
    p.add_argument("--instance", required=True, help="instance id")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL file holding the instance")
    p.add_argument("--variant", default="ISL", choices=["EPL", "SPL", "ISL"])
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("sdp", help="dependency-path utilities")
    sdp_sub = p.add_subparsers(dest="sdp_command", required=True, parser_class=_Parser)
    d = sdp_sub.add_parser("dump",
                           help="emit each instance's shortest path as JSON")
    d.add_argument("--jsonl", required=True)
    d.add_argument("--out", help="directory for sdp.jsonl (default: stdout)")
    d.set_defaults(func=cmd_sdp_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:  # corpus's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
