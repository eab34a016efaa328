"""Command-line entry point wiring corpus synthesis, annotation, training,
evaluation, ablation grids, gradient checking, and attention inspection.

Exit codes: 0 success; 1 bad flags or input, with a message naming the
file, line, key or instance; 2 runtime failure.
All floats in logs are printed with six decimals so runs diff cleanly.
Each setting has one source: the config or grid file holds the model seed
and every training key, `synth --seed` the corpus seed, and the manifest
the relations and the negative class (README: "Where each setting comes from").
The SSDP_THREADS environment variable, an integer >= 0, caps the BLAS
thread count (0 or unset = automatic); it must be applied before numpy loads.
Only the commands that annotate, train or evaluate load numpy, and they
import the modules that use it when they run: synth, sdp dump, --help
and bad flags never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path


def _apply_thread_cap():
    raw = os.environ.get("SSDP_THREADS", "0")
    if not raw.isdecimal():
        raise SystemExit(f"SSDP_THREADS must be an integer >= 0, got {raw!r}")
    if int(raw) > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(int(raw)))


_apply_thread_cap()


# the numpy-free modules; each command imports the numeric ones it uses
from . import corpus, sentiment, syntax  # noqa: E402


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad flags, per contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(least):
    """argparse type for an integer >= ``least``: 1 for a count, 0 for a split size."""
    def parse(text):
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be {'a positive integer' if least else 'an integer >= 0'}, got {text!r}")
        return int(text)
    return parse


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise corpus.ConfigError(f"{path}: not UTF-8") from None
    return corpus.parse_json(text, path)


def _read_manifest(path):
    rec = _read_json(path)
    try:
        return corpus.manifest_from_dict(rec)
    except ValueError as exc:
        raise corpus.ConfigError(f"{path}: {exc}") from exc


def _raw(path, instances):
    """``instances``, read from ``path``; one that is already annotated (a
    record of ``ssdp annotate`` output) raises ConfigError naming the file."""
    from . import pipeline

    for inst in instances:
        try:
            pipeline.check_raw(inst)
        except ValueError as exc:
            raise corpus.ConfigError(f"{path}: {exc}") from exc
    return instances


def _read_split(path, manifest, manifest_path):
    """The raw instances of the split file ``path``; a relation that is not
    one of the manifest's (read from ``manifest_path``) raises ConfigError
    naming both files."""
    instances = _raw(path, corpus.read_jsonl(path))
    bad = next((i for i in instances if i.relation not in manifest.relations), None)
    if bad is not None:
        raise corpus.ConfigError(f"{path}: {bad.id}: relation {bad.relation!r} is "
                                 f"not one of the relations of {manifest_path}")
    return instances


def _load_data_dir(data_dir: Path, *names):
    """The manifest and the named splits (read by ``_read_split``), each of
    which must exist and hold instances; with no names, every split present."""
    manifest_path = data_dir / "manifest.json"
    manifest = _read_manifest(manifest_path)
    paths = {split: data_dir / f"{split}.jsonl" for split in names or manifest.split_sizes}
    for split in names:
        if not paths[split].exists():
            raise corpus.ConfigError(f"{data_dir}: no {split!r} split ({split}.jsonl)")
    splits = {split: _read_split(path, manifest, manifest_path)
              for split, path in paths.items() if path.exists()}
    for split in names:
        if not splits[split]:
            raise corpus.ConfigError(f"{paths[split]}: no instances")
    return manifest, splits


def _naming(where, fn, *args, **kwargs):
    """fn(*args, **kwargs), naming ``where``, the files behind the model and
    its data, in a ConfigError it raises: an instance the model cannot take."""
    try:
        return fn(*args, **kwargs)
    except corpus.ConfigError as exc:
        raise corpus.ConfigError(f"{where}: {exc}") from exc


def _train_config(rec, where):
    """Build and fully validate one TrainConfig; errors name ``where``."""
    from . import trainer

    try:
        rec = corpus._checked(rec, {}, corpus.ConfigError)
        unknown = set(rec) - set(trainer.TrainConfig.__dataclass_fields__)
        if unknown:
            raise corpus.ConfigError(f"unknown config keys {sorted(unknown)}")
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
    from . import pipeline, trainer

    out = Path(args.out)
    if args.conllu:
        instances = _raw(args.conllu[0], corpus.read_conllu(*args.conllu))
    else:
        instances = _raw(args.jsonl, corpus.read_jsonl(args.jsonl))
    lexicon = sentiment.load_lexicon(args.lexicon)
    # the output holds no label signal, so any variant writes the same files
    prepared, stats = pipeline.annotate(instances, lexicon, trainer.TrainConfig.isl_variant)
    log = _Log(out)
    corpus.write_jsonl([p.augmented for p in prepared], out / "annotated.jsonl")
    (out / "annotate_stats.json").write_text(json.dumps(asdict(stats), indent=2) + "\n",
                                             encoding="utf-8")
    log(f"annotated {stats.instances} instances "
        f"({stats.sdp_fallbacks} SDP fallbacks, {stats.tag_ties} tag ties)")
    return 0


def cmd_train(args):
    from . import encoder, pipeline, trainer

    out = Path(args.out)
    config = _train_config(_read_json(args.config), args.config)
    manifest, splits = _load_data_dir(Path(args.data), "train")
    prepared, _ = pipeline.annotate(
        splits.pop("train"), sentiment.load_lexicon(args.lexicon), config.isl_variant
    )  # the raw split is released here: training reads only the annotated one
    log = _Log(out)
    (out / "config.json").write_text(
        json.dumps(vars(config), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    t0 = time.perf_counter()
    record = _naming(args.config, trainer.train, config, prepared, manifest.relations)
    wall_time = time.perf_counter() - t0
    (out / "metrics.csv").write_text("\n".join(record.metrics_rows) + "\n", encoding="utf-8")
    encoder.save_checkpoint(record.state, out / "model.ckpt")
    for row in record.epoch_losses:
        log(
            f"epoch {row['epoch']} l_re {_f(row['l_re'])} l_asp {_f(row['l_asp'])} "
            f"l_ib {_f(row['l_ib'])} total {_f(row['total'])}"
        )
    log(f"asp fallbacks {record.asp_fallbacks}")
    log(f"wall time {_f(wall_time)} s")
    return 0


def cmd_eval(args):
    from . import encoder, evalkit, pipeline, trainer

    out = Path(args.out)
    state = encoder.load_checkpoint(args.checkpoint)
    manifest = _read_manifest(args.manifest)
    if set(state.relations) != set(manifest.relations):
        raise corpus.ConfigError(
            f"{args.checkpoint}: relations {sorted(state.relations)} are not those of "
            f"{args.manifest}: {sorted(manifest.relations)}")
    instances = _read_split(args.split, manifest, args.manifest)
    lexicon = sentiment.load_lexicon(args.lexicon)
    # prediction never reads the label signal, so any variant gives the same report
    prepared, _ = pipeline.annotate(instances, lexicon, trainer.TrainConfig.isl_variant)
    report = _naming(f"{args.split} with {args.checkpoint}", evalkit.evaluate, state, prepared,
                     manifest.entity_types, manifest.no_relation_label)
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
    from . import evalkit, pipeline, trainer

    out = Path(args.out)
    grid = _read_json(args.grid)
    if not isinstance(grid, list) or not grid:
        raise corpus.ConfigError(f"{args.grid}: expected a non-empty JSON list of configs")
    configs = [_train_config(rec, f"{args.grid}: grid entry {i}") for i, rec in enumerate(grid)]
    manifest, splits = _load_data_dir(Path(args.data), "train", args.eval_split)
    lexicon = sentiment.load_lexicon(args.lexicon)
    # prediction never reads the label signal, so one variant serves every run;
    # an eval on the train split takes the first variant's annotation of it
    if args.eval_split != "train":
        eval_prepared, _ = pipeline.annotate(splits[args.eval_split], lexicon,
                                             trainer.TrainConfig.isl_variant)
    train = {variant: pipeline.annotate(splits["train"], lexicon, variant)[0]
             for variant in dict.fromkeys(c.isl_variant for c in configs)}
    if args.eval_split == "train":
        eval_prepared = train[configs[0].isl_variant]
    del splits  # the raw instances are released here: the grid reads only annotated ones
    for i, config in enumerate(configs):
        for prepared in (train[config.isl_variant], eval_prepared):
            longest = max((p.augmented for p in prepared), key=lambda inst: len(inst.tokens))
            _naming(f"{args.grid}: grid entry {i}", trainer.check_length, longest,
                    config.max_len)
    try:
        results = evalkit.ablation_grid(configs, train, eval_prepared, manifest)
    except RuntimeError as exc:  # a diverging run, which the grid names by its entry
        raise RuntimeError(f"{args.grid}: {exc}") from exc
    csv_text = evalkit.grid_to_csv(results)
    log = _Log(out)
    (out / "grid.csv").write_text(csv_text, encoding="utf-8")
    log(csv_text.rstrip("\n"))
    return 0


def cmd_gradcheck(args):
    from . import pipeline, trainer

    out = Path(args.out)
    if args.config:
        config = _train_config(_read_json(args.config), args.config)
    else:
        config = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32)
    if args.data:
        manifest, splits = _load_data_dir(Path(args.data), "train")
        instances = splits["train"][: args.instances]
    else:
        manifest = corpus.default_manifest(train=args.instances, dev=1, test=1)
        instances = corpus.synthesize_corpus(manifest, corpus.SENTIMENT_COUPLING)["train"]
    prepared, _ = pipeline.annotate(instances, sentiment.load_lexicon(), config.isl_variant)
    report = _naming(args.config or args.data, trainer.gradcheck, config, prepared,
                     manifest.relations, args.coords)
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
    from . import encoder, evalkit, pipeline, trainer

    out = Path(args.out)
    state = encoder.load_checkpoint(args.checkpoint)
    instances = _raw(args.data, corpus.read_jsonl(args.data))
    matches = [i for i in instances if i.id == args.instance]
    if not matches:
        raise corpus.ConfigError(f"instance id {args.instance!r} not found in {args.data}")
    lexicon = sentiment.load_lexicon(args.lexicon)
    variant = args.variant or trainer.TrainConfig.isl_variant  # its positions are marked
    prepared = pipeline.annotate_instance(matches[0], lexicon, variant)
    log = _Log(out)
    csv_path = out / f"attention_{args.instance}.csv"
    svg_path = out / f"attention_{args.instance}.svg"
    prediction = _naming(f"{args.data} with {args.checkpoint}", evalkit.export_attention,
                         state, prepared, csv_path, svg_path)
    log(f"instance {args.instance}: {len(prepared.augmented.tokens)} tokens")
    log(f"marked attention mass {_f(prediction.marked_mass)}")
    log(f"wrote {csv_path.name} and {svg_path.name}")
    return 0


def cmd_sdp_dump(args):
    instances = corpus.read_jsonl(args.jsonl)
    records = []
    for inst in instances:
        res = syntax.sdp_for_instance(inst)
        records.append(
            {
                "id": inst.id,
                "subj_head": res.path[0],
                "obj_head": res.path[-1],
                "path": res.path,
                "tokens": [inst.tokens[i] for i in res.path],
                "fallback": res.fallback,
            }
        )
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
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
    p.add_argument("--train", type=_count(0), default=2000)
    p.add_argument("--dev", type=_count(0), default=400)
    p.add_argument("--test", type=_count(0), default=400)
    p.add_argument("--coupling", type=float, default=corpus.SENTIMENT_COUPLING,
                   help="probability that relation polarity fixes gold sentiment")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate",
                       help="write the augmented instances and annotation stats")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--conllu", nargs=2, metavar=("TREEBANK", "SIDECAR"),
                        help="CoNLL-U treebank and its JSONL sidecar of spans and relations")
    source.add_argument("--jsonl", help="instances as JSONL")
    p.add_argument("--lexicon", help="sentiment lexicon TSV (default: bundled)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True, help="JSON file of TrainConfig keys")
    p.add_argument("--data", required=True, help="directory from `ssdp synth`")
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, help="JSONL file of instances")
    p.add_argument("--manifest", required=True,
                   help="the checkpoint's manifest.json: relations, buckets, negative class")
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
    p.add_argument("--instances", type=_count(1), default=3)
    p.add_argument("--coords", type=_count(1), default=25, help="coordinates per block")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect",
                       help="export attention for one instance as CSV + SVG")
    p.add_argument("--instance", required=True, help="instance id")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="JSONL file holding the instance")
    p.add_argument("--variant", choices=corpus.VARIANTS, help="variant of the marked column")
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
    # a path that is missing, of the wrong kind or not ours to open is bad
    # input, named by the errno message; other OSErrors (a full disk) are not
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError,
            PermissionError, ValueError) as exc:  # corpus's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
