"""End-to-end command-line interface: run directories, exit codes, determinism."""

import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssdpsem
from ssdpsem import cli, encoder, evalkit, pipeline, sentiment, trainer


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["synth", "--seed", "5", "--out", str(out),
                     "--train", "48", "--dev", "16", "--test", "16"]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg.write_text(json.dumps({
        "epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32,
        "batch_size": 8, "seed": 0, "mode": "asp_saib",
    }), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(out)]) == 0
    return out


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["train", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--config" in out


def test_missing_required_argument_exits_one(capsys):
    assert run(["train", "--data", "x"]) == 1
    assert run(["bogus-subcommand"]) == 1
    assert run([]) == 1


def test_missing_flag_is_named(capsys):
    assert run(["train", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "ssdp train: error: the following arguments are required: --config, --data" in err


@pytest.mark.parametrize("flag, value", [
    ("--instances", "0"), ("--coords", "0"), ("--instances", "-1"), ("--coords", "-3"),
])
def test_gradcheck_count_below_one_exits_one(tmp_path, capsys, flag, value):
    assert run(["gradcheck", flag, value, "--out", str(tmp_path / "gc")]) == 1
    assert f"argument {flag}: must be a positive integer, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--train", "--dev", "--test"])
def test_synth_negative_split_size_exits_one(tmp_path, capsys, flag):
    assert run(["synth", flag, "-3", "--out", str(tmp_path / "d")]) == 1
    assert f"argument {flag}: must be an integer >= 0, got '-3'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_synth_writes_manifest_and_splits(data_dir):
    names = {p.name for p in data_dir.iterdir()}
    assert {"manifest.json", "train.jsonl", "dev.jsonl", "test.jsonl",
            "log.txt"} <= names
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["split_sizes"]["train"] == 48
    assert len((data_dir / "train.jsonl").read_text(encoding="utf-8").splitlines()) == 48


def test_synth_is_deterministic(tmp_path, data_dir):
    again = tmp_path / "again"
    assert run(["synth", "--seed", "5", "--out", str(again),
                "--train", "48", "--dev", "16", "--test", "16"]) == 0
    for name in ("manifest.json", "train.jsonl", "dev.jsonl", "test.jsonl"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes()


# sha256 of `ssdp synth --seed 11 --train 48 --dev 16 --test 16`, pinned when
# the generator was rewritten to build each relation's tables once
SYNTH_SEED11_SHA256 = {
    "manifest.json": "173682068b9360754c5653aa2483c836b437b47f0d08030a0f2001dec7d23a82",
    "train.jsonl": "d44e1d52f56719798b796addd180437e7420559668e8f87466766b0a64d09211",
    "dev.jsonl": "3a1473a50cd26c394da00ed6494f04902cfeb8c2aea4b619ca743209716fdae1",
    "test.jsonl": "4a459564e1e547bcac03e51da0f518004dd7330e9717d7d65c86e23c8bd5e6e3",
}


def test_synth_output_is_pinned(tmp_path):
    assert run(["synth", "--seed", "11", "--out", str(tmp_path),
                "--train", "48", "--dev", "16", "--test", "16"]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SYNTH_SEED11_SHA256} == SYNTH_SEED11_SHA256


def test_synth_sdp_dump_and_help_never_load_numpy(tmp_path):
    """The commands that neither annotate, train nor evaluate start without
    numpy; SSDP_THREADS is still applied when cli is imported."""
    code = """if True:
        import os, sys
        from ssdpsem import cli
        out = sys.argv[1]
        codes = [cli.main(argv) for argv in (
            ["synth", "--seed", "1", "--train", "4", "--dev", "2", "--test", "2", "--out", out],
            ["sdp", "dump", "--jsonl", out + "/dev.jsonl", "--out", out],
            ["--help"],
            ["synth", "--bogus"])]
        print(codes, "numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"])
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(ssdpsem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(env, SSDP_THREADS="1"), check=True, timeout=120,
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 1] False 1", proc.stdout
    assert (tmp_path / "sdp.jsonl").exists()


@pytest.mark.parametrize("threads", ["-2", "x"])
def test_bad_ssdp_threads_exits_one(threads):
    """SSDP_THREADS is an integer >= 0; anything else stops the import."""
    env = dict(os.environ, SSDP_THREADS=threads)
    src = str(Path(ssdpsem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "from ssdpsem import cli"], env=env,
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 1
    assert f"SSDP_THREADS must be an integer >= 0, got '{threads}'" in proc.stderr


def test_train_run_directory_contents(train_dir):
    names = {p.name for p in train_dir.iterdir()}
    assert {"config.json", "metrics.csv", "model.ckpt", "log.txt"} <= names
    metrics = (train_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert metrics[0] == "step,l_re,l_asp,l_ib,total"
    assert len(metrics) > 1
    log = (train_dir / "log.txt").read_text(encoding="utf-8")
    assert "epoch 0" in log and "wall time" in log


def test_train_rejects_unknown_config_key(tmp_path, data_dir, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"epochs": 1, "learning_rate_typo": 3}), encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(data_dir),
                "--out", str(tmp_path / "o")]) == 1
    assert "unknown" in capsys.readouterr().err


def test_train_missing_data_dir_exits_one(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{\"epochs\": 1}", encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "o")]) == 1


def test_eval_writes_report(tmp_path, data_dir, train_dir):
    out = tmp_path / "eval"
    assert run(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                "--split", str(data_dir / "test.jsonl"),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(out)]) == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "micro_f1" in report
    per_rel = (out / "per_relation.csv").read_text(encoding="utf-8").splitlines()
    assert per_rel[0] == "relation,precision,recall,f1,tp,fp,fn"


def test_eval_takes_no_variant(tmp_path, data_dir, train_dir, capsys):
    """Prediction never reads the label signal and annotate's output holds
    none, so eval and annotate offer no variant; the model seed comes from
    the config file only."""
    cfg = tmp_path / "c.json"
    cfg.write_text("{\"epochs\": 1}", encoding="utf-8")
    for argv, extra in (
            (["eval", "--checkpoint", str(train_dir / "model.ckpt"),
              "--split", str(data_dir / "test.jsonl"),
              "--manifest", str(data_dir / "manifest.json")], ["--variant", "SPL"]),
            (["annotate", "--jsonl", str(data_dir / "dev.jsonl")], ["--variant", "SPL"]),
            (["train", "--config", str(cfg), "--data", str(data_dir)], ["--seed", "1"]),
            (["gradcheck"], ["--seed", "1"])):
        assert run([*argv, *extra, "--out", str(tmp_path / "o")]) == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# each command's option strings: a knob added or removed shows up here
CLI_OPTIONS = {
    "synth": ["--seed", "--out", "--train", "--dev", "--test", "--coupling"],
    "annotate": ["--conllu", "--jsonl", "--lexicon", "--out"],
    "train": ["--config", "--data", "--lexicon", "--out"],
    "eval": ["--checkpoint", "--split", "--manifest", "--lexicon", "--out"],
    "ablate": ["--grid", "--data", "--eval-split", "--lexicon", "--out"],
    "gradcheck": ["--config", "--data", "--instances", "--coords", "--out"],
    "inspect": ["--instance", "--checkpoint", "--data", "--variant", "--lexicon", "--out"],
    "sdp dump": ["--jsonl", "--out"],
}


def _command_options(parser, command=""):
    """{command: its option strings but --help} of each leaf command under parser."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_command_options(sub, f"{command} {name}".strip()))
    if not found:
        found[command] = [opt for action in parser._actions for opt in action.option_strings
                          if opt not in ("-h", "--help")]
    return found


def test_cli_options_are_pinned():
    options = _command_options(cli.build_parser())
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 37


def _lexicon_votes(path):
    """Two records without gold sentiment: one whose lexicon cues tie
    (``rose``, ``fell``), one with no lexicon hit."""
    records = [{"id": i, "tokens": tokens, "heads": [-1, 0, 1], "deprels": ["root", "dep", "dep"],
                "subj": [0, 0], "obj": [2, 2], "relation": "profit_of"}
               for i, tokens in enumerate((["shares", "rose", "fell"], ["the", "cat", "sat"]))]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_annotate_from_jsonl(tmp_path, data_dir):
    for jsonl, expected in (
        (data_dir / "dev.jsonl", {"instances": 16}),
        (_lexicon_votes(tmp_path / "votes.jsonl"),
         {"instances": 2, "sdp_fallbacks": 0, "fragments": 0, "tag_ties": 1, "tag_no_hits": 1}),
    ):
        out = tmp_path / f"ann-{jsonl.stem}"
        assert run(["annotate", "--jsonl", str(jsonl), "--out", str(out)]) == 0
        stats = json.loads((out / "annotate_stats.json").read_text(encoding="utf-8"))
        assert list(stats) == ["instances", "sdp_fallbacks", "fragments", "tag_ties",
                               "tag_no_hits"]
        assert stats.items() >= expected.items()
        lines = (out / "annotated.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == stats["instances"]
        first = json.loads(lines[0])
        assert first["tokens"][0] in ("positive", "negative")


def readme_commands():
    """Each ``ssdp ...`` line of README's fenced blocks, with its backslash
    continuations joined, as an argument list after ``ssdp``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["ssdp"]:
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    """A flag removed from the CLI cannot stay in README's examples."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"synth", "annotate", "train", "eval",
                                              "gradcheck", "inspect", "sdp"}
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_annotate_requires_an_input(tmp_path, capsys):
    assert run(["annotate", "--out", str(tmp_path / "x")]) == 1
    assert "one of the arguments --conllu --jsonl is required" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["--conllu", "t.conllu"], "argument --conllu: expected 2 arguments"),
    (["--sidecar", "dev.jsonl"], "one of the arguments --conllu --jsonl is required"),
    (["--jsonl", "dev.jsonl", "--sidecar", "dev.jsonl"],
     "unrecognized arguments: --sidecar"),
    (["--jsonl", "dev.jsonl", "--conllu", "t.conllu", "dev.jsonl"],
     "argument --conllu: not allowed with argument --jsonl"),
    (["--conllu", "t.conllu", "dev.jsonl", "--jsonl", "dev.jsonl"],
     "argument --jsonl: not allowed with argument --conllu"),
], ids=["conllu-alone", "sidecar", "jsonl-sidecar", "jsonl-conllu", "conllu-jsonl"])
def test_annotate_rejects_conflicting_inputs(tmp_path, data_dir, capsys, argv, message):
    """Either --jsonl, or --conllu with its sidecar: no input given is ignored."""
    files = {"dev.jsonl": data_dir / "dev.jsonl", "t.conllu": tmp_path / "t.conllu"}
    files["t.conllu"].write_text("1\tGains\t_\t_\t_\t_\t0\troot\t_\t_\n\n",
                                 encoding="utf-8")
    argv = [str(files.get(arg, arg)) for arg in argv]
    assert run(["annotate", *argv, "--out", str(tmp_path / "x")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_ablate_grid(tmp_path, data_dir):
    grid = tmp_path / "grid.json"
    base = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32,
            "batch_size": 8, "seed": 0}
    grid.write_text(json.dumps([dict(base, mode="baseline"),
                                dict(base, mode="asp_saib")]), encoding="utf-8")
    out = tmp_path / "abl"
    assert run(["ablate", "--grid", str(grid), "--data", str(data_dir),
                "--eval-split", "dev", "--out", str(out)]) == 0
    lines = (out / "grid.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert "mode" in lines[0] and "micro_f1" in lines[0]


def test_gradcheck_cli_passes(tmp_path):
    out = tmp_path / "gc"
    assert run(["gradcheck", "--instances", "1", "--coords", "3",
                "--out", str(out)]) == 0
    text = (out / "gradcheck.txt").read_text(encoding="utf-8")
    assert "overall PASS" in text


def test_gradcheck_config_seed_is_the_model_seed(tmp_path):
    """The config's seed initialises the model: seeds 0 and 5 give different
    reports, and seed 0 gives the built-in reference config's report."""
    reports = {}
    for seed in (0, 5):
        cfg = tmp_path / f"seed{seed}.json"
        cfg.write_text(json.dumps({"layers": 2, "heads": 2, "d_model": 16, "d_ff": 32,
                                   "seed": seed}), encoding="utf-8")
        out = tmp_path / f"gc{seed}"
        assert run(["gradcheck", "--config", str(cfg), "--instances", "1", "--coords", "3",
                    "--out", str(out)]) == 0
        reports[seed] = (out / "gradcheck.txt").read_bytes()
    assert reports[0] != reports[5]
    assert run(["gradcheck", "--instances", "1", "--coords", "3",
                "--out", str(tmp_path / "gc")]) == 0
    assert (tmp_path / "gc" / "gradcheck.txt").read_bytes() == reports[0]


def test_gradcheck_on_a_data_directory(tmp_path, data_dir):
    out = tmp_path / "gc"
    assert run(["gradcheck", "--data", str(data_dir), "--instances", "2", "--coords", "3",
                "--out", str(out)]) == 0
    lines = (out / "gradcheck.txt").read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("overall PASS")
    assert "gradcheck PASS" in (out / "log.txt").read_text(encoding="utf-8")


def test_inspect_exports_attention(tmp_path, data_dir, train_dir):
    first_id = json.loads(
        (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()[0]
    )["id"]
    out = tmp_path / "ins"
    assert run(["inspect", "--instance", first_id,
                "--checkpoint", str(train_dir / "model.ckpt"),
                "--data", str(data_dir / "test.jsonl"), "--out", str(out)]) == 0
    assert (out / f"attention_{first_id}.csv").exists()
    assert (out / f"attention_{first_id}.svg").exists()


def test_inspect_marks_the_variants_positions(tmp_path, data_dir, train_dir):
    """The marked column shows the chosen variant's positions: ISL marks the
    sentiment token at position 0, SPL does not, and ISL is the default."""
    first_id = json.loads(
        (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()[0]
    )["id"]
    marked = {}
    for variant in ("SPL", "ISL", None):
        out = tmp_path / str(variant)
        assert run(["inspect", "--instance", first_id,
                    "--checkpoint", str(train_dir / "model.ckpt"),
                    "--data", str(data_dir / "test.jsonl"), "--out", str(out),
                    *(["--variant", variant] if variant else [])]) == 0
        with open(out / f"attention_{first_id}.csv", encoding="utf-8", newline="") as fh:
            marked[variant] = [int(row["marked"]) for row in csv.DictReader(fh)]
    assert marked["ISL"][0] == 1 and marked["SPL"][0] == 0
    assert marked["ISL"][1:] == marked["SPL"][1:]
    assert marked[None] == marked["ISL"]


def test_inspect_unknown_instance_exits_one(tmp_path, data_dir, train_dir, capsys):
    assert run(["inspect", "--instance", "no-such-id",
                "--checkpoint", str(train_dir / "model.ckpt"),
                "--data", str(data_dir / "test.jsonl"),
                "--out", str(tmp_path / "x")]) == 1
    assert "not found" in capsys.readouterr().err


def test_sdp_dump_to_stdout(data_dir, capsys):
    assert run(["sdp", "dump", "--jsonl", str(data_dir / "dev.jsonl")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16
    rec = json.loads(lines[0])
    assert {"id", "subj_head", "obj_head", "path", "tokens", "fallback"} <= set(rec)
    assert rec["subj_head"] in rec["path"] and rec["obj_head"] in rec["path"]


def test_sdp_dump_of_an_empty_file_writes_an_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(empty), "--out", str(tmp_path / "dump")]) == 0
    assert (tmp_path / "dump" / "sdp.jsonl").read_bytes() == b""
    assert run(["sdp", "dump", "--jsonl", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_sdp_dump_to_directory(tmp_path, data_dir):
    out = tmp_path / "dump"
    assert run(["sdp", "dump", "--jsonl", str(data_dir / "dev.jsonl"),
                "--out", str(out)]) == 0
    assert len((out / "sdp.jsonl").read_text(encoding="utf-8").splitlines()) == 16


def test_corrupt_checkpoint_exits_one(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert run(["eval", "--checkpoint", str(bad),
                "--split", str(data_dir / "test.jsonl"),
                "--manifest", str(data_dir / "manifest.json"),
                "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("edit", [
    lambda h: next(s for s in h["arrays"] if s["name"] == "L0.W1")["shape"].reverse(),
    lambda h: h["config"].update(colour="red"),
    lambda h: h.pop("config"),
    lambda h: h["config"].update(heads="2"),
    lambda h: h["config"].update(d_ff=float(h["config"]["d_ff"])),
    lambda h: h["config"].update(last_k=float(h["config"]["last_k"])),
    lambda h: h["vocab"].append("extra-word"),
    lambda h: h["relations"].append("extra_relation"),
    lambda h: h["config"].update(vocab_size=len(h["vocab"]), n_relations=len(h["relations"])),
    lambda h: h["vocab"].__setitem__(1, "extra-word"),
    lambda h: h.update(seed="x"),
    lambda h: h["relations"].__setitem__(1, h["relations"][0]),
], ids=["reversed-shape", "unknown-config-key", "no-config", "str-heads", "float-d_ff",
        "float-last_k", "extra-vocab-word", "extra-relation", "pre-change-config",
        "no-unk", "str-seed", "repeated-relation"])
def test_edited_checkpoint_header_exits_one(tmp_path, train_dir, data_dir, capsys, edit):
    blob = (train_dir / "model.ckpt").read_bytes()
    start = len(encoder._MAGIC) + 8
    end = start + int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:end])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(blob[:start - 8] + len(text).to_bytes(8, "little") + text + blob[end:])
    assert run(["eval", "--checkpoint", str(bad), "--split", str(data_dir / "test.jsonl"),
                "--manifest", str(data_dir / "manifest.json"), "--out", str(tmp_path / "o")]) == 1
    assert str(bad) in capsys.readouterr().err


def test_jsonl_record_without_heads_exits_one(tmp_path, data_dir, capsys):
    lines = (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    del rec["heads"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n", encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(bad)]) == 1
    assert f"{bad}:2: missing key 'heads'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda rec: [1, 2], "expected a JSON object, got list"),
    (lambda rec: dict(rec, obj=[0]), "obj must be a [start, end] pair"),
    (lambda rec: dict(rec, relation=["profit_of"]), "relation must be str, got ['profit_of']"),
    (lambda rec: dict(rec, fragmented=[1]), "fragmented must be a JSON bool, got [1]"),
    (lambda rec: dict(rec, fragmented=None), "fragmented must be a JSON bool, got None"),
    (lambda rec: dict(rec, fragmented="x"), "fragmented must be a JSON bool, got 'x'"),
    (lambda rec: dict(rec, fragmented="1"), "fragmented must be a JSON bool, got '1'"),
    (lambda rec: dict(rec, fragmented=1), "fragmented must be a JSON bool, got 1"),
    (lambda rec: dict(rec, fragmented=0.0), "fragmented must be a JSON bool, got 0.0"),
    (lambda rec: dict(rec, id=None), "id must be a str or an int, got None"),
    (lambda rec: dict(rec, sentiment=0),
     "sentiment must be null, 'positive' or 'negative', got 0"),
    (lambda rec: dict(rec, tokens=["\ud800", *rec["tokens"][1:]]),
     "tokens[0] holds a lone surrogate, which UTF-8 cannot encode: '\\ud800'"),
], ids=["not-an-object", "one-element-span", "list-relation", "list-fragmented",
        "null-fragmented", "str-fragmented", "digit-fragmented", "int-fragmented",
        "float-fragmented", "null-id", "int-sentiment", "lone-surrogate"])
def test_malformed_jsonl_record_exits_one(tmp_path, data_dir, capsys, edit, message):
    lines = (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(edit(json.loads(lines[1])))]) + "\n",
                   encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(bad)]) == 1
    assert f"{bad}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["heads", "deprels"])
def test_jsonl_record_with_a_short_list_exits_one(tmp_path, data_dir, capsys, key):
    lines = (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    n = len(rec["tokens"])
    rec[key] = rec[key][:-1]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n", encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(bad)]) == 1
    assert f"{bad}:2: {key} has {n - 1} entries for {n} tokens" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("heads", 5), ("heads", None), ("tokens", 5),
                                        ("heads", str)])
def test_jsonl_record_with_a_non_list_exits_one(tmp_path, data_dir, capsys, key, value):
    lines = (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    # a string as long as the sentence passes the length check
    rec[key] = "0" * len(rec["tokens"]) if value is str else value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n", encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(bad)]) == 1
    kind = type(rec[key]).__name__
    assert f"{bad}:2: {key} must be a list, got {kind}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("tokens", 7, "str"), ("deprels", None, "str"),
    ("heads", "2", "int"), ("heads", True, "int"), ("heads", 1.0, "int"),
])
def test_jsonl_record_with_a_wrong_typed_element_exits_one(tmp_path, data_dir, capsys,
                                                          key, value, kind):
    lines = (data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec[key][2] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n", encoding="utf-8")
    assert run(["sdp", "dump", "--jsonl", str(bad)]) == 1
    assert f"{bad}:2: {key}[2] must be {kind}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("heads", "2"), ("lr", [0.001])])
def test_train_rejects_wrong_typed_config_value(tmp_path, data_dir, capsys, key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, key: value}), encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(data_dir),
                "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: {key} must be of type" in err and repr(value) in err


@pytest.mark.parametrize("key, value", [("lr", "NaN"), ("lambda_asp", "Infinity"),
                                        ("asp_epsilon", "Infinity")])
@pytest.mark.parametrize("command", ["train", "ablate", "gradcheck"])
def test_non_finite_config_value_exits_one(tmp_path, data_dir, capsys, command, key, value):
    """JSON reads NaN and Infinity as floats; a config or grid entry holding
    one is refused before a run directory is made (training would diverge)."""
    entry = f'{{"epochs": 1, "{key}": {value}}}'
    path = tmp_path / f"{command}.json"
    path.write_text(f"[{entry}]" if command == "ablate" else entry, encoding="utf-8")
    argv = {"train": ["--config", str(path), "--data", str(data_dir)],
            "ablate": ["--grid", str(path), "--data", str(data_dir)],
            "gradcheck": ["--config", str(path)]}[command]
    assert run([command, *argv, "--out", str(tmp_path / "run")]) == 1
    where = f"{path}: grid entry 0" if command == "ablate" else str(path)
    assert (f"{where}: {key} must be a finite number, got {float(value)!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["record", "config", "manifest"])
def test_train_refuses_a_lone_surrogate_before_training(tmp_path, data_dir, capsys, kind):
    """A \\udc80-style escape reads as a string no UTF-8 file can hold: the
    file is named before training, not at the first write after it."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, "mode": "\udc80" if kind == "config" else "asp"}),
                   encoding="utf-8")
    if kind == "record":
        lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[2])
        rec["tokens"][1] = "\udc80"
        lines[2] = json.dumps(rec)
        (data / "train.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if kind == "manifest":
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        manifest["no_relation_label"] = "\udc80"
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    where = {"record": f"{data / 'train.jsonl'}:3: tokens[1]", "config": f"{cfg}: mode",
             "manifest": f"{data / 'manifest.json'}: no_relation_label"}[kind]
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(tmp_path / "run")]) == 1
    assert f"{where} holds a lone surrogate" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_checks_max_len_before_training(tmp_path, data_dir, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, "layers": 2, "heads": 2, "d_model": 16,
                               "d_ff": 32, "max_len": 12}), encoding="utf-8")
    recs = [json.loads(line) for line in
            (data_dir / "train.jsonl").read_text(encoding="utf-8").splitlines()]
    first = next(r for r in recs if len(r["tokens"]) + 1 > 12)  # +1: sentiment token
    assert run(["train", "--config", str(cfg), "--data", str(data_dir),
                "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{first['id']}: sequence length {len(first['tokens']) + 1} exceeds max_len 12" in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_eval_unknown_relation_exits_one(tmp_path, data_dir, train_dir, capsys):
    rec = json.loads((data_dir / "test.jsonl").read_text(encoding="utf-8").splitlines()[0])
    rec["relation"] = "acquired_by"
    split = tmp_path / "split.jsonl"
    split.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert run(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                "--split", str(split), "--manifest", str(data_dir / "manifest.json"),
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert rec["id"] in err and "'acquired_by'" in err
    assert f"{split}: " in err and str(data_dir / "manifest.json") in err


def test_annotated_output_is_rejected_as_input(tmp_path, data_dir, train_dir, capsys):
    ann = tmp_path / "ann"
    assert run(["annotate", "--jsonl", str(data_dir / "test.jsonl"), "--out", str(ann)]) == 0
    annotated = ann / "annotated.jsonl"
    first = json.loads(annotated.read_text(encoding="utf-8").splitlines()[0])
    assert "isl" not in first
    ckpt = str(train_dir / "model.ckpt")
    assert run(["eval", "--checkpoint", ckpt, "--split", str(annotated),
                "--manifest", str(data_dir / "manifest.json"), "--out", str(tmp_path / "e")]) == 1
    assert (f"{annotated}: {first['id']}: already starts with a sentiment token"
            in capsys.readouterr().err)
    assert run(["inspect", "--instance", first["id"], "--checkpoint", ckpt,
                "--data", str(annotated), "--out", str(tmp_path / "i")]) == 1
    assert (f"{annotated}: {first['id']}: already starts with a sentiment token"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["annotate", "train", "ablate", "gradcheck"])
def test_annotated_split_is_named(tmp_path, data_dir, capsys, command):
    ann = tmp_path / "ann"
    assert run(["annotate", "--jsonl", str(data_dir / "train.jsonl"), "--out", str(ann)]) == 0
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    split = data / "train.jsonl"
    shutil.copy(ann / "annotated.jsonl", split)
    first = json.loads(split.read_text(encoding="utf-8").splitlines()[0])["id"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    (tmp_path / "grid.json").write_text(json.dumps([{"epochs": 1}]), encoding="utf-8")
    argv = {"annotate": ["annotate", "--jsonl", str(split)],
            "train": ["train", "--config", str(cfg), "--data", str(data)],
            "ablate": ["ablate", "--grid", str(tmp_path / "grid.json"), "--data", str(data)],
            "gradcheck": ["gradcheck", "--data", str(data)]}[command]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 1
    assert f"{split}: {first}: already starts with a sentiment token" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "train", "ablate"])
def test_empty_split_is_named(tmp_path, data_dir, train_dir, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append(a))
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    split = data / ("train.jsonl" if command == "train" else "test.jsonl")
    split.write_text("", encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    (tmp_path / "grid.json").write_text(json.dumps([{"epochs": 1}]), encoding="utf-8")
    ckpt = train_dir / "model.ckpt"
    argv, message = {
        "eval": (["eval", "--checkpoint", str(ckpt), "--split", str(split),
                  "--manifest", str(data / "manifest.json")],
                 f"{split} with {ckpt}: cannot evaluate an empty split"),
        "train": (["train", "--config", str(cfg), "--data", str(data)],
                  f"{split}: no instances"),
        "ablate": (["ablate", "--grid", str(tmp_path / "grid.json"), "--data", str(data)],
                   f"{split}: no instances"),
    }[command]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("bad, key", [
    ({"heads": 3, "d_model": 16}, "heads"),
    ({"lambda_asp": -1.0}, "lambda_asp"),
    ({"asp_epsilon": 0.0}, "epsilon"),
    ({"attn_axis": "sideways"}, "attn_axis"),
    ({"lr_typo": 1.0}, "lr_typo"),
    ({"heads": "2"}, "heads"),
    ({"mode": "+asp"}, "mode"),
    ({"alternate_tasks": False}, "alternate_tasks"),
    ({"last_k": 0}, "last_k"),
    ({"seed": -1}, "seed"),
    ({"max_len": 12}, "max_len"),
])
def test_ablate_validates_every_entry_before_training(tmp_path, data_dir, monkeypatch,
                                                      capsys, bad, key):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append(a))
    base = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([base, dict(base, **bad)]), encoding="utf-8")
    assert run(["ablate", "--grid", str(grid), "--data", str(data_dir),
                "--out", str(tmp_path / "abl")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "grid entry 1" in err and key in err


def test_ablate_checks_every_entry_against_the_eval_split_before_training(
        tmp_path, data_dir, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append(a))
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    dev = data / "dev.jsonl"
    recs = [json.loads(line) for line in dev.read_text(encoding="utf-8").splitlines()]
    root = recs[0]["heads"].index(-1)
    extra = 40 - len(recs[0]["tokens"])  # one past every train instance's length
    recs[0]["tokens"] += ["again"] * extra
    recs[0]["heads"] += [root] * extra
    recs[0]["deprels"] += ["advmod"] * extra
    dev.write_text("".join(json.dumps(rec) + "\n" for rec in recs), encoding="utf-8")
    base = {"epochs": 1, "layers": 1, "heads": 1, "d_model": 4, "d_ff": 4}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([base, dict(base, max_len=34)]), encoding="utf-8")
    assert run(["ablate", "--grid", str(grid), "--data", str(data), "--eval-split", "dev",
                "--out", str(tmp_path / "abl")]) == 1
    assert calls == []
    assert (f"error: {grid}: grid entry 1: {recs[0]['id']}: sequence length 41 exceeds "
            f"max_len 34") in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()


def test_ablate_names_the_diverging_entry(tmp_path, data_dir, monkeypatch, capsys):
    """A run whose loss goes non-finite exits 2 naming the grid file and
    entry; the divergence is raised directly, since under warnings-as-errors
    a real overflow surfaces as numpy's RuntimeWarning instead."""
    train = trainer.train

    def diverging(config, *args, **kwargs):
        if config.optimizer == "sgd":
            raise trainer.TrainDivergenceError(1, "l_re")
        return train(config, *args, **kwargs)

    monkeypatch.setattr(trainer, "train", diverging)
    base = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32, "batch_size": 8}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([base, dict(base, optimizer="sgd", lr=1e300)]), encoding="utf-8")
    assert run(["ablate", "--grid", str(grid), "--data", str(data_dir),
                "--out", str(tmp_path / "abl")]) == 2
    assert (f"runtime failure: {grid}: grid entry 1: non-finite loss term l_re at step 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("eval_split", ["dev", "train"])
def test_ablate_annotates_train_per_variant_and_the_eval_split_once(
        tmp_path, data_dir, monkeypatch, eval_split):
    base = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32,
            "batch_size": 8, "seed": 0}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([dict(base, mode=mode, isl_variant=variant)
                                for variant in ("SPL", "ISL", "EPL")
                                for mode in ("baseline", "asp")]), encoding="utf-8")
    calls, lists, results = [], set(), []
    annotate, ablation_grid = pipeline.annotate, evalkit.ablation_grid

    def counting(instances, lex, variant):
        calls.append((instances[0].id.split("-")[0], variant))
        lists.add(id(instances))
        return annotate(instances, lex, variant)

    monkeypatch.setattr(pipeline, "annotate", counting)
    monkeypatch.setattr(evalkit, "ablation_grid", lambda *a: results.extend(ablation_grid(*a))
                        or results)
    assert run(["ablate", "--grid", str(grid), "--data", str(data_dir), "--eval-split",
                eval_split, "--out", str(tmp_path / "abl")]) == 0
    # train once per variant in grid order, after the eval split once with the
    # default variant; an eval on the train split reuses a train annotation
    trains = [("train", "SPL"), ("train", "ISL"), ("train", "EPL")]
    assert calls == (trains if eval_split == "train" else [(eval_split, "ISL")] + trains)
    assert len(lists) == (1 if eval_split == "train" else 2)  # one raw list serves both
    # the same reports as one fresh train + annotate + evaluate per config: the
    # eval split's label signal, whatever its variant, never reaches prediction
    manifest, splits = cli._load_data_dir(data_dir)
    lexicon = sentiment.load_lexicon()
    for config, report in results[1::2]:
        train, _ = annotate(splits["train"], lexicon, config.isl_variant)
        record = trainer.train(config, train, manifest.relations)
        prepared, _ = annotate(splits[eval_split], lexicon, config.isl_variant)
        alone = evalkit.evaluate(record.state, prepared, manifest.entity_types)
        assert np.array_equal(alone.confusion, report.confusion)


@pytest.mark.parametrize("command, extra, split", [
    ("gradcheck", [], "train"),
    ("ablate", [], "train"),
    ("ablate", ["--eval-split", "bogus"], "bogus"),
])
def test_missing_split_exits_one_before_training(tmp_path, data_dir, monkeypatch, capsys,
                                                 command, extra, split):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(trainer, "gradcheck", lambda *a, **k: calls.append(a))
    data = tmp_path / "data"
    data.mkdir()
    for name in ("manifest.json", "train.jsonl", "dev.jsonl", "test.jsonl"):
        if name != f"{split}.jsonl":
            shutil.copy(data_dir / name, data / name)
    argv = [command, "--data", str(data), "--out", str(tmp_path / "o"), *extra]
    if command == "ablate":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"epochs": 1}]), encoding="utf-8")
        argv += ["--grid", str(grid)]
    assert run(argv) == 1
    assert calls == []
    assert f"{data}: no '{split}' split" in capsys.readouterr().err
    assert not (tmp_path / "o" / "log.txt").exists()


def test_train_and_ablate_read_only_the_splits_they_use(tmp_path, data_dir):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "dev.jsonl").write_text("not json\n", encoding="utf-8")
    cfg = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32, "batch_size": 8}
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    (tmp_path / "grid.json").write_text(json.dumps([cfg]), encoding="utf-8")
    assert run(["train", "--config", str(tmp_path / "config.json"), "--data", str(data),
                "--out", str(tmp_path / "t")]) == 0
    assert run(["ablate", "--grid", str(tmp_path / "grid.json"), "--data", str(data),
                "--out", str(tmp_path / "a")]) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda m: [m], "expected a JSON object, got list"),
    (lambda m: {k: v for k, v in m.items() if k != "entity_types"}, "missing key 'entity_types'"),
    (lambda m: dict(m, relations="profit_of"), "relations must be a list of str"),
    (lambda m: dict(m, relations=[1, 2]), "relations must be a list of str"),
    (lambda m: dict(m, entity_types=[]), "entity_types must be an object of"),
    (lambda m: dict(m, entity_types={r: [*p, "X"] for r, p in m["entity_types"].items()}),
     "entity_types must be an object of"),
    (lambda m: dict(m, split_sizes={"train": "48"}), "split_sizes must be an object of ints"),
    (lambda m: dict(m, split_sizes=dict(m["split_sizes"], train=-3)),
     "split sizes must be >= 0, got {'dev': 16, 'test': 16, 'train': -3}"),
    (lambda m: dict(m, seed="5"), "seed must be int, got '5'"),
    (lambda m: dict(m, seed=5.0), "seed must be int, got 5.0"),
    (lambda m: dict(m, no_relation_label=["x"]), "no_relation_label must be str"),
    (lambda m: dict(m, no_relation_label="no_relaton"),
     "no_relation_label 'no_relaton' is not one of the relations"),
    (lambda m: dict(m, relations=["no_relation"]), "need at least 2 relation labels"),
], ids=["list", "no-entity_types", "str-relations", "int-relation", "list-entity_types",
        "3-list-entity_type", "str-split_size", "negative-split_size", "str-seed", "float-seed",
        "list-no_relation_label", "unknown-no_relation_label", "one-relation"])
def test_malformed_manifest_exits_one(tmp_path, data_dir, train_dir, capsys, edit, message):
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "manifest.json").write_text(json.dumps(edit(manifest)), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    for argv in (["train", "--config", str(cfg), "--data", str(data)],
                 ["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                  "--split", str(data / "test.jsonl"),
                  "--manifest", str(data / "manifest.json")]):
        assert run([*argv, "--out", str(tmp_path / "o")]) == 1
        assert f"{data / 'manifest.json'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_split_relation_outside_the_manifest_names_both_files(tmp_path, data_dir, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    manifest["relations"].remove("profit_of")
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{data / 'train.jsonl'}: " in err and "relation 'profit_of'" in err
    assert str(data / "manifest.json") in err


@pytest.mark.parametrize("kind", ["config", "grid", "manifest"])
def test_malformed_json_file_is_named(tmp_path, data_dir, capsys, kind):
    cfg, grid = tmp_path / "config.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    grid.write_text(json.dumps([{"epochs": 1}]), encoding="utf-8")
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    bad = {"config": cfg, "grid": grid, "manifest": data / "manifest.json"}[kind]
    bad.write_text("{\n", encoding="utf-8")
    argv = (["ablate", "--grid", str(grid)] if kind == "grid"
            else ["train", "--config", str(cfg)])
    assert run([*argv, "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {bad}: bad JSON: Expecting property name" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("gain\tpositive\nloss negative\n", "lexicon line 2: expected word<TAB>polarity"),
    ("gain\tpositive\ngain\tnegative\n", "lexicon cue sets overlap: ['gain']"),
], ids=["no-tab", "overlap"])
def test_malformed_lexicon_is_named(tmp_path, data_dir, capsys, text, message):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(text, encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(data_dir),
                "--lexicon", str(lexicon), "--out", str(tmp_path / "o")]) == 1
    assert f"{lexicon}: {message}" in capsys.readouterr().err


def _relabel(src, dst, old, new):
    """Copy a corpus directory, renaming relation label ``old`` to ``new``."""
    dst.mkdir()
    manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
    manifest["relations"] = [new if r == old else r for r in manifest["relations"]]
    manifest["entity_types"] = {new if r == old else r: pair
                                for r, pair in manifest["entity_types"].items()}
    manifest["no_relation_label"] = new
    (dst / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for split in ("train", "dev", "test"):
        recs = [json.loads(line) for line in
                (src / f"{split}.jsonl").read_text(encoding="utf-8").splitlines()]
        for rec in recs:
            rec["relation"] = new if rec["relation"] == old else rec["relation"]
        (dst / f"{split}.jsonl").write_text(
            "".join(json.dumps(rec) + "\n" for rec in recs), encoding="utf-8")


def test_manifest_no_relation_label_is_honoured(tmp_path, data_dir, train_dir):
    other = tmp_path / "other"
    _relabel(data_dir, other, "no_relation", "other")
    state = encoder.load_checkpoint(train_dir / "model.ckpt")
    state.relations = ["other" if r == "no_relation" else r for r in state.relations]
    encoder.save_checkpoint(state, tmp_path / "other.ckpt")

    def micro_f1(ckpt, data, out):
        assert run(["eval", "--checkpoint", str(ckpt), "--split", str(data / "dev.jsonl"),
                    "--manifest", str(data / "manifest.json"), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
        return next(line for line in lines if "micro_f1" in line)

    assert (micro_f1(train_dir / "model.ckpt", data_dir, tmp_path / "e1")
            == micro_f1(tmp_path / "other.ckpt", other, tmp_path / "e2"))

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"epochs": 1, "layers": 2, "heads": 2, "d_model": 16,
                                 "d_ff": 32, "batch_size": 8}]), encoding="utf-8")
    for data, out in ((data_dir, tmp_path / "a1"), (other, tmp_path / "a2")):
        assert run(["ablate", "--grid", str(grid), "--data", str(data),
                    "--eval-split", "dev", "--out", str(out)]) == 0
    assert ((tmp_path / "a1" / "grid.csv").read_bytes()
            == (tmp_path / "a2" / "grid.csv").read_bytes())


def test_eval_scores_only_against_the_checkpoints_manifest(tmp_path, data_dir, capsys):
    """The manifest is eval's one source of relations and negative class, and
    it must hold the relations the checkpoint was trained on."""
    other = tmp_path / "other"
    _relabel(data_dir, other, "no_relation", "other")
    unknown = tmp_path / "unknown.json"
    manifest = json.loads((other / "manifest.json").read_text(encoding="utf-8"))
    manifest["relations"] = ["acquired_by" if r == "debt_of" else r for r in manifest["relations"]]
    manifest["entity_types"]["acquired_by"] = manifest["entity_types"].pop("debt_of")
    unknown.write_text(json.dumps(manifest), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, "layers": 1, "heads": 1, "d_model": 8, "d_ff": 16,
                               "batch_size": 8}), encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(other),
                "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    argv = ["eval", "--checkpoint", str(ckpt), "--split", str(other / "dev.jsonl"),
            "--out", str(tmp_path / "e")]
    capsys.readouterr()
    assert run(argv) == 1
    assert "the following arguments are required: --manifest" in capsys.readouterr().err
    for wrong in (data_dir / "manifest.json", unknown):
        assert run([*argv, "--manifest", str(wrong)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: relations " in err and f"are not those of {wrong}" in err
    assert not (tmp_path / "e").exists()
    assert run([*argv, "--manifest", str(other / "manifest.json")]) == 0
    assert (tmp_path / "e" / "report.txt").exists()


def test_diverging_run_exits_two(tmp_path, data_dir, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, "layers": 1, "heads": 1, "d_model": 8, "d_ff": 16,
                               "batch_size": 8, "lr": 1e6, "optimizer": "sgd"}),
                   encoding="utf-8")
    assert run(["train", "--config", str(cfg), "--data", str(data_dir),
                "--out", str(tmp_path / "run")]) == 2
    assert "runtime failure: non-finite loss term" in capsys.readouterr().err


def test_train_is_byte_identical_across_thread_counts(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--seed", "11", "--out", str(data),
                     "--train", "200", "--dev", "8", "--test", "8"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epochs": 1, "layers": 2, "heads": 4, "d_model": 64,
                               "d_ff": 128, "batch_size": 16}), encoding="utf-8")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(ssdpsem.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    instance = json.loads((data / "test.jsonl").read_text(encoding="utf-8")
                          .splitlines()[0])["id"]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        for argv in (["train", "--config", str(cfg), "--data", str(data), "--out", str(out)],
                     ["inspect", "--instance", instance, "--checkpoint", str(out / "model.ckpt"),
                      "--data", str(data / "test.jsonl"), "--out", str(out / "inspect")]):
            subprocess.run([sys.executable, "-m", "ssdpsem.cli", *argv],
                           env=dict(env, SSDP_THREADS=threads), check=True, timeout=300,
                           capture_output=True)
        outputs.append([(out / name).read_bytes() for name in
                        ("metrics.csv", "model.ckpt", f"inspect/attention_{instance}.csv")])
    assert outputs[0] == outputs[1]
