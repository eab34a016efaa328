"""End-to-end command-line interface: run directories, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ssdpsem
from ssdpsem import cli, encoder


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
    """Prediction never reads the label signal, so eval offers no variant."""
    assert run(["eval", "--checkpoint", str(train_dir / "model.ckpt"),
                "--split", str(data_dir / "test.jsonl"), "--variant", "SPL",
                "--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments: --variant SPL" in capsys.readouterr().err


def test_annotate_from_jsonl(tmp_path, data_dir):
    out = tmp_path / "ann"
    assert run(["annotate", "--jsonl", str(data_dir / "dev.jsonl"),
                "--variant", "SPL", "--out", str(out)]) == 0
    stats = json.loads((out / "annotate_stats.json").read_text(encoding="utf-8"))
    assert stats["instances"] == 16
    lines = (out / "annotated.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    first = json.loads(lines[0])
    assert first["tokens"][0] in ("positive", "negative")


def test_annotate_requires_an_input(tmp_path, capsys):
    assert run(["annotate", "--out", str(tmp_path / "x")]) == 1
    assert "provide" in capsys.readouterr().err


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
], ids=["reversed-shape", "unknown-config-key", "no-config", "str-heads", "float-d_ff",
        "float-last_k", "extra-vocab-word", "extra-relation", "pre-change-config"])
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
                "--out", str(tmp_path / "o")]) == 1
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
], ids=["not-an-object", "one-element-span", "list-relation"])
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
                "--split", str(split), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert rec["id"] in err and "'acquired_by'" in err


def test_annotated_output_is_rejected_as_input(tmp_path, data_dir, train_dir, capsys):
    ann = tmp_path / "ann"
    assert run(["annotate", "--jsonl", str(data_dir / "test.jsonl"), "--out", str(ann)]) == 0
    annotated = ann / "annotated.jsonl"
    first = json.loads(annotated.read_text(encoding="utf-8").splitlines()[0])
    assert "isl" not in first
    ckpt = str(train_dir / "model.ckpt")
    assert run(["eval", "--checkpoint", ckpt, "--split", str(annotated),
                "--out", str(tmp_path / "e")]) == 1
    assert f"{first['id']}: already starts with a sentiment token" in capsys.readouterr().err
    assert run(["inspect", "--instance", first["id"], "--checkpoint", ckpt,
                "--data", str(annotated), "--out", str(tmp_path / "i")]) == 1
    assert f"{first['id']}: already starts with a sentiment token" in capsys.readouterr().err


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
])
def test_ablate_validates_every_entry_before_training(tmp_path, data_dir, monkeypatch,
                                                      capsys, bad, key):
    calls = []
    monkeypatch.setattr(cli.trainer, "train", lambda *a, **k: calls.append(a))
    base = {"epochs": 1, "layers": 2, "heads": 2, "d_model": 16, "d_ff": 32}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([base, dict(base, **bad)]), encoding="utf-8")
    assert run(["ablate", "--grid", str(grid), "--data", str(data_dir),
                "--out", str(tmp_path / "abl")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "grid entry 1" in err and key in err


@pytest.mark.parametrize("command, extra, split", [
    ("gradcheck", [], "train"),
    ("ablate", [], "train"),
    ("ablate", ["--eval-split", "bogus"], "bogus"),
])
def test_missing_split_exits_one_before_training(tmp_path, data_dir, monkeypatch, capsys,
                                                 command, extra, split):
    calls = []
    monkeypatch.setattr(cli.trainer, "train", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli.trainer, "gradcheck", lambda *a, **k: calls.append(a))
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
    (lambda m: dict(m, seed="5"), "seed must be int, got '5'"),
    (lambda m: dict(m, seed=5.0), "seed must be int, got 5.0"),
    (lambda m: dict(m, no_relation_label=["x"]), "no_relation_label must be str"),
], ids=["list", "no-entity_types", "str-relations", "int-relation", "list-entity_types",
        "3-list-entity_type", "str-split_size", "str-seed", "float-seed",
        "list-no_relation_label"])
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
