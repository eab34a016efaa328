"""Input fuzz: one field or one row of one input file is changed at a time,
and the command reading it must then exit 0, or exit 1 with a message that
names the changed file.  Exit 2 is for runtime failures, never bad input.

Covered: JSONL records, CoNLL-U rows, CoNLL-U sidecar rows, manifest.json,
``--config`` and ``--grid`` entries, lexicon lines and the checkpoint
header.  Values come from a small fixed pool, so no size key can ask for a
large model; every run is derandomized and bounded.  Two fixed tests add a
file that is not UTF-8 and JSON that json.loads refuses.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from ssdpsem import cli, encoder, sentiment

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

VALUES = [None, True, False, 0, 1, -1, 2, 0.5, "", "x", "positive", "root",
          [], [0], [0, 1], [1, 0], {}, {"x": 1}]
FIELDS = ["", "_", "0", "1", "2", "-1", "-3", "9", "1.1", "1-2", "x"]
# every TrainConfig key, at a model small enough to train in milliseconds
CONFIG = {"layers": 1, "heads": 1, "d_model": 4, "d_ff": 4, "max_len": 64, "last_k": 1,
          "epochs": 1, "batch_size": 4, "lr": 0.001, "optimizer": "adam", "seed": 0,
          "mode": "asp_saib", "isl_variant": "ISL", "lambda_asp": 1.0}

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def json_edits(draw, value, min_depth=0):
    """``value`` with one node replaced by a pool value, removed or repeated
    (in an object, under a new key).  The node is found by descending from
    the root, into a child drawn uniformly, with odds 3:1 at each level (and
    always above ``min_depth``), so each key of an object is as likely as
    the next, however large its value."""
    value = copy.deepcopy(value)
    parent, key, node, depth = None, None, value, 0
    while (isinstance(node, (dict, list)) and node
           and (depth < min_depth or draw(st.integers(0, 3)) > 0)):
        parent, depth = node, depth + 1
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(st.sampled_from(VALUES))
    op = draw(st.sampled_from(["replace", "remove", "repeat"]))
    if op == "replace":
        parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    elif op == "remove":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent["x"] = copy.deepcopy(parent[key])
    return value


@st.composite
def line_edits(draw, lines):
    """``lines`` with one non-blank line changed in one tab-separated field,
    cut short by its last field, removed or repeated."""
    lines = list(lines)
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    cols = lines[i].split("\t")
    op = draw(st.sampled_from(["field", "short", "remove", "repeat"]))
    if op == "field":
        cols[draw(st.integers(0, len(cols) - 1))] = draw(st.sampled_from(FIELDS))
        lines[i] = "\t".join(cols)
    elif op == "short":
        lines[i] = "\t".join(cols[:-1])
    elif op == "remove":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return lines


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny corpus, a model trained on it, and the other files each
    command reads, all well-formed."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert cli.main(["synth", "--seed", "3", "--out", str(data),
                     "--train", "8", "--dev", "4", "--test", "4"]) == 0
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    assert cli.main(["train", "--config", str(root / "config.json"), "--data", str(data),
                     "--out", str(root / "run")]) == 0
    records = [json.loads(line) for line in
               (data / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    conllu = []
    for rec in records:
        conllu.append(f"# sent_id = {rec['id']}")
        conllu += [f"{i + 1}\t{form}\t_\t_\t_\t_\t{head + 1}\t{deprel}\t_\t_"
                   for i, (form, head, deprel)
                   in enumerate(zip(rec["tokens"], rec["heads"], rec["deprels"]))]
        conllu.append("")
    sidecar = [{k: v for k, v in rec.items() if k not in ("tokens", "heads", "deprels")}
               for rec in records]
    blob = (root / "run" / "model.ckpt").read_bytes()
    start = len(encoder._MAGIC) + 8
    end = start + int.from_bytes(blob[start - 8:start], "little")
    lexicon = (Path(sentiment.__file__).parent / "data" / "financial_lexicon.tsv")
    return {
        "data": data,
        "records": records,
        "conllu": conllu,
        "sidecar": sidecar,
        "manifest": json.loads((data / "manifest.json").read_text(encoding="utf-8")),
        "checkpoint": (blob, start, end),
        "lexicon": lexicon.read_text(encoding="utf-8").splitlines()[:8],
    }


def _write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def _exits_zero_or_names(argv, changed):
    """Run ``ssdp argv``: exit 0, or exit 1 naming the changed file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert str(changed) in err.getvalue(), err.getvalue()


@contextlib.contextmanager
def _workdir(inputs):
    """A temporary directory holding a copy of the corpus as ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(inputs["data"], tmp / "data")
        (tmp / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
        yield tmp


@fuzz
@given(data=st.data())
def test_jsonl_record_edits(inputs, data):
    records = data.draw(json_edits(inputs["records"], min_depth=1))
    with _workdir(inputs) as tmp:
        split = _write_lines(tmp / "split.jsonl", [json.dumps(r) for r in records])
        _exits_zero_or_names(["eval", "--checkpoint", inputs["data"].parent / "run/model.ckpt",
                              "--split", split, "--manifest", tmp / "data" / "manifest.json",
                              "--out", tmp / "o"], split)


@fuzz
@given(data=st.data())
def test_conllu_row_edits(inputs, data):
    lines = data.draw(line_edits(inputs["conllu"]))
    with _workdir(inputs) as tmp:
        conllu = _write_lines(tmp / "x.conllu", lines)
        sidecar = _write_lines(tmp / "x.jsonl", [json.dumps(r) for r in inputs["sidecar"]])
        _exits_zero_or_names(["annotate", "--conllu", conllu, sidecar,
                              "--out", tmp / "o"], conllu)


@fuzz
@given(data=st.data())
def test_sidecar_row_edits(inputs, data):
    rows = data.draw(json_edits(inputs["sidecar"], min_depth=1))
    with _workdir(inputs) as tmp:
        conllu = _write_lines(tmp / "x.conllu", inputs["conllu"])
        sidecar = _write_lines(tmp / "x.jsonl", [json.dumps(r) for r in rows])
        _exits_zero_or_names(["annotate", "--conllu", conllu, sidecar,
                              "--out", tmp / "o"], sidecar)


@fuzz
@given(data=st.data())
def test_manifest_edits(inputs, data):
    manifest = data.draw(json_edits(inputs["manifest"]))
    with _workdir(inputs) as tmp:
        path = tmp / "data" / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        _exits_zero_or_names(["train", "--config", tmp / "config.json", "--data", tmp / "data",
                              "--out", tmp / "o"], path)


@fuzz
@given(data=st.data())
def test_config_edits(inputs, data):
    config = data.draw(json_edits(CONFIG))
    with _workdir(inputs) as tmp:
        path = tmp / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        _exits_zero_or_names(["train", "--config", path, "--data", tmp / "data",
                              "--out", tmp / "o"], path)


@fuzz
@given(data=st.data())
def test_grid_entry_edits(inputs, data):
    grid = data.draw(json_edits([CONFIG, dict(CONFIG, mode="baseline")]))
    with _workdir(inputs) as tmp:
        path = tmp / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        _exits_zero_or_names(["ablate", "--grid", path, "--data", tmp / "data",
                              "--eval-split", "dev", "--out", tmp / "o"], path)


@fuzz
@given(data=st.data())
def test_lexicon_line_edits(inputs, data):
    lines = data.draw(line_edits(inputs["lexicon"]))
    with _workdir(inputs) as tmp:
        lexicon = _write_lines(tmp / "lexicon.tsv", lines)
        _exits_zero_or_names(["annotate", "--jsonl", tmp / "data" / "test.jsonl",
                              "--lexicon", lexicon, "--out", tmp / "o"], lexicon)


@fuzz
@given(data=st.data())
def test_checkpoint_header_edits(inputs, data):
    blob, start, end = inputs["checkpoint"]
    header = data.draw(json_edits(json.loads(blob[start:end])))
    text = json.dumps(header).encode("utf-8")
    with _workdir(inputs) as tmp:
        path = tmp / "model.ckpt"
        path.write_bytes(blob[:start - 8] + len(text).to_bytes(8, "little") + text + blob[end:])
        _exits_zero_or_names(["eval", "--checkpoint", path, "--split",
                              tmp / "data" / "test.jsonl", "--manifest",
                              tmp / "data" / "manifest.json", "--out", tmp / "o"], path)


def _reader(inputs, tmp, kind):
    """(argv, path): the command line that reads the input file of ``kind``
    in the work directory ``tmp``, and that file; every input it reads is
    written well-formed first."""
    data, config, grid = tmp / "data", tmp / "config.json", tmp / "grid.json"
    grid.write_text(json.dumps([CONFIG]), encoding="utf-8")
    conllu = _write_lines(tmp / "x.conllu", inputs["conllu"])
    sidecar = _write_lines(tmp / "x.jsonl", [json.dumps(r) for r in inputs["sidecar"]])
    lexicon = _write_lines(tmp / "lexicon.tsv", inputs["lexicon"])
    checkpoint = tmp / "model.ckpt"
    checkpoint.write_bytes(inputs["checkpoint"][0])
    annotate = ["annotate", "--conllu", conllu, sidecar]
    train = ["train", "--config", config, "--data", data]
    evaluate = ["eval", "--checkpoint", checkpoint, "--split", data / "test.jsonl",
                "--manifest", data / "manifest.json"]
    return {
        "split": (evaluate, data / "test.jsonl"),
        "conllu": (annotate, conllu),
        "sidecar": (annotate, sidecar),
        "lexicon": (["annotate", "--jsonl", data / "test.jsonl", "--lexicon", lexicon], lexicon),
        "config": (train, config),
        "grid": (["ablate", "--grid", grid, "--data", data, "--eval-split", "dev"], grid),
        "manifest": (train, data / "manifest.json"),
        "checkpoint": (evaluate, checkpoint),
    }[kind]


def _exit_and_stderr(argv, tmp):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in [*argv, "--out", tmp / "o"]])
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ["split", "conllu", "sidecar", "lexicon", "config", "grid",
                                  "manifest"])
def test_file_that_is_not_utf8_is_named(inputs, kind):
    """A 0xff byte in one input file exits 1 naming the file, and the line
    where the reader goes line by line."""
    with _workdir(inputs) as tmp:
        argv, path = _reader(inputs, tmp, kind)
        lines = path.read_bytes().split(b"\n")
        line = 2 if kind in ("split", "conllu", "sidecar", "lexicon") else 1
        lines[line - 1] = b"\xff" + lines[line - 1]
        path.write_bytes(b"\n".join(lines))
        code, err = _exit_and_stderr(argv, tmp)
        where = f"{path}:{line}" if line == 2 else str(path)
        assert code == 1 and f"error: {where}: not UTF-8" in err, err


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "9" * 5000],
                         ids=["deep-array", "long-integer"])
@pytest.mark.parametrize("kind", ["split", "sidecar", "manifest", "config", "grid",
                                  "checkpoint"])
def test_json_that_json_loads_refuses_is_named(inputs, kind, text):
    """JSON nested past the recursion limit, or an integer past the digit
    limit, as one line (a split record, a sidecar row), the whole file or
    the checkpoint header exits 1 naming the file, and the line where the
    reader goes line by line: json.loads raises RecursionError or a plain
    ValueError for these, not a JSONDecodeError."""
    with _workdir(inputs) as tmp:
        argv, path = _reader(inputs, tmp, kind)
        raw = text.encode("utf-8")
        if kind == "checkpoint":
            blob, start, end = inputs["checkpoint"]
            path.write_bytes(blob[:start - 8] + len(raw).to_bytes(8, "little") + raw
                             + blob[end:])
        elif kind in ("split", "sidecar"):
            lines = path.read_bytes().split(b"\n")
            lines[1] = raw
            path.write_bytes(b"\n".join(lines))
        else:
            path.write_bytes(raw)
        code, err = _exit_and_stderr(argv, tmp)
        where = f"{path}:2" if kind in ("split", "sidecar") else str(path)
        assert code == 1 and f"error: {where}: " in err, err
