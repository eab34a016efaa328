"""The seed-11 pipeline's outputs, pinned by sha256.

Every command of a small pipeline runs through ``cli.main``, and each output
file's digest is compared with the value it had when the pins were taken.  A
refactor that claims byte-identical outputs passes this test unchanged; a
change that moves bits on purpose updates the pins and lists the old and new
digests.  The pins belong to numpy 2.4.6 over scipy-openblas 0.3.31: a
mismatch prints the numpy version and its BLAS, so a different numeric stack
is told apart from a changed program.
"""

import hashlib
import json

import numpy as np

from ssdpsem import cli

REFERENCE = {"layers": 2, "heads": 2, "d_model": 16, "d_ff": 32, "seed": 0}
WIDE = {"epochs": 1, "seed": 0, "mode": "asp_saib"}  # the default 4x4x64 encoder
MODES = ("baseline", "asp", "saib", "asp_saib")

# output file -> sha256, taken before the step input became one record
PINNED_SHA256 = {
    "ann/annotated.jsonl":
        "9d6515c33d02cae10c499c32e230ce7605a8b0996444c7af4a7351aa9f28d0bb",
    "ann/annotate_stats.json":
        "6b612b8d09e0d623f4244aa4aa17076edfac6c4d668634a989a2cd096971ba2b",
    "train/metrics.csv":
        "c6feb8fe5d875a3381a371b9accd4a15962bd440dbf57e52de139f337acb3ec3",
    "train/model.ckpt":
        "46210805f3c337d15c40da98d7993f0a84ddfb97f0d148e024749b99288c9bc0",
    "eval/report.txt":
        "bd01849bfac405e3282c26b741b6efffaa3df21e8427f4b50e12a66a8ef76fa7",
    "eval/per_relation.csv":
        "ab119ac0e091bb931d7f7af0640155d68b7a867c21ba97a141121a53315e9af8",
    "ablate/grid.csv":
        "bd0490abb06cbd0cf4d2aeabf40641e6345b950ba0d7d391d43f9274949ac8ca",
    "gradcheck/gradcheck.txt":
        "a13f89c49c504f9791345adb703f63e190702b3a83937cbc7721bb00e14ca4a6",
    "inspect/attention_test-00000.csv":
        "f1061d6a76db49ecf0cc56e908df71f88e24668dd1db49121d9739c27dd1f2b2",
    "inspect/attention_test-00000.svg":
        "55750cb29bc7cd667e3ffabd66264da8fe170569fb8ef68c61f77ebe90e426e9",
    # the only written copy of the marked attention mass; pinned before that
    # mass came from the prediction record
    "inspect/log.txt":
        "73cb032aaf6603f524bf091da5b36a2622f0a666da1b3fa2ebe1473c1f43f305",
    # the default config and the SDP dump, pinned before the annotation
    # record became (augmented, Q, variant)
    "wide/metrics.csv":
        "c1adad9f5a2859fafbea2a9e8f05db1023aa5cf8a7ac735786f2712138fe7026",
    "wide/model.ckpt":
        "a8d3b1f4b8a744e745864f4fb6fbdf81121ef580f36f385863d3b7a62da8b2de",
    "wide_eval/report.txt":
        "c55ab93fc0a61e2a1f3efb918214efeef2ecdefd8ac81a55724e06ad72deaa13",
    "wide_eval/per_relation.csv":
        "4e0f1617603924354cd8f92859132dea640ee44ee65b8d8369f1d23e1f157989",
    "sdp/sdp.jsonl":
        "088325fc5504ee80564823702b76e18ce97671d70ae199bda7bf10b78f16794c",
}


def _blas():
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {key: deps["blas"].get(key) for key in ("name", "version")}


def test_seed11_pipeline_outputs_are_pinned(tmp_path):
    data = tmp_path / "data"
    train_cfg, grid = tmp_path / "train.json", tmp_path / "grid.json"
    wide_cfg = tmp_path / "wide.json"
    train_cfg.write_text(json.dumps({**REFERENCE, "epochs": 2, "mode": "asp_saib"}),
                         encoding="utf-8")
    grid.write_text(json.dumps([{**REFERENCE, "epochs": 1, "mode": m} for m in MODES]),
                    encoding="utf-8")
    wide_cfg.write_text(json.dumps(WIDE), encoding="utf-8")
    ckpt = str(tmp_path / "train" / "model.ckpt")
    commands = [
        ["synth", "--seed", "11", "--train", "200", "--dev", "40", "--test", "40",
         "--out", str(data)],
        ["annotate", "--jsonl", str(data / "train.jsonl"), "--out", str(tmp_path / "ann")],
        ["train", "--config", str(train_cfg), "--data", str(data),
         "--out", str(tmp_path / "train")],
        ["eval", "--checkpoint", ckpt, "--split", str(data / "test.jsonl"),
         "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "eval")],
        ["ablate", "--grid", str(grid), "--data", str(data), "--out", str(tmp_path / "ablate")],
        ["gradcheck", "--out", str(tmp_path / "gradcheck")],
        ["inspect", "--instance", "test-00000", "--checkpoint", ckpt,
         "--data", str(data / "test.jsonl"), "--out", str(tmp_path / "inspect")],
        ["train", "--config", str(wide_cfg), "--data", str(data),
         "--out", str(tmp_path / "wide")],
        ["eval", "--checkpoint", str(tmp_path / "wide" / "model.ckpt"),
         "--split", str(data / "test.jsonl"), "--manifest", str(data / "manifest.json"),
         "--out", str(tmp_path / "wide_eval")],
        ["sdp", "dump", "--jsonl", str(data / "train.jsonl"), "--out", str(tmp_path / "sdp")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256, f"numpy {np.__version__}, BLAS {_blas()}"
