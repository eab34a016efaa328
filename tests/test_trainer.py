"""Training-loop determinism, optimizers, batching, and the gradient suite."""

import random
import re
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ssdpsem import encoder as enc
from ssdpsem import objectives as obj
from ssdpsem import corpus, pipeline, trainer
from ssdpsem.corpus import ConfigError

from test_encoder import tiny_state
from test_objectives import CONFIG, FULL, make_batch


SMALL = dict(layers=2, heads=2, d_model=16, d_ff=32, batch_size=8)


def test_config_validation():
    with pytest.raises(ConfigError):
        trainer.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        trainer.TrainConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        trainer.TrainConfig(isl_variant="XPL")
    with pytest.raises(ConfigError):
        trainer.TrainConfig(mode="+ASP+SAIB")


def test_train_config_extends_the_encoder_config():
    """The encoder keys are declared once; encoder_config copies just them."""
    cfg = trainer.TrainConfig(heads=2, d_model=16, seed=3)
    assert isinstance(cfg, enc.EncoderConfig)
    assert cfg.encoder_config() == enc.EncoderConfig(heads=2, d_model=16)
    with pytest.raises(ValueError, match="not divisible"):
        trainer.TrainConfig(heads=3, d_model=8)
    with pytest.raises(ConfigError, match="lr must be of type float, got str"):
        trainer.TrainConfig(lr="0.1")


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## TrainConfig keys", 1)[1].split("\n## ", 1)[0]
    keys = [key for row in table.splitlines() if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(trainer.TrainConfig))


def test_sgd_lr_zero_is_identity():
    state = tiny_state()
    before = {k: v.copy() for k, v in state.params.items()}
    obj.batch_losses(state, make_batch(state), FULL, CONFIG)
    trainer.SgdOptimizer(lr=0.0).step(state.flat, state.grad_flat)
    for name in before:
        assert np.array_equal(state.params[name], before[name])


def test_adam_lr_zero_is_identity():
    state = tiny_state()
    before = {k: v.copy() for k, v in state.params.items()}
    obj.batch_losses(state, make_batch(state), FULL, CONFIG)
    trainer.AdamOptimizer(lr=0.0).step(state.flat, state.grad_flat)
    for name in before:
        assert np.array_equal(state.params[name], before[name])


def test_adam_step_is_bit_identical_to_textbook_formula():
    rng = np.random.default_rng(3)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for shapes in (
        {"w": (40, 16), "b": (16,), "emb": (30, 8)},
        # two full ADAM_BLOCKs and a remainder, with blocks that straddle arrays
        {"w": (250, 128), "b": (700,), "emb": (30, 8)},
    ):
        offsets = np.cumsum([0] + [int(np.prod(s)) for s in shapes.values()])
        slices = {k: slice(lo, hi) for k, lo, hi in zip(shapes, offsets, offsets[1:])}
        flat = np.concatenate([rng.normal(size=s).ravel() for s in shapes.values()])
        params = {k: flat[slices[k]].reshape(s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = trainer.AdamOptimizer(lr, b1, b2, eps)
        for t in range(1, 8):
            # many exact zeros, as in the embedding gradient
            grad_flat = np.concatenate(
                [(rng.normal(size=s) * (rng.random(s) < 0.4)).ravel() for s in shapes.values()])
            grads = {k: grad_flat[slices[k]].reshape(s) for k, s in shapes.items()}
            saved = {k: g.copy() for k, g in grads.items()}
            opt.step(flat, grad_flat)
            for k, g in grads.items():
                assert np.array_equal(g, saved[k])  # gradients are not overwritten
                m[k] = m[k] + (1 - b1) * (g - m[k])
                v[k] = v[k] + (1 - b2) * (g * g - v[k])
                mhat = m[k] / (1 - b1**t)
                vhat = v[k] / (1 - b2**t)
                ref[k] = ref[k] - lr * mhat / (np.sqrt(vhat) + eps)
                assert params[k].tobytes() == ref[k].tobytes()
    assert offsets[-1] > 2 * trainer.ADAM_BLOCK


def test_train_rejects_prepared_split_of_another_variant(small_splits, small_manifest,
                                                         lexicon):
    prepared, _ = pipeline.annotate(small_splits["train"], lexicon, "SPL")
    cfg = trainer.TrainConfig(epochs=1, isl_variant="ISL", **SMALL)
    with pytest.raises(ValueError, match="not annotated with ISL"):
        trainer.train(cfg, prepared, small_manifest.relations)


def test_adam_and_sgd_agree_on_first_step_sign():
    state_a, state_b = tiny_state(seed=2), tiny_state(seed=2)
    obj.batch_losses(state_a, make_batch(state_a), FULL, CONFIG)
    grads = state_a.grads
    before = {k: v.copy() for k, v in state_a.params.items()}
    trainer.SgdOptimizer(lr=1e-3).step(state_a.flat, state_a.grad_flat)
    trainer.AdamOptimizer(lr=1e-3).step(state_b.flat, state_a.grad_flat)
    for name, g in grads.items():
        moved = np.abs(g) > 1e-12
        delta_sgd = np.sign(state_a.params[name] - before[name])[moved]
        delta_adam = np.sign(state_b.params[name] - before[name])[moved]
        assert np.array_equal(delta_sgd, delta_adam)


def test_make_batches_same_length_and_seeded():
    encoded = [(np.zeros(5 + (i % 3)), None, 0) for i in range(20)]

    def shuffled(seed):
        order = list(range(20))
        random.Random(seed).shuffle(order)
        return order

    batches_a = trainer.make_batches(encoded, 4, shuffled("s"))
    batches_b = trainer.make_batches(encoded, 4, shuffled("s"))
    assert batches_a == batches_b
    assert batches_a != trainer.make_batches(encoded, 4, shuffled("t"))
    covered = sorted(i for b in batches_a for i in b)
    assert covered == list(range(20))
    for batch in batches_a:
        lengths = {len(encoded[i][0]) for i in batch}
        assert len(lengths) == 1
        assert len(batch) <= 4


def test_make_batches_in_index_order_chunks_each_length():
    """Eval batching: for each length, consecutive index-order chunks of
    batch_size, so every instance meets the same batch mates as when its
    length's instances are chunked on their own."""
    rng = random.Random(0)
    lengths = [rng.choice((5, 6, 9)) for _ in range(41)]
    encoded = [(np.zeros(n), None, 0) for n in lengths]
    batches = trainer.make_batches(encoded, 4, range(len(encoded)))
    for n in set(lengths):
        idxs = [i for i, m in enumerate(lengths) if m == n]
        expected = [idxs[lo:lo + 4] for lo in range(0, len(idxs), 4)]
        assert [b for b in batches if lengths[b[0]] == n] == expected


def test_train_runs_and_is_deterministic(tmp_path, small_train, small_manifest):
    cfg = trainer.TrainConfig(epochs=2, seed=3, mode="asp_saib", **SMALL)
    outs = []
    for tag in ("a", "b"):
        record = trainer.train(cfg, small_train, small_manifest.relations)
        enc.save_checkpoint(record.state, tmp_path / f"{tag}.ckpt")
        outs.append(record)
    assert outs[0].metrics_rows == outs[1].metrics_rows
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert len(outs[0].epoch_losses) == 2
    header = outs[0].metrics_rows[0]
    assert header == "step,l_re,l_asp,l_ib,total"


def test_train_loss_decreases(small_train, small_manifest):
    cfg = trainer.TrainConfig(epochs=4, seed=0, mode="baseline", **SMALL)
    record = trainer.train(cfg, small_train, small_manifest.relations)
    assert record.epoch_losses[-1]["l_re"] < record.epoch_losses[0]["l_re"]


def test_first_metrics_row_matches_offline_recomputation(small_train, small_manifest):
    """Loss at step 0 equals objectives.batch_losses on the initial state."""
    cfg = trainer.TrainConfig(epochs=1, seed=9, mode="asp_saib", **SMALL)
    state = trainer.init_from_config(cfg, small_train, small_manifest.relations)
    record = trainer.train(cfg, small_train, small_manifest.relations)
    encoded = trainer.encode_prepared(state, small_train)
    order = list(range(len(encoded)))
    random.Random(f"{cfg.seed}:0").shuffle(order)
    first = trainer.make_batches(encoded, cfg.batch_size, order)[0]
    out = obj.batch_losses(state, trainer._collate(encoded, first), obj.MODE_TERMS[cfg.mode],
                           cfg)
    expected = f"0,{out.breakdown.l_re:.6f},{out.breakdown.l_asp:.6f}," \
               f"{out.breakdown.l_ib:.6f},{out.breakdown.total:.6f}"
    assert record.metrics_rows[1] == expected


def test_train_with_sgd_steps_by_lr_times_the_gradient(small_train, small_manifest):
    """optimizer="sgd": the loss logged at step 1 is the loss after one plain
    step, flat -= lr * grad, from the initial state (Adam's would differ)."""
    cfg = trainer.TrainConfig(epochs=1, seed=9, optimizer="sgd", lr=0.05, **SMALL)
    state = trainer.init_from_config(cfg, small_train, small_manifest.relations)
    record = trainer.train(cfg, small_train, small_manifest.relations)
    encoded = trainer.encode_prepared(state, small_train)
    order = list(range(len(encoded)))
    random.Random(f"{cfg.seed}:0").shuffle(order)
    first, second = trainer.make_batches(encoded, cfg.batch_size, order)[:2]
    terms = obj.MODE_TERMS[cfg.mode]
    obj.batch_losses(state, trainer._collate(encoded, first), terms, cfg)
    state.flat -= cfg.lr * state.grad_flat
    b = obj.batch_losses(state, trainer._collate(encoded, second), terms, cfg,
                         value_only=True).breakdown
    assert record.metrics_rows[2] == f"1,{b.l_re:.6f},{b.l_asp:.6f},{b.l_ib:.6f},{b.total:.6f}"


# ---------------------------------------------------------------------------
# Gradient verification harness


def test_gradcheck_passes_on_synthetic_instances(small_train, small_manifest):
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    report = trainer.gradcheck(cfg, small_train[:2], small_manifest.relations,
                               max_coords_per_block=6)
    assert report.passed, [e for e in report.entries if not e.passed]
    assert report.max_rel_err < trainer.GRADCHECK_TOLERANCE
    terms = {e.term for e in report.entries}
    assert terms == {"l_re", "l_asp", "l_ib", "total"}


def test_gradcheck_negative_control_catches_corruption(small_train, small_manifest):
    """A deliberately corrupted gradient block must be flagged."""
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    prepared = small_train[:1]
    state = trainer.init_from_config(cfg, prepared, small_manifest.relations)
    batch = trainer._collate(trainer.encode_prepared(state, prepared), [0])

    def corrupt(term, grads):
        if term == "l_re":
            grads = dict(grads)
            grads["clf.W"] = grads["clf.W"] + 0.5
        return grads

    report = trainer.gradcheck_batch(state, batch, cfg, max_coords_per_block=4,
                                     analytic_override=corrupt)
    failing = {(e.term, e.block) for e in report.entries if not e.passed}
    assert ("l_re", "clf.W") in failing
    assert not report.passed


def test_gradcheck_passes_on_full_training_batches(lexicon):
    """The check on the batches training steps on, not only one-row ones:
    the first three full 16-row batches of the first 400 seed-11 train
    instances in index order, at the reference 2x2x16 encoder."""
    manifest = corpus.default_manifest(seed=11, train=400, dev=1, test=1)
    prepared, _ = pipeline.annotate(
        corpus.synthesize_corpus(manifest, corpus.SENTIMENT_COUPLING)["train"], lexicon, "ISL")
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    state, encoded = trainer._prepare(cfg, prepared, manifest.relations)
    full = [b for b in trainer.make_batches(encoded, 16, range(len(encoded))) if len(b) == 16]
    for indices in full[:3]:
        report = trainer.gradcheck_batch(state, trainer._collate(encoded, indices), cfg, 4)
        assert report.max_rel_err < trainer.GRADCHECK_TOLERANCE, indices
        assert report.passed


def _one_instance_batch(small_train, small_manifest):
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    prepared = small_train[:1]
    state = trainer.init_from_config(cfg, prepared, small_manifest.relations)
    return cfg, state, trainer._collate(trainer.encode_prepared(state, prepared), [0])


def test_gradcheck_runs_one_probe_pair_per_coordinate(small_train, small_manifest,
                                                     monkeypatch):
    """Four analytic forwards, then two per coordinate, serving all four terms."""
    cfg, state, batch = _one_instance_batch(small_train, small_manifest)
    calls = []
    forward = enc.forward
    monkeypatch.setattr(enc, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    report = trainer.gradcheck_batch(state, batch, cfg, max_coords_per_block=4)
    probed = sum(e.coords_checked + e.kinks_skipped for e in report.entries
                 if e.term == "total")
    assert probed == sum(min(param.size, 4) for param in state.params.values())
    assert len(calls) == 4 + 2 * probed


def _reference_gradcheck_batch(state, batch, config, max_coords_per_block,
                               analytic_override=None):
    """The check as one probe pair per term and coordinate, with the ReLU
    patterns of a coordinate recomputed by two fresh forwards on a mismatch."""
    def value(terms):
        return obj.batch_losses(state, batch, terms, config, value_only=True).breakdown.total

    def pattern():
        return tuple((c["h"] > 0).tobytes() for c in enc.forward(state, batch.ids).cache["layers"])

    entries = []
    for term_name, terms in {"l_re": ("re",), "l_asp": ("asp",), "l_ib": ("ib",),
                             "total": ("re", "asp", "ib")}.items():
        obj.batch_losses(state, batch, terms, config)
        analytic = state.grads
        if analytic_override is not None:
            analytic = analytic_override(term_name, analytic)
        for block, grad in analytic.items():
            flat = grad.reshape(-1)
            coords = np.unique(np.linspace(0, flat.size - 1, max_coords_per_block)
                               .astype(int)) if flat.size > max_coords_per_block \
                else np.arange(flat.size)
            pflat = state.params[block].reshape(-1)
            max_err, kinks, checked = 0.0, 0, 0
            for c in coords:
                orig = pflat[c]
                pflat[c] = orig + trainer.FD_STEP
                up = value(terms)
                pflat[c] = orig - trainer.FD_STEP
                down = value(terms)
                pflat[c] = orig
                fd = (up - down) / (2 * trainer.FD_STEP)
                a = flat[c]
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
                if err >= trainer.GRADCHECK_TOLERANCE:
                    pflat[c] = orig + trainer.FD_STEP
                    pattern_up = pattern()
                    pflat[c] = orig - trainer.FD_STEP
                    pattern_down = pattern()
                    pflat[c] = orig
                    if pattern_up != pattern_down:
                        kinks += 1
                        continue
                checked += 1
                max_err = max(max_err, err)
            entries.append((term_name, block, repr(max_err), checked, kinks))
    return entries


def _corrupt_l_re_clf(term, grads):
    if term == "l_re":
        grads = dict(grads)
        grads["clf.W"] = grads["clf.W"] + 0.5
    return grads


@pytest.mark.parametrize("override", [None, _corrupt_l_re_clf], ids=["plain", "override"])
def test_gradcheck_batch_equals_the_per_term_reference_bit_for_bit(
        small_train, small_manifest, override):
    cfg, state, batch = _one_instance_batch(small_train, small_manifest)
    # plant a kink: one L0 pre-activation at zero, so most upstream probes cross it
    x1 = enc.forward(state, batch.ids).cache["layers"][0]["x1"]
    f1 = x1 @ state.params["L0.W1"] + state.params["L0.b1"]
    state.params["L0.b1"][0] -= f1[0, 1, 0]
    expected = _reference_gradcheck_batch(state, batch, cfg, 4, override)
    report = trainer.gradcheck_batch(state, batch, cfg, max_coords_per_block=4,
                                     analytic_override=override)
    got = [(e.term, e.block, repr(e.max_rel_err), e.coords_checked, e.kinks_skipped)
           for e in report.entries]
    assert got == expected
    assert sum(e.kinks_skipped for e in report.entries) > 0
    assert (override is None) == report.passed


def test_a_step_keeps_only_what_backward_reads():
    """After one batch_losses, each layer's forward cache holds exactly the
    arrays backward reads (the ReLU pre-activation is not among them)."""
    state = tiny_state()
    result = obj.batch_losses(state, make_batch(state), FULL, CONFIG)
    for layer in result.forward.cache["layers"]:
        assert set(layer) == {"x", "q", "k", "v", "A", "ctx", "ln1", "x1", "h", "ln2"}


def test_train_drops_each_step_result_before_the_next(small_train, small_manifest,
                                                      monkeypatch):
    """A BatchResult holds its forward, whose cache is the step's largest
    allocation: kept into the next step, it is a second cache at that
    step's peak (+11.2 MiB resident on a 1-epoch 4 x 4 x 64 train of the
    seed-11 corpus)."""
    refs, live = [], []
    batch_losses = obj.batch_losses

    def spy(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        result = batch_losses(*args, **kwargs)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(obj, "batch_losses", spy)
    trainer.train(trainer.TrainConfig(epochs=1, seed=0, **SMALL), small_train[:24],
                  small_manifest.relations)
    assert len(live) > 1 and max(live) == 0


def test_divergence_raises_with_step(small_train, small_manifest):
    cfg = trainer.TrainConfig(epochs=1, seed=0, mode="baseline", lr=1e9, **SMALL)
    with pytest.raises(trainer.TrainDivergenceError) as err:
        trainer.train(cfg, small_train, small_manifest.relations)
    assert err.value.step > 0


def test_gradcheck_skips_relu_kink_crossings(small_train, small_manifest):
    """Coordinates whose FD probes straddle a feed-forward kink are counted,
    not reported as gradient errors; genuinely corrupted gradients still fail
    (see the negative control above)."""
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    report = trainer.gradcheck(cfg, small_train[:4], small_manifest.relations,
                               max_coords_per_block=6)
    assert report.passed
    assert all(e.kinks_skipped >= 0 for e in report.entries)
    assert all(e.coords_checked > 0 for e in report.entries)
