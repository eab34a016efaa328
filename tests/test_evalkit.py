"""Metric identities, bucketing, ablation grids, and attention exports."""

import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from ssdpsem import corpus, evalkit, objectives, pipeline, trainer


RELATIONS = ["no_relation", "a_rel", "b_rel", "c_rel"]


def micro_counting_oracle(preds, golds, neg):
    """Independent pooled-count implementation of micro P/R/F1."""
    tp = sum(1 for p, g in zip(preds, golds) if p == g != neg)
    pred_pos = sum(1 for p in preds if p != neg)
    gold_pos = sum(1 for g in golds if g != neg)
    precision = tp / pred_pos if pred_pos else 0.0
    recall = tp / gold_pos if gold_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def test_micro_scores_match_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        preds = rng.integers(0, 4, size=n).tolist()
        golds = rng.integers(0, 4, size=n).tolist()
        ours = evalkit.micro_scores(preds, golds, RELATIONS)
        assert ours == pytest.approx(micro_counting_oracle(preds, golds, 0))


def test_micro_f1_is_harmonic_mean_identity():
    preds = [1, 1, 2, 0, 3, 2]
    golds = [1, 2, 2, 1, 3, 0]
    p, r, f1 = evalkit.micro_scores(preds, golds, RELATIONS)
    assert f1 == pytest.approx(2 * p * r / (p + r))


def test_micro_hand_worked_example():
    # for label 1: TP=2, FP=1, FN=1 -> P=R=F1=2/3 (no other positives)
    preds = [1, 1, 1, 0, 0]
    golds = [1, 1, 0, 1, 0]
    p, r, f1 = evalkit.micro_scores(preds, golds, RELATIONS)
    assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))


def test_all_no_relation_predictions_give_zero_micro():
    preds = [0, 0, 0]
    golds = [1, 2, 3]
    assert evalkit.micro_scores(preds, golds, RELATIONS) == (0.0, 0.0, 0.0)


def trained_state(small_train, small_manifest, mode="baseline", epochs=2):
    cfg = trainer.TrainConfig(epochs=epochs, layers=2, heads=2, d_model=16, d_ff=32,
                              batch_size=8, seed=0, mode=mode)
    record = trainer.train(cfg, small_train, small_manifest.relations)
    return record.state


@pytest.fixture(scope="module")
def state_and_prepared(small_train, small_splits, small_manifest, lexicon):
    state = trained_state(small_train, small_manifest)
    prepared, _ = pipeline.annotate(small_splits["test"], lexicon, "ISL")
    return state, prepared


def test_evaluate_report_identities(state_and_prepared, small_manifest):
    state, prepared = state_and_prepared
    report = evalkit.evaluate(state, prepared, small_manifest.entity_types)
    assert report.n_instances == len(prepared)
    assert report.confusion.sum() == len(prepared)
    assert report.accuracy == pytest.approx(
        np.trace(report.confusion) / len(prepared)
    )
    assert 0.0 <= report.micro_f1 <= 1.0
    if report.micro_precision + report.micro_recall > 0:
        expected = (2 * report.micro_precision * report.micro_recall
                    / (report.micro_precision + report.micro_recall))
        assert report.micro_f1 == pytest.approx(expected)
    macro = np.mean([row["f1"] for row in report.per_relation.values()])
    assert report.macro_f1 == pytest.approx(macro)


def test_macro_f1_invariant_under_label_permutation(state_and_prepared, small_manifest):
    state, prepared = state_and_prepared
    report = evalkit.evaluate(state, prepared, small_manifest.entity_types)
    preds, golds, _, _ = evalkit.predict(state, prepared)
    # recompute macro after a permutation of the label indexing
    perm = list(reversed(range(len(state.relations))))
    perm_preds = [perm[p] for p in preds]
    perm_golds = [perm[g] for g in golds]
    f1s = []
    for label_idx in range(len(state.relations)):
        tp = sum(1 for p, g in zip(perm_preds, perm_golds) if p == g == label_idx)
        fp = sum(1 for p, g in zip(perm_preds, perm_golds) if p == label_idx != g)
        fn = sum(1 for p, g in zip(perm_preds, perm_golds) if g == label_idx != p)
        p_, r_, f1 = evalkit._prf(tp, fp, fn)
        f1s.append(f1)
    assert report.macro_f1 == pytest.approx(np.mean(f1s))


def test_perfect_predictions_give_ones(state_and_prepared, small_manifest):
    state, prepared = state_and_prepared
    golds = [p.raw.relation for p in prepared]
    idx = {r: i for i, r in enumerate(state.relations)}
    gold_idx = [idx[g] for g in golds]
    p, r, f1 = evalkit.micro_scores(gold_idx, gold_idx, state.relations)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_bucket_by_entity_pair_conventions():
    entity_types = {"a_rel": ("ORG", "MONEY"), "b_rel": ("ORG", "ORG")}
    preds = [1, 1, 2]
    golds = [1, 2, 2]
    buckets = evalkit.bucket_by_entity_pair(preds, golds, RELATIONS, entity_types)
    assert set(buckets) == {"ORG:MONEY", "ORG:ORG"}
    # single-bucket degenerate case equals overall micro F1 within the bucket
    only = evalkit.bucket_by_entity_pair([1], [1], RELATIONS, {"a_rel": ("ORG", "MONEY")})
    assert only["ORG:MONEY"] == 1.0
    # empty buckets are omitted, not NaN
    none = evalkit.bucket_by_entity_pair([], [], RELATIONS, entity_types)
    assert none == {}


def test_evaluate_rejects_empty_split(state_and_prepared):
    state, _ = state_and_prepared
    with pytest.raises(ValueError, match="empty"):
        evalkit.evaluate(state, [])


def test_isl_attention_mass_in_unit_interval(state_and_prepared):
    state, prepared = state_and_prepared
    mass = evalkit.isl_attention_mass(state, prepared)
    assert 0.0 <= mass <= 1.0


def test_mean_pooling_entropy_bounded(state_and_prepared):
    state, prepared = state_and_prepared
    h = evalkit.mean_pooling_entropy(state, prepared)
    n_max = max(len(p.augmented.tokens) for p in prepared)
    assert 0.0 <= h <= np.log(n_max)


def test_ablation_grid_shape_and_determinism(small_splits, small_manifest, lexicon):
    base = dict(epochs=1, layers=2, heads=2, d_model=16, d_ff=32, batch_size=8, seed=0)
    configs = [
        trainer.TrainConfig(mode="baseline", **base),
        trainer.TrainConfig(mode="asp_saib", **base),
        trainer.TrainConfig(mode="asp_saib", **base),  # duplicate row
    ]
    results = evalkit.ablation_grid(configs, small_splits, small_manifest.relations,
                                    small_manifest.entity_types, lexicon=lexicon)
    csv_text = evalkit.grid_to_csv(results)
    lines = csv_text.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    assert lines[2] == lines[3]  # identical configs -> identical rows


def test_ablation_grid_annotates_train_per_variant_and_the_eval_split_once(
        small_splits, small_manifest, lexicon, monkeypatch):
    base = dict(epochs=1, layers=2, heads=2, d_model=16, d_ff=32, batch_size=8, seed=0)
    configs = [trainer.TrainConfig(mode=mode, isl_variant=variant, **base)
               for variant in ("ISL", "SPL", "EPL") for mode in ("baseline", "asp")]
    calls = []
    annotate = pipeline.annotate

    def counting(instances, lex, variant):
        calls.append(("test" if instances is small_splits["test"] else "train", variant))
        return annotate(instances, lex, variant)

    monkeypatch.setattr(pipeline, "annotate", counting)
    results = evalkit.ablation_grid(configs, small_splits, small_manifest.relations,
                                    lexicon=lexicon)
    assert sorted(calls) == [("test", "ISL"), ("train", "EPL"), ("train", "ISL"),
                             ("train", "SPL")]
    # the same reports as one fresh train + annotate + evaluate per config: the
    # eval split's label signal, whatever its variant, never reaches prediction
    monkeypatch.setattr(pipeline, "annotate", annotate)
    for config, report in results[1::2]:
        train, _ = pipeline.annotate(small_splits["train"], lexicon, config.isl_variant)
        record = trainer.train(config, train, small_manifest.relations)
        prepared, _ = pipeline.annotate(small_splits["test"], lexicon, config.isl_variant)
        alone = evalkit.evaluate(record.state, prepared)
        assert np.array_equal(alone.confusion, report.confusion)


def test_report_to_text_contains_all_relations(state_and_prepared, small_manifest):
    state, prepared = state_and_prepared
    report = evalkit.evaluate(state, prepared, small_manifest.entity_types)
    text = evalkit.report_to_text(report, state.relations)
    for rel in state.relations:
        assert rel in text


def test_export_attention_round_trip(tmp_path, state_and_prepared):
    state, prepared = state_and_prepared
    csv_path = tmp_path / "att.csv"
    svg_path = tmp_path / "att.svg"
    a_avg, a_ib = evalkit.export_attention(state, prepared[0], csv_path, svg_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(prepared[0].augmented.tokens)
    re_avg = np.array([float(r["alpha_avg"]) for r in rows])
    re_ib = np.array([float(r["alpha_ib"]) for r in rows])
    assert np.array_equal(re_avg, a_avg)  # repr-exact round trip
    assert np.array_equal(re_ib, a_ib)
    h_orig = objectives.entropy(a_ib[None, :])[0]
    h_reread = objectives.entropy(re_ib[None, :])[0]
    assert abs(h_orig - h_reread) < 1e-12
    marked = [int(r["marked"]) for r in rows]
    assert marked == [int(v) for v in prepared[0].signal.Q]
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 2 * len(rows)


def test_export_attention_equals_the_row_predict_gives_in_a_batch(tmp_path,
                                                                  state_and_prepared):
    """`ssdp inspect` runs one instance, `ssdp eval` batches of several; both
    must report the same attention, bit for bit."""
    state, prepared = state_and_prepared
    _, _, alpha_ib, alpha_avg = evalkit.predict(state, prepared, batch_size=64)
    for i, instance in enumerate(prepared):
        evalkit.export_attention(state, instance, tmp_path / "att.csv")
        with open(tmp_path / "att.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for key, batched in (("alpha_ib", alpha_ib[i]), ("alpha_avg", alpha_avg[i])):
            alone = np.array([float(r[key]) for r in rows])
            assert alone.tobytes() == batched.tobytes(), f"{key}, instance {i}"


def test_predict_batch_size_changes_no_output_and_leaves_the_step_workspace(
        state_and_prepared):
    state, prepared = state_and_prepared
    state, prepared = state.copy(), prepared * 8  # so some lengths fill several batches
    encoded = trainer.encode_prepared(state, prepared)
    order = range(len(encoded))
    assert len(trainer.make_batches(encoded, 16, order)) > len(
        trainer.make_batches(encoded, 64, order))
    ids, Q, gold = trainer._collate(encoded, [0])
    objectives.batch_losses(state, ids, Q, gold, ("re",), trainer.TrainConfig())
    before = {key: (buf, buf.copy()) for key, buf in state.workspace.items()}
    small, large = (evalkit.predict(state, prepared, batch_size=b) for b in (16, 64))
    assert small[:2] == large[:2]
    for a, b in zip(small[2] + small[3], large[2] + large[3]):
        assert a.tobytes() == b.tobytes()
    assert state.workspace.keys() == before.keys()
    for key, (buf, copy) in before.items():
        assert state.workspace[key] is buf and buf.tobytes() == copy.tobytes(), key


# tracemalloc's peak for the evaluation below before eval batches were
# capped at training's size and given a reused workspace (batches of up to
# 64 rows, each with fresh arrays, the previous batch's cache still alive)
PEAK_MIB_BEFORE = 50.96


def test_evaluate_holds_under_half_the_memory_of_64_row_batches(lexicon):
    manifest = corpus.default_manifest(seed=11, train=1, dev=1, test=400)
    test = corpus.synthesize_corpus(manifest, 0.9)["test"]
    prepared, _ = pipeline.annotate(test, lexicon, "ISL")
    state = trainer.init_from_config(trainer.TrainConfig(seed=0), prepared,
                                     manifest.relations)  # the 4 x 4 x 64 default
    tracemalloc.start()
    try:
        evalkit.evaluate(state, prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < PEAK_MIB_BEFORE / 2
