"""Acceptance gate: nine checks covering correctness oracles, gradient
exactness, attention-behaviour claims, directional experiments, and
determinism.  Each test prints one [acceptance] PASS/FAIL line (bypassing
pytest capture so the verdicts appear in any log) and then asserts.

The directional experiments (6-8) share a frozen reference setup:
synthetic corpus seed 11 (2000/400/400, sentiment coupling 0.9) and a
2-layer, 2-head, d_model=16 encoder trained 12 epochs with Adam at 1e-3
over matched seeds 0-4.  Everything is deterministic, so these are exact
regression checks, not statistical ones.
"""

import random
import sys
import time

import numpy as np
import pytest

from ssdpsem import corpus, encoder as enc, evalkit, labels, objectives as obj
from ssdpsem import pipeline, sentiment, syntax, trainer

from test_syntax import bfs_oracle_distance, lca_path_oracle, random_tree_instance


SEEDS = (0, 1, 2, 3, 4)
CORPUS_SEED = 11
COUPLING = 0.9
REFERENCE = dict(layers=2, heads=2, d_model=16, d_ff=32, batch_size=16,
                 lr=1e-3, optimizer="adam")
EPOCHS = 12


def verdict(capsys, num, ok, detail):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# Shared reference runs


@pytest.fixture(scope="session")
def ref_lexicon():
    return sentiment.load_lexicon()


@pytest.fixture(scope="session")
def ref_corpus():
    manifest = corpus.default_manifest(seed=CORPUS_SEED, train=2000, dev=400, test=400)
    splits = corpus.synthesize_corpus(manifest, COUPLING)
    return manifest, splits


@pytest.fixture(scope="session")
def ref_test_prepared(ref_corpus, ref_lexicon):
    _, splits = ref_corpus
    prepared, _ = pipeline.annotate(splits["test"], ref_lexicon, "ISL")
    return prepared


@pytest.fixture(scope="session")
def ref_train(ref_corpus, ref_lexicon):
    """ref_train(variant): the reference train split, annotated once per variant."""
    _, splits = ref_corpus
    annotated = {}

    def prepared(variant="ISL"):
        if variant not in annotated:
            annotated[variant], _ = pipeline.annotate(splits["train"], ref_lexicon, variant)
        return annotated[variant]

    return prepared


AMBIGUOUS = frozenset(noun for nouns in corpus.AMBIGUOUS_NOUNS.values() for noun in nouns)


def sentiment_decided(prepared):
    """``prepared`` split in two: the instances whose noun both relations of
    a confusable pair share, so only the sentiment decides their label, and
    the rest."""
    subset = [p for p in prepared if not AMBIGUOUS.isdisjoint(p.augmented.tokens)]
    rest = [p for p in prepared if AMBIGUOUS.isdisjoint(p.augmented.tokens)]
    return subset, rest


def run_reports(ref_corpus, ref_train, test_sets, mode, seed, variant="ISL"):
    """Train one reference run; its EvalReport on each of ``test_sets``."""
    manifest, _ = ref_corpus
    cfg = trainer.TrainConfig(epochs=EPOCHS, seed=seed, mode=mode,
                              isl_variant=variant, **REFERENCE)
    record = trainer.train(cfg, ref_train(variant), manifest.relations)
    return [evalkit.evaluate(record.state, prepared, manifest.entity_types)
            for prepared in test_sets]


@pytest.fixture(scope="session")
def five_seed_f1(ref_corpus, ref_train, ref_test_prepared):
    """micro-F1 per seed for the modes/variants criteria 7 and 8 compare;
    criterion 7's two modes also get their accuracy per seed on the
    sentiment-decided subset ("<key>_subset") and on the rest ("<key>_rest")."""
    subset, rest = sentiment_decided(ref_test_prepared)
    out = {"split_sizes": (len(subset), len(rest))}
    start = time.perf_counter()
    for key, mode, variant in (("baseline", "baseline", "ISL"),
                               ("asp_saib", "asp_saib", "ISL"),
                               ("SPL", "asp_saib", "SPL"),
                               ("EPL", "asp_saib", "EPL")):
        split = key in ("baseline", "asp_saib")
        test_sets = (ref_test_prepared, subset, rest) if split else (ref_test_prepared,)
        reports = [run_reports(ref_corpus, ref_train, test_sets, mode, s, variant)
                   for s in SEEDS]
        out[key] = [r[0].micro_f1 for r in reports]
        if split:
            out[f"{key}_subset"] = [r[1].accuracy for r in reports]
            out[f"{key}_rest"] = [r[2].accuracy for r in reports]
        if key == "asp_saib":
            # the ten runs criteria 7 compares; its < 10 min budget
            out["crit7_seconds"] = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# 1. SDP oracle


def test_criterion_1_sdp_oracle(capsys):
    rng = random.Random(0)
    start = time.perf_counter()
    length_ok = path_ok = 0
    trials = 500
    for _ in range(trials):
        n = rng.randrange(2, 41)
        inst, s, o = random_tree_instance(rng, n)
        graph = syntax.build_graph(inst)
        result = syntax.extract_sdp(graph, s, o)
        length_ok += (len(result.path) - 1) == bfs_oracle_distance(graph, s, o)
        path_ok += result.path == lca_path_oracle(inst.heads, s, o)
    elapsed = time.perf_counter() - start
    ok = length_ok == trials and path_ok == trials and elapsed < 5.0
    assert verdict(capsys, 1, ok, f"{length_ok}/{trials} BFS-length matches, "
                          f"{path_ok}/{trials} LCA-path matches, {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. Label hierarchy on a 2000-instance corpus


def test_criterion_2_label_hierarchy(capsys, ref_corpus, ref_lexicon):
    _, splits = ref_corpus
    instances = splits["train"]
    worst_dev = 0.0
    for inst in instances:
        prepared = pipeline.annotate_instance(inst, ref_lexicon, "ISL")
        aug = prepared.augmented
        sdp = syntax.sdp_for_instance(aug).path
        epl = labels.build_signal(aug, sdp, "EPL")
        spl = labels.build_signal(aug, sdp, "SPL")
        isl = prepared.Q
        assert np.all(epl <= spl) and np.all(spl <= isl), inst.id
        for variant_Q in (epl, spl, isl):
            q = variant_Q / variant_Q.sum()
            worst_dev = max(worst_dev, abs(float(q.sum()) - 1.0))
    ok = worst_dev < 1e-12
    assert verdict(capsys, 2, ok, f"EPL ⊆ SPL ⊆ ISL on {len(instances)} instances, "
                          f"max |sum(q) - 1| = {worst_dev:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 3. Gradient suite


def test_criterion_3_gradient_suite(capsys, ref_corpus, ref_lexicon):
    manifest, splits = ref_corpus
    start = time.perf_counter()
    cfg = trainer.TrainConfig(layers=2, heads=2, d_model=16, d_ff=32, seed=0)
    prepared, _ = pipeline.annotate(splits["train"][:20], ref_lexicon, "ISL")
    report = trainer.gradcheck(cfg, prepared, manifest.relations, max_coords_per_block=4)
    elapsed = time.perf_counter() - start
    terms = {e.term for e in report.entries}
    ok = (report.passed and terms == {"l_re", "l_asp", "l_ib", "total"}
          and elapsed < 120.0)
    checked = sum(e.coords_checked for e in report.entries)
    kinks = sum(e.kinks_skipped for e in report.entries)
    assert verdict(capsys, 3, ok, f"max relative error {report.max_rel_err:.3e} (< 1e-4) "
                          f"over terms {sorted(terms)}, 20 instances, {checked} coordinates "
                          f"checked, {kinks} kink-crossing skipped, "
                          f"{elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 4. Closed-form loss values


def test_criterion_4_closed_forms(capsys):
    rng = np.random.default_rng(0)
    p = rng.random(7)
    p /= p.sum()
    kld = float((p * np.log(p / p)).sum())
    h_uniform = float(obj.entropy(np.full((1, 5), 0.2))[0])
    one_hot = np.zeros((1, 5))
    one_hot[0, 2] = 1.0
    h_onehot = float(obj.entropy(one_hot)[0])
    scores = rng.normal(size=(3, 6))
    feats = rng.normal(size=(3, 6, 4))
    W = rng.normal(size=8)
    b = np.array([0.0])
    a1, _ = obj.saib_attention(feats, rng.normal(size=(3, 4)) * 0, W, b)
    a2, _ = obj.saib_attention(feats, rng.normal(size=(3, 4)) * 0, W, b + 17.0)
    shift_dev = float(np.abs(a1 - a2).max())
    checks = {
        "KLD(p‖p)": abs(kld) < 1e-10,
        "entropy(uniform 5)=log 5": abs(h_uniform - np.log(5)) < 1e-10,
        "entropy(one-hot)=0": abs(h_onehot) < 1e-10,
        "softmax shift-invariance": shift_dev < 1e-10,
    }
    ok = all(checks.values())
    assert verdict(capsys, 4, ok, "; ".join(f"{k} {'ok' if v else 'FAIL'}"
                                    for k, v in checks.items()))


# ---------------------------------------------------------------------------
# 5. Entropy penalty sparsifies the pooling attention


def test_criterion_5_saib_sparsification(capsys):
    rng = np.random.default_rng(4)
    wins = 0
    for seed in range(20):
        vocab = [enc.PAD, enc.UNK] + [f"w{i}" for i in range(8)]
        cfg = enc.EncoderConfig(layers=2, heads=2, d_model=8, d_ff=16, max_len=16, last_k=2)
        state = enc.init_state(cfg, vocab, seed, relations=["a", "b", "c"])
        ids = rng.integers(2, len(vocab), size=(1, 6))
        before = after = None
        for _ in range(50):
            fwd = enc.forward(state, ids)
            alpha, _ = obj.saib_attention(fwd.features, fwd.features[:, 0],
                                          state.params["saib.W"],
                                          state.params["saib.b"])
            h = float(obj.entropy(alpha)[0])
            before = h if before is None else before
            after = h
            _, d_alpha = obj.saib_entropy_loss(alpha)
            df, dsen, dW, db = obj.saib_attention_backward(
                d_alpha, alpha, fwd.features, fwd.features[:, 0],
                state.params["saib.W"])
            df[:, 0, :] += dsen
            grads = enc.backward(state, fwd, df)
            grads["saib.W"][...] = dW
            grads["saib.b"][...] = db
            for name, g in grads.items():
                state.params[name] -= 0.05 * g
        wins += after < before
    ok = wins >= 19
    assert verdict(capsys, 5, ok, f"entropy strictly decreased after 50 steps in "
                          f"{wins}/20 seeds (needs ≥ 19)")


# ---------------------------------------------------------------------------
# 6. Supervised attention migrates mass onto the marked positions


def test_criterion_6_asp_attention_shift(capsys, ref_corpus, ref_lexicon, ref_train):
    manifest, splits = ref_corpus
    dev_prepared, _ = pipeline.annotate(splits["dev"], ref_lexicon, "ISL")
    gains = []
    for seed in SEEDS:
        cfg = trainer.TrainConfig(epochs=3, seed=seed, mode="asp", **REFERENCE)
        init = trainer.init_from_config(cfg, ref_train(), manifest.relations)
        record = trainer.train(cfg, ref_train(), manifest.relations)
        before = evalkit.isl_attention_mass(init, dev_prepared)
        after = evalkit.isl_attention_mass(record.state, dev_prepared)
        gains.append(after - before)
    hits = sum(g >= 0.05 for g in gains)
    ok = hits >= 4
    assert verdict(capsys, 6, ok, f"dev ISL attention mass gain ≥ 0.05 in {hits}/5 seeds "
                          f"(gains: {', '.join(f'{g:+.3f}' for g in gains)})")


# ---------------------------------------------------------------------------
# 7. Directional gain of the full multi-task model


def test_criterion_7_directional_gain(capsys, five_seed_f1):
    base = five_seed_f1["baseline"]
    full = five_seed_f1["asp_saib"]
    elapsed = five_seed_f1["crit7_seconds"]
    wins = sum(a >= b for a, b in zip(full, base))
    gain = float(np.mean(full) - np.mean(base))
    deltas = ", ".join(f"{a - b:+.4f}" for a, b in zip(full, base))
    ok = wins >= 4 and gain > 0 and elapsed < 600.0
    n_subset, n_rest = five_seed_f1["split_sizes"]

    def accuracy(name):  # where the margin lives, per seed: baseline → full
        b, f = five_seed_f1[f"baseline_{name}"], five_seed_f1[f"asp_saib_{name}"]
        per_seed = ", ".join(f"{x:.4f} → {y:.4f}" for x, y in zip(b, f))
        return f"{per_seed}, mean {np.mean(b):.4f} → {np.mean(f):.4f}"

    assert verdict(capsys, 7, ok, f"+ASP+SAIB ≥ baseline in {wins}/5 matched seeds "
                          f"(needs ≥ 4), mean gain {gain:+.4f} (needs > 0); "
                          f"baseline {np.mean(base):.4f}, full {np.mean(full):.4f}; "
                          f"per-seed full − baseline: {deltas}; "
                          f"accuracy baseline → full on the sentiment-decided "
                          f"{n_subset}: {accuracy('subset')}; "
                          f"on the other {n_rest}: {accuracy('rest')}; "
                          f"{elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 8. Supervision-variant ordering


def test_criterion_8_variant_ordering(capsys, five_seed_f1):
    isl = float(np.mean(five_seed_f1["asp_saib"]))
    spl = float(np.mean(five_seed_f1["SPL"]))
    epl = float(np.mean(five_seed_f1["EPL"]))
    ok = isl >= spl and isl >= epl
    assert verdict(capsys, 8, ok, f"mean F1 over 5 seeds: ISL {isl:.4f}, SPL {spl:.4f}, "
                          f"EPL {epl:.4f} (needs ISL ≥ SPL and ISL ≥ EPL)")


# ---------------------------------------------------------------------------
# 9. Byte-level determinism


def test_criterion_9_determinism(capsys, tmp_path, ref_corpus, ref_train):
    manifest, _ = ref_corpus
    small = ref_train()[:64]  # annotation is per instance, so this is train[:64] annotated
    digests = []
    for tag in ("a", "b"):
        cfg = trainer.TrainConfig(epochs=2, seed=7, mode="asp_saib", **REFERENCE)
        record = trainer.train(cfg, small, manifest.relations)
        (tmp_path / f"{tag}.csv").write_text("\n".join(record.metrics_rows) + "\n",
                                             encoding="utf-8")
        enc.save_checkpoint(record.state, tmp_path / f"{tag}.ckpt")
        digests.append(((tmp_path / f"{tag}.csv").read_bytes(),
                        (tmp_path / f"{tag}.ckpt").read_bytes()))
    csv_same = digests[0][0] == digests[1][0]
    ckpt_same = digests[0][1] == digests[1][1]
    ok = csv_same and ckpt_same
    assert verdict(capsys, 9, ok, f"metrics CSV byte-identical: {csv_same}; "
                          f"checkpoint byte-identical: {ckpt_same}")
