"""Train a plain classifier and the attention-guided multi-task model
side by side on a small synthetic corpus, then look at what the guidance
actually changed:

  - relation micro-F1 on a test split whose sentiment-cue vocabulary is
    held out of training (so the raw cue words are out-of-vocabulary and
    only the prepended sentiment token, the record's gold tag, is reliable),
  - how much averaged encoder attention sits on the marked (ISL)
    positions before and after training,
  - how sharp the pooling attention becomes under the entropy penalty.

Run:  python demos/guided_vs_baseline.py        (~1 minute on one core)
"""

import numpy as np

from ssdpsem import corpus, evalkit, pipeline, sentiment, trainer


def train_one(mode, train_prep, manifest, seed=0):
    """The trained run and the state it started from."""
    cfg = trainer.TrainConfig(
        epochs=12, layers=2, heads=2, d_model=16, d_ff=32, batch_size=16,
        lr=1e-3, seed=seed, mode=mode,
    )
    init_state = trainer.init_from_config(cfg, train_prep, manifest.relations)
    return trainer.train(cfg, train_prep, manifest.relations), init_state


def main():
    lexicon = sentiment.load_lexicon()
    manifest = corpus.default_manifest(seed=11, train=800, dev=200, test=200)
    splits = corpus.synthesize_corpus(manifest, sentiment_coupling=0.9)
    train_prep, _ = pipeline.annotate(splits["train"], lexicon, "ISL")
    test_prep, _ = pipeline.annotate(splits["test"], lexicon, "ISL")
    dev_prep, _ = pipeline.annotate(splits["dev"], lexicon, "ISL")

    print(f"{'mode':10s} {'micro_f1':>9s} {'isl_mass_0':>11s} {'isl_mass':>9s} "
          f"{'pool_entropy':>13s}")
    for mode in ("baseline", "asp", "asp_saib"):
        record, init_state = train_one(mode, train_prep, manifest)
        report = evalkit.evaluate(record.state, test_prep, manifest.entity_types)
        mass0 = evalkit.isl_attention_mass(init_state, dev_prep)
        mass1 = evalkit.isl_attention_mass(record.state, dev_prep)
        ent = np.mean([p.pooling_entropy for p in evalkit.predict(record.state, test_prep)])
        print(f"{mode:10s} {report.micro_f1:9.4f} {mass0:11.4f} {mass1:9.4f} "
              f"{ent:13.4f}")

    print()
    print("Reading the table: the +ASP rows move attention mass onto the")
    print("marked positions (isl_mass_0 -> isl_mass); the entropy penalty in")
    print("asp_saib sharpens the pooling attention (lower pool_entropy).")
    print("F1 differences between modes only emerge reliably at the full")
    print("2000-instance corpus size used by the test-suite experiments.")


if __name__ == "__main__":
    main()
