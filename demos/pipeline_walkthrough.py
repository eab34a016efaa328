"""Walk one synthetic sentence through the full annotation pipeline.

Shows, step by step, what the library does to a raw dependency-parsed
instance before any model sees it:

  1. synthesize a sentence with a gold relation and gold sentiment,
  2. tag the sentiment and prepend it as a token, which moves every
     head and span index up by one,
  3. extract the shortest dependency path between the entity heads of
     that augmented sentence,
  4. build the three label variants (EPL / SPL / ISL) and the
     normalized distribution q = Q / sum(Q) that the auxiliary loss
     (objectives.asp_loss) derives and trains toward.

Run:  python demos/pipeline_walkthrough.py
"""

import random

from ssdpsem import corpus, labels, pipeline, sentiment, syntax


def show(title, body=""):
    print(f"\n=== {title} ===")
    if body:
        print(body)


def main():
    rng = random.Random("walkthrough")
    inst = corpus.synthesize_instance("demo-0", "loss_of", coupling=0.9, rng=rng)

    show("Raw sentence", " ".join(inst.tokens))
    print(f"relation: {inst.relation}")
    print(f"subject span: {inst.subj} -> {' '.join(inst.tokens[inst.subj[0]:inst.subj[1] + 1])}")
    print(f"object span:  {inst.obj} -> {' '.join(inst.tokens[inst.obj[0]:inst.obj[1] + 1])}")
    print(f"gold sentiment: {inst.sentiment}")

    lexicon = sentiment.load_lexicon()
    prepared = pipeline.annotate_instance(inst, lexicon, "ISL")
    aug = prepared.augmented
    show("After sentiment-token insertion",
         " ".join(aug.tokens))
    print(f"position 0 is now {aug.tokens[0]!r}, a leaf on the root; every "
          "head/span index moved up by one.")

    result = syntax.sdp_for_instance(aug)
    subj_head, obj_head = result.path[0], result.path[-1]
    show("Shortest dependency path (augmented indices)")
    print(f"entity heads: {subj_head} ({aug.tokens[subj_head]}) "
          f"-> {obj_head} ({aug.tokens[obj_head]})")
    print("path:", " -> ".join(f"{i}:{aug.tokens[i]}" for i in result.path))
    print("note: cue adjectives, tail segments and the sentiment token hang OFF")
    print("this path; the relation-bearing noun sits ON it.")

    show("Label variants (marked positions)")
    for variant in ("EPL", "SPL", "ISL"):
        Q = labels.build_signal(aug, result.path, variant)
        marked = [i for i, v in enumerate(Q) if v]
        words = " ".join(aug.tokens[i] for i in marked)
        print(f"{variant}: {marked}  ({words})")
    print("EPL ⊆ SPL ⊆ ISL always holds; ISL adds the sentiment slot 0.")

    Q = prepared.Q
    q = Q / Q.sum()
    show("Normalized target distribution q = Q / sum(Q)")
    print("  ".join(f"{i}:{q[i]:.3f}" for i in range(len(q)) if q[i] > 0))
    print(f"sum(q) = {q.sum():.12f}")


if __name__ == "__main__":
    main()
