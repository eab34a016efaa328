"""Instance records, CoNLL-U ingestion, and synthetic-corpus invariants."""

import itertools
import json
import random
import tracemalloc

import pytest

from ssdpsem import corpus, pipeline, sentiment, syntax
from ssdpsem.corpus import Instance, ParseError, ValidationError


CONLLU = """\
# sent_id = ex1
1\tAcme\t_\t_\t_\t_\t3\tnsubj\t_\t_
2\tposted\t_\t_\t_\t_\t0\troot\t_\t_
3\tgains\t_\t_\t_\t_\t2\tobj\t_\t_

# sent_id = ex2
1\tOrion\t_\t_\t_\t_\t2\tnsubj\t_\t_
2\tfell\t_\t_\t_\t_\t0\troot\t_\t_
"""


def write_pair(tmp_path, conllu=CONLLU, sidecar_rows=None):
    conllu_path = tmp_path / "x.conllu"
    sidecar_path = tmp_path / "x.jsonl"
    conllu_path.write_text(conllu, encoding="utf-8")
    if sidecar_rows is None:
        sidecar_rows = [
            {"id": "ex1", "subj": [0, 0], "obj": [2, 2], "relation": "profit_of"},
            {"id": "ex2", "subj": [0, 0], "obj": [1, 1], "relation": "loss_of",
             "sentiment": "negative"},
        ]
    sidecar_path.write_text(
        "\n".join(json.dumps(r) for r in sidecar_rows) + "\n", encoding="utf-8"
    )
    return conllu_path, sidecar_path


def test_read_conllu_basic(tmp_path):
    instances = corpus.read_conllu(*write_pair(tmp_path))
    assert [i.id for i in instances] == ["ex1", "ex2"]
    first = instances[0]
    assert list(first.tokens) == ["Acme", "posted", "gains"]
    assert list(first.heads) == [2, -1, 1]
    assert first.deprels[1] == "root"
    assert instances[1].sentiment == "negative"


def test_read_conllu_skips_multiword_and_empty_nodes(tmp_path):
    conllu = """\
1-2\tdella\t_\t_\t_\t_\t_\t_\t_\t_
1\tdi\t_\t_\t_\t_\t2\tcase\t_\t_
2\tla\t_\t_\t_\t_\t0\troot\t_\t_
2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_
"""
    pair = write_pair(tmp_path, conllu=conllu,
                      sidecar_rows=[{"subj": [0, 0], "obj": [1, 1], "relation": "r"}])
    instances = corpus.read_conllu(*pair)
    assert len(instances) == 1
    assert list(instances[0].tokens) == ["di", "la"]


def test_read_conllu_column_count_error(tmp_path):
    bad = "1\tword\t3\tnsubj\n"
    with pytest.raises(ParseError, match="expected 10 columns"):
        corpus.read_conllu(*write_pair(tmp_path, conllu=bad,
                                       sidecar_rows=[{"subj": [0, 0], "obj": [0, 0],
                                                      "relation": "r"}]))


def test_read_conllu_sidecar_count_mismatch(tmp_path):
    with pytest.raises(ParseError, match="sidecar rows"):
        corpus.read_conllu(*write_pair(tmp_path, sidecar_rows=[
            {"subj": [0, 0], "obj": [2, 2], "relation": "r"}
        ]))


@pytest.mark.parametrize("second, message", [
    ([1], "expected a JSON object, got list"),
    ({"subj": [0], "obj": [1, 1], "relation": "r"}, "subj must be a [start, end] pair"),
    ({"subj": [0, 0], "obj": [1, 1]}, "missing key 'relation'"),
    ({"subj": [0, 0], "obj": [1, 1], "relation": ["r"]}, "relation must be str, got ['r']"),
    ({"subj": [0, 0], "obj": [1, 1], "relation": "r", "sentiment": 0},
     "sentiment must be null, 'positive' or 'negative', got 0"),
    ({"subj": [0, 0], "obj": [1, 1], "relation": "r", "fragmented": "x"},
     "fragmented must be a JSON bool, got 'x'"),
    ({"id": [1], "subj": [0, 0], "obj": [1, 1], "relation": "r"},
     "id must be a str or an int, got [1]"),
], ids=["not-an-object", "one-element-span", "no-relation", "list-relation", "int-sentiment",
        "str-fragmented", "list-id"])
def test_read_conllu_malformed_sidecar_row_names_line(tmp_path, second, message):
    conllu, sidecar = write_pair(tmp_path, sidecar_rows=[
        {"subj": [0, 0], "obj": [2, 2], "relation": "r"}, second])
    with pytest.raises(ParseError) as err:
        corpus.read_conllu(conllu, sidecar)
    assert f"{sidecar}:2: {message}" in str(err.value)


def test_read_conllu_positional_sidecar_match(tmp_path):
    rows = [
        {"subj": [0, 0], "obj": [2, 2], "relation": "profit_of"},
        {"subj": [0, 0], "obj": [1, 1], "relation": "loss_of"},
    ]
    instances = corpus.read_conllu(*write_pair(tmp_path, sidecar_rows=rows))
    assert instances[0].relation == "profit_of"
    assert instances[1].relation == "loss_of"


def test_read_conllu_pairs_sidecar_rows_by_id(tmp_path):
    rows = [
        {"id": "ex2", "subj": [0, 0], "obj": [1, 1], "relation": "loss_of"},
        {"id": "ex1", "subj": [0, 0], "obj": [2, 2], "relation": "profit_of"},
    ]
    instances = corpus.read_conllu(*write_pair(tmp_path, sidecar_rows=rows))
    assert [(i.id, i.relation) for i in instances] == [("ex1", "profit_of"),
                                                       ("ex2", "loss_of")]


@pytest.mark.parametrize("second_id, message", [
    ("ex3", "{sidecar}: no unpaired sidecar row has id 'ex2'"),
    ("ex1", "{sidecar}:2: sidecar id 'ex1' repeats an earlier row"),
], ids=["sentence-without-its-id", "repeated-id"])
def test_read_conllu_sidecar_ids_pair_one_to_one(tmp_path, second_id, message):
    conllu, sidecar = write_pair(tmp_path, sidecar_rows=[
        {"id": "ex1", "subj": [0, 0], "obj": [2, 2], "relation": "profit_of"},
        {"id": second_id, "subj": [0, 0], "obj": [1, 1], "relation": "loss_of"},
    ])
    with pytest.raises(ParseError) as err:
        corpus.read_conllu(conllu, sidecar)
    assert message.format(sidecar=sidecar) in str(err.value)


@pytest.mark.parametrize("rows, line, message", [
    ([("1", "2"), ("2", "0"), ("5", "2")], 4, "token id 5, expected 3"),
    ([("1", "2"), ("1", "0"), ("2", "2")], 3, "token id 1, expected 2"),
    ([("0", "2"), ("1", "0"), ("2", "2")], 2, "token id 0, expected 1"),
    ([("1", "2"), ("2", "0"), ("3", "-3")], 4, "head -3 is negative"),
], ids=["gap", "repeat", "from-zero", "negative-head"])
def test_read_conllu_checks_ids_and_heads(tmp_path, rows, line, message):
    conllu = "# sent_id = ex1\n" + "".join(
        f"{tok_id}\tw\t_\t_\t_\t_\t{head}\tdep\t_\t_\n" for tok_id, head in rows)
    pair = write_pair(tmp_path, conllu=conllu,
                      sidecar_rows=[{"subj": [0, 0], "obj": [2, 2], "relation": "r"}])
    with pytest.raises(ParseError) as err:
        corpus.read_conllu(*pair)
    assert f"{pair[0]}:{line}: {message}" in str(err.value)


def test_read_conllu_reads_a_split_as_read_jsonl_does(tmp_path, small_splits):
    instances = small_splits["dev"]
    corpus.write_jsonl(instances, tmp_path / "dev.jsonl")
    conllu = "".join(
        f"# sent_id = {inst.id}\n" + "".join(
            f"{i + 1}\t{surface}\t_\t_\t_\t_\t{head + 1}\t{deprel}\t_\t_\n"
            for i, (surface, head, deprel)
            in enumerate(zip(inst.tokens, inst.heads, inst.deprels))) + "\n"
        for inst in instances)
    rows = [{"id": inst.id, "subj": list(inst.subj), "obj": list(inst.obj),
             "relation": inst.relation, "sentiment": inst.sentiment} for inst in instances]
    pair = write_pair(tmp_path, conllu=conllu, sidecar_rows=rows)
    assert corpus.read_conllu(*pair) == corpus.read_jsonl(tmp_path / "dev.jsonl")


def test_validate_rejects_bad_spans_and_heads():
    tokens = (("a", "b"), (-1, 0), ("root", "dep"))
    with pytest.raises(ValidationError, match="out of bounds"):
        Instance("x", *tokens, (0, 0), (1, 5), "r").validate()
    with pytest.raises(ValidationError, match="overlapping"):
        Instance("x", *tokens, (0, 1), (1, 1), "r").validate()
    with pytest.raises(ValidationError, match="own head"):
        Instance("x", ("a",), (0,), ("dep",), (0, 0), (0, 0), "r").validate()
    with pytest.raises(ValidationError, match="roots"):
        Instance("x", ("a", "b"), (-1, -1), ("root", "root"),
                 (0, 0), (1, 1), "r").validate()


def test_validate_rejects_token_columns_of_different_lengths():
    with pytest.raises(ValidationError, match="1 heads and 2 deprels for 2 tokens"):
        Instance("x", ("a", "b"), (-1,), ("root", "dep"), (0, 0), (1, 1), "r").validate()


def test_jsonl_round_trip(tmp_path, small_splits):
    path = tmp_path / "c.jsonl"
    instances = small_splits["dev"]
    corpus.write_jsonl(instances, path)
    loaded = corpus.read_jsonl(path)
    assert len(loaded) == len(instances)
    for a, b in zip(instances, loaded):
        assert a.id == b.id
        assert (a.tokens, a.heads, a.deprels) == (b.tokens, b.heads, b.deprels)
        assert (a.subj, a.obj, a.relation, a.sentiment) == (b.subj, b.obj, b.relation, b.sentiment)


def test_jsonl_round_trip_keeps_a_multi_root_instance_fragmented(tmp_path):
    fragment = Instance("frag", ("Acme", "gains"), (-1, -1), ("root", "root"), (0, 0), (1, 1),
                        "profit_of", fragmented=True).validate()
    path = tmp_path / "c.jsonl"
    corpus.write_jsonl([fragment], path)
    assert json.loads(path.read_text(encoding="utf-8"))["fragmented"] is True
    assert corpus.read_jsonl(path) == [fragment]


def test_readers_hold_one_string_per_distinct_surface_and_deprel(tmp_path, small_splits):
    path = tmp_path / "c.jsonl"
    corpus.write_jsonl(small_splits["train"] + small_splits["dev"], path)
    read = corpus.read_jsonl(path) + corpus.read_conllu(*write_pair(tmp_path))
    for name in ("tokens", "deprels"):
        values = [v for inst in read for v in getattr(inst, name)]
        assert len({id(v) for v in values}) == len(set(values)), name


def test_instance_has_no_dict_and_holds_its_token_fields_as_tuples(tmp_path, small_splits):
    path = tmp_path / "c.jsonl"
    corpus.write_jsonl(small_splits["dev"], path)
    read = corpus.read_jsonl(path) + corpus.read_conllu(*write_pair(tmp_path))
    for inst in small_splits["dev"] + read:
        assert not hasattr(inst, "__dict__")
        assert all(type(getattr(inst, name)) is tuple for name in ("tokens", "heads", "deprels"))


def test_an_instance_costs_a_bounded_number_of_bytes_read_and_annotated(tmp_path, lexicon):
    """tracemalloc growth per instance on the seed-11 2000-instance train
    split: read_jsonl keeps the three token tuples and a slotted record
    (≈940 B), and annotate adds the augmented copy and Q (≈1250 B); the
    one-object-per-token layout took 2105 and 2575 B."""
    manifest = corpus.default_manifest(seed=11, train=2000, dev=0, test=0)
    path = tmp_path / "train.jsonl"
    corpus.write_jsonl(corpus.synthesize_corpus(manifest, corpus.SENTIMENT_COUPLING)["train"],
                       path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        instances = corpus.read_jsonl(path)
        read = tracemalloc.get_traced_memory()[0]
        prepared, _ = pipeline.annotate(instances, lexicon, "ISL")
        annotated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(prepared) == len(instances) == 2000
    assert (read - start) / 2000 <= 1250
    assert (annotated - read) / 2000 <= 2000


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 1\n', encoding="utf-8")
    with pytest.raises(ParseError, match="bad.jsonl:1"):
        corpus.read_jsonl(path)


def test_manifest_round_trip(small_manifest):
    rec = corpus.manifest_to_dict(small_manifest)
    again = corpus.manifest_from_dict(json.loads(json.dumps(rec)))
    assert again == small_manifest


# ---------------------------------------------------------------------------
# Synthesis


def test_synthesis_is_deterministic(small_manifest):
    a = corpus.synthesize_corpus(small_manifest, 0.9)
    b = corpus.synthesize_corpus(small_manifest, 0.9)
    for split in a:
        assert a[split] == b[split]


def test_synthesis_split_sizes_and_validity(small_manifest, small_splits):
    for split, size in small_manifest.split_sizes.items():
        instances = small_splits[split]
        assert len(instances) == size
        for inst in instances:
            inst.validate()
            assert inst.relation in small_manifest.relations


def test_synthetic_trees_are_single_rooted_and_projective(small_splits):
    for inst in itertools.chain.from_iterable(small_splits.values()):
        roots = [head for head in inst.heads if head == -1]
        assert len(roots) == 1
        edges = [
            (min(i, head), max(i, head))
            for i, head in enumerate(inst.heads)
            if head != -1
        ]
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            crossing = a < c < b < d or c < a < d < b
            assert not crossing, f"{inst.id}: crossing arcs"


def test_lexicon_recovers_gold_sentiment(small_splits, lexicon):
    """Cue words are drawn so a majority vote matches gold on >= 95%."""
    hits = total = 0
    for inst in itertools.chain.from_iterable(small_splits.values()):
        blind = Instance(inst.id, inst.tokens, inst.heads, inst.deprels, inst.subj, inst.obj,
                         inst.relation)
        hits += sentiment.classify(blind, lexicon) == inst.sentiment
        total += 1
    assert hits / total >= 0.95


def test_coupling_one_pins_sentiment_to_relation_polarity():
    manifest = corpus.default_manifest(seed=3, train=300, dev=1, test=1)
    splits = corpus.synthesize_corpus(manifest, 1.0)
    for inst in splits["train"]:
        polarity = corpus.RELATION_SPECS[inst.relation][2]
        if polarity is not None:
            assert inst.sentiment == polarity


def test_coupling_zero_sentiment_independent_of_relation():
    scipy_stats = pytest.importorskip("scipy.stats")
    manifest = corpus.default_manifest(seed=9, train=2000, dev=1, test=1)
    splits = corpus.synthesize_corpus(manifest, 0.0)
    table = {}
    for inst in splits["train"]:
        key = (inst.relation, inst.sentiment)
        table[key] = table.get(key, 0) + 1
    relations = sorted({r for r, _ in table})
    counts = [[table.get((r, s), 0) for s in ("positive", "negative")] for r in relations]
    _, p_value, _, _ = scipy_stats.chi2_contingency(counts)
    assert p_value > 0.01


def test_distractor_nouns_never_on_sdp(small_splits):
    for inst in itertools.chain.from_iterable(small_splits.values()):
        gold = set(corpus.RELATION_NOUNS[inst.relation])
        other = {
            n
            for rel, nouns in corpus.RELATION_NOUNS.items()
            if rel != inst.relation
            for n in nouns
        } - gold
        for pos in syntax.sdp_for_instance(inst).path:
            assert inst.tokens[pos] not in other


def test_relation_noun_pools_disjoint_and_off_lexicon(lexicon):
    pools = corpus.RELATION_NOUNS
    for a, b in itertools.combinations(pools, 2):
        assert not set(pools[a]) & set(pools[b]), (a, b)
    words = {n for nouns in pools.values() for n in nouns}
    assert not words & (lexicon.positive | lexicon.negative)


def test_synthesize_corpus_rejects_bad_coupling(small_manifest):
    with pytest.raises(corpus.ConfigError):
        corpus.synthesize_corpus(small_manifest, 1.5)


def test_synthesize_corpus_rejects_unknown_relation(small_manifest):
    bad = corpus.CorpusManifest(
        relations=["no_relation", "made_up"],
        entity_types={"no_relation": ("ORG", "MISC"), "made_up": ("ORG", "ORG")},
        split_sizes={"train": 4},
        seed=0,
    )
    with pytest.raises(corpus.ConfigError, match="made_up"):
        corpus.synthesize_corpus(bad, 0.5)


def test_manifest_rejects_negative_split_size():
    """validate() holds the check, so a manifest built in Python is refused
    as one read from JSON is."""
    with pytest.raises(corpus.ConfigError) as exc:
        corpus.default_manifest(train=-3)
    assert str(exc.value) == "split sizes must be >= 0, got {'train': -3, 'dev': 400, 'test': 400}"


def test_coupling_draw_is_integer_grained():
    rng_a = random.Random("x")
    rng_b = random.Random("x")
    a = [corpus._draw_sentiment("positive", 0.9, rng_a) for _ in range(200)]
    b = [corpus._draw_sentiment("positive", 0.9, rng_b) for _ in range(200)]
    assert a == b


# ---------------------------------------------------------------------------
# Ambiguous instances: shared nouns disambiguated only by sentiment, with
# test-split cue vocabulary held out of train.


def test_ambiguous_cue_pools_are_lexicon_words_and_split_disjoint(lexicon):
    for pool, words in corpus.AMB_CUES_TRAIN.items():
        assert set(words) <= getattr(lexicon, pool)
    for pool, words in corpus.AMB_CUES_HELDOUT.items():
        assert set(words) <= getattr(lexicon, pool)
    train_words = {w for v in corpus.AMB_CUES_TRAIN.values() for w in v}
    heldout = {w for v in corpus.AMB_CUES_HELDOUT.values() for w in v}
    assert not train_words & heldout


def test_ambiguous_nouns_shared_within_pair_and_off_lexicon(lexicon):
    assert corpus.AMBIGUOUS_NOUNS["profit_of"] == corpus.AMBIGUOUS_NOUNS["loss_of"]
    assert corpus.AMBIGUOUS_NOUNS["revenue_of"] == corpus.AMBIGUOUS_NOUNS["debt_of"]
    words = {n for v in corpus.AMBIGUOUS_NOUNS.values() for n in v}
    assert not words & (lexicon.positive | lexicon.negative)
    rel_nouns = {n for v in corpus.RELATION_NOUNS.values() for n in v}
    assert not words & rel_nouns


def test_heldout_cues_never_appear_outside_test_split(small_splits):
    heldout = {w for v in corpus.AMB_CUES_HELDOUT.values() for w in v}
    for split in ("train", "dev"):
        for inst in small_splits[split]:
            assert not set(inst.tokens) & heldout


def test_test_split_uses_heldout_cue_vocabulary():
    man = corpus.default_manifest(seed=3, train=200, dev=50, test=200)
    splits = corpus.synthesize_corpus(man, 0.9)
    train_cues = {w for v in corpus.AMB_CUES_TRAIN.values() for w in v}
    heldout = {w for v in corpus.AMB_CUES_HELDOUT.values() for w in v}
    test_surfaces = {t for inst in splits["test"] for t in inst.tokens}
    assert test_surfaces & heldout
    assert not test_surfaces & train_cues


def test_ambiguous_instances_have_exactly_one_polarity_word(lexicon):
    """The single in-text cue matches gold sentiment, so the tagger recovers it."""
    man = corpus.default_manifest(seed=9, train=300, dev=1, test=1)
    amb_nouns = {n for v in corpus.AMBIGUOUS_NOUNS.values() for n in v}
    polarity_words = lexicon.positive | lexicon.negative
    seen = 0
    for inst in corpus.synthesize_corpus(man, 0.9)["train"]:
        if not set(inst.tokens) & amb_nouns:
            continue
        seen += 1
        hits = [t for t in inst.tokens if t.lower() in polarity_words]
        assert len(hits) == 1
        pool = lexicon.positive if inst.sentiment == "positive" else lexicon.negative
        assert hits[0] in pool
    assert seen > 10
