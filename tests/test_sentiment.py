"""Lexicon loading, majority-vote tagging, and sentiment-token insertion."""

import pytest

from ssdpsem import pipeline, sentiment
from ssdpsem.corpus import ROOT, Instance, ParseError


def make_instance(words, sentiment_label=None):
    n = len(words)
    return Instance(id="s", tokens=tuple(words), heads=(ROOT, *range(n - 1)),
                    deprels=("root",) + ("dep",) * (n - 1), subj=(0, 0), obj=(n - 1, n - 1),
                    relation="r", sentiment=sentiment_label)


def test_lexicon_loads_and_is_disjoint(lexicon):
    assert lexicon.positive and lexicon.negative
    assert not lexicon.positive & lexicon.negative


def test_lexicon_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        sentiment.SentimentLexicon(frozenset({"up"}), frozenset({"up", "down"}))


def test_load_lexicon_rejects_malformed_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good positive\n", encoding="utf-8")  # space, not tab
    with pytest.raises(ParseError, match="line 1"):
        sentiment.load_lexicon(path)


def test_load_lexicon_rejects_unknown_polarity(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("word\tmeh\n", encoding="utf-8")
    with pytest.raises(ParseError, match="polarity"):
        sentiment.load_lexicon(path)


def test_gold_label_takes_priority(lexicon):
    inst = make_instance(["fell", "down", "sharply"], sentiment_label="positive")
    assert sentiment.classify(inst, lexicon) == "positive"


def test_majority_vote_positive(lexicon):
    tag = sentiment.classify(make_instance(["profits", "rose", "up", "today"]), lexicon)
    assert tag == "positive"


def test_majority_vote_negative(lexicon):
    tag = sentiment.classify(make_instance(["losses", "and", "decline"]), lexicon)
    assert tag == "negative"


def test_vote_is_case_insensitive(lexicon):
    tag = sentiment.classify(make_instance(["Losses", "DECLINE", "x"]), lexicon)
    assert tag == "negative"


def test_tie_defaults_positive_and_counts(lexicon):
    stats = pipeline.AnnotateStats()
    tag = sentiment.classify(make_instance(["rose", "fell"]), lexicon, stats)
    assert tag == "positive"
    assert stats.tag_ties == 1
    assert stats.tag_no_hits == 0


def test_no_hits_defaults_positive_and_counts(lexicon):
    stats = pipeline.AnnotateStats()
    tag = sentiment.classify(make_instance(["the", "cat", "sat"]), lexicon, stats)
    assert tag == "positive"
    assert stats.tag_no_hits == 1


def test_insert_sentiment_token_shifts_everything():
    inst = make_instance(["a", "b", "c", "d", "e"])
    augmented = sentiment.insert_sentiment_token(inst, "positive")
    assert len(augmented.tokens) == 6
    assert augmented.tokens[0] == "positive"
    assert augmented.heads[0] == 1  # attaches to the shifted root
    assert list(augmented.tokens[1:]) == ["a", "b", "c", "d", "e"]
    assert augmented.subj == (1, 1)
    assert augmented.obj == (5, 5)
    # original root stays the unique root
    assert [i for i, head in enumerate(augmented.heads) if head == ROOT] == [1]
    augmented.validate()


def test_insert_preserves_structure_for_negative():
    inst = make_instance(["x", "y"])
    augmented = sentiment.insert_sentiment_token(inst, "negative")
    assert augmented.tokens[0] == "negative"
    assert augmented.heads[2] == 1

