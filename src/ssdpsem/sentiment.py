"""Binary sentiment tagging and sentiment-token insertion.

The tag is either taken from the instance's gold annotation or produced by
a lexicon majority vote over lowercased surfaces.  The chosen tag is then
prepended to the token sequence as a real vocabulary item ("positive" /
"negative"), shifting every position index by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import NEGATIVE, POSITIVE, ROOT, Instance, ParseError, _lines

SENTIMENT_DEPREL = "sentiment"  # relation of the inserted token to the root


@dataclass
class SentimentLexicon:
    positive: frozenset[str]
    negative: frozenset[str]

    def __post_init__(self):
        if not self.positive or not self.negative:
            raise ValueError("lexicon cue sets must be non-empty")
        overlap = self.positive & self.negative
        if overlap:
            raise ValueError(f"lexicon cue sets overlap: {sorted(overlap)[:5]}")


def load_lexicon(path=None) -> SentimentLexicon:
    """Read a word<TAB>polarity lexicon; defaults to the bundled one.  A bad
    line, or one that is not UTF-8, raises ParseError naming the file and
    the line."""
    path = (resources.files("ssdpsem.data").joinpath("financial_lexicon.tsv") if path is None
            else Path(path))
    pos, neg = set(), set()
    for lineno, line in _lines(path):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}: lexicon line {lineno}: expected word<TAB>polarity")
        word, polarity = parts[0].strip().lower(), parts[1].strip().lower()
        if polarity == POSITIVE:
            pos.add(word)
        elif polarity == NEGATIVE:
            neg.add(word)
        else:
            raise ParseError(f"{path}: lexicon line {lineno}: unknown polarity {polarity!r}")
    try:
        return SentimentLexicon(frozenset(pos), frozenset(neg))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def classify(instance: Instance, lexicon: SentimentLexicon, stats=None) -> str:
    """``"positive"`` or ``"negative"``: the gold tag when present, else a
    lexicon majority vote (tie -> positive).  A vote with equal hits counts
    in ``stats``, a ``pipeline.AnnotateStats``, as a tie or, with no hit at
    all, as a no-hit."""
    if instance.sentiment is not None:
        return instance.sentiment
    pos_hits = neg_hits = 0
    for word in instance.tokens:
        surface = word.lower()
        if surface in lexicon.positive:
            pos_hits += 1
        elif surface in lexicon.negative:
            neg_hits += 1
    if pos_hits == neg_hits and stats is not None:
        if pos_hits == 0:
            stats.tag_no_hits += 1
        else:
            stats.tag_ties += 1
    return NEGATIVE if neg_hits > pos_hits else POSITIVE


def insert_sentiment_token(instance: Instance, tag: str) -> Instance:
    """Prepend the sentiment token ``tag``; all indices (heads, spans) shift
    by +1.

    The inserted token is a leaf attached to the (first) sentence root, so
    the augmented structure keeps the raw one's connected components, and no
    path between two other tokens passes through it.
    """
    heads = instance.heads
    root_pos = heads.index(ROOT) if ROOT in heads else 0
    return Instance(
        id=instance.id,
        tokens=(tag, *instance.tokens),
        heads=(root_pos + 1, *[ROOT if head == ROOT else head + 1 for head in heads]),
        deprels=(SENTIMENT_DEPREL, *instance.deprels),
        subj=(instance.subj[0] + 1, instance.subj[1] + 1),
        obj=(instance.obj[0] + 1, instance.obj[1] + 1),
        relation=instance.relation,
        sentiment=instance.sentiment,
        fragmented=instance.fragmented,
    )
