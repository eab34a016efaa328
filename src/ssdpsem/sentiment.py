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

from .corpus import NEGATIVE, POSITIVE, ROOT, Instance, ParseError, Token

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


@dataclass
class SentimentTag:
    value: str  # "positive" | "negative"
    source: str  # "gold" | "lexicon"


@dataclass
class TagStats:
    """Telemetry for lexicon fallbacks."""

    ties: int = 0
    no_hits: int = 0


def load_lexicon(path=None) -> SentimentLexicon:
    """Read a word<TAB>polarity lexicon; defaults to the bundled one.  A bad
    line raises ParseError naming the file and the line."""
    path = (resources.files("ssdpsem.data").joinpath("financial_lexicon.tsv") if path is None
            else Path(path))
    text = path.read_text(encoding="utf-8")
    pos, neg = set(), set()
    for lineno, line in enumerate(text.splitlines(), 1):
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


def classify(instance: Instance, lexicon: SentimentLexicon, stats: TagStats | None = None):
    """Gold tag when present, else lexicon majority vote (tie -> positive)."""
    if instance.sentiment is not None:
        return SentimentTag(instance.sentiment, "gold")
    pos_hits = neg_hits = 0
    for tok in instance.tokens:
        surface = tok.surface.lower()
        if surface in lexicon.positive:
            pos_hits += 1
        elif surface in lexicon.negative:
            neg_hits += 1
    if pos_hits == neg_hits and stats is not None:
        if pos_hits == 0:
            stats.no_hits += 1
        else:
            stats.ties += 1
    value = NEGATIVE if neg_hits > pos_hits else POSITIVE
    return SentimentTag(value, "lexicon")


def insert_sentiment_token(instance: Instance, tag: SentimentTag) -> Instance:
    """Prepend the sentiment token; all indices (heads, spans) shift by +1.

    The inserted token attaches to the sentence root so the augmented
    structure stays a single tree.
    """
    root_pos = next((t.index for t in instance.tokens if t.head == ROOT), 0)
    tokens = [Token(0, tag.value, root_pos + 1, SENTIMENT_DEPREL)]
    for tok in instance.tokens:
        head = ROOT if tok.head == ROOT else tok.head + 1
        tokens.append(Token(tok.index + 1, tok.surface, head, tok.deprel))
    return Instance(
        id=instance.id,
        tokens=tokens,
        subj=(instance.subj[0] + 1, instance.subj[1] + 1),
        obj=(instance.obj[0] + 1, instance.obj[1] + 1),
        relation=instance.relation,
        sentiment=instance.sentiment,
        fragmented=instance.fragmented,
    )


def shift_positions(positions, offset=1):
    """Re-base an index collection after sentiment insertion."""
    return [p + offset for p in positions]
