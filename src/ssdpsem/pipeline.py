"""Preprocessing glue: sentiment tagging, token insertion, SDP extraction,
and supervisory-signal construction for whole instance lists.

Input is raw instances.  An instance that already starts with a sentiment
token (for example a record of ``ssdp annotate`` output) is rejected, since
annotating it again would prepend a second one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import labels, sentiment, syntax
from .corpus import Instance


@dataclass
class AnnotateStats:
    instances: int = 0
    sdp_fallbacks: int = 0  # disconnected entity pairs
    fragments: int = 0
    tag_stats: sentiment.TagStats = field(default_factory=sentiment.TagStats)


@dataclass
class PreparedInstance:
    raw: Instance
    augmented: Instance  # sentiment token prepended, indices re-based
    sdp_positions: list[int]  # augmented indices
    signal: labels.IslSignal


def annotate_instance(inst, lexicon, variant, stats=None) -> PreparedInstance:
    if inst.tokens and inst.tokens[0].deprel == sentiment.SENTIMENT_DEPREL:
        raise ValueError(f"{inst.id}: already starts with a sentiment token; pass raw input")
    tag = sentiment.classify(inst, lexicon, stats.tag_stats if stats else None)
    sdp, _, _ = syntax.sdp_for_instance(inst)
    augmented = sentiment.insert_sentiment_token(inst, tag)
    sdp_positions = sentiment.shift_positions(sdp.token_set)
    signal = labels.build_signal(augmented, sdp_positions, variant)
    if stats is not None:
        stats.instances += 1
        stats.sdp_fallbacks += int(sdp.fallback)
        stats.fragments += int(inst.fragmented)
    return PreparedInstance(
        raw=inst, augmented=augmented, sdp_positions=sdp_positions, signal=signal
    )


def annotate(instances, lexicon, variant) -> tuple[list[PreparedInstance], AnnotateStats]:
    stats = AnnotateStats()
    return [annotate_instance(i, lexicon, variant, stats) for i in instances], stats
