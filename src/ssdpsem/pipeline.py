"""Preprocessing glue: sentiment tagging, token insertion, SDP extraction,
and supervisory-signal construction for whole instance lists.

Input is raw instances.  An instance that already starts with a sentiment
token (for example a record of ``ssdp annotate`` output) is rejected, since
annotating it again would prepend a second one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import labels, sentiment, syntax
from .corpus import Instance


@dataclass
class AnnotateStats:
    """One annotation pass's counts, as annotate_stats.json holds them."""

    instances: int = 0
    sdp_fallbacks: int = 0  # disconnected entity pairs
    fragments: int = 0
    tag_ties: int = 0  # lexicon votes with equal, nonzero hits
    tag_no_hits: int = 0  # lexicon votes without a hit


@dataclass(slots=True)
class PreparedInstance:
    augmented: Instance  # sentiment token prepended, indices re-based
    Q: np.ndarray  # labels.build_signal's indicator over the augmented tokens
    variant: str  # the signal variant Q was built for


def check_raw(inst):
    """Raise ValueError naming ``inst`` if it already starts with a
    sentiment token."""
    if inst.deprels and inst.deprels[0] == sentiment.SENTIMENT_DEPREL:
        raise ValueError(f"{inst.id}: already starts with a sentiment token; pass raw input")


def annotate_instance(inst, lexicon, variant, stats=None) -> PreparedInstance:
    """Tag, prepend the sentiment token, then read the SDP and the signal
    off the augmented instance, so every index is an augmented one.  The
    token is a leaf on the root, so the SDP is the raw one shifted by one."""
    check_raw(inst)
    tag = sentiment.classify(inst, lexicon, stats)
    augmented = sentiment.insert_sentiment_token(inst, tag)
    sdp = syntax.sdp_for_instance(augmented)
    Q = labels.build_signal(augmented, sdp.path, variant)
    if stats is not None:
        stats.instances += 1
        stats.sdp_fallbacks += int(sdp.fallback)
        stats.fragments += int(inst.fragmented)
    return PreparedInstance(augmented=augmented, Q=Q, variant=variant)


def annotate(instances, lexicon, variant) -> tuple[list[PreparedInstance], AnnotateStats]:
    stats = AnnotateStats()
    return [annotate_instance(i, lexicon, variant, stats) for i in instances], stats
