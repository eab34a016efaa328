"""Label-signal construction: the EPL ⊆ SPL ⊆ ISL hierarchy of binary marks."""

import itertools
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ssdpsem import labels, pipeline, sentiment, syntax
from ssdpsem.corpus import ROOT, Instance


def build_augmented(n, subj, obj):
    return Instance(id="a", tokens=("positive", *(f"w{i}" for i in range(1, n))),
                    heads=(1, ROOT, *range(1, n - 1)),
                    deprels=("sentiment",) + ("dep",) * (n - 1), subj=subj, obj=obj,
                    relation="r")


@st.composite
def signal_cases(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    s_lo = draw(st.integers(min_value=1, max_value=n - 3))
    s_hi = draw(st.integers(min_value=s_lo, max_value=min(s_lo + 2, n - 3)))
    o_lo = draw(st.integers(min_value=s_hi + 1, max_value=n - 1))
    o_hi = draw(st.integers(min_value=o_lo, max_value=min(o_lo + 2, n - 1)))
    sdp = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=8))
    return n, (s_lo, s_hi), (o_lo, o_hi), sorted(set(sdp))


@given(signal_cases())
@settings(max_examples=200, deadline=None)
def test_hierarchy_and_normalization(case):
    n, subj, obj, sdp = case
    inst = build_augmented(n, subj, obj)
    epl = labels.build_signal(inst, sdp, "EPL")
    spl = labels.build_signal(inst, sdp, "SPL")
    isl = labels.build_signal(inst, sdp, "ISL")
    assert set(epl.positions) <= set(spl.positions) <= set(isl.positions)
    for sig in (epl, spl, isl):
        assert set(np.unique(sig.Q)) <= {0.0, 1.0}
        assert sig.Q.sum() >= 1  # so asp_loss's q = Q / sum(Q) is defined
        assert len(sig.Q) == n
    assert 0 in isl.positions  # sentiment slot
    assert set(sdp) <= set(spl.positions)
    for lo, hi in (subj, obj):
        assert set(range(lo, hi + 1)) <= set(epl.positions)


def test_epl_marks_only_entities():
    inst = build_augmented(8, (2, 3), (6, 6))
    sig = labels.build_signal(inst, [1, 4, 5], "EPL")
    assert sig.positions == [2, 3, 6]


def test_isl_includes_sentiment_slot_even_without_sdp():
    inst = build_augmented(5, (1, 1), (3, 3))
    sig = labels.build_signal(inst, [], "ISL")
    assert sig.positions == [0, 1, 3]


def test_unknown_variant_rejected():
    inst = build_augmented(5, (1, 1), (3, 3))
    with pytest.raises(ValueError, match="variant"):
        labels.build_signal(inst, [], "XXL")


def test_out_of_range_sdp_position_rejected():
    inst = build_augmented(5, (1, 1), (3, 3))
    with pytest.raises(ValueError, match="outside"):
        labels.build_signal(inst, [9], "SPL")


def test_pipeline_hierarchy_on_synthetic_corpus(small_splits, lexicon):
    for inst in small_splits["dev"]:
        prepared = {
            v: pipeline.annotate_instance(inst, lexicon, v) for v in labels.VARIANTS
        }
        pos = {v: set(p.signal.positions) for v, p in prepared.items()}
        assert pos["EPL"] <= pos["SPL"] <= pos["ISL"]


def test_annotate_caches_signal_on_instance(small_splits, lexicon):
    prepared, stats = pipeline.annotate(small_splits["dev"][:5], lexicon, "ISL")
    assert stats.instances == 5
    for p in prepared:
        # sentiment insertion shifted the SDP by one
        assert all(q >= 1 for q in p.sdp_positions)


def random_forest_instance(rng, n):
    """A forest of 1-4 trees over n tokens, with two disjoint entity spans:
    tokens join in a random order, the first few as roots, each later one
    under a random earlier one."""
    order = rng.sample(range(n), n)
    roots = rng.randint(1, 4)
    heads = {t: ROOT for t in order[:roots]}
    for k, t in enumerate(order[roots:], roots):
        heads[t] = order[rng.randrange(k)]
    cut = rng.randrange(1, n)
    s_lo = rng.randrange(cut)
    o_lo = rng.randrange(cut, n)
    return Instance(
        id=f"forest{n}", tokens=tuple(f"w{i}" for i in range(n)),
        heads=tuple(heads[i] for i in range(n)), deprels=("dep",) * n,
        subj=(s_lo, rng.randrange(s_lo, cut)), obj=(o_lo, rng.randrange(o_lo, n)),
        relation="r", fragmented=roots != 1,
    ).validate()


def test_annotate_sdp_is_the_raw_sdp_shifted_by_one(small_splits, lexicon):
    """The sentiment token is a leaf on the root, so the SDP read off the
    augmented instance is the raw one, one index up, with the same
    fallbacks."""
    rng = random.Random(11)
    forests = [random_forest_instance(rng, rng.randint(2, 16)) for _ in range(400)]
    for instances in (list(itertools.chain(*small_splits.values())), forests):
        prepared, stats = pipeline.annotate(instances, lexicon, "ISL")
        raw = [syntax.sdp_for_instance(inst)[0] for inst in instances]
        assert [p.sdp_positions for p in prepared] == [[q + 1 for q in r.token_set]
                                                       for r in raw]
        assert stats.sdp_fallbacks == sum(r.fallback for r in raw)
    assert 0 < stats.sdp_fallbacks < len(forests)
