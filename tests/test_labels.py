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
    epl_at, spl_at, isl_at = (np.flatnonzero(Q).tolist() for Q in (epl, spl, isl))
    assert set(epl_at) <= set(spl_at) <= set(isl_at)
    for Q in (epl, spl, isl):
        assert set(np.unique(Q)) <= {0.0, 1.0}
        assert Q.sum() >= 1  # so asp_loss's q = Q / sum(Q) is defined
        assert len(Q) == n
    assert 0 in isl_at  # sentiment slot
    assert set(sdp) <= set(spl_at)
    for lo, hi in (subj, obj):
        assert set(range(lo, hi + 1)) <= set(epl_at)


def test_epl_marks_only_entities():
    inst = build_augmented(8, (2, 3), (6, 6))
    Q = labels.build_signal(inst, [1, 4, 5], "EPL")
    assert np.flatnonzero(Q).tolist() == [2, 3, 6]


def test_isl_includes_sentiment_slot_even_without_sdp():
    inst = build_augmented(5, (1, 1), (3, 3))
    Q = labels.build_signal(inst, [], "ISL")
    assert np.flatnonzero(Q).tolist() == [0, 1, 3]


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
        pos = {v: set(np.flatnonzero(p.Q).tolist()) for v, p in prepared.items()}
        assert pos["EPL"] <= pos["SPL"] <= pos["ISL"]


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
        raw = [syntax.sdp_for_instance(inst) for inst in instances]
        assert [sorted(syntax.sdp_for_instance(p.augmented).path) for p in prepared] == [
            [q + 1 for q in sorted(r.path)] for r in raw]
        assert stats.sdp_fallbacks == sum(r.fallback for r in raw)
    assert 0 < stats.sdp_fallbacks < len(forests)


def test_prepared_instance_holds_the_augmented_instance_q_and_variant(small_splits, lexicon):
    """The annotation record is (augmented, Q, variant), and its Q is the
    signal built from the SDP of its own augmented instance, bit for bit."""
    assert pipeline.PreparedInstance.__slots__ == ("augmented", "Q", "variant")
    rng = random.Random(7)
    forests = [random_forest_instance(rng, rng.randint(2, 16)) for _ in range(400)]
    instances = list(itertools.chain(*small_splits.values())) + forests
    for variant in labels.VARIANTS:
        prepared, stats = pipeline.annotate(instances, lexicon, variant)
        assert stats.instances == len(instances)
        for p in prepared:
            assert p.variant == variant
            expected = labels.build_signal(
                p.augmented, sorted(syntax.sdp_for_instance(p.augmented).path), variant)
            assert p.Q.dtype == expected.dtype and p.Q.tobytes() == expected.tobytes()
