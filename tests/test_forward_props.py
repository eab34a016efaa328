"""Property tests: the encoder and the relation head compute each row of a
batch as if it ran alone.

Training runs batches of up to 16 same-length rows, `ssdp eval` up to 64 and
`ssdp inspect` one, so a row's features, attention and head outputs must not
depend on its batch mates, bit for bit.
"""

import numpy as np
import pytest

from ssdpsem import encoder as enc
from ssdpsem import objectives as obj

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def batches(draw):
    heads = draw(st.integers(1, 4))
    config = enc.EncoderConfig(
        layers=draw(st.integers(1, 4)),
        heads=heads,
        d_model=heads * draw(st.integers(1, 16)),
        d_ff=draw(st.integers(1, 128)),
        max_len=64,
    )
    vocab = [enc.PAD, enc.UNK] + [f"w{i}" for i in range(draw(st.integers(0, 30)))]
    relations = [f"r{i}" for i in range(draw(st.integers(1, 9)))]
    state = enc.init_state(config, vocab, draw(st.integers(0, 2**32 - 1)), relations)
    B, n = draw(st.integers(1, 16)), draw(st.integers(1, 34))
    seed = draw(st.integers(0, 2**32 - 1))
    ids = np.random.default_rng(seed).integers(0, len(vocab), size=(B, n))
    return state, ids


@settings(max_examples=30, deadline=None)
@given(batch=batches())
def test_a_batched_forward_row_equals_the_row_run_alone(batch):
    state, ids = batch
    together = enc.forward(state, ids)
    for b in range(len(ids)):
        alone = enc.forward(state, ids[b:b + 1])
        assert alone.features.tobytes() == together.features[b:b + 1].tobytes()
        for ell, (a, t) in enumerate(zip(alone.attention, together.attention)):
            assert a.tobytes() == t[b:b + 1].tobytes(), f"layer {ell}, row {b}"


@settings(max_examples=30, deadline=None)
@given(batch=batches())
def test_a_batched_head_row_equals_the_row_run_alone(batch):
    state, ids = batch
    B, n = ids.shape
    together = obj.relation_head(state.params, enc.forward(state, ids).features)
    shapes = [(B, n), (B, state.config.d_model), (B, len(state.relations))]
    assert [out.shape for out in together] == shapes
    assert np.allclose(together[2].sum(axis=1), 1.0)
    for b in range(B):
        alone = obj.relation_head(state.params, enc.forward(state, ids[b:b + 1]).features)
        for name, a, t in zip(("alpha_ib", "pooled", "probs"), alone, together):
            assert a.tobytes() == t[b:b + 1].tobytes(), f"{name}, row {b}"
