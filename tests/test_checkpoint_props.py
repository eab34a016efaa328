"""Property tests of the checkpoint format over random small models."""

import re
import tempfile
from pathlib import Path

import pytest

from ssdpsem import encoder as enc

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def states(draw):
    heads = draw(st.integers(1, 3))
    n_relations = draw(st.integers(1, 4))
    config = enc.EncoderConfig(
        layers=draw(st.integers(1, 3)),
        heads=heads,
        d_model=heads * draw(st.integers(1, 4)),
        d_ff=draw(st.integers(1, 8)),
        max_len=draw(st.integers(1, 64)),
        last_k=draw(st.integers(1, 3)),
    )
    words = draw(st.lists(st.text(min_size=1, max_size=6), max_size=8, unique=True))
    # now and then a repeated special, which no checkpoint may hold
    words += draw(st.sampled_from([[], [], [], [enc.PAD], [enc.UNK]]))
    relations = draw(st.lists(st.text(min_size=1, max_size=8), min_size=n_relations,
                              max_size=n_relations, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return enc.init_state(config, [enc.PAD, enc.UNK] + words, seed, relations)


@settings(max_examples=30, deadline=None)
@given(state=states(), data=st.data())
def test_checkpoint_round_trip_and_truncation(state, data):
    with tempfile.TemporaryDirectory() as tmp:
        first, second, cut = (Path(tmp) / name for name in ("a.ckpt", "b.ckpt", "cut.ckpt"))
        if len(set(state.vocab)) < len(state.vocab):
            with pytest.raises(ValueError, match=re.escape(f"{first}: unwritable checkpoint "
                                                           "header: vocab must be distinct")):
                enc.save_checkpoint(state, first)
            assert not first.exists()
            return
        enc.save_checkpoint(state, first)
        loaded = enc.load_checkpoint(first)
        assert loaded.flat.tobytes() == state.flat.tobytes()
        assert (loaded.config, loaded.vocab, loaded.relations, loaded.seed) == (
            state.config, state.vocab, state.relations, state.seed)
        enc.save_checkpoint(loaded, second)
        blob = first.read_bytes()
        assert second.read_bytes() == blob

        cut.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])
        with pytest.raises(ValueError, match=re.escape(str(cut))):
            enc.load_checkpoint(cut)
