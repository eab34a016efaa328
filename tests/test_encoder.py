"""Encoder forward/backward internals, attention averaging, checkpoints."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ssdpsem import encoder as enc
from ssdpsem.trainer import FD_STEP, GRADCHECK_TOLERANCE


def tiny_state(layers=2, heads=2, d_model=8, d_ff=16, vocab_extra=("a", "b", "c"),
               seed=0):
    vocab = [enc.PAD, enc.UNK] + list(vocab_extra) + ["positive", "negative"]
    config = enc.EncoderConfig(
        layers=layers, heads=heads, d_model=d_model, d_ff=d_ff, max_len=16, last_k=2,
    )
    return enc.init_state(config, vocab, seed, relations=["r0", "r1", "r2"])


def test_init_draws_in_the_parents_order():
    """init_state's weights, bit for bit, against the explicit draw sequence
    the checkpoint body has always held: emb, then per layer Wq, Wk, Wv, Wo,
    W1, W2, then saib.W and clf.W, each uniform in +-1/sqrt(fan_in)."""
    state = tiny_state(seed=3)
    cfg = state.config
    d, ff, V, R = cfg.d_model, cfg.d_ff, len(state.vocab), len(state.relations)
    rng = np.random.default_rng(3)

    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    expected = {"emb": u(d, V, d)}
    for ell in range(cfg.layers):
        p = f"L{ell}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            expected[p + name] = u(d, d, d)
            expected[p + name.replace("W", "b")] = np.zeros(d)
        expected[p + "ln1_g"], expected[p + "ln1_b"] = np.ones(d), np.zeros(d)
        expected[p + "W1"], expected[p + "b1"] = u(d, d, ff), np.zeros(ff)
        expected[p + "W2"], expected[p + "b2"] = u(ff, ff, d), np.zeros(d)
        expected[p + "ln2_g"], expected[p + "ln2_b"] = np.ones(d), np.zeros(d)
    expected["saib.W"], expected["saib.b"] = u(2 * d, 2 * d), np.zeros(1)
    expected["clf.W"], expected["clf.b"] = u(d, d, R), np.zeros(R)
    assert cfg.layers == 2
    reference = np.concatenate([expected[k].ravel() for k in sorted(expected)])
    assert state.flat.tobytes() == reference.tobytes()


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        enc.EncoderConfig(heads=3, d_model=8)
    with pytest.raises(ValueError, match="last_k must be >= 1"):
        enc.EncoderConfig(last_k=0)
    with pytest.raises(ValueError, match="d_ff must be of type int, got float 128.0"):
        enc.EncoderConfig(d_ff=128.0)


def test_init_is_seeded_and_reproducible():
    a, b = tiny_state(seed=7), tiny_state(seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = tiny_state(seed=8)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_vocab_and_encoding():
    state = tiny_state()
    ids = enc.encode_tokens(state, ["a", "zzz", "positive"])
    assert ids[1] == state.token_to_id[enc.UNK]
    assert state.vocab[ids[0]] == "a"


def test_forward_shapes_and_row_stochastic_attention():
    state = tiny_state()
    ids = np.array([[2, 3, 4, 5], [3, 3, 2, 6]])
    out = enc.forward(state, ids)
    B, n, d = out.features.shape
    assert (B, n, d) == (2, 4, 8)
    assert len(out.attention) == state.config.layers
    for A in out.attention:
        assert A.shape == (2, state.config.heads, 4, 4)
        assert np.allclose(A.sum(axis=-1), 1.0)
        assert (A >= 0).all()


def test_forward_rejects_overlong_and_bad_ids():
    state = tiny_state()
    with pytest.raises(ValueError, match="max_len"):
        enc.forward(state, np.zeros((1, 99), dtype=np.int64))
    with pytest.raises(ValueError, match="unknown token id"):
        enc.forward(state, np.array([[0, 1, 999]]))


def test_layernorm_output_is_normalized():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(3, 5, 8))
    y, _ = enc._layernorm(u, np.ones(8), np.zeros(8))
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_positional_encoding_matches_closed_form():
    pe = enc.positional_encoding(6, 8)
    assert pe.shape == (6, 8)
    assert np.allclose(pe[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(pe[0, 1::2], 1.0)  # cos(0)
    assert abs(pe[3, 0] - np.sin(3.0)) < 1e-12
    assert abs(pe[3, 1] - np.cos(3.0)) < 1e-12
    assert not pe.flags.writeable
    assert enc.positional_encoding(6, 8) is pe


def test_average_attention_received_sums_to_one():
    state = tiny_state()
    out = enc.forward(state, np.array([[2, 3, 4, 5, 6]]))
    avg = enc.average_attention(out.attention, last_k=2)
    assert avg.shape == (1, 5)
    assert np.allclose(avg.sum(axis=1), 1.0)
    assert (avg >= 0).all()


def test_backward_d_avg_matches_finite_differences():
    """backward's d_avg is the gradient of <d_avg, average_attention(...)>,
    also for a layer before the last_k window."""
    state = tiny_state(layers=3)  # last_k=2 leaves layer 0 outside the window
    ids = np.array([[2, 3, 4, 5, 6], [6, 5, 4, 3, 2]])
    d_avg = np.random.default_rng(5).normal(size=ids.shape)

    def value():
        attention = enc.forward(state, ids).attention
        return float((d_avg * enc.average_attention(attention, last_k=2)).sum())

    fwd = enc.forward(state, ids)
    grads = enc.backward(state, fwd, np.zeros_like(fwd.features), d_avg)
    for block in ("L0.Wq", "L0.W1", "L1.Wk", "L1.ln1_g", "L2.Wq", "L2.W1", "emb"):
        param, grad = state.params[block].reshape(-1), grads[block].reshape(-1)
        for c in np.unique(np.linspace(0, param.size - 1, 12).astype(int)):
            orig = param[c]
            param[c] = orig + FD_STEP
            up = value()
            param[c] = orig - FD_STEP
            down = value()
            param[c] = orig
            fd = (up - down) / (2 * FD_STEP)
            err = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-6)
            assert err < GRADCHECK_TOLERANCE, (block, c, grad[c], fd)


def test_backward_covers_every_parameter():
    state = tiny_state()
    out = enc.forward(state, np.array([[2, 3, 4, 5]]))
    grads = enc.backward(state, out, np.ones_like(out.features))
    assert set(grads) == set(state.params)
    for name, g in grads.items():
        assert g.shape == state.params[name].shape
        assert np.isfinite(g).all()


@pytest.mark.parametrize("B, n, d, e", [
    (1, 6, 16, 16), (3, 11, 16, 32), (16, 25, 64, 64), (11, 35, 64, 128), (5, 40, 128, 64),
])
def test_weight_grad_matches_einsum(B, n, d, e):
    rng = np.random.default_rng(B * n + d + e)
    a, b = rng.normal(size=(B, n, d)), rng.normal(size=(B, n, e))
    ref = np.einsum("bnd,bne->de", a, b)
    # relative to the block's scale: entries that cancel to near zero carry
    # a summation-order error of the terms' size, not of their own
    got = enc._weight_grad(a, b, np.empty((d, e)), {})
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_weight_grad_is_byte_identical_across_thread_counts():
    """B*n in 385..624 is where a single reshaped (B*n, d) GEMM changed bits
    between 1 and 2 BLAS threads; the per-sample form must not."""
    code = (
        "import hashlib\n"
        "from ssdpsem import cli  # applies SSDP_THREADS before numpy loads\n"
        "import numpy as np\n"
        "from ssdpsem.encoder import _weight_grad\n"
        "h = hashlib.sha256()\n"
        "workspace = {}\n"
        "for B, n in [(11, 35), (11, 36)] + [(16, n) for n in range(25, 40)]:\n"
        "    rng = np.random.default_rng(B * 100 + n)\n"
        "    for d, e in ((64, 64), (64, 128), (128, 64), (16, 32)):\n"
        "        a, b = rng.normal(size=(B, n, d)), rng.normal(size=(B, n, e))\n"
        "        h.update(_weight_grad(a, b, np.empty((d, e)), workspace).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(enc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = [
        subprocess.run([sys.executable, "-c", code], env=dict(env, SSDP_THREADS=threads),
                       check=True, timeout=120, capture_output=True, text=True).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1] != ""


def test_weight_grad_reuses_its_scratch_prefix_bit_for_bit():
    rng = np.random.default_rng(5)
    workspace = {}
    for B in (3, 7, 2, 7):  # grows, shrinks, grows back
        a, b = rng.normal(size=(B, 9, 16)), rng.normal(size=(B, 9, 24))
        fresh = np.matmul(a.transpose(0, 2, 1), b).sum(axis=0)
        assert enc._weight_grad(a, b, np.empty((16, 24)), workspace).tobytes() == fresh.tobytes()
    assert workspace["products"].size == 7 * 16 * 24


def test_workspace_buffers_give_the_bits_of_fresh_arrays():
    state = tiny_state()
    rng = np.random.default_rng(2)
    for B, n in ((2, 5), (3, 7), (1, 4), (3, 7)):  # slots grow, shrink, grow back
        ids = rng.integers(2, len(state.vocab), size=(B, n))
        fresh = enc.forward(state, ids)
        reused = enc.forward(state, ids, state.workspace)
        assert reused.features.tobytes() == fresh.features.tobytes()
        for a, b in zip(reused.attention, fresh.attention):
            assert a.tobytes() == b.tobytes()
        upstream = rng.normal(size=(B, n, state.config.d_model))
        from_fresh = enc.backward(state, fresh, upstream)
        expected = {k: g.copy() for k, g in from_fresh.items()}
        from_reused = enc.backward(state, reused, upstream)
        for name, g in from_reused.items():
            assert g.tobytes() == expected[name].tobytes(), name


def test_embedding_gradient_equals_an_add_at_scatter_bit_for_bit():
    """backward's scatter against np.add.at, on ids that repeat within and
    across rows and leave vocabulary rows unused.  The per-position rows come
    from a twin model that gives each position its own copy of the embedding
    row, so its forward has the same bits and its scatter adds one row per cell."""
    state = tiny_state(vocab_extra=tuple("abcdefgh"))
    ids = np.array([[2, 3, 2, 4, 3], [4, 2, 2, 5, 3]])
    positions = ids.reshape(-1)
    twin = enc.ModelState(config=state.config, seed=0,
                          vocab=[f"w{i}" for i in range(positions.size)],
                          params=dict(state.params, emb=state.params["emb"][positions]),
                          relations=state.relations)
    upstream = np.random.default_rng(4).normal(size=(*ids.shape, state.config.d_model))
    got = enc.backward(state, enc.forward(state, ids), upstream)["emb"]
    twin_ids = np.arange(positions.size).reshape(ids.shape)
    per_position = enc.backward(twin, enc.forward(twin, twin_ids), upstream)["emb"]
    expected = np.zeros_like(got)
    np.add.at(expected, positions, per_position)
    assert got.tobytes() == expected.tobytes()
    unused = np.setdiff1d(np.arange(len(state.vocab)), positions)
    assert unused.size and not got[unused].any()


def _assert_views_in_sorted_order(views, buffer):
    offset = 0
    for name in sorted(views):
        view = views[name]
        assert view.ctypes.data == buffer.ctypes.data + 8 * offset, name
        offset += view.size
    assert offset == buffer.size


def test_params_and_grads_are_views_into_one_buffer_each():
    state = tiny_state()
    assert state.flat.dtype == np.float64 and state.flat.flags.c_contiguous
    _assert_views_in_sorted_order(state.params, state.flat)
    _assert_views_in_sorted_order(state.grads, state.grad_flat)
    assert set(state.grads) == set(state.params)
    assert list(state.grads) == list(state.params)
    out = enc.forward(state, np.array([[2, 3, 4, 5]]))
    assert enc.backward(state, out, np.ones_like(out.features)) is state.grads
    _assert_views_in_sorted_order(state.grads, state.grad_flat)


def test_embedding_gradient_hits_only_used_rows():
    state = tiny_state()
    ids = np.array([[2, 3, 2, 5]])
    out = enc.forward(state, ids)
    upstream = np.random.default_rng(0).normal(size=out.features.shape)
    grads = enc.backward(state, out, upstream)
    used = set(ids.ravel().tolist())
    for row in range(len(state.vocab)):
        row_grad = grads["emb"][row]
        if row not in used:
            assert np.allclose(row_grad, 0.0)
    assert not np.allclose(grads["emb"][2], 0.0)


def test_state_copy_is_deep():
    state = tiny_state()
    clone = state.copy()
    clone.params["emb"][0, 0] += 1.0
    assert state.params["emb"][0, 0] != clone.params["emb"][0, 0]


def test_state_copy_owns_independent_buffers():
    state = tiny_state()
    clone = state.copy()
    assert clone.flat.tobytes() == state.flat.tobytes()
    for a, b in ((clone.flat, state.flat), (clone.grad_flat, state.grad_flat)):
        assert not np.shares_memory(a, b)
    _assert_views_in_sorted_order(clone.params, clone.flat)
    assert clone.workspace is not state.workspace


def test_checkpoint_body_is_the_flat_buffer(tmp_path):
    state = tiny_state(seed=3)
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(state, path)
    blob = path.read_bytes()
    start = len(enc._MAGIC) + 8 + int.from_bytes(blob[len(enc._MAGIC):len(enc._MAGIC) + 8],
                                                 "little")
    assert blob[start:] == state.flat.tobytes()
    assert enc.load_checkpoint(path).flat.tobytes() == state.flat.tobytes()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state = tiny_state(seed=11)
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(state, path)
    loaded = enc.load_checkpoint(path)
    assert loaded.config == state.config
    assert loaded.vocab == state.vocab
    assert loaded.relations == state.relations
    assert loaded.seed == state.seed
    for name in state.params:
        assert np.array_equal(loaded.params[name], state.params[name])


def test_checkpoint_bytes_are_deterministic(tmp_path):
    state = tiny_state(seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    enc.save_checkpoint(state, p1)
    enc.save_checkpoint(state, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        enc.load_checkpoint(path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob[:-5], "truncated checkpoint at array"),
    (lambda blob: blob + b"\0", "trailing bytes"),
])
def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path, corrupt, message):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    enc.save_checkpoint(tiny_state(seed=2), good)
    again = tmp_path / "again.ckpt"
    enc.save_checkpoint(enc.load_checkpoint(good), again)
    assert again.read_bytes() == good.read_bytes()
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(ValueError, match=message) as err:
        enc.load_checkpoint(bad)
    assert str(bad) in str(err.value)


def test_corpus_words_spelled_like_specials_give_one_vocabulary_entry(tmp_path):
    """A token written <pad> or <unk> is that special: the vocabulary stays
    distinct, so the checkpoint of a model trained on it loads again."""
    tokens = [SimpleNamespace(surface=s) for s in (enc.UNK, "a", enc.PAD, "a")]
    vocab = enc.build_vocab([SimpleNamespace(tokens=tokens)])
    assert vocab == [enc.PAD, enc.UNK, "a", "negative", "positive"]
    path = tmp_path / "m.ckpt"
    config = enc.EncoderConfig(layers=1, heads=1, d_model=4, d_ff=4, max_len=8, last_k=1)
    enc.save_checkpoint(enc.init_state(config, vocab, 0, ["r"]), path)
    assert enc.load_checkpoint(path).vocab == vocab
