"""Encoder forward/backward internals, attention averaging, checkpoints."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ssdpsem import encoder as enc
from ssdpsem import objectives as obj
from ssdpsem.trainer import FD_STEP, GRADCHECK_TOLERANCE, AdamOptimizer, TrainConfig


def tiny_state(layers=2, heads=2, d_model=8, d_ff=16, vocab_extra=("a", "b", "c"),
               seed=0):
    vocab = [enc.PAD, enc.UNK] + list(vocab_extra) + ["positive", "negative"]
    config = enc.EncoderConfig(
        layers=layers, heads=heads, d_model=d_model, d_ff=d_ff, max_len=16, last_k=2,
    )
    return enc.init_state(config, vocab, seed, relations=["r0", "r1", "r2"])


def make_batch(state, B=2, n=5, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(2, len(state.vocab), size=(B, n))
    Q = np.zeros((B, n))
    Q[:, 0] = 1.0
    for b in range(B):
        Q[b, rng.choice(np.arange(1, n), size=2, replace=False)] = 1.0
    gold = rng.integers(0, len(state.relations), size=B)
    return obj.Batch(ids, Q, gold)


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
    assert out.attention.shape == (state.config.layers, 2, state.config.heads, 4, 4)
    assert np.allclose(out.attention.sum(axis=-1), 1.0)
    assert (out.attention >= 0).all()


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
    got = enc._weight_grad(a, b, np.empty((d, e)))
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
        "for B, n in [(11, 35), (11, 36)] + [(16, n) for n in range(25, 40)]:\n"
        "    rng = np.random.default_rng(B * 100 + n)\n"
        "    for d, e in ((64, 64), (64, 128), (128, 64), (16, 32)):\n"
        "        a, b = rng.normal(size=(B, n, d)), rng.normal(size=(B, n, e))\n"
        "        h.update(_weight_grad(a, b, np.empty((d, e))).tobytes())\n"
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


def test_backward_refuses_a_forward_whose_cache_it_consumed():
    state = tiny_state()
    ids = np.array([[2, 3, 4, 5]])
    out = enc.forward(state, ids)
    upstream = np.ones_like(out.features)
    expected = {k: g.copy() for k, g in enc.backward(state, out, upstream).items()}
    assert out.consumed
    with pytest.raises(ValueError, match="ForwardResult's cache was consumed"):
        enc.backward(state, out, upstream)
    again = enc.backward(state, enc.forward(state, ids), upstream)
    for name, g in again.items():
        assert g.tobytes() == expected[name].tobytes(), name
    # a value-only pass runs no backward, so its probes may read the cache
    probe = obj.batch_losses(state, make_batch(state), ("re",), TrainConfig(), value_only=True)
    assert not probe.forward.consumed


def _default_state():
    """The 4 x 4 x 64 default encoder over a 190-word vocabulary (the
    seed-11 corpus's size) and 10 relations."""
    vocab = [enc.PAD, enc.UNK] + [f"w{i}" for i in range(188)]
    return enc.init_state(TrainConfig().encoder_config(), vocab, 0,
                          [f"r{i}" for i in range(10)])


def _step_workspace_bytes(L, B, n, d, H, ff):
    """The bytes the step workspace of earlier versions kept between steps.
    Forward: the L + 1 layer inputs; per layer q, k, v, the merged context,
    the layernorm buffers u1 and u2, x1 and h; the (L, B, H, n, n) attention
    block; one A @ v buffer shared by all layers.  Backward: the copy of the
    top gradient, "ln.t", "dA", "dAA" and the weight-gradient products."""
    bnd, attention = B * n * d, B * H * n * n
    forward = (L + 1) * bnd + L * (7 * bnd + B * n * ff) + L * attention + bnd
    backward = 2 * bnd + 2 * attention + B * d * max(d, ff)
    return 8 * (forward + backward)


@pytest.mark.parametrize("make_state, B, n", [
    (tiny_state, 3, 6),
    (lambda: tiny_state(layers=3, d_model=16, d_ff=8), 2, 5),
    (_default_state, 16, 34),  # the seed-11 corpus's largest batch
], ids=["tiny", "narrow-ff", "default"])
def test_a_step_workspace_holds_the_forward_cache_and_four_scratch_buffers(
        make_state, B, n, monkeypatch):
    """A step allocates every array fresh, and at the default size its
    traced peak stays under what the step workspace of earlier versions
    held: the forward cache, the copy of the top gradient and four scratch
    buffers (16.07 MiB; the step peaks at 15.28).  That holds because
    backward writes its temporaries into the cache it has read, and a
    backward with buffers of its own would break it.  The caller's
    d_features, the features and the attention keep their bytes."""
    state = make_state()
    cfg = state.config
    batch = make_batch(state, B, n)
    backward, unchanged = enc.backward, []

    def spy(state, result, d_features, d_avg=None):
        watched = (d_features, result.features, result.attention)
        before = [hashlib.sha256(a).digest() for a in watched]
        grads = backward(state, result, d_features, d_avg)
        unchanged.append(before == [hashlib.sha256(a).digest() for a in watched])
        return grads

    monkeypatch.setattr(enc, "backward", spy)
    enc.positional_encoding(n, cfg.d_model)  # built once per shape, then cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = obj.batch_losses(state, batch, obj.MODE_TERMS["asp_saib"], TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unchanged == [True] and result.forward.consumed
    # at the tiny sizes, Python's per-array bookkeeping outweighs the arrays
    if make_state is _default_state:
        assert peak - start < _step_workspace_bytes(cfg.layers, B, n, cfg.d_model, cfg.heads,
                                                    cfg.d_ff)


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


def test_backward_writes_the_encoder_blocks_and_leaves_the_head_blocks():
    """The head's blocks belong to ``objectives.relation_head_backward``:
    a sentinel there survives, while every ``emb`` and layer block is
    rewritten."""
    state = tiny_state()
    head = {"saib.W", "saib.b", "clf.W", "clf.b"}
    state.grad_flat.fill(1234.5)
    out = enc.forward(state, np.array([[2, 3, 4, 5]]))
    grads = enc.backward(state, out, np.random.default_rng(1).normal(size=out.features.shape))
    for name, g in grads.items():
        assert (g == 1234.5).all() if name in head else not (g == 1234.5).any(), name


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


def _state_from_params(state):
    """A second state built by the constructor from ``state``'s params."""
    return enc.ModelState(config=state.config, seed=state.seed, vocab=state.vocab,
                          params=state.params, relations=state.relations)


def test_state_copy_is_deep():
    """A state built from another's params is a deep copy of them."""
    state = tiny_state()
    clone = _state_from_params(state)
    clone.params["emb"][0, 0] += 1.0
    assert state.params["emb"][0, 0] != clone.params["emb"][0, 0]


def test_state_copy_owns_independent_buffers():
    """The constructor copies the arrays it is given into buffers of its own."""
    state = tiny_state()
    clone = _state_from_params(state)
    assert clone.flat.tobytes() == state.flat.tobytes()
    for a, b in ((clone.flat, state.flat), (clone.grad_flat, state.grad_flat)):
        assert not np.shares_memory(a, b)
    _assert_views_in_sorted_order(clone.params, clone.flat)
    _assert_views_in_sorted_order(clone.grads, clone.grad_flat)


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_state_views_its_own_buffers_and_trains_to_the_same_bytes(clone):
    """A pickled or deep-copied state is rebuilt by the constructor: every
    block views the copy's own ``flat`` and ``grad_flat``, and one step on
    the copy moves its ``flat`` to the original's bytes."""
    state = tiny_state()
    state.grad_flat.fill(1.0)  # a copy's gradients start at zero
    copied = clone(state)
    assert copied.flat.tobytes() == state.flat.tobytes() and not copied.grad_flat.any()
    _assert_views_in_sorted_order(copied.params, copied.flat)
    _assert_views_in_sorted_order(copied.grads, copied.grad_flat)
    assert not np.shares_memory(copied.flat, state.flat)
    batch, config = make_batch(state), TrainConfig()
    for s in (state, copied):
        obj.batch_losses(s, batch, obj.MODE_TERMS["asp_saib"], config)
        AdamOptimizer(lr=config.lr).step(s.flat, s.grad_flat)
    assert copied.flat.tobytes() == state.flat.tobytes()


def test_checkpoint_body_is_the_flat_buffer(tmp_path):
    state = tiny_state(seed=3)
    path = tmp_path / "m.ckpt"
    enc.save_checkpoint(state, path)
    blob = path.read_bytes()
    start = len(enc._MAGIC) + 8 + int.from_bytes(blob[len(enc._MAGIC):len(enc._MAGIC) + 8],
                                                 "little")
    assert blob[start:] == state.flat.tobytes()
    assert enc.load_checkpoint(path).flat.tobytes() == state.flat.tobytes()


def test_saving_a_checkpoint_copies_no_part_of_the_parameters(tmp_path):
    """save_checkpoint writes ``state.flat``'s own buffer, so at 4 x 4 x 64 its
    tracemalloc peak stays under half the parameters' bytes (a ``tobytes()``
    copy of the body is all of them)."""
    state = _default_state()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        enc.save_checkpoint(state, tmp_path / "m.ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < state.flat.nbytes / 2


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


def _header_claiming(blob, **config):
    """``blob`` with a header whose config takes ``config``'s values and
    whose array list matches them; the body is left as it was."""
    start = len(enc._MAGIC) + 8
    end = start + int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:end])
    header["config"].update(config)
    shapes = enc._param_shapes(enc.EncoderConfig(**header["config"]), len(header["vocab"]),
                               len(header["relations"]))
    header["arrays"] = [{"name": k, "shape": list(shapes[k]), "dtype": "float64"}
                        for k in sorted(shapes)]
    text = json.dumps(header).encode("utf-8")
    return blob[:start - 8] + len(text).to_bytes(8, "little") + text + blob[end:]


# a size field past the end of the file is checked before a read asks for it:
# each size below is too large to allocate
@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob[:-5], "truncated checkpoint at array"),
    (lambda blob: blob + b"\0", "trailing bytes"),
    pytest.param(lambda blob: (blob[:len(enc._MAGIC)] + (2**64 - 1).to_bytes(8, "little")
                               + blob[len(enc._MAGIC) + 8:]),
                 "truncated checkpoint header", id="header-size-past-the-end"),
    pytest.param(lambda blob: _header_claiming(blob, d_model=2**31),
                 "truncated checkpoint at array", id="array-sizes-past-the-end"),
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
    vocab = enc.build_vocab([SimpleNamespace(tokens=(enc.UNK, "a", enc.PAD, "a"))])
    assert vocab == [enc.PAD, enc.UNK, "a", "negative", "positive"]
    path = tmp_path / "m.ckpt"
    config = enc.EncoderConfig(layers=1, heads=1, d_model=4, d_ff=4, max_len=8, last_k=1)
    enc.save_checkpoint(enc.init_state(config, vocab, 0, ["r"]), path)
    assert enc.load_checkpoint(path).vocab == vocab
