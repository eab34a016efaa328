"""Small host attention encoder with hand-derived gradients.

A post-layernorm transformer over float64 numpy arrays.  Every forward pass
captures the per-layer, per-head attention matrices; ``average_attention``
reads them as the attention each token receives, and the backward pass
accepts, besides the usual feature gradient, a gradient on that average
(the path the attention-supervision loss needs).  No dropout anywhere:
bit-reproducibility is a contract.

All shapes are batched: ids (B, n), features (B, n, d), attention
(L, B, H, n, n).  Batches hold same-length sequences only.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .corpus import ConfigError, _checked

LN_EPS = 1e-5

PAD, UNK = "<pad>", "<unk>"


# JSON value types a config field accepts (bool is not an int here)
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass
class EncoderConfig:
    """The six architecture keys; ``trainer.TrainConfig`` extends it."""

    layers: int = 4
    heads: int = 4
    d_model: int = 64
    d_ff: int = 128
    max_len: int = 64
    last_k: int = 3

    def __post_init__(self):
        """Raise ConfigError for the first field, subclass fields included,
        whose value is not of its annotated type, or is a float that is not
        finite (JSON's NaN and Infinity), then check the ranges."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(
                    f"{f.name} must be of type {f.type}, got {type(value).__name__} {value!r}")
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("layers", "heads", "d_model", "d_ff", "max_len", "last_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")

    @property
    def d_head(self):
        return self.d_model // self.heads


@dataclass
class ModelState:
    """A model: its config, vocabulary, labels, parameters and gradients.

    ``params`` maps each name to a view into ``flat``, one contiguous
    float64 buffer laid out in ``sorted(names)`` order, the order of the
    checkpoint body.  ``grads`` holds views of the same shapes into
    ``grad_flat``, a second buffer with that layout which ``backward`` and
    ``objectives.relation_head_backward`` write into; ``grads`` follows the
    order of ``params``, which is the order gradcheck reports.  The
    vocabulary and the relation label set fix the sizes of ``emb`` and the
    classifier.  The constructor copies the given arrays into a fresh
    buffer, so a state never shares memory with another.  A pickled or
    deep-copied state is rebuilt through the constructor from its
    parameters: its blocks are views of its own ``flat``, and its gradients
    start at zero, as a fresh state's do.
    """

    config: EncoderConfig
    seed: int
    vocab: list[str]  # id -> surface; includes specials
    params: dict[str, np.ndarray]
    relations: list[str]  # ordered label set
    token_to_id: dict[str, int] = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)
    grad_flat: np.ndarray = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {s: i for i, s in enumerate(self.vocab)}
        shapes = {k: np.shape(self.params[k]) for k in sorted(self.params)}
        self.flat, views = _buffer(shapes)
        for k, view in views.items():
            view[...] = self.params[k]
        self.params = views
        self.grad_flat, self.grads = _buffer(shapes)

    def __reduce__(self):
        # field by field, a copy's params would no longer view its flat
        return ModelState, (self.config, self.seed, self.vocab, self.params, self.relations)


def _buffer(shapes):
    """One zeroed float64 buffer and a view into it per name, in order."""
    flat = np.zeros(sum(math.prod(s) for s in shapes.values()))
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return flat, views


def _param_shapes(config, n_words, n_labels):
    """Every parameter's name and shape, in the order ``init_state`` draws
    them: the embedding, each layer from L0 up, the pooling head and the
    classifier."""
    d, ff = config.d_model, config.d_ff
    layer = {"Wq": (d, d), "bq": (d,), "Wk": (d, d), "bk": (d,), "Wv": (d, d), "bv": (d,),
             "Wo": (d, d), "bo": (d,), "ln1_g": (d,), "ln1_b": (d,), "W1": (d, ff),
             "b1": (ff,), "W2": (ff, d), "b2": (d,), "ln2_g": (d,), "ln2_b": (d,)}
    shapes = {f"L{ell}.{name}": shape for ell in range(config.layers)
              for name, shape in layer.items()}
    return {"emb": (n_words, d), **shapes, "saib.W": (2 * d,), "saib.b": (1,),
            "clf.W": (d, n_labels), "clf.b": (n_labels,)}


def build_vocab(instances):
    """Closed vocabulary over augmented-token surfaces plus specials; a
    surface spelled like a special is that special, not a second entry."""
    words = set()
    for inst in instances:
        words.update(inst.tokens)
    words.update(("positive", "negative"))
    return [PAD, UNK] + sorted(words - {PAD, UNK})


def encode_tokens(state: ModelState, surfaces):
    unk = state.token_to_id[UNK]
    return np.array([state.token_to_id.get(s, unk) for s in surfaces], dtype=np.int64)


def init_state(config: EncoderConfig, vocab, seed: int, relations) -> ModelState:
    """Seeded init in ``_param_shapes`` order: ``emb`` and every ``W*`` block
    uniform in +-1/sqrt(fan_in) (fan_in is d_model for ``emb``, the first
    dimension otherwise); layernorm gains at one, every other block zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(config, len(vocab), len(relations)).items():
        kind = name.rsplit(".", 1)[-1]
        if kind == "emb" or kind.startswith("W"):
            bound = 1.0 / np.sqrt(config.d_model if kind == "emb" else shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.full(shape, 1.0 if kind.endswith("_g") else 0.0)
    return ModelState(
        config=config, seed=seed, vocab=list(vocab), params=params, relations=list(relations)
    )


@functools.lru_cache(maxsize=None)
def positional_encoding(n, d):
    """The (n, d) sinusoidal table, built once per shape and read-only."""
    pos = np.arange(n)[:, None]
    i = np.arange(d)  # broadcasts along the rows
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


def _layernorm(u, g, b):
    """g * xhat + b over the last axis, with its (xhat, inv_std) cache.
    u is overwritten by xhat; the result's buffer holds the squares of the
    centred input until the result replaces them."""
    # add.reduce over the last axis divided by its length is what mean
    # computes, bit for bit, without mean's Python-level wrapper
    d = u.shape[-1]
    mu = np.add.reduce(u, axis=-1, keepdims=True) / d
    xc = np.subtract(u, mu, out=u)
    y = np.multiply(xc, xc)
    var = np.add.reduce(y, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(xc, inv_std, out=xc)
    np.multiply(g, xhat, out=y)
    y += b
    return y, (xhat, inv_std)


def _layernorm_backward(dy, cache, g, dg, db):
    """The input gradient, written into the buffer of the cached xhat, which
    it consumes; dy is overwritten by dxhat.  The gain and bias gradients go
    into dg, db."""
    xhat, inv_std = cache
    d = dy.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    t = np.multiply(dy, xhat)
    np.add.reduce(t, axis=axes, out=dg)
    np.add.reduce(dy, axis=axes, out=db)
    dxhat = np.multiply(dy, g, out=dy)
    np.multiply(dxhat, xhat, out=t)
    m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
    np.multiply(xhat, m2, out=t)  # xhat's last read: du takes its buffer
    du = np.subtract(dxhat, np.add.reduce(dxhat, axis=-1, keepdims=True) / d, out=xhat)
    du -= t
    du *= inv_std
    return du


def softmax(x, out=None):
    """Softmax over the last axis, shifted by the row maximum for stability;
    ``out`` may be x itself."""
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _split_heads(x, H):
    B, n, d = x.shape
    return x.reshape(B, n, H, d // H).transpose(0, 2, 1, 3)


def _merge_heads(x, out):
    """(B, H, n, dk) -> (B, n, H*dk), copied into out of shape (B, n, H, dk)."""
    B, H, n, dk = x.shape
    np.copyto(out, x.transpose(0, 2, 1, 3))
    return out.reshape(B, n, H * dk)


@dataclass
class ForwardResult:
    features: np.ndarray  # (B, n, d) final-layer token features; row 0 is the sentiment token
    attention: np.ndarray  # (L, B, H, n, n): layer by layer, row-stochastic
    cache: dict  # what backward reads; backward consumes it
    consumed: bool = False  # set by backward, which overwrites the cache


def forward(state: ModelState, ids) -> ForwardResult:
    """The encoder over a same-length batch of token ids (B, n).

    Every array is fresh.  All layers' attention is one ``(L, B, H, n, n)``
    block.  ``backward`` reuses the per-layer cache for its own
    temporaries; ``features`` and ``attention`` keep their values through
    it.
    """
    cfg = state.config
    p = state.params
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    B, n = ids.shape
    if n > cfg.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    bad = ids[(ids < 0) | (ids >= len(state.vocab))]
    if bad.size:
        raise ValueError(f"unknown token id {int(bad.flat[0])}")
    d, H = cfg.d_model, cfg.heads
    x = p["emb"][ids]
    x += positional_encoding(n, d)
    cache = {"ids": ids, "layers": []}
    attention = np.empty((cfg.layers, B, H, n, n))
    scale = 1.0 / np.sqrt(cfg.d_head)
    for ell in range(cfg.layers):
        pre = f"L{ell}."
        q, k, v = (_split_heads(_affine(x, p[pre + w], p[pre + w.replace("W", "b")]), H)
                   for w in ("Wq", "Wk", "Wv"))
        S = np.matmul(q, k.transpose(0, 1, 3, 2), out=attention[ell])
        S *= scale
        A = softmax(S, out=S)
        ctx = _merge_heads(np.matmul(A, v), np.empty((B, n, H, d // H)))
        ao = _affine(ctx, p[pre + "Wo"], p[pre + "bo"])
        x1, ln1_cache = _layernorm(np.add(x, ao, out=ao), p[pre + "ln1_g"], p[pre + "ln1_b"])
        # the ReLU runs in place; backward reads its mask as h > 0
        h = _affine(x1, p[pre + "W1"], p[pre + "b1"])
        np.maximum(h, 0.0, out=h)
        f2 = _affine(h, p[pre + "W2"], p[pre + "b2"])
        x2, ln2_cache = _layernorm(np.add(x1, f2, out=f2), p[pre + "ln2_g"], p[pre + "ln2_b"])
        cache["layers"].append(
            dict(x=x, q=q, k=k, v=v, A=A, ctx=ctx, ln1=ln1_cache, x1=x1, h=h, ln2=ln2_cache)
        )
        x = x2
    return ForwardResult(features=x, attention=attention, cache=cache)


def _affine(x, W, b):
    """x @ W + b."""
    y = np.matmul(x, W)
    y += b
    return y


def _weight_grad(a, b, out):
    """Write the sum over the batch of a[i].T @ b[i] into out:
    (B, n, d), (B, n, e) -> (d, e).

    A per-sample batched matmul, summed over the batch afterwards.  The
    single reshaped GEMM ``a.reshape(-1, d).T @ b.reshape(-1, e)`` gives
    different bits at different BLAS thread counts for some B*n, which
    would break the determinism contract (see README, Determinism).
    """
    return np.add.reduce(np.matmul(a.transpose(0, 2, 1), b), axis=0, out=out)


def backward(state: ModelState, result: ForwardResult, d_features, d_avg=None):
    """Exact gradients for the embedding and every layer's parameters,
    written into ``state.grads``.

    d_features: (B, n, d) upstream gradient on the final token features
    (gradients on the sentiment feature must already be added to row 0); it
    is copied and never written.
    d_avg: optional (B, n) gradient on ``average_attention(result.attention,
    last_k)``; each of the last k layers' post-softmax attention gets
    d_avg / (k*H*n) added to every head's every query row.
    Each layer's temporaries go into that layer's forward-cache buffers
    once backward has read them for the last time, so the cache is consumed:
    ``result.consumed`` is set, and a second backward on ``result`` raises
    ValueError.  ``result.features`` and ``result.attention`` keep their
    values.  Returns ``state.grads``, views into ``state.grad_flat`` that
    stay valid until the next backward on this state.  The ``emb`` and
    layer blocks are overwritten; the head's blocks are left as they are,
    for ``objectives.relation_head_backward`` to write.
    """
    if result.consumed:
        raise ValueError("backward: this ForwardResult's cache was consumed by an earlier "
                         "backward; run forward again")
    result.consumed = True
    cfg = state.config
    p, g = state.params, state.grads
    B, n, d = result.features.shape
    H, hd = cfg.heads, cfg.d_head
    dx = np.array(d_features, dtype=np.float64)
    scale = 1.0 / np.sqrt(cfg.d_head)
    k = min(cfg.last_k, cfg.layers)
    if d_avg is not None:
        d_received = d_avg[:, None, None, :] / (k * H * n)  # (B, 1, 1, n)
    for ell in reversed(range(cfg.layers)):
        pre = f"L{ell}."
        c = result.cache["layers"][ell]
        # the comments name the cache buffer each temporary is written into
        x1, h, A = c["x1"], c["h"], c["A"]
        du2 = _layernorm_backward(dx, c["ln2"], p[pre + "ln2_g"], g[pre + "ln2_g"],
                                  g[pre + "ln2_b"])  # u2
        _weight_grad(h, du2, g[pre + "W2"])
        np.add.reduce(du2, axis=(0, 1), out=g[pre + "b2"])
        relu = h > 0
        df1 = np.multiply(np.matmul(du2, p[pre + "W2"].T, out=h), relu, out=h)  # h
        _weight_grad(x1, df1, g[pre + "W1"])
        np.add.reduce(df1, axis=(0, 1), out=g[pre + "b1"])
        dx1 = np.matmul(df1, p[pre + "W1"].T, out=x1)  # x1
        np.add(du2, dx1, out=dx1)
        dao = _layernorm_backward(dx1, c["ln1"], p[pre + "ln1_g"], g[pre + "ln1_g"],
                                  g[pre + "ln1_b"])  # u1
        _weight_grad(c["ctx"], dao, g[pre + "Wo"])
        np.add.reduce(dao, axis=(0, 1), out=g[pre + "bo"])
        dctx = _split_heads(np.matmul(dao, p[pre + "Wo"].T, out=c["ctx"]), H)  # ctx
        dA = np.matmul(dctx, c["v"].transpose(0, 1, 3, 2))
        dv = np.matmul(A.transpose(0, 1, 3, 2), dctx, out=x1.reshape(B, H, n, hd))  # x1
        if d_avg is not None and ell >= cfg.layers - k:
            dA += d_received
        rows = np.add.reduce(np.multiply(dA, A), axis=-1, keepdims=True)
        dS = np.multiply(A, np.subtract(dA, rows, out=dA), out=dA)
        dq = np.matmul(dS, c["k"], out=du2.reshape(B, H, n, hd))  # u2
        dq *= scale
        dVf = _merge_heads(dv, c["v"].transpose(0, 2, 1, 3))  # v, which frees x1
        dk = np.matmul(dS.transpose(0, 1, 3, 2), c["q"], out=x1.reshape(B, H, n, hd))  # x1
        dk *= scale
        dQf = _merge_heads(dq, c["q"].transpose(0, 2, 1, 3))  # q, which frees u2
        dKf = _merge_heads(dk, c["k"].transpose(0, 2, 1, 3))  # k
        x_in = c["x"]
        dx = dao  # dao's last read is above, so accumulate into it in place
        for name, dmat in (("Wq", dQf), ("Wk", dKf), ("Wv", dVf)):
            _weight_grad(x_in, dmat, g[pre + name])
            np.add.reduce(dmat, axis=(0, 1), out=g[pre + name.replace("W", "b")])
            dx += np.matmul(dmat, p[pre + name].T, out=du2)  # u2
    # the embedding gradient: each cell sums its rows in token order from
    # 0.0, as np.add.at into a zeroed block would, bit for bit
    cells = result.cache["ids"].reshape(-1, 1) * d + np.arange(d)
    g["emb"].reshape(-1)[...] = np.bincount(cells.reshape(-1), weights=dx.reshape(-1),
                                            minlength=g["emb"].size)
    return g


def average_attention(attention, last_k):
    """The mean attention each token receives: column means over the last
    ``last_k`` layers, all heads and all query rows, (B, n); each row sums
    to 1.  ``attention`` is ``ForwardResult.attention``, read in place.
    ``backward``'s ``d_avg`` is the gradient on this vector."""
    return attention[-min(last_k, len(attention)):].mean(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Checkpoints: deterministic binary dump (JSON header + raw array bytes).

_MAGIC = b"SSDPCKPT1\n"


def save_checkpoint(state: ModelState, path):
    """The header, then the body: ``state.flat``, which holds the arrays in
    the header's sorted-name order.  A seed, vocabulary or relations that
    ``load_checkpoint`` would reject raise ValueError naming the path, and
    nothing is written."""
    header = {
        "config": asdict(state.config),
        "seed": state.seed,
        "vocab": state.vocab,
        "relations": state.relations,
        "arrays": [
            {"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
            for k, v in state.params.items()
        ],
    }
    _checked(header, _HEADER_KEYS,
             lambda message: ValueError(f"{path}: unwritable checkpoint header: {message}"))
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(state.flat)  # its buffer, in place: no copy of the parameters


def _distinct_strs(v):
    return type(v) is list and all(type(s) is str for s in v) and len(set(v)) == len(v)


# the header keys the arrays do not check, as a corpus._checked key table
_HEADER_KEYS = {
    "seed": (lambda v: type(v) is int, "int"),
    "vocab": (lambda v: _distinct_strs(v) and v[:2] == [PAD, UNK],
              f"distinct strs, {PAD!r} and {UNK!r} first"),
    "relations": (_distinct_strs, "distinct strs"),
}


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint; a truncated file, trailing bytes, or a header that
    is malformed or whose arrays (name, shape, dtype) do not match its
    config, vocabulary and relations raise ValueError naming the path.  A
    header or array size that goes past the end of the file is a truncation,
    found by the file's size before any read asks for that many bytes."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        size = int.from_bytes(fh.read(8), "little")
        if size > file_size - fh.tell():
            raise ValueError(f"{path}: truncated checkpoint header")
        blob = fh.read(size)
        try:
            header = _checked(json.loads(blob.decode("utf-8")), _HEADER_KEYS, ValueError)
            config = EncoderConfig(**header["config"])
            specs, seed = header["arrays"], header["seed"]
            vocab, relations = header["vocab"], header["relations"]
            shapes = _param_shapes(config, len(vocab), len(relations))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(
                f"{path}: unreadable checkpoint header: {type(exc).__name__}: {exc}") from exc
        if specs != [{"name": k, "shape": list(shapes[k]), "dtype": "float64"}
                     for k in sorted(shapes)]:
            raise ValueError(
                f"{path}: checkpoint arrays do not match its config, vocabulary and relations")
        # never more than the file holds: an array past its end is found below
        body = fh.read(min(8 * sum(math.prod(s["shape"]) for s in specs),
                           file_size - fh.tell()))
        params, end = {}, 0
        for spec in specs:
            count = math.prod(spec["shape"])
            start, end = end, end + 8 * count
            if len(body) < end:
                raise ValueError(f"{path}: truncated checkpoint at array {spec['name']}")
            params[spec["name"]] = np.frombuffer(
                body, np.float64, count, start).reshape(spec["shape"])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last checkpoint array")
    return ModelState(
        config=config,
        seed=seed,
        vocab=vocab,
        params=params,
        relations=relations,
    )
