"""Small host attention encoder with hand-derived gradients.

A post-layernorm transformer over float64 numpy arrays.  Every forward pass
captures the per-layer, per-head attention matrices; the backward pass
accepts, besides the usual feature gradient, an extra gradient injected
directly into those attention matrices (the path the attention-supervision
loss needs).  No dropout anywhere: bit-reproducibility is a contract.

All shapes are batched: ids (B, n), features (B, n, d), attention
(B, H, n, n) per layer.  Batches hold same-length sequences only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

LN_EPS = 1e-5

PAD, UNK = "<pad>", "<unk>"


@dataclass
class EncoderConfig:
    layers: int = 4
    heads: int = 4
    d_model: int = 64
    d_ff: int = 128
    max_len: int = 64
    vocab_size: int = 0
    n_relations: int = 0
    last_k: int = 3
    attn_axis: str = "received"  # or "given" (anchor-row reading)

    def __post_init__(self):
        if self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if min(self.layers, self.heads, self.d_model, self.d_ff, self.max_len) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if self.attn_axis not in ("received", "given"):
            raise ValueError(f"attn_axis must be received|given, got {self.attn_axis!r}")

    @property
    def d_head(self):
        return self.d_model // self.heads


@dataclass
class ModelState:
    config: EncoderConfig
    seed: int
    vocab: list[str]  # id -> surface; includes specials
    params: dict[str, np.ndarray]
    relations: list[str] = field(default_factory=list)  # ordered label set
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {s: i for i, s in enumerate(self.vocab)}

    def copy(self):
        return ModelState(
            config=self.config,
            seed=self.seed,
            vocab=list(self.vocab),
            params={k: v.copy() for k, v in self.params.items()},
            relations=list(self.relations),
        )


def build_vocab(instances):
    """Closed vocabulary over augmented-token surfaces plus specials."""
    words = set()
    for inst in instances:
        for tok in inst.tokens:
            words.add(tok.surface)
    words.update(("positive", "negative"))
    return [PAD, UNK] + sorted(words)


def encode_tokens(state: ModelState, surfaces):
    unk = state.token_to_id[UNK]
    return np.array([state.token_to_id.get(s, unk) for s in surfaces], dtype=np.int64)


def init_state(config: EncoderConfig, vocab, seed: int, relations=()) -> ModelState:
    """Seeded init: uniform scaled by 1/sqrt(fan_in); layernorm at identity."""
    config = EncoderConfig(**{**asdict(config), "vocab_size": len(vocab)})
    rng = np.random.default_rng(seed)
    d, ff = config.d_model, config.d_ff

    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = {"emb": u(d, len(vocab), d)}
    for ell in range(config.layers):
        p = f"L{ell}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[p + name] = u(d, d, d)
            params[p + name.replace("W", "b")] = np.zeros(d)
        params[p + "ln1_g"] = np.ones(d)
        params[p + "ln1_b"] = np.zeros(d)
        params[p + "W1"] = u(d, d, ff)
        params[p + "b1"] = np.zeros(ff)
        params[p + "W2"] = u(ff, ff, d)
        params[p + "b2"] = np.zeros(d)
        params[p + "ln2_g"] = np.ones(d)
        params[p + "ln2_b"] = np.zeros(d)
    params["saib.W"] = u(2 * d, 2 * d)
    params["saib.b"] = np.zeros(1)
    params["clf.W"] = u(d, d, config.n_relations)
    params["clf.b"] = np.zeros(config.n_relations)
    return ModelState(
        config=config, seed=seed, vocab=list(vocab), params=params, relations=list(relations)
    )


def positional_encoding(n, d):
    pos = np.arange(n)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def _layernorm(u, g, b):
    mu = u.mean(axis=-1, keepdims=True)
    var = ((u - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (u - mu) * inv_std
    return g * xhat + b, (xhat, inv_std)


def _layernorm_backward(dy, cache, g):
    xhat, inv_std = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    du = (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ) * inv_std
    return du, dg, db


def softmax(x):
    """Softmax over the last axis, shifted by the row maximum for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, H):
    B, n, d = x.shape
    return x.reshape(B, n, H, d // H).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, n, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, H * dk)


@dataclass
class ForwardResult:
    features: np.ndarray  # (B, n, d) final-layer token features; row 0 is the sentiment token
    attention: list[np.ndarray]  # per layer: (B, H, n, n), row-stochastic
    cache: dict


def forward(state: ModelState, ids) -> ForwardResult:
    cfg = state.config
    p = state.params
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    B, n = ids.shape
    if n > cfg.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    bad = ids[(ids < 0) | (ids >= len(state.vocab))]
    if bad.size:
        raise ValueError(f"unknown token id {int(bad.flat[0])}")
    x = p["emb"][ids] + positional_encoding(n, cfg.d_model)
    cache = {"ids": ids, "layers": []}
    attention = []
    scale = 1.0 / np.sqrt(cfg.d_head)
    for ell in range(cfg.layers):
        pre = f"L{ell}."
        Qf = x @ p[pre + "Wq"] + p[pre + "bq"]
        Kf = x @ p[pre + "Wk"] + p[pre + "bk"]
        Vf = x @ p[pre + "Wv"] + p[pre + "bv"]
        q, k, v = (_split_heads(t, cfg.heads) for t in (Qf, Kf, Vf))
        S = (q @ k.transpose(0, 1, 3, 2)) * scale
        A = softmax(S)
        ctx = _merge_heads(A @ v)
        ao = ctx @ p[pre + "Wo"] + p[pre + "bo"]
        x1, ln1_cache = _layernorm(x + ao, p[pre + "ln1_g"], p[pre + "ln1_b"])
        f1 = x1 @ p[pre + "W1"] + p[pre + "b1"]
        h = np.maximum(f1, 0.0)
        f2 = h @ p[pre + "W2"] + p[pre + "b2"]
        x2, ln2_cache = _layernorm(x1 + f2, p[pre + "ln2_g"], p[pre + "ln2_b"])
        attention.append(A)
        cache["layers"].append(
            dict(x=x, q=q, k=k, v=v, A=A, ctx=ctx, ln1=ln1_cache, x1=x1, f1=f1, h=h, ln2=ln2_cache)
        )
        x = x2
    return ForwardResult(features=x, attention=attention, cache=cache)


def _weight_grad(a, b):
    """Sum over the batch of a[i].T @ b[i]: (B, n, d), (B, n, e) -> (d, e).

    A per-sample batched matmul, summed afterwards.  The single reshaped
    GEMM ``a.reshape(-1, d).T @ b.reshape(-1, e)`` gives different bits at
    different BLAS thread counts for some B*n, which would break the
    determinism contract (see README, Determinism).
    """
    return np.matmul(a.transpose(0, 2, 1), b).sum(axis=0)


def backward(state: ModelState, result: ForwardResult, d_features, d_attention=None):
    """Exact gradients for every parameter.

    d_features: (B, n, d) upstream gradient on the final token features
    (gradients on the sentiment feature must already be added to row 0).
    d_attention: optional per-layer (B, H, n, n) gradients injected into the
    post-softmax attention matrices.
    Returns one fresh array per parameter; the pooling-head and classifier
    entries are zeros for the caller to accumulate into.
    """
    cfg = state.config
    p = state.params
    grads = {}
    dx = np.asarray(d_features, dtype=np.float64)
    scale = 1.0 / np.sqrt(cfg.d_head)
    for ell in reversed(range(cfg.layers)):
        pre = f"L{ell}."
        c = result.cache["layers"][ell]
        du2, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = _layernorm_backward(
            dx, c["ln2"], p[pre + "ln2_g"]
        )
        df2 = du2
        grads[pre + "W2"] = _weight_grad(c["h"], df2)
        grads[pre + "b2"] = df2.sum(axis=(0, 1))
        dh = df2 @ p[pre + "W2"].T
        df1 = dh * (c["f1"] > 0)
        grads[pre + "W1"] = _weight_grad(c["x1"], df1)
        grads[pre + "b1"] = df1.sum(axis=(0, 1))
        dx1 = du2 + df1 @ p[pre + "W1"].T
        du, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = _layernorm_backward(
            dx1, c["ln1"], p[pre + "ln1_g"]
        )
        dao = du
        grads[pre + "Wo"] = _weight_grad(c["ctx"], dao)
        grads[pre + "bo"] = dao.sum(axis=(0, 1))
        dctx = _split_heads(dao @ p[pre + "Wo"].T, cfg.heads)
        dA = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["A"].transpose(0, 1, 3, 2) @ dctx
        if d_attention is not None and d_attention[ell] is not None:
            dA = dA + d_attention[ell]
        A = c["A"]
        dS = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
        dq = (dS @ c["k"]) * scale
        dk = (dS.transpose(0, 1, 3, 2) @ c["q"]) * scale
        dQf, dKf, dVf = (_merge_heads(t) for t in (dq, dk, dv))
        x_in = c["x"]
        dx = du  # dao's last use is above, so accumulate into it in place
        for name, dmat in (("Wq", dQf), ("Wk", dKf), ("Wv", dVf)):
            grads[pre + name] = _weight_grad(x_in, dmat)
            grads[pre + name.replace("W", "b")] = dmat.sum(axis=(0, 1))
            dx += dmat @ p[pre + name].T
    ids = result.cache["ids"]
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], ids.reshape(-1), dx.reshape(-1, cfg.d_model))
    for name in ("saib.W", "saib.b", "clf.W", "clf.b"):
        grads[name] = np.zeros_like(p[name])
    return grads


def average_attention(attention, last_k, axis="received"):
    """Aggregate per-layer/per-head matrices into one vector per instance.

    received: mean attention flowing INTO each token (column means over the
    last ``last_k`` layers, all heads, all query rows); sums to 1.
    given: attention given BY the anchor token at position 0 (its query row
    averaged over the same layers/heads); also sums to 1.
    """
    L = len(attention)
    k = min(last_k, L)
    if k < 1:
        raise ValueError("last_k must be >= 1")
    stack = np.stack(attention[-k:])  # (k, B, H, n, n)
    if axis == "received":
        return stack.mean(axis=(0, 2, 3))  # (B, n)
    if axis == "given":
        return stack[:, :, :, 0, :].mean(axis=(0, 2))  # (B, n)
    raise ValueError(f"unknown attn_axis {axis!r}")


def average_attention_backward(d_avg, layers, last_k, heads, n, axis="received"):
    """Spread a gradient on the averaged vector back onto attention matrices."""
    d_avg = np.atleast_2d(d_avg)
    B = d_avg.shape[0]
    k = min(last_k, layers)
    d_attention = [None] * layers
    for ell in range(layers - k, layers):
        g = np.zeros((B, heads, n, n))
        if axis == "received":
            g += d_avg[:, None, None, :] / (k * heads * n)
        else:
            g[:, :, 0, :] = d_avg[:, None, :] / (k * heads)
        d_attention[ell] = g
    return d_attention


# ---------------------------------------------------------------------------
# Checkpoints: deterministic binary dump (JSON header + raw array bytes).

_MAGIC = b"SSDPCKPT1\n"


def save_checkpoint(state: ModelState, path):
    names = sorted(state.params)
    header = {
        "config": asdict(state.config),
        "seed": state.seed,
        "vocab": state.vocab,
        "relations": state.relations,
        "arrays": [
            {"name": k, "shape": list(state.params[k].shape), "dtype": str(state.params[k].dtype)}
            for k in names
        ],
    }
    blob = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for k in names:
            fh.write(np.ascontiguousarray(state.params[k]).tobytes())


def load_checkpoint(path) -> ModelState:
    """Read a checkpoint; a truncated file or trailing bytes raise ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        size = int.from_bytes(fh.read(8), "little")
        blob = fh.read(size)
        if len(blob) != size:
            raise ValueError(f"{path}: truncated checkpoint header")
        header = json.loads(blob.decode("utf-8"))
        params = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            nbytes = int(np.prod(spec["shape"])) * dtype.itemsize
            data = fh.read(nbytes)
            if len(data) != nbytes:
                raise ValueError(f"{path}: truncated checkpoint at array {spec['name']}")
            params[spec["name"]] = np.frombuffer(data, dtype=dtype).reshape(spec["shape"]).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last checkpoint array")
    return ModelState(
        config=EncoderConfig(**header["config"]),
        seed=header["seed"],
        vocab=header["vocab"],
        params=params,
        relations=header.get("relations", []),
    )
