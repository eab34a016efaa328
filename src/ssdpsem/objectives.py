"""Loss terms: relation cross-entropy, supervised-attention KLD, and
entropy regularization of the pooling attention.

Every operation returns its value together with exact gradients; the batch
composition at the bottom wires them into a single backward pass through
the encoder.  A run's mode names the terms it sums (``MODE_TERMS``); the
ablation switches only these, never how a term is computed.  All
reductions over a batch are means, accumulated in a fixed order so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc

# the loss terms each training mode sums; the SAIB pooling head feeds the
# classifier in every mode, only its entropy penalty is a term
MODE_TERMS = {
    "baseline": ("re",),
    "asp": ("re", "asp"),
    "saib": ("re", "ib"),
    "asp_saib": ("re", "asp", "ib"),
}


@dataclass
class LossBreakdown:
    l_re: float
    l_asp: float
    l_ib: float
    total: float


class NonFiniteLossError(RuntimeError):
    def __init__(self, term, value):
        super().__init__(f"loss term {term} is non-finite: {value}")
        self.term = term


def total_loss(l_re, l_asp, l_ib) -> LossBreakdown:
    for term, value in (("l_re", l_re), ("l_asp", l_asp), ("l_ib", l_ib)):
        if not np.isfinite(value):
            raise NonFiniteLossError(term, value)
    return LossBreakdown(l_re=l_re, l_asp=l_asp, l_ib=l_ib, total=l_re + l_asp + l_ib)


def asp_loss(alpha_avg, Q, lambda_asp, epsilon):
    """KLD pulling the masked averaged attention toward the label distribution.

    alpha_avg, Q: (B, n).  The label distribution is q = Q / sum(Q) per
    row.  The attention is masked in Hadamard manner with Q,
    epsilon-smoothed, and compared against the equally smoothed q as
    KLD(q_s || a_s).  The masked side is NOT renormalized: its missing
    mass is exactly the attention sitting on unmarked positions, so
    minimizing this loss migrates attention mass onto the marked positions
    instead of merely reshaping it among them.
    Both sides share the smoothing denominator 1 + n*epsilon, which makes
    the loss exactly zero when the masked attention equals q and non-negative
    otherwise (the masked side is a sub-distribution).

    Rows whose masked attention sums to exactly zero fall back to
    uniform-over-marked positions (constant in alpha, so their gradient is
    zero) and are counted.

    Returns (mean loss, gradient w.r.t. alpha_avg, fallback count).
    """
    alpha_avg = np.atleast_2d(np.asarray(alpha_avg, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    q = Q / Q.sum(axis=1, keepdims=True)
    B, n = alpha_avg.shape
    m = alpha_avg * Q
    s = m.sum(axis=1, keepdims=True)
    fallback = (s == 0.0).ravel()
    a = np.where(fallback[:, None], q + epsilon, m + epsilon) / (1.0 + n * epsilon)
    qs = (q + epsilon) / (1.0 + n * epsilon)
    kld = (qs * np.log(qs / a)).sum(axis=1)
    loss = lambda_asp * kld.mean()
    d_alpha = -lambda_asp / B * qs * Q / (m + epsilon)
    d_alpha[fallback] = 0.0
    return loss, d_alpha, int(fallback.sum())


def saib_attention(features, anchor, W, b):
    """Pooling attention over per-token scores of [token : sentiment] pairs.

    features: (B, n, d); anchor: (B, d), the sentiment token's feature;
    W: (2d,); b: (1,).
    Returns (alpha (B, n), scores (B, n)).
    """
    features = np.asarray(features, dtype=np.float64)
    d = features.shape[-1]
    scores = features @ W[:d] + (anchor @ W[d:])[:, None] + b[0]
    return enc.softmax(scores), scores


def saib_attention_backward(d_alpha, alpha, features, anchor, W):
    """Backprop through the pooling softmax and linear scoring.

    Returns (d_features, d_anchor, dW, db).
    """
    d = features.shape[-1]
    d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
    dW = np.concatenate(
        [
            np.einsum("bn,bnd->d", d_scores, features),
            d_scores.sum(axis=1) @ anchor,
        ]
    )
    db = np.array([d_scores.sum()])
    d_features = d_scores[:, :, None] * W[:d]
    d_anchor = d_scores.sum(axis=1)[:, None] * W[d:]
    return d_features, d_anchor, dW, db


def entropy(alpha):
    """Shannon entropy per row with 0*log 0 := 0."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(alpha > 0, alpha * np.log(np.where(alpha > 0, alpha, 1.0)), 0.0)
    return -term.sum(axis=1)


def saib_entropy_loss(alpha):
    """Mean attention entropy and its gradient w.r.t. alpha (B, n)."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    B = alpha.shape[0]
    loss = entropy(alpha).mean()
    with np.errstate(divide="ignore"):
        d_alpha = np.where(alpha > 0, -(np.log(np.where(alpha > 0, alpha, 1.0)) + 1.0), 0.0) / B
    return loss, d_alpha


def relation_head(params, features):
    """The pooling head and relation classifier forward: the model's output.

    features: (B, n, d) encoder output whose row 0, the sentiment token,
    conditions the pooling scores.
    Returns (alpha_ib (B, n), pooled (B, d), probs (B, R)).
    """
    alpha_ib, _ = saib_attention(features, features[:, 0], params["saib.W"], params["saib.b"])
    pooled = np.einsum("bn,bnd->bd", alpha_ib, features)
    return alpha_ib, pooled, enc.softmax(pooled @ params["clf.W"] + params["clf.b"])


def re_loss(pooled, probs, Wc, gold):
    """Softmax cross-entropy over relations and its gradients, given the
    pooled feature (B, d), the classifier's probs (B, R) and its weight Wc
    (d, R); gold: (B,) int labels.

    Returns (mean loss, d_pooled, dWc, dbc).
    """
    gold = np.atleast_1d(np.asarray(gold, dtype=np.int64))
    B = pooled.shape[0]
    with np.errstate(divide="ignore"):  # P[gold]=0 yields inf, caught upstream
        loss = -np.log(probs[np.arange(B), gold]).mean()
    d_logits = probs.copy()
    d_logits[np.arange(B), gold] -= 1.0
    d_logits /= B
    return loss, d_logits @ Wc.T, pooled.T @ d_logits, d_logits.sum(axis=0)


@dataclass
class BatchResult:
    breakdown: LossBreakdown
    grads: dict
    probs: np.ndarray  # (B, R)
    alpha_ib: np.ndarray  # (B, n)
    alpha_avg: np.ndarray  # (B, n)
    asp_fallbacks: int


def batch_losses(state, ids, Q, gold, terms, config, value_only=False) -> BatchResult:
    """Joint forward/backward over one same-length batch.

    ``terms`` is the set of loss terms summed into the total, a subset of
    ("re", "asp", "ib"): training passes ``MODE_TERMS[config.mode]``, the
    gradient check one term at a time.  ``config`` is the run's
    ``TrainConfig``; the KLD term reads its ``lambda_asp`` and
    ``asp_epsilon``.
    """
    p = state.params
    fwd = enc.forward(state, ids, state.workspace)

    alpha_ib, pooled, probs = relation_head(p, fwd.features)
    l_re, d_pooled, dWc, dbc = re_loss(pooled, probs, p["clf.W"], gold)

    d_alpha_ib = np.zeros_like(alpha_ib)
    d_features = np.zeros_like(fwd.features)
    if "re" in terms:
        d_alpha_ib += np.einsum("bd,bnd->bn", d_pooled, fwd.features)
        d_features += alpha_ib[:, :, None] * d_pooled[:, None, :]
    else:
        l_re, dWc, dbc = 0.0, np.zeros_like(dWc), np.zeros_like(dbc)

    l_ib = 0.0
    if "ib" in terms:
        l_ib, d_alpha_ent = saib_entropy_loss(alpha_ib)
        d_alpha_ib = d_alpha_ib + d_alpha_ent

    df, d_sen, dW_saib, db_saib = saib_attention_backward(
        d_alpha_ib, alpha_ib, fwd.features, fwd.features[:, 0], p["saib.W"]
    )
    d_features = d_features + df
    d_features[:, 0, :] += d_sen

    alpha_avg = enc.average_attention(fwd.attention, state.config.last_k)
    l_asp = 0.0
    d_alpha_avg = None
    fallbacks = 0
    if "asp" in terms:
        l_asp, d_alpha_avg, fallbacks = asp_loss(
            alpha_avg, Q, config.lambda_asp, config.asp_epsilon)

    breakdown = total_loss(float(l_re), float(l_asp), float(l_ib))
    if value_only:
        grads = {}
    else:
        grads = enc.backward(state, fwd, d_features, d_alpha_avg)
        grads["saib.W"] += dW_saib
        grads["saib.b"] += db_saib
        grads["clf.W"] += dWc
        grads["clf.b"] += dbc
    return BatchResult(
        breakdown=breakdown,
        grads=grads,
        probs=probs,
        alpha_ib=alpha_ib,
        alpha_avg=alpha_avg,
        asp_fallbacks=fallbacks,
    )
