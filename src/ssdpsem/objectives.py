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
    scores = (np.matmul(features, W[:d][:, None])[..., 0]
              + np.matmul(anchor[:, None, :], W[d:][:, None])[:, 0] + b[0])
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
    Batch-invariant: each product is a per-row slice of a stacked matmul,
    so a row's outputs are bit-identical whatever rows share its batch
    (``ssdp inspect`` runs one row, ``ssdp eval`` up to 16).
    """
    alpha_ib, _ = saib_attention(features, features[:, 0], params["saib.W"], params["saib.b"])
    pooled = np.matmul(alpha_ib[:, None, :], features)[:, 0]
    logits = np.matmul(pooled[:, None, :], params["clf.W"])[:, 0] + params["clf.b"]
    return alpha_ib, pooled, enc.softmax(logits)


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


def relation_head_backward(params, features, alpha_ib, d_pooled, d_alpha):
    """Backward of ``relation_head`` from the gradients on its outputs:
    d_pooled (B, d), None when no term reads it, and d_alpha (B, n) or 0.0.
    Returns (d_features (B, n, d), sentiment row included, d saib.W, d saib.b).
    """
    d_features = 0.0
    if d_pooled is not None:
        d_alpha = np.einsum("bd,bnd->bn", d_pooled, features) + d_alpha
        d_features = alpha_ib[:, :, None] * d_pooled[:, None, :]
    df, d_anchor, dW, db = saib_attention_backward(
        d_alpha, alpha_ib, features, features[:, 0], params["saib.W"])
    d_features = d_features + df
    d_features[:, 0, :] += d_anchor
    return d_features, dW, db


@dataclass
class BatchResult:
    """The batch's losses, its gradients (``state.grads``, or empty with
    ``value_only``), its ASP fallback count, and the encoder ``forward``
    it ran, valid until the next forward on ``state.workspace``."""

    breakdown: LossBreakdown
    grads: dict
    asp_fallbacks: int
    forward: enc.ForwardResult


def batch_losses(state, ids, Q, gold, terms, config, value_only=False) -> BatchResult:
    """Joint forward/backward over one same-length batch: the encoder and
    the relation head, each term's value and gradient on the head output it
    reads, then the head and encoder backwards.

    ``terms`` is the set of loss terms summed into the total, a subset of
    ("re", "asp", "ib"): training passes ``MODE_TERMS[config.mode]``, the
    gradient check each term alone and all three.  ``config`` is the run's
    ``TrainConfig``; the KLD term reads its ``lambda_asp`` and
    ``asp_epsilon``.  With ``value_only`` no backward runs and ``grads`` is
    empty; otherwise it is ``state.grads``.
    """
    p = state.params
    fwd = enc.forward(state, ids, state.workspace)
    alpha_ib, pooled, probs = relation_head(p, fwd.features)
    l_re = l_asp = l_ib = d_alpha = 0.0
    d_pooled, d_alpha_avg, fallbacks, head_grads = None, None, 0, {}
    if "re" in terms:
        l_re, d_pooled, head_grads["clf.W"], head_grads["clf.b"] = re_loss(
            pooled, probs, p["clf.W"], gold)
    if "ib" in terms:
        l_ib, d_alpha = saib_entropy_loss(alpha_ib)
    if "asp" in terms:
        l_asp, d_alpha_avg, fallbacks = asp_loss(
            enc.average_attention(fwd.attention, state.config.last_k), Q,
            config.lambda_asp, config.asp_epsilon)
    breakdown = total_loss(float(l_re), float(l_asp), float(l_ib))
    if value_only:
        return BatchResult(breakdown=breakdown, grads={}, asp_fallbacks=fallbacks, forward=fwd)
    d_features, head_grads["saib.W"], head_grads["saib.b"] = relation_head_backward(
        p, fwd.features, alpha_ib, d_pooled, d_alpha)
    grads = enc.backward(state, fwd, d_features, d_alpha_avg)
    for name, g in head_grads.items():
        grads[name] += g
    return BatchResult(breakdown=breakdown, grads=grads, asp_fallbacks=fallbacks, forward=fwd)
