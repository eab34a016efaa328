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
from typing import NamedTuple

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

# the KLD term's smoothing of both distributions
ASP_EPSILON = 1e-8


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


def asp_loss(alpha_avg, Q, lambda_asp):
    """KLD pulling the masked averaged attention toward the label distribution.

    alpha_avg, Q: (B, n).  The label distribution is q = Q / sum(Q) per
    row.  The attention is masked in Hadamard manner with Q, smoothed by
    ``ASP_EPSILON``, and compared against the equally smoothed q as
    KLD(q_s || a_s).  The masked side is NOT renormalized: its missing
    mass is exactly the attention sitting on unmarked positions, so
    minimizing this loss migrates attention mass onto the marked positions
    instead of merely reshaping it among them.
    Both sides share the smoothing denominator 1 + n*ASP_EPSILON, which
    makes the loss exactly zero when the masked attention equals q and
    non-negative otherwise (the masked side is a sub-distribution).

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
    a = np.where(fallback[:, None], q + ASP_EPSILON, m + ASP_EPSILON) / (1.0 + n * ASP_EPSILON)
    qs = (q + ASP_EPSILON) / (1.0 + n * ASP_EPSILON)
    kld = (qs * np.log(qs / a)).sum(axis=1)
    loss = lambda_asp * kld.mean()
    d_alpha = -lambda_asp / B * qs * Q / (m + ASP_EPSILON)
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
    d_row = d_scores.sum(axis=1)  # (B,): the anchor's score gradient
    dW = np.concatenate([np.einsum("bn,bnd->d", d_scores, features), d_row @ anchor])
    db = np.array([d_scores.sum()])
    d_features = d_scores[:, :, None] * W[:d]
    d_anchor = d_row[:, None] * W[d:]
    return d_features, d_anchor, dW, db


def _entropy_and_log(alpha):
    """Shannon entropy per row with 0*log 0 := 0, the mask alpha > 0, and
    log alpha under that mask (0.0 elsewhere), taken once for both."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    positive = alpha > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_alpha = np.log(np.where(positive, alpha, 1.0))
        term = np.where(positive, alpha * log_alpha, 0.0)
    return -term.sum(axis=1), positive, log_alpha


def entropy(alpha):
    """Shannon entropy per row with 0*log 0 := 0."""
    return _entropy_and_log(alpha)[0]


def saib_entropy_loss(alpha):
    """Mean attention entropy and its gradient w.r.t. alpha (B, n)."""
    h, positive, log_alpha = _entropy_and_log(alpha)
    return h.mean(), np.where(positive, -(log_alpha + 1.0), 0.0) / len(h)


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


def re_loss(probs, gold):
    """Softmax cross-entropy over relations, given the classifier's probs
    (B, R) and gold: (B,) int labels.

    Returns (mean loss, d_logits (B, R)).
    """
    gold = np.atleast_1d(np.asarray(gold, dtype=np.int64))
    B = probs.shape[0]
    with np.errstate(divide="ignore"):  # P[gold]=0 yields inf, caught upstream
        loss = -np.log(probs[np.arange(B), gold]).mean()
    d_logits = probs.copy()
    d_logits[np.arange(B), gold] -= 1.0
    d_logits /= B
    return loss, d_logits


def relation_head_backward(params, grads, features, alpha_ib, pooled, d_logits, d_alpha):
    """Backward of ``relation_head`` from the gradients on its outputs:
    d_logits (B, R), None when no term reads the classifier, and d_alpha
    (B, n) or 0.0.  Writes all four head blocks of ``grads`` (``clf.*`` are
    zeroed when d_logits is None) and returns d_features (B, n, d), the
    sentiment row included.
    """
    if d_logits is None:
        grads["clf.W"].fill(0.0)
        grads["clf.b"].fill(0.0)
        d_features = np.zeros_like(features)
    else:
        grads["clf.W"][...] = pooled.T @ d_logits
        grads["clf.b"][...] = d_logits.sum(axis=0)
        d_pooled = d_logits @ params["clf.W"].T
        d_alpha = np.einsum("bd,bnd->bn", d_pooled, features) + d_alpha
        d_features = alpha_ib[:, :, None] * d_pooled[:, None, :]
    df, d_anchor, grads["saib.W"][...], grads["saib.b"][...] = saib_attention_backward(
        d_alpha, alpha_ib, features, features[:, 0], params["saib.W"])
    d_features += df
    d_features[:, 0, :] += d_anchor
    return d_features


class Batch(NamedTuple):
    """One same-length batch, as ``trainer._collate`` builds it: token ids
    (B, n), label indicators Q (B, n) and gold relation indices (B,)."""

    ids: np.ndarray
    Q: np.ndarray
    gold: np.ndarray


@dataclass
class BatchResult:
    """The batch's losses, its ASP fallback count, and the encoder
    ``forward`` it ran.  Unless the call was value-only, the encoder
    backward has consumed that forward's cache: only its ``features`` and
    ``attention`` still hold their values."""

    breakdown: LossBreakdown
    asp_fallbacks: int
    forward: enc.ForwardResult


def batch_losses(state, batch, terms, config, value_only=False) -> BatchResult:
    """Joint forward/backward over one same-length ``Batch``: the encoder
    and the relation head, each term's value and gradient on the head output
    it reads, then the head and encoder backwards, which write the gradients
    into ``state.grads``.

    ``terms`` is the set of loss terms summed into the total, a subset of
    ("re", "asp", "ib"): training passes ``MODE_TERMS[config.mode]``, the
    gradient check each term alone and all three.  ``config`` is the run's
    ``TrainConfig``; the KLD term reads its ``lambda_asp``.  With
    ``value_only`` no backward runs and ``state.grads`` is left as it was.
    """
    p = state.params
    fwd = enc.forward(state, batch.ids)
    alpha_ib, pooled, probs = relation_head(p, fwd.features)
    l_re = l_asp = l_ib = d_alpha = 0.0
    d_logits, d_alpha_avg, fallbacks = None, None, 0
    if "re" in terms:
        l_re, d_logits = re_loss(probs, batch.gold)
    if "ib" in terms:
        l_ib, d_alpha = saib_entropy_loss(alpha_ib)
    if "asp" in terms:
        l_asp, d_alpha_avg, fallbacks = asp_loss(
            enc.average_attention(fwd.attention, state.config.last_k), batch.Q,
            config.lambda_asp)
    result = BatchResult(breakdown=total_loss(float(l_re), float(l_asp), float(l_ib)),
                         asp_fallbacks=fallbacks, forward=fwd)
    if value_only:
        return result
    d_features = relation_head_backward(p, state.grads, fwd.features, alpha_ib, pooled,
                                        d_logits, d_alpha)
    enc.backward(state, fwd, d_features, d_alpha_avg)
    return result
