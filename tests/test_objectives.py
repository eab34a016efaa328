"""Loss terms: closed forms, independent oracles, and gradient wiring."""

import numpy as np
import pytest

from ssdpsem import encoder as enc
from ssdpsem import objectives as obj
from ssdpsem.trainer import TrainConfig

from test_encoder import tiny_state

CONFIG = TrainConfig()
ASP = (CONFIG.lambda_asp, CONFIG.asp_epsilon)
FULL = obj.MODE_TERMS["asp_saib"]


def kld_oracle(p, q):
    """Standalone two-line KLD evaluation, independent of asp_loss."""
    p, q = np.asarray(p, float), np.asarray(q, float)
    return float(np.sum(p * np.log(p / q)))


def test_total_loss_additivity_and_nonfinite_detection():
    b = obj.total_loss(1.0, 0.5, 0.2)
    assert b.total == pytest.approx(1.7)
    with pytest.raises(obj.NonFiniteLossError) as err:
        obj.total_loss(1.0, float("nan"), 0.0)
    assert err.value.term == "l_asp"


# ---------------------------------------------------------------------------
# ASP supervised-attention loss


def test_asp_loss_zero_when_masked_attention_equals_q():
    Q = np.array([[1.0, 0.0, 1.0, 0.0]])
    q = Q / Q.sum()
    alpha = q.copy()  # attention already equals the target, all mass marked
    loss, d_alpha, fallbacks = obj.asp_loss(alpha, Q, *ASP)
    assert loss == pytest.approx(0.0, abs=1e-10)
    assert fallbacks == 0


def test_asp_loss_uniform_full_mask_is_zero():
    n = 4
    Q = np.ones((1, n))
    alpha = np.full((1, n), 1.0 / n)
    loss, _, _ = obj.asp_loss(alpha, Q, *ASP)
    assert loss == pytest.approx(0.0, abs=1e-10)


def test_asp_loss_matches_standalone_kld_oracle():
    eps = 1e-8
    alpha = np.array([[0.7, 0.1, 0.1, 0.1]])
    Q = np.array([[1.0, 0.0, 0.0, 1.0]])
    q = np.array([[0.5, 0.0, 0.0, 0.5]])
    n = 4
    masked = (alpha * Q + eps) / (1 + n * eps)
    qs = (q + eps) / (1 + n * eps)
    expected = kld_oracle(qs[0], masked[0])
    loss, _, _ = obj.asp_loss(alpha, Q, CONFIG.lambda_asp, eps)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_asp_loss_nonnegative_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(2, 12)
        alpha = rng.dirichlet(np.ones(n))[None, :]
        Q = np.zeros((1, n))
        Q[0, rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 1.0
        loss, _, _ = obj.asp_loss(alpha, Q, *ASP)
        assert loss >= -1e-12


def test_asp_loss_decreases_as_marked_mass_grows():
    """More attention mass on marked positions must mean lower loss."""
    Q = np.array([[1.0, 1.0, 0.0, 0.0]])
    losses = []
    for mass in (0.2, 0.5, 0.8, 1.0):
        alpha = np.array([[mass / 2, mass / 2, (1 - mass) / 2, (1 - mass) / 2]])
        loss, _, _ = obj.asp_loss(alpha, Q, *ASP)
        losses.append(loss)
    assert losses == sorted(losses, reverse=True)


def test_asp_loss_zero_mask_fallback_counts_and_zero_grad():
    alpha = np.array([[0.0, 0.0, 0.5, 0.5]])
    Q = np.array([[1.0, 1.0, 0.0, 0.0]])
    loss, d_alpha, fallbacks = obj.asp_loss(alpha, Q, *ASP)
    assert fallbacks == 1
    assert np.allclose(d_alpha, 0.0)
    assert np.isfinite(loss)


def test_asp_loss_scales_with_lambda():
    alpha = np.array([[0.6, 0.2, 0.1, 0.1]])
    Q = np.array([[1.0, 0.0, 0.0, 1.0]])
    l1, g1, _ = obj.asp_loss(alpha, Q, 1.0, CONFIG.asp_epsilon)
    l2, g2, _ = obj.asp_loss(alpha, Q, 2.0, CONFIG.asp_epsilon)
    assert l2 == pytest.approx(2 * l1)
    assert np.allclose(g2, 2 * g1)


def test_asp_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    alpha = rng.dirichlet(np.ones(5))[None, :]
    Q = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
    _, d_alpha, _ = obj.asp_loss(alpha, Q, *ASP)
    step = 1e-7
    for i in range(5):
        up, down = alpha.copy(), alpha.copy()
        up[0, i] += step
        down[0, i] -= step
        fd = (obj.asp_loss(up, Q, *ASP)[0] - obj.asp_loss(down, Q, *ASP)[0]) / (2 * step)
        assert d_alpha[0, i] == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# SAIB pooling attention + entropy


def test_saib_attention_uniform_for_equal_scores():
    feats = np.zeros((1, 4, 3))
    sen = np.zeros((1, 3))
    W = np.ones(6)
    alpha, _ = obj.saib_attention(feats, sen, W, np.array([0.5]))
    assert np.allclose(alpha, 0.25)


def test_saib_attention_closed_form_two_tokens():
    # engineered scores [ln 2, 0] -> softmax [2/3, 1/3]
    feats = np.array([[[np.log(2.0)], [0.0]]])
    sen = np.zeros((1, 1))
    W = np.array([1.0, 0.0])
    alpha, scores = obj.saib_attention(feats, sen, W, np.zeros(1))
    assert np.allclose(scores[0], [np.log(2.0), 0.0])
    assert np.allclose(alpha[0], [2 / 3, 1 / 3])


def test_saib_attention_shift_invariance():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(2, 5, 4))
    sen = rng.normal(size=(2, 4))
    W = rng.normal(size=8)
    a1, _ = obj.saib_attention(feats, sen, W, np.array([0.0]))
    a2, _ = obj.saib_attention(feats, sen, W, np.array([123.0]))
    assert np.allclose(a1, a2, atol=1e-10)


def test_entropy_closed_forms():
    assert obj.entropy(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4), abs=1e-10)
    assert obj.entropy(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)
    assert obj.entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))[0] == pytest.approx(
        np.log(2), abs=1e-10
    )


def test_entropy_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(2, 20)
        alpha = rng.dirichlet(np.ones(n))[None, :]
        h = obj.entropy(alpha)[0]
        assert -1e-12 <= h <= np.log(n) + 1e-12


def test_entropy_gradient_matches_finite_differences():
    alpha = np.array([[0.4, 0.3, 0.2, 0.1]])
    _, d_alpha = obj.saib_entropy_loss(alpha)
    step = 1e-7
    for i in range(4):
        up, down = alpha.copy(), alpha.copy()
        up[0, i] += step
        down[0, i] -= step
        fd = (obj.saib_entropy_loss(up)[0] - obj.saib_entropy_loss(down)[0]) / (2 * step)
        assert d_alpha[0, i] == pytest.approx(fd, abs=1e-6)


def test_gradient_descent_on_entropy_sparsifies():
    """50 plain gradient steps on L_IB alone strictly reduce entropy."""
    rng = np.random.default_rng(4)
    wins = 0
    for seed in range(20):
        state = tiny_state(seed=seed)
        ids = rng.integers(2, len(state.vocab), size=(1, 6))
        before = after = None
        for step in range(50):
            fwd = enc.forward(state, ids)
            alpha, _ = obj.saib_attention(
                fwd.features, fwd.features[:, 0],
                state.params["saib.W"], state.params["saib.b"],
            )
            h = obj.entropy(alpha)[0]
            before = h if before is None else before
            after = h
            _, d_alpha = obj.saib_entropy_loss(alpha)
            df, dsen, dW, db = obj.saib_attention_backward(
                d_alpha, alpha, fwd.features, fwd.features[:, 0], state.params["saib.W"]
            )
            df[:, 0, :] += dsen
            grads = enc.backward(state, fwd, df)
            grads["saib.W"] += dW
            grads["saib.b"] += db
            for name, g in grads.items():
                state.params[name] -= 0.05 * g
        if after < before:
            wins += 1
    assert wins >= 19


# ---------------------------------------------------------------------------
# Relation cross-entropy


def test_re_loss_uniform_classifier_gives_log_R():
    pooled = np.zeros((2, 4))
    Wc = np.zeros((4, 8))
    bc = np.zeros(8)
    loss, *_ = obj.re_loss(pooled, enc.softmax(pooled @ Wc + bc), Wc, np.array([3, 5]))
    assert loss == pytest.approx(np.log(8), abs=1e-12)


def test_re_loss_confident_correct_prediction_near_zero():
    pooled = np.array([[1.0]])
    Wc = np.array([[50.0, -50.0]])
    bc = np.zeros(2)
    loss, *_ = obj.re_loss(pooled, enc.softmax(pooled @ Wc + bc), Wc, np.array([0]))
    assert loss < 1e-10


def test_re_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    pooled = rng.normal(size=(3, 4))
    Wc = rng.normal(size=(4, 5))
    bc = rng.normal(size=5)
    gold = np.array([0, 2, 4])
    _, d_pooled, dWc, dbc = obj.re_loss(pooled, enc.softmax(pooled @ Wc + bc), Wc, gold)
    step = 1e-7
    for arr, grad in ((pooled, d_pooled), (Wc, dWc), (bc, dbc)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for idx in range(0, flat.size, 3):
            orig = flat[idx]
            flat[idx] = orig + step
            up = obj.re_loss(pooled, enc.softmax(pooled @ Wc + bc), Wc, gold)[0]
            flat[idx] = orig - step
            down = obj.re_loss(pooled, enc.softmax(pooled @ Wc + bc), Wc, gold)[0]
            flat[idx] = orig
            assert gflat[idx] == pytest.approx((up - down) / (2 * step), abs=1e-5)


def test_one_hot_pooling_selects_token_feature():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(1, 5, 4))
    feats[0, :, 0] = 0.0
    feats[0, 3, 0] = 1.0
    W = np.zeros(8)
    W[0] = 1000.0  # token 3 outscores the rest by 1000, and exp(-1000) is 0.0 in float64
    params = {"saib.W": W, "saib.b": np.zeros(1),
              "clf.W": rng.normal(size=(4, 3)), "clf.b": np.zeros(3)}
    alpha, pooled, _ = obj.relation_head(params, feats)
    assert alpha.tolist() == [[0.0, 0.0, 0.0, 1.0, 0.0]]
    assert pooled.tobytes() == feats[:, 3].tobytes()


# ---------------------------------------------------------------------------
# Batch composition


def make_batch(state, B=2, n=5, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(2, len(state.vocab), size=(B, n))
    Q = np.zeros((B, n))
    Q[:, 0] = 1.0
    for b in range(B):
        Q[b, rng.choice(np.arange(1, n), size=2, replace=False)] = 1.0
    gold = rng.integers(0, len(state.relations), size=B)
    return ids, Q, gold


def test_batch_losses_mode_gating():
    state = tiny_state()
    ids, Q, gold = make_batch(state)
    base, asp, saib, both = (obj.batch_losses(state, ids, Q, gold, obj.MODE_TERMS[m], CONFIG)
                             for m in ("baseline", "asp", "saib", "asp_saib"))
    assert base.breakdown.l_asp == 0.0 and base.breakdown.l_ib == 0.0
    assert base.breakdown.total == base.breakdown.l_re
    assert asp.breakdown.l_asp > 0.0 and asp.breakdown.l_ib == 0.0
    assert saib.breakdown.l_ib > 0.0 and saib.breakdown.l_asp == 0.0
    assert both.breakdown.total == pytest.approx(
        both.breakdown.l_re + both.breakdown.l_asp + both.breakdown.l_ib
    )
    # the pooling head feeds the classifier in every mode
    assert base.breakdown.l_re == pytest.approx(both.breakdown.l_re)


def test_batch_losses_value_only_skips_grads(monkeypatch):
    """A value-only probe costs one forward: neither backward runs."""
    state = tiny_state()
    ids, Q, gold = make_batch(state)
    calls = {"relation_head_backward": 0, "backward": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counted(obj, "relation_head_backward")
    counted(enc, "backward")
    out = obj.batch_losses(state, ids, Q, gold, FULL, CONFIG, value_only=True)
    assert out.grads == {}
    assert np.isfinite(out.breakdown.total)
    assert calls == {"relation_head_backward": 0, "backward": 0}
    obj.batch_losses(state, ids, Q, gold, FULL, CONFIG)
    assert calls == {"relation_head_backward": 1, "backward": 1}


def _reference_batch_grads(state, ids, Q, gold, terms, config):
    """The batch gradients composed as a head backward that owns the RE and
    entropy terms, with the KLD term and the encoder backward after it."""
    p = state.params
    fwd = enc.forward(state, ids, state.workspace)
    alpha_ib, pooled, probs = obj.relation_head(p, fwd.features)
    d_alpha, d_features, head_grads = np.zeros_like(alpha_ib), 0.0, {}
    if "re" in terms:
        _, d_pooled, head_grads["clf.W"], head_grads["clf.b"] = obj.re_loss(
            pooled, probs, p["clf.W"], gold)
        d_alpha = np.einsum("bd,bnd->bn", d_pooled, fwd.features)
        d_features = alpha_ib[:, :, None] * d_pooled[:, None, :]
    if "ib" in terms:
        d_alpha = d_alpha + obj.saib_entropy_loss(alpha_ib)[1]
    df, d_anchor, head_grads["saib.W"], head_grads["saib.b"] = obj.saib_attention_backward(
        d_alpha, alpha_ib, fwd.features, fwd.features[:, 0], p["saib.W"])
    d_features = d_features + df
    d_features[:, 0, :] += d_anchor
    d_alpha_avg = None
    if "asp" in terms:
        _, d_alpha_avg, _ = obj.asp_loss(enc.average_attention(fwd.attention, state.config.last_k),
                                         Q, config.lambda_asp, config.asp_epsilon)
    grads = enc.backward(state, fwd, d_features, d_alpha_avg)
    for name, g in head_grads.items():
        grads[name] += g
    return {name: g.tobytes() for name, g in grads.items()}


@pytest.mark.parametrize("terms", sorted({*obj.MODE_TERMS.values(), ("re",), ("asp",), ("ib",)}),
                         ids="+".join)
def test_batch_grads_equal_the_reference_composition_bit_for_bit(terms):
    state = tiny_state()
    ids, Q, gold = make_batch(state, B=3, n=6)
    expected = _reference_batch_grads(state, ids, Q, gold, terms, CONFIG)
    got = obj.batch_losses(state, ids, Q, gold, terms, CONFIG).grads
    assert {name: g.tobytes() for name, g in got.items()} == expected


def test_joint_value_only_terms_equal_the_one_term_totals_exactly():
    """gradcheck reads every term's finite difference from one joint probe."""
    state = tiny_state()
    ids, Q, gold = make_batch(state)
    joint = obj.batch_losses(state, ids, Q, gold, FULL, CONFIG, value_only=True).breakdown
    for name, term in (("l_re", "re"), ("l_asp", "asp"), ("l_ib", "ib")):
        alone = obj.batch_losses(state, ids, Q, gold, (term,), CONFIG, value_only=True)
        assert getattr(joint, name) == alone.breakdown.total, name


def test_value_only_leaves_the_gradient_buffer_untouched():
    """gradcheck reads the analytic gradients while its probes run."""
    state = tiny_state()
    ids, Q, gold = make_batch(state)
    out = obj.batch_losses(state, ids, Q, gold, FULL, CONFIG)
    assert out.grads is state.grads
    before = state.grad_flat.copy()
    ids, Q, gold = make_batch(state, B=3, n=6)
    obj.batch_losses(state, ids, Q, gold, FULL, CONFIG, value_only=True)
    assert state.grad_flat.tobytes() == before.tobytes()
