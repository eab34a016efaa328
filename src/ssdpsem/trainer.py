"""Deterministic multi-task training loop and gradient-verification harness.

Determinism contract: identical config + seed produce bit-identical
parameters and byte-identical metrics CSV on repeated runs.  All shuffling
uses the config seed; batches hold same-length sequences so no padding or
masking is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

import numpy as np

from . import encoder as enc
from . import objectives
from .corpus import VARIANTS, ConfigError


@dataclass
class TrainConfig(enc.EncoderConfig):
    """The six encoder keys it inherits, then the training keys."""

    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    optimizer: str = "adam"  # "sgd" | "adam"
    seed: int = 0
    mode: str = "asp_saib"  # baseline | asp | saib | asp_saib
    isl_variant: str = "ISL"  # EPL | SPL | ISL; also annotated where no signal is read
    lambda_asp: float = 1.0
    asp_epsilon: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in objectives.MODE_TERMS:
            raise ConfigError(f"mode must be one of {tuple(objectives.MODE_TERMS)}, "
                              f"got {self.mode!r}")
        if self.isl_variant not in VARIANTS:
            raise ConfigError(f"isl_variant must be one of {VARIANTS}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be sgd|adam, got {self.optimizer!r}")
        for name in ("epochs", "batch_size", "lr", "asp_epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lambda_asp", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def encoder_config(self):
        return enc.EncoderConfig(**{f.name: getattr(self, f.name)
                                    for f in fields(enc.EncoderConfig)})


@dataclass
class RunRecord:
    epoch_losses: list[dict]  # per epoch: mean l_re/l_asp/l_ib/total
    metrics_rows: list[str]  # CSV lines incl. header
    asp_fallbacks: int
    state: enc.ModelState


class TrainDivergenceError(RuntimeError):
    def __init__(self, step, term):
        super().__init__(f"non-finite loss term {term} at step {step}")
        self.step = step
        self.term = term


class SgdOptimizer:
    def __init__(self, lr):
        self.lr = lr

    def step(self, flat, grad_flat):
        """``flat -= lr * grad_flat`` on the whole parameter vector."""
        flat -= self.lr * grad_flat


# AdamOptimizer.step's block: its two scratch vectors, and each block of the
# flat vectors it updates, stay small enough for L2
ADAM_BLOCK = 2**14


class AdamOptimizer:
    def __init__(self, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, flat, grad_flat):
        """One update of the whole parameter vector ``flat`` (a state's
        ``flat``) from its gradient vector ``grad_flat``, in place, bit for
        bit ``m += (1-b1)(g-m); v += (1-b2)(g*g-v);
        p -= lr * (m/c1) / (sqrt(v/c2) + eps)``.  The operations run over
        ``ADAM_BLOCK``-element blocks, each in the same order per element.
        m, v and two one-block scratch vectors are allocated on the first
        step and reused after it."""
        if self.m is None:
            self.m, self.v = np.zeros_like(grad_flat), np.zeros_like(grad_flat)
            self._tmp, self._update = np.empty((2, min(ADAM_BLOCK, grad_flat.size)))
        self.t += 1
        b1, b2 = self.b1, self.b2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for lo in range(0, grad_flat.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            g, m, v, p = grad_flat[block], self.m[block], self.v[block], flat[block]
            tmp, update = self._tmp[:g.size], self._update[:g.size]
            np.subtract(g, m, out=tmp)
            tmp *= 1 - b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp -= v
            tmp *= 1 - b2
            v += tmp
            np.divide(m, c1, out=update)
            update *= self.lr
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update /= tmp
            p -= update


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SgdOptimizer(config.lr)
    return AdamOptimizer(config.lr)


def check_length(inst, max_len):
    """Raise ConfigError naming ``inst`` if it has more than ``max_len`` tokens."""
    if len(inst.tokens) > max_len:
        raise ConfigError(f"{inst.id}: sequence length {len(inst.tokens)} "
                          f"exceeds max_len {max_len}")


def encode_prepared(state, prepared):
    """Vocabulary ids, label indicators, and gold index per prepared
    instance; an instance the model cannot take raises ConfigError."""
    rel_to_idx = {r: i for i, r in enumerate(state.relations)}
    max_len = state.config.max_len
    out = []
    for pi in prepared:
        inst = pi.augmented
        if inst.relation not in rel_to_idx:
            raise ConfigError(f"{inst.id}: relation {inst.relation!r} is not a model label")
        check_length(inst, max_len)
        ids = enc.encode_tokens(state, inst.tokens)
        out.append((ids, pi.Q, rel_to_idx[inst.relation]))
    return out


def make_batches(encoded, batch_size, order):
    """Same-length batches of the indices in ``order``: each length's
    indices are chunked in the given order; full chunks come out as they
    fill, then the partial ones by length.  train passes a seeded shuffle,
    evalkit.predict ``range(n)``."""
    buckets = {}
    batches = []
    for idx in order:
        n = len(encoded[idx][0])
        bucket = buckets.setdefault(n, [])
        bucket.append(idx)
        if len(bucket) == batch_size:
            batches.append(bucket[:])
            bucket.clear()
    for n in sorted(buckets):
        if buckets[n]:
            batches.append(buckets[n])
    return batches


def _collate(encoded, indices):
    """The ``objectives.Batch`` of the encoded instances at ``indices``: the
    one place a batch is built."""
    return objectives.Batch(ids=np.stack([encoded[i][0] for i in indices]),
                            Q=np.stack([encoded[i][1] for i in indices]),
                            gold=np.array([encoded[i][2] for i in indices], dtype=np.int64))


def init_from_config(config: TrainConfig, prepared_train, relations):
    """The state ``train`` starts from: a model over the annotated instances'
    vocabulary, drawn from the config's encoder keys and seed."""
    vocab = enc.build_vocab([pi.augmented for pi in prepared_train])
    return enc.init_state(config.encoder_config(), vocab, config.seed, relations)


def _prepare(config: TrainConfig, prepared, relations):
    """Build a model over the annotated instances' vocabulary, encode them."""
    if any(pi.variant != config.isl_variant for pi in prepared):
        raise ValueError(f"prepared instances are not annotated with {config.isl_variant}")
    state = init_from_config(config, prepared, relations)
    return state, encode_prepared(state, prepared)


def train(config: TrainConfig, prepared, relations) -> RunRecord:
    """Train on ``prepared``, the training split as ``pipeline.annotate``
    returns it for config.isl_variant, and return the run; the caller writes
    it.  ``init_from_config`` builds the state it starts from."""
    state, encoded = _prepare(config, prepared, relations)
    terms = objectives.MODE_TERMS[config.mode]
    optimizer = make_optimizer(config)
    rows = ["step,l_re,l_asp,l_ib,total"]
    epoch_losses = []
    step = 0
    fallbacks = 0
    for epoch in range(config.epochs):
        order = list(range(len(encoded)))
        random.Random(f"{config.seed}:{epoch}").shuffle(order)
        sums = np.zeros(4)
        n_batches = 0
        for indices in make_batches(encoded, config.batch_size, order):
            try:
                result = objectives.batch_losses(state, _collate(encoded, indices), terms, config)
            except objectives.NonFiniteLossError as exc:
                raise TrainDivergenceError(step, exc.term) from exc
            optimizer.step(state.flat, state.grad_flat)
            b = result.breakdown
            rows.append(f"{step},{b.l_re:.6f},{b.l_asp:.6f},{b.l_ib:.6f},{b.total:.6f}")
            sums += (b.l_re, b.l_asp, b.l_ib, b.total)
            fallbacks += result.asp_fallbacks
            # its forward holds the step's cache: kept into the next step, it
            # would be a second one at that step's peak
            del result
            n_batches += 1
            step += 1
        means = sums / max(n_batches, 1)
        epoch_losses.append(
            {"epoch": epoch, "l_re": means[0], "l_asp": means[1], "l_ib": means[2],
             "total": means[3]}
        )
    return RunRecord(
        epoch_losses=epoch_losses,
        metrics_rows=rows,
        asp_fallbacks=fallbacks,
        state=state,
    )


# ---------------------------------------------------------------------------
# Gradient verification

FD_STEP = 1e-5
GRADCHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckEntry:
    term: str
    block: str
    max_rel_err: float
    coords_checked: int
    kinks_skipped: int = 0

    @property
    def passed(self):
        return self.max_rel_err < GRADCHECK_TOLERANCE


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self):
        return max((e.max_rel_err for e in self.entries), default=0.0)


# each reported term (a LossBreakdown field) and the terms its gradient sums
_TERM_SETS = {"l_re": ("re",), "l_asp": ("asp",), "l_ib": ("ib",),
              "total": ("re", "asp", "ib")}


def _probe(state, batch, config):
    """One value-only forward over ``batch``: every term's loss, and the sign
    pattern of each feed-forward pre-activation (the ReLU output's
    ``h > 0``)."""
    result = objectives.batch_losses(state, batch, _TERM_SETS["total"], config,
                                     value_only=True)
    layers = result.forward.cache["layers"]
    return result.breakdown, b"".join((c["h"] > 0).tobytes() for c in layers)


def gradcheck_batch(state, batch, config, max_coords_per_block,
                    analytic_override=None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences on one
    ``objectives.Batch`` (``_collate`` builds it).

    Checks each loss term in isolation plus their sum, whatever
    ``config.mode`` is; ``config`` supplies the KLD term's weight and
    smoothing.  The four analytic gradients are computed and copied out of
    ``state.grads`` first; then one probe pair per coordinate, at +h and
    -h, serves all four terms (a one-term total equals that term's value
    bit for bit).
    Coordinates are subsampled with an even deterministic stride when a
    block exceeds ``max_coords_per_block``.  Entries are term-major, blocks
    in ``state.params`` order.  ``analytic_override(term, grads)`` lets tests
    corrupt a gradient block (negative control).

    Central differences are undefined across a ReLU kink: when a
    pre-activation sits within the step of zero, the two probe points lie
    on different linear pieces and their slope estimate matches neither
    piece (the analytic subgradient is still exact).  Coordinates whose
    mismatch coincides with a change in the ReLU sign pattern between the
    two probes are therefore skipped and counted in ``kinks_skipped``
    instead of reported as errors.
    """
    analytic = {}
    for name, terms in _TERM_SETS.items():
        objectives.batch_losses(state, batch, terms, config)
        grads = {block: g.copy() for block, g in state.grads.items()}
        analytic[name] = grads if analytic_override is None else analytic_override(name, grads)
    rows = []  # per block, one entry per term
    for block, param in state.params.items():
        if param.size > max_coords_per_block:
            coords = np.unique(np.linspace(0, param.size - 1, max_coords_per_block).astype(int))
        else:
            coords = np.arange(param.size)
        row = [GradCheckEntry(name, block, 0.0, 0) for name in _TERM_SETS]
        rows.append(row)
        pflat = param.reshape(-1)
        for c in coords:
            orig = pflat[c]
            pflat[c] = orig + FD_STEP
            up, pattern_up = _probe(state, batch, config)
            pflat[c] = orig - FD_STEP
            down, pattern_down = _probe(state, batch, config)
            pflat[c] = orig
            for e in row:
                fd = (getattr(up, e.term) - getattr(down, e.term)) / (2 * FD_STEP)
                a = analytic[e.term][block].flat[c]
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
                if err >= GRADCHECK_TOLERANCE and pattern_up != pattern_down:
                    e.kinks_skipped += 1
                else:
                    e.max_rel_err = max(e.max_rel_err, err)
                    e.coords_checked += 1
    return GradCheckReport([e for term_entries in zip(*rows) for e in term_entries])


def gradcheck(config: TrainConfig, prepared, relations,
              max_coords_per_block) -> GradCheckReport:
    """Run the finite-difference suite on each annotated instance as a
    one-row batch."""
    state, encoded = _prepare(config, prepared, relations)
    merged = GradCheckReport()
    for i in range(len(encoded)):
        merged.entries.extend(
            gradcheck_batch(state, _collate(encoded, [i]), config, max_coords_per_block).entries)
    return merged
