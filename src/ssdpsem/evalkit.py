"""Metrics, entity-pair breakdowns, ablation grids, and attention exports.

Micro precision/recall/F1 follow the standard relation-extraction
convention: the designated no_relation label never counts as a positive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import encoder as enc
from . import objectives, trainer
from .corpus import NO_RELATION, ConfigError


@dataclass
class EvalReport:
    accuracy: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float
    per_relation: dict[str, dict]  # label -> {tp, fp, fn, precision, recall, f1}
    per_bucket_f1: dict[str, float]  # "SUBJ:OBJ" -> micro F1 within bucket
    confusion: np.ndarray  # (R, R), rows = gold
    n_instances: int


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


class Prediction(NamedTuple):
    """One instance's result of a ``predict`` pass.

    ``pred`` and ``gold`` are relation indices into ``state.relations``;
    ``alpha_ib`` is the pooling (SAIB) attention and ``alpha_avg`` the
    encoder attention averaged over the last ``last_k`` layers, each (n,)
    over the instance's tokens.  ``marked_mass`` is alpha_avg's total mass
    on the positions the label signal Q marks, and ``pooling_entropy`` the
    Shannon entropy of alpha_ib.
    """

    pred: int
    gold: int
    alpha_ib: np.ndarray
    alpha_avg: np.ndarray
    marked_mass: float
    pooling_entropy: float


def predict(state, prepared, batch_size=trainer.TrainConfig.batch_size):
    """Batched inference grouped by sequence length: one ``Prediction`` per
    instance, in input order, and the one place a forward pass becomes
    per-instance results.

    A row's outputs are bit-identical whatever rows share its batch, so
    ``batch_size`` sets only the memory held: the default is training's.
    """
    encoded = trainer.encode_prepared(state, prepared)
    out = [None] * len(encoded)
    for chunk in trainer.make_batches(encoded, batch_size, range(len(encoded))):
        batch = trainer._collate(encoded, chunk)
        fwd = enc.forward(state, batch.ids)
        a_ib, _, probs = objectives.relation_head(state.params, fwd.features)
        a_avg = enc.average_attention(fwd.attention, state.config.last_k)
        del fwd  # its cache, freed before the next batch's forward
        marked_mass = (a_avg * batch.Q).sum(axis=1)
        pooling_entropy = objectives.entropy(a_ib)
        for row, i in enumerate(chunk):
            out[i] = Prediction(pred=int(np.argmax(probs[row])), gold=int(batch.gold[row]),
                                alpha_ib=a_ib[row], alpha_avg=a_avg[row],
                                marked_mass=float(marked_mass[row]),
                                pooling_entropy=float(pooling_entropy[row]))
    return out


def micro_scores(confusion, neg):
    """Micro P/R/F1 of a confusion matrix (rows gold, columns predicted);
    class ``neg``, the negative class, never counts as a positive."""
    total, tp = int(confusion.sum()), int(np.trace(confusion) - confusion[neg, neg])
    predicted, gold = total - int(confusion[:, neg].sum()), total - int(confusion[neg].sum())
    return _prf(tp, predicted - tp, gold - tp)


def evaluate(state, prepared, entity_types, no_relation=NO_RELATION) -> EvalReport:
    """Score ``prepared`` against the model's relations; ``entity_types``
    (relation -> (subj type, obj type)) sets the buckets and ``no_relation``,
    one of the model's relations, the negative class."""
    if not prepared:
        raise ConfigError("cannot evaluate an empty split")
    relations = state.relations
    if no_relation not in relations:
        raise ConfigError(f"negative class {no_relation!r} is not one of the model's "
                          f"relations {relations}")
    neg = relations.index(no_relation)
    confusion = np.zeros((len(relations),) * 2, dtype=np.int64)
    for p in predict(state, prepared):
        confusion[p.gold, p.pred] += 1
    per_relation = {}
    macro = []
    for i, label in enumerate(relations):
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum() - tp)
        fn = int(confusion[i, :].sum() - tp)
        p, r, f1 = _prf(tp, fp, fn)
        per_relation[label] = {"tp": tp, "fp": fp, "fn": fn,
                               "precision": p, "recall": r, "f1": f1}
        macro.append(f1)
    micro_p, micro_r, micro_f1 = micro_scores(confusion, neg)
    return EvalReport(
        accuracy=float(np.trace(confusion)) / len(prepared),
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        macro_f1=float(np.mean(macro)),
        per_relation=per_relation,
        per_bucket_f1=bucket_by_entity_pair(confusion, relations, entity_types, neg),
        confusion=confusion,
        n_instances=len(prepared),
    )


def bucket_by_entity_pair(confusion, relations, entity_types, neg):
    """Micro F1 per (subj type, obj type) bucket: the confusion rows of the
    gold relations typed with that pair.  A relation without entity types is
    in no bucket, and empty buckets are omitted rather than reported as NaN.
    """
    buckets = {}
    for i, label in enumerate(relations):
        pair = entity_types.get(label)
        if pair is not None and confusion[i].any():
            buckets.setdefault(f"{pair[0]}:{pair[1]}", np.zeros_like(confusion))[i] = confusion[i]
    return {key: micro_scores(buckets[key], neg)[2] for key in sorted(buckets)}


def isl_attention_mass(state, prepared):
    """Mean over ``prepared`` of each instance's averaged-attention mass on
    its marked signal positions, ``Prediction.marked_mass``."""
    return float(np.mean([p.marked_mass for p in predict(state, prepared)]))


# ---------------------------------------------------------------------------
# Ablation grids


def ablation_grid(configs, train, eval_prepared, manifest):
    """Train and evaluate one run per config, in order; returns
    [(config, EvalReport)].

    ``train`` maps each config's isl_variant to the train split as
    ``pipeline.annotate`` returns it for that variant.  ``eval_prepared`` is
    the annotated eval split, one for the whole grid: prediction never reads
    the label signal.  The manifest supplies the relations, the entity-pair
    buckets and the negative class.  A run that diverges raises a
    RuntimeError naming its grid entry.
    """
    results = []
    for i, config in enumerate(configs):
        try:
            state = trainer.train(config, train[config.isl_variant], manifest.relations).state
        except trainer.TrainDivergenceError as exc:
            raise RuntimeError(f"grid entry {i}: {exc}") from exc
        results.append((config, evaluate(state, eval_prepared, manifest.entity_types,
                                         manifest.no_relation_label)))
        del state  # so the next run does not hold this one's parameters and gradients
    return results


def grid_to_csv(results):
    lines = ["mode,isl_variant,seed,accuracy,micro_p,micro_r,micro_f1,macro_f1"]
    for config, report in results:
        lines.append(
            f"{config.mode},{config.isl_variant},{config.seed},"
            f"{report.accuracy:.6f},{report.micro_precision:.6f},"
            f"{report.micro_recall:.6f},{report.micro_f1:.6f},{report.macro_f1:.6f}"
        )
    return "\n".join(lines) + "\n"


def report_to_text(report: EvalReport, relations):
    lines = [
        f"instances {report.n_instances}",
        f"accuracy {report.accuracy:.6f}",
        f"micro_p {report.micro_precision:.6f} micro_r {report.micro_recall:.6f} "
        f"micro_f1 {report.micro_f1:.6f}",
        f"macro_f1 {report.macro_f1:.6f}",
        "per-relation:",
    ]
    for label in relations:
        row = report.per_relation[label]
        lines.append(
            f"  {label}: p {row['precision']:.6f} r {row['recall']:.6f} f1 {row['f1']:.6f} "
            f"(tp {row['tp']} fp {row['fp']} fn {row['fn']})"
        )
    if report.per_bucket_f1:
        lines.append("per-bucket f1:")
        for key, f1 in report.per_bucket_f1.items():
            lines.append(f"  {key}: {f1:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Attention exports


def export_attention(state, prepared_instance, csv_path, svg_path=None):
    """Write per-token averaged and pooling attention as CSV (+ SVG heatmap).

    CSV values use repr-exact float formatting so re-reading reproduces the
    in-memory vectors bit for bit.  Returns the instance's ``Prediction``,
    the one ``predict`` gives it in any batch.
    """
    prediction = predict(state, [prepared_instance])[0]
    a_ib, a_avg = prediction.alpha_ib, prediction.alpha_avg
    tokens = prepared_instance.augmented.tokens
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "token", "alpha_avg", "alpha_ib", "marked"])
        for i, tok in enumerate(tokens):
            writer.writerow(
                [i, tok, repr(float(a_avg[i])), repr(float(a_ib[i])),
                 int(prepared_instance.Q[i])]
            )
    if svg_path is not None:
        _write_heatmap_svg(svg_path, tokens, {"alpha_avg": a_avg, "alpha_ib": a_ib})
    return prediction


def _write_heatmap_svg(path, tokens, rows, cell=46, height=26, label_w=80):
    """Standalone grayscale heatmap; darker cells carry more attention."""
    n = len(tokens)
    width = label_w + n * cell
    total_h = (len(rows) + 1) * height + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{total_h}" font-family="monospace" font-size="10">'
    ]
    for j, tok in enumerate(tokens):
        parts.append(
            f'<text x="{label_w + j * cell + 4}" y="{height - 10}">{_svg_escape(tok)}</text>'
        )
    for r, (name, values) in enumerate(rows.items()):
        y = (r + 1) * height
        vmax = max(float(np.max(values)), 1e-12)
        parts.append(f'<text x="2" y="{y + height - 10}">{name}</text>')
        for j, v in enumerate(values):
            shade = int(round(255 * (1.0 - float(v) / vmax)))
            parts.append(
                f'<rect x="{label_w + j * cell}" y="{y}" width="{cell - 2}" '
                f'height="{height - 2}" fill="rgb({shade},{shade},{shade})" '
                f'stroke="black" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _svg_escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
