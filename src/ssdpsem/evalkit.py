"""Metrics, entity-pair breakdowns, ablation grids, and attention exports.

Micro precision/recall/F1 follow the standard relation-extraction
convention: the designated no_relation label never counts as a positive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import objectives, pipeline, sentiment, trainer


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


def predict(state, prepared, batch_size=16):
    """Batched inference grouped by sequence length.

    Returns per-instance lists in input order: predicted relation index,
    gold index, pooling attention alpha_ib and averaged attention alpha_avg.
    A row's outputs are bit-identical whatever rows share its batch, so
    ``batch_size`` sets only the memory held: the default is training's,
    and every batch's forward reuses one workspace local to the call
    (``state.workspace`` is left alone).
    """
    encoded = trainer.encode_prepared(state, prepared)
    preds = [None] * len(encoded)
    alpha_ib = [None] * len(encoded)
    alpha_avg = [None] * len(encoded)
    workspace = {}
    for chunk in trainer.make_batches(encoded, batch_size, range(len(encoded))):
        ids, _, _ = trainer._collate(encoded, chunk)
        fwd = enc.forward(state, ids, workspace)
        a_ib, _, probs = objectives.relation_head(state.params, fwd.features)
        a_avg = enc.average_attention(fwd.attention, state.config.last_k)
        del fwd  # its cache views the workspace: a slot the next batch grows is then freed
        for row, i in enumerate(chunk):
            preds[i] = int(np.argmax(probs[row]))
            alpha_ib[i] = a_ib[row]
            alpha_avg[i] = a_avg[row]
    return preds, [gold for (_, _, gold) in encoded], alpha_ib, alpha_avg


def micro_scores(preds, golds, relations, no_relation="no_relation"):
    neg = relations.index(no_relation) if no_relation in relations else -1
    tp = fp = fn = 0
    for p, g in zip(preds, golds):
        if p == g:
            if g != neg:
                tp += 1
        else:
            if p != neg:
                fp += 1
            if g != neg:
                fn += 1
    return _prf(tp, fp, fn)


def evaluate(state, prepared, entity_types=None, no_relation="no_relation") -> EvalReport:
    if not prepared:
        raise ValueError("cannot evaluate an empty split")
    relations = state.relations
    R = len(relations)
    preds, golds, _, _ = predict(state, prepared)
    confusion = np.zeros((R, R), dtype=np.int64)
    for p, g in zip(preds, golds):
        confusion[g, p] += 1
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
    micro_p, micro_r, micro_f1 = micro_scores(preds, golds, relations, no_relation)
    per_bucket = {}
    if entity_types:
        per_bucket = bucket_by_entity_pair(preds, golds, relations, entity_types, no_relation)
    return EvalReport(
        accuracy=float(np.trace(confusion)) / len(prepared),
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        macro_f1=float(np.mean(macro)),
        per_relation=per_relation,
        per_bucket_f1=per_bucket,
        confusion=confusion,
        n_instances=len(prepared),
    )


def bucket_by_entity_pair(preds, golds, relations, entity_types, no_relation="no_relation"):
    """Micro F1 per (subj type, obj type) bucket of the gold relation.

    Empty buckets are omitted rather than reported as NaN.
    """
    buckets = {}
    for p, g in zip(preds, golds):
        pair = entity_types.get(relations[g])
        if pair is None:
            continue
        buckets.setdefault(f"{pair[0]}:{pair[1]}", []).append((p, g))
    out = {}
    for key in sorted(buckets):
        pairs = buckets[key]
        _, _, f1 = micro_scores(
            [p for p, _ in pairs], [g for _, g in pairs], relations, no_relation
        )
        out[key] = f1
    return out


def isl_attention_mass(state, prepared):
    """Mean total averaged-attention mass on the marked signal positions."""
    _, _, _, alpha_avg = predict(state, prepared)
    masses = [
        float((a * pi.signal.Q).sum()) for a, pi in zip(alpha_avg, prepared)
    ]
    return float(np.mean(masses))


def mean_pooling_entropy(state, prepared):
    """Mean SAIB attention entropy over a split."""
    _, _, alpha_ib, _ = predict(state, prepared)
    return float(np.mean([objectives.entropy(a)[0] for a in alpha_ib]))


# ---------------------------------------------------------------------------
# Ablation grids


def ablation_grid(configs, splits, relations, entity_types=None, eval_split="test",
                  lexicon=None, no_relation="no_relation"):
    """Train and evaluate one run per config; returns [(config, EvalReport)].

    splits is {name: [Instance]} of raw instances.  The train split is
    annotated once per isl_variant, the eval split once for the whole grid:
    prediction never reads the label signal.
    """
    lexicon = lexicon or sentiment.load_lexicon()
    train = {}
    eval_prepared, _ = pipeline.annotate(splits[eval_split], lexicon, "ISL")
    results = []
    for config in configs:
        if config.isl_variant not in train:
            train[config.isl_variant], _ = pipeline.annotate(splits["train"], lexicon,
                                                             config.isl_variant)
        record = trainer.train(config, train[config.isl_variant], relations)
        results.append((config, evaluate(record.state, eval_prepared, entity_types, no_relation)))
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
    in-memory vectors bit for bit.
    """
    _, _, alpha_ib, alpha_avg = predict(state, [prepared_instance])
    a_ib, a_avg = alpha_ib[0], alpha_avg[0]
    tokens = [t.surface for t in prepared_instance.augmented.tokens]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "token", "alpha_avg", "alpha_ib", "marked"])
        for i, tok in enumerate(tokens):
            writer.writerow(
                [i, tok, repr(float(a_avg[i])), repr(float(a_ib[i])),
                 int(prepared_instance.signal.Q[i])]
            )
    if svg_path is not None:
        _write_heatmap_svg(svg_path, tokens, {"alpha_avg": a_avg, "alpha_ib": a_ib})
    return a_avg, a_ib


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
