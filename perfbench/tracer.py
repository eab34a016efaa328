"""In-memory span tracer that wraps ssdpsem's layer entry points from outside.

The program itself carries no instrumentation: ``Tracer.install`` replaces
module-level functions (and one optimizer method) with wrappers that record
a span per call, and ``Tracer.restore`` puts every original back.  Internal
calls resolve these names through module globals at call time, so a wrapped
``encoder.forward`` is also what ``objectives.batch_losses`` reaches.

A span is ``(name, start, end, parent, trace_id)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``trace_id`` names one training
step.  Spans stay in memory until
``layer_metrics`` reduces them.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from ssdpsem import cli, corpus, encoder, evalkit, labels, objectives, pipeline
from ssdpsem import sentiment, syntax, trainer

# (owner, attribute, span name); a span name starts with its module.  The
# pipeline layer is entered through pipeline.annotate, which calls syntax,
# sentiment and labels.
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (corpus, "synthesize_corpus", "corpus.synthesize_corpus"),
    (corpus, "read_jsonl", "corpus.read_jsonl"),
    (pipeline, "annotate", "pipeline.annotate"),
    (syntax, "sdp_for_instance", "syntax.sdp_for_instance"),
    (sentiment, "classify", "sentiment.classify"),
    (labels, "build_signal", "labels.build_signal"),
    (encoder, "forward", "encoder.forward"),
    (encoder, "backward", "encoder.backward"),
    (encoder, "save_checkpoint", "encoder.save_checkpoint"),
    (encoder, "load_checkpoint", "encoder.load_checkpoint"),
    (objectives, "batch_losses", "objectives.batch_losses"),
    (trainer, "train", "trainer.train"),
    (trainer, "encode_prepared", "trainer.encode_prepared"),
    (trainer, "make_batches", "trainer.make_batches"),
    (trainer.AdamOptimizer, "step", "trainer.optimizer_step"),
    (evalkit, "evaluate", "evalkit.evaluate"),
    (evalkit, "ablation_grid", "evalkit.ablation_grid"),
)

def forward_flops(B, n, cfg):
    """Matmul FLOPs of one encoder forward pass, computed from shapes."""
    d, ff = cfg.d_model, cfg.d_ff
    per_layer = 2 * B * n * (4 * d * d + 2 * n * d + 2 * d * ff)
    return cfg.layers * per_layer


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct_annotated = set()
        self._stack = []
        self._saved = []
        self._trace_id = 0

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))

    def restore(self):
        """Put back every original; raises if any attribute stays wrapped."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def _wrap(self, original, name):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trace_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- counters at the same boundaries ----------------------------------

    def _before_objectives_batch_losses(self, args, kwargs):
        # Each call opens a training step; evaluation does not reach it.
        self._trace_id += 1

    def _after_objectives_batch_losses(self, args, kwargs, result):
        self.counts["objectives.asp_fallbacks"] += result.asp_fallbacks

    def _after_pipeline_annotate(self, args, kwargs, result):
        instances = args[0]
        self.counts["pipeline.annotate.instances"] += len(instances)
        self.distinct_annotated.update(inst.id for inst in instances)

    def _after_encoder_forward(self, args, kwargs, result):
        B, n, _ = result.features.shape
        self.counts["encoder.forward.tokens"] += B * n
        self.counts["encoder.forward.flop"] += forward_flops(B, n, args[0].config)

    def _after_encoder_backward(self, args, kwargs, result):
        B, n, _ = args[1].features.shape
        # each forward matmul has two gradient matmuls of the same size
        self.counts["encoder.backward.flop"] += 2 * forward_flops(B, n, args[0].config)

    def _after_corpus_read_jsonl(self, args, kwargs, result):
        self.counts["corpus.read_jsonl.instances"] += len(result)

    def _after_trainer_make_batches(self, args, kwargs, result):
        batch_size = args[1]
        self.counts["trainer.batches"] += len(result)
        self.counts["trainer.full_batches"] += sum(len(b) == batch_size for b in result)

    def _after_evalkit_evaluate(self, args, kwargs, result):
        self.counts["evalkit.evaluate.items"] += result.n_instances

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric values (see README.md for names and units)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = Counter()
        calls = Counter()
        durations = {}
        self_time = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            durations.setdefault(name, []).append(end - start)
            self_time[name] += end - start - child_time[i]

        step_start, step_end = {}, {}
        for name, start, end, _, trace_id in spans:
            if name == "objectives.batch_losses":
                step_start.setdefault(trace_id, start)
            elif name == "trainer.optimizer_step":
                step_end[trace_id] = end
        step_ms = [1e3 * (step_end[t] - step_start[t]) for t in step_end]

        c = self.counts
        return {
            "cli.main.s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "corpus.synthesize_corpus.s": total["corpus.synthesize_corpus"],
            "corpus.read_jsonl.s": total["corpus.read_jsonl"],
            "corpus.read_jsonl.instances": c["corpus.read_jsonl.instances"],
            "pipeline.annotate.s": total["pipeline.annotate"],
            "pipeline.annotate.calls": calls["pipeline.annotate"],
            "pipeline.annotate.instances": c["pipeline.annotate.instances"],
            "pipeline.annotate.self_s": self_time["pipeline.annotate"],
            "pipeline.annotate.repeat_ratio": _ratio(
                c["pipeline.annotate.instances"], len(self.distinct_annotated)),
            "syntax.sdp_for_instance.s": total["syntax.sdp_for_instance"],
            "sentiment.classify.s": total["sentiment.classify"],
            "labels.build_signal.s": total["labels.build_signal"],
            "encoder.forward.s": total["encoder.forward"],
            "encoder.forward.calls": calls["encoder.forward"],
            "encoder.forward.tokens": c["encoder.forward.tokens"],
            "encoder.forward.ms_p50": _pct_ms(durations.get("encoder.forward"), 50),
            "encoder.forward.ms_p99": _pct_ms(durations.get("encoder.forward"), 99),
            "encoder.forward.gflop": c["encoder.forward.flop"] / 1e9,
            "encoder.backward.s": total["encoder.backward"],
            "encoder.backward.calls": calls["encoder.backward"],
            "encoder.backward.ms_p50": _pct_ms(durations.get("encoder.backward"), 50),
            "encoder.backward.ms_p99": _pct_ms(durations.get("encoder.backward"), 99),
            "encoder.backward.gflop": c["encoder.backward.flop"] / 1e9,
            "encoder.save_checkpoint.s": total["encoder.save_checkpoint"],
            "encoder.load_checkpoint.s": total["encoder.load_checkpoint"],
            "objectives.batch_losses.s": total["objectives.batch_losses"],
            "objectives.batch_losses.calls": calls["objectives.batch_losses"],
            "objectives.batch_losses.self_s": self_time["objectives.batch_losses"],
            "objectives.asp_fallbacks": c["objectives.asp_fallbacks"],
            "trainer.train.s": total["trainer.train"],
            "trainer.steps": len(step_ms),
            "trainer.step_ms_p50": _pct(step_ms, 50),
            "trainer.step_ms_p99": _pct(step_ms, 99),
            "trainer.full_batch_ratio": _ratio(c["trainer.full_batches"], c["trainer.batches"]),
            "trainer.optimizer_step.s": total["trainer.optimizer_step"],
            "trainer.encode_prepared.s": total["trainer.encode_prepared"],
            "trainer.make_batches.s": total["trainer.make_batches"],
            "evalkit.evaluate.s": total["evalkit.evaluate"],
            "evalkit.evaluate.items": c["evalkit.evaluate.items"],
            "evalkit.ablation_grid.s": total["evalkit.ablation_grid"],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def _pct(values, p):
    """p-th percentile (inclusive method); 0.0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _pct_ms(durations, p):
    return _pct([1e3 * d for d in durations or ()], p)
