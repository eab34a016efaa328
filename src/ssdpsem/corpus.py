"""Corpus handling: instance records, CoNLL-U ingestion, and synthetic data.

An Instance is one sentence with its dependency analysis, the two entity
spans, a relation label, and an optional gold sentiment.  Dependency heads
are 0-based with -1 as the ROOT sentinel (CoNLL-U's head column, 1-based
with 0 for the root, is converted on read).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import reprlib
import sys
from dataclasses import dataclass

ROOT = -1

POSITIVE = "positive"
NEGATIVE = "negative"
NO_RELATION = "no_relation"  # micro scores' negative class unless a manifest names one
VARIANTS = ("EPL", "SPL", "ISL")  # the label signals: entity, +path, +sentiment token
SENTIMENT_COUPLING = 0.9  # `ssdp synth`'s default, and gradcheck's built-in corpus's


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class ValidationError(ValueError):
    """An instance violates its structural invariants."""


class ConfigError(ValueError):
    """Bad generation or training configuration."""


@dataclass(slots=True)
class Instance:
    """One sentence, stored column by column as its JSONL record holds it:
    ``tokens`` (the surfaces), ``heads`` and ``deprels`` have one entry per
    word, and a word's index is its position.  Slotted and tuple-backed, so
    an instance is a handful of objects however long its sentence; the
    readers intern the surfaces, the deprels and ``relation``, so a loaded
    corpus holds each distinct string once."""

    id: str
    tokens: tuple[str, ...]
    heads: tuple[int, ...]  # each word's parent index, or ROOT (-1)
    deprels: tuple[str, ...]
    subj: tuple[int, int]  # inclusive span
    obj: tuple[int, int]
    relation: str
    sentiment: str | None = None
    fragmented: bool = False

    def validate(self):
        n = len(self.tokens)
        if n == 0:
            raise ValidationError(f"{self.id}: empty sentence")
        if len(self.heads) != n or len(self.deprels) != n:
            raise ValidationError(f"{self.id}: {len(self.heads)} heads and "
                                  f"{len(self.deprels)} deprels for {n} tokens")
        roots = 0
        for index, head in enumerate(self.heads):
            if head == index:
                raise ValidationError(f"{self.id}: token {index} is its own head")
            if head == ROOT:
                roots += 1
            elif not 0 <= head < n:
                raise ValidationError(f"{self.id}: head {head} out of range")
        if roots != 1 and not self.fragmented:
            raise ValidationError(f"{self.id}: {roots} roots but not marked fragmented")
        for name, (lo, hi) in (("subj", self.subj), ("obj", self.obj)):
            if lo > hi:
                raise ValidationError(f"{self.id}: empty {name} span {lo}..{hi}")
            if lo < 0 or hi >= n:
                raise ValidationError(f"{self.id}: {name} span {lo}..{hi} out of bounds (n={n})")
        if not (self.subj[1] < self.obj[0] or self.obj[1] < self.subj[0]):
            raise ValidationError(f"{self.id}: overlapping entity spans")
        return self


@dataclass
class CorpusManifest:
    relations: list[str]
    entity_types: dict[str, tuple[str, str]]  # relation -> (subj type, obj type)
    split_sizes: dict[str, int]
    seed: int
    no_relation_label: str = NO_RELATION

    def validate(self):
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("duplicate relation labels in manifest")
        if len(self.relations) < 2:
            raise ConfigError("need at least 2 relation labels")
        if self.no_relation_label not in self.relations:
            raise ConfigError(f"no_relation_label {self.no_relation_label!r} is not one of "
                              f"the relations")
        if any(n < 0 for n in self.split_sizes.values()):
            raise ConfigError(f"split sizes must be >= 0, got {self.split_sizes}")
        return self


# ---------------------------------------------------------------------------
# CoNLL-U + sidecar reading


def _parse_conllu_sentences(path):
    """(first line, sent_id, rows) of each blank-line-separated sentence, as
    a list; a row is (form, 0-based head or ROOT, deprel).  Ids must run
    1..n and heads be >= 0, else ParseError names the token's line."""
    sentences, start, sent_id, rows = [], None, None, []
    for lineno, line in _lines(path):
        line = line.rstrip("\r\n")
        if not line.strip():
            if rows:
                sentences.append((start, sent_id, rows))
                start, sent_id, rows = None, None, []
            continue
        start = start or lineno
        if line.startswith("#"):
            if line[1:].strip().startswith("sent_id"):
                _, _, value = line.partition("=")
                sent_id = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"{path}:{lineno}: expected 10 columns, got {len(cols)}")
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword-token ranges and empty nodes carry no tree edges
        try:
            idx = int(tok_id)
            head = int(cols[6])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer id/head field") from exc
        if idx != len(rows) + 1:
            raise ParseError(f"{path}:{lineno}: token id {idx}, expected {len(rows) + 1}")
        if head < 0:
            raise ParseError(f"{path}:{lineno}: head {head} is negative")
        rows.append((cols[1], head - 1, cols[7]))
    if rows:
        sentences.append((start, sent_id, rows))
    return sentences


def read_conllu(conllu_path, sidecar_path):
    """Read a CoNLL-U file plus its JSONL sidecar of spans and labels: each
    sentence and its row are read as one JSONL record.

    Sidecar rows hold at least ``subj``, ``obj`` and ``relation``.  When
    the rows carry an ``id`` they pair with sentences strictly by id (a
    sentence's id is its ``sent_id``, else its 0-based position): an id on
    two rows, or a sentence that no row names, is a ParseError.  Rows
    without ids pair positionally.
    """
    sentences = _parse_conllu_sentences(conllu_path)
    by_id = {}

    def parse_row(row):
        row = _checked(row, _SIDECAR_KEYS, ParseError, id=None, sentiment=None,
                       fragmented=False)
        if row["id"] is not None:
            rid = str(row["id"])
            if rid in by_id:
                raise ParseError(f"sidecar id {rid!r} repeats an earlier row")
            by_id[rid] = row
        return row

    sidecar = list(_parse_lines(sidecar_path, parse_row))
    if len(sidecar) != len(sentences):
        raise ParseError(
            f"{sidecar_path}: {len(sidecar)} sidecar rows for {len(sentences)} sentences"
        )
    keyed = bool(by_id)
    instances = []
    for pos, (line, sent_id, rows) in enumerate(sentences):
        sid = sent_id if sent_id is not None else str(pos)
        if not keyed:
            row = sidecar[pos]
        elif sid in by_id:
            row = by_id.pop(sid)  # each row pairs with one sentence
        else:
            raise ParseError(f"{sidecar_path}: no unpaired sidecar row has id {sid!r} "
                             f"(sentence {pos + 1} of {conllu_path})")
        forms, heads, deprels = (list(col) for col in zip(*rows))
        rec = {**row, "id": sid, "tokens": forms, "heads": heads, "deprels": deprels,
               "fragmented": heads.count(ROOT) != 1}
        try:
            instances.append(instance_from_dict(rec).validate())
        except ValueError as exc:
            raise ParseError(f"{conllu_path}:{line} (sidecar {sidecar_path}): {exc}") from exc
    return instances


# ---------------------------------------------------------------------------
# JSONL instance records


def instance_to_dict(inst):
    rec = {
        "id": inst.id,
        "tokens": list(inst.tokens),
        "heads": list(inst.heads),
        "deprels": list(inst.deprels),
        "subj": list(inst.subj),
        "obj": list(inst.obj),
        "relation": inst.relation,
    }
    if inst.sentiment is not None:
        rec["sentiment"] = inst.sentiment
    if inst.fragmented:
        rec["fragmented"] = True
    return rec


def _checked(rec, table, error, **defaults):
    """``rec``, a JSON object, with ``defaults`` filled in; ``error`` names
    its first key that is missing or fails its test.  ``table`` maps each
    key to (test of its JSON value, what the test asks for)."""
    if not isinstance(rec, dict):
        raise error(f"expected a JSON object, got {type(rec).__name__}")
    rec = {**defaults, **rec}
    for key, (ok, kind) in table.items():
        if key not in rec:
            raise error(f"missing key {key!r}")
        if not ok(rec[key]):
            raise error(f"{key} must be {kind}, got {reprlib.repr(rec[key])}")
    return rec


# the element type of each per-token list; a bool is not an int
_TOKEN_LISTS = {"tokens": str, "heads": int, "deprels": str}

_SPAN = (lambda v: type(v) is list and len(v) == 2 and all(type(i) is int for i in v),
         "a [start, end] pair of token indices")
# a CoNLL-U sidecar row: the keys of a record that its sentence does not hold
_SIDECAR_KEYS = {
    "id": (lambda v: v is None or type(v) in (str, int), "a str or an int"),
    "subj": _SPAN, "obj": _SPAN,
    "relation": (lambda v: type(v) is str, "str"),
    "sentiment": (lambda v: v in (None, POSITIVE, NEGATIVE), "null, 'positive' or 'negative'"),
    "fragmented": (lambda v: type(v) is bool, "a JSON bool"),
}
# the token lists' elements are checked in instance_from_dict
_RECORD_KEYS = {**_SIDECAR_KEYS, "id": (lambda v: type(v) in (str, int), "a str or an int"),
                **dict.fromkeys(_TOKEN_LISTS, (lambda v: True, "a list"))}


def instance_from_dict(rec):
    rec = _checked(rec, _RECORD_KEYS, ParseError, sentiment=None, fragmented=False)
    for key, kind in _TOKEN_LISTS.items():
        values = rec[key]
        if not isinstance(values, list):
            raise ParseError(f"{key} must be a list, got {type(values).__name__}")
        if not set(map(type, values)) <= {kind}:  # one pass in C; walk only to name
            i, v = next((i, v) for i, v in enumerate(values) if type(v) is not kind)
            raise ParseError(f"{key}[{i}] must be {kind.__name__}, got {v!r}")
        if len(values) != len(rec["tokens"]):
            raise ParseError(f"{key} has {len(values)} entries for "
                             f"{len(rec['tokens'])} tokens")
    return Instance(id=str(rec["id"]), tokens=tuple(map(sys.intern, rec["tokens"])),
                    heads=tuple(rec["heads"]), deprels=tuple(map(sys.intern, rec["deprels"])),
                    subj=tuple(rec["subj"]), obj=tuple(rec["obj"]),
                    relation=sys.intern(rec["relation"]), sentiment=rec["sentiment"],
                    fragmented=rec["fragmented"])


def manifest_to_dict(manifest: CorpusManifest):
    return {
        "relations": list(manifest.relations),
        "entity_types": {r: list(pair) for r, pair in manifest.entity_types.items()},
        "split_sizes": dict(manifest.split_sizes),
        "seed": manifest.seed,
        "no_relation_label": manifest.no_relation_label,
    }


# each manifest key: (test of its JSON value, what the test asks for)
_MANIFEST_KEYS = {
    "relations": (lambda v: isinstance(v, list) and all(type(r) is str for r in v),
                  "a list of str"),
    "entity_types": (lambda v: isinstance(v, dict) and all(
        isinstance(p, list) and len(p) == 2 for p in v.values()),
        "an object of [subj type, obj type] lists"),
    "split_sizes": (lambda v: isinstance(v, dict) and all(type(n) is int for n in v.values()),
                    "an object of ints"),
    "seed": (lambda v: type(v) is int, "int"),
    "no_relation_label": (lambda v: type(v) is str, "str"),
}


def manifest_from_dict(rec) -> CorpusManifest:
    """The manifest a JSON record holds; a record of the wrong shape raises
    ConfigError naming the key."""
    rec = _checked(rec, _MANIFEST_KEYS, ConfigError, no_relation_label=NO_RELATION)
    return CorpusManifest(
        relations=rec["relations"],
        entity_types={r: tuple(pair) for r, pair in rec["entity_types"].items()},
        split_sizes=rec["split_sizes"],
        seed=rec["seed"],
        no_relation_label=rec["no_relation_label"],
    ).validate()


# what json.dumps(rec, ensure_ascii=False) writes, without a new encoder per record
_JSON = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(instances, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(_JSON.encode(instance_to_dict(inst)) + "\n")


def _lines(path):
    """(line number, text) of each line of ``path``, decoded one line at a
    time, so a line that is not UTF-8 raises ParseError naming path:line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{lineno}: not UTF-8") from None


def check_encodable(value, where=""):
    """Raise ValueError naming the key path (``tokens[3]``, ``[0].mode``)
    of the first string in the JSON value ``value``, object keys included,
    that holds a lone surrogate: JSON reads one from a ``\\ud800``-style
    escape, and no UTF-8 file can hold it, so a later write would fail.
    Only JSON text with a backslash can hold one."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{where or 'the value'} holds a lone surrogate, which UTF-8 "
                             f"cannot encode: {value!r}") from None
    elif isinstance(value, list):
        for i, item in enumerate(value):
            check_encodable(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            check_encodable(key, f"a key of {where or 'the object'}")
            check_encodable(item, f"{where}.{key}" if where else key)


def parse_json(text, where):
    """The JSON value of ``text``.  Text that json.loads refuses (malformed,
    nested past the recursion limit, or an integer past the digit limit)
    raises ParseError ``{where}: bad JSON: ...``, and a string that is not
    encodable (``check_encodable``) raises ParseError naming ``where``."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}: bad JSON: {exc}") from exc
    try:
        if "\\" in text:  # one memchr; only an escape makes a surrogate
            check_encodable(value)
    except RecursionError as exc:  # it recurses as deep as the value nests
        raise ParseError(f"{where}: bad JSON: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    return value


def _parse_lines(path, parse):
    """parse(record) for each non-blank line of JSON; a line that is not
    UTF-8, that ``parse_json`` refuses, or whose record parse refuses with
    a ValueError, raises ParseError naming path:line."""
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        rec = parse_json(line, where)
        try:
            rec = parse(rec)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        yield rec


def read_jsonl(path):
    return list(_parse_lines(path, lambda rec: instance_from_dict(rec).validate()))


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# Closed vocabulary, handcrafted projective templates.  Cue words are drawn
# to match the instance's gold sentiment, so a lexicon tagger recovers the
# gold tag; the relation label determines the gold sentiment with
# probability `coupling`.

ORG_NAMES = [
    "Acme", "Orion", "Vertex", "Helix", "Quanta", "Zenith", "Nimbus", "Apex",
    "Solara", "Triton", "Borealis", "Cascade", "Delta", "Everest", "Fulcrum",
    "Granite", "Horizon", "Ion", "Juniper", "Keystone", "Lumen", "Meridian",
    "Nova", "Obsidian", "Pinnacle", "Quartz", "Summit", "Tundra", "Vanguard",
    "Willow",
]
ORG_SUFFIXES = ["Corp", "Inc", "Group", "Holdings"]
GPE_NAMES = ["Brazil", "Canada", "Germany", "India", "Japan", "Mexico", "Norway", "Spain"]
MISC_NOUNS = ["filing", "report", "statement", "outlook", "briefing"]
MONEY_NUMBERS = ["3", "7", "12", "28", "45", "60", "85", "120", "250", "400", "575", "900"]
MONEY_UNITS = ["million", "billion"]
PERIOD_NOUNS = ["quarter", "year", "period"]

POSITIVE_CUES = [
    "strong", "robust", "favorable", "upbeat", "healthy", "solid",
    "improved", "record", "buoyant", "resilient",
]
NEGATIVE_CUES = [
    "weak", "adverse", "bitter", "downbeat", "fragile", "soft",
    "strained", "troubled", "bleak", "shaky",
]
POSITIVE_VERBS = ["rose", "climbed", "surged", "gained"]
NEGATIVE_VERBS = ["fell", "dropped", "slipped", "sank"]
POSITIVE_PARTICLES = ["up"]
NEGATIVE_PARTICLES = ["down"]

# Relation -> (subj type, obj type, cue polarity); None = sentiment-neutral.
RELATION_SPECS = {
    "profit_of": ("ORG", "MONEY", POSITIVE),
    "loss_of": ("ORG", "MONEY", NEGATIVE),
    "revenue_of": ("ORG", "MONEY", POSITIVE),
    "debt_of": ("ORG", "MONEY", NEGATIVE),
    "agreement_with": ("ORG", "ORG", POSITIVE),
    "dispute_with": ("ORG", "ORG", NEGATIVE),
    "operations_in": ("ORG", "GPE", POSITIVE),
    NO_RELATION: ("ORG", "MISC", None),
}

DEFAULT_RELATIONS = list(RELATION_SPECS)

# Template items are (slot-or-word, head slot index, deprel); head -1 = root.
# Slot names are upper case, words are not.  SUBJ/OBJ expand to multi-token
# entities whose internal tokens attach to the entity head (last token);
# other slots expand to exactly one word, drawn from the pool of their name.
#
# Every base template may receive an opener segment and up to two tail
# segments (below).  TAILCUE carries a second gold-polarity cue; DCUE is a
# conflicting random-polarity cue.  A DCUE tail is only attached together
# with a TAILCUE tail, so a majority vote over cue words always recovers
# the gold sentiment (2-1 at worst) while the raw text stays ambiguous for
# a model that merely spots one cue word.
_FIGURE_TEMPLATE = [
    ("SUBJ", 2, "nmod:poss"),
    ("'s", 0, "case"),
    ("NOUN", 3, "nsubj"),
    ("VCUE", -1, "root"),
    ("PART", 3, "compound:prt"),
    ("from", 6, "case"),
    ("OBJ", 3, "obl"),
    ("a", 8, "det"),
    ("year", 9, "obl:npmod"),
    ("earlier", 3, "advmod"),
]

_REPORT_TEMPLATE = [
    ("SUBJ", 1, "nsubj"),
    ("VERB", -1, "root"),
    ("a", 4, "det"),
    ("CUE", 4, "amod"),
    ("NOUN", 1, "obj"),
    ("of", 6, "case"),
    ("OBJ", 4, "nmod"),
    ("in", 9, "case"),
    ("the", 9, "det"),
    ("PERIOD", 1, "obl"),
]

_PACT_TEMPLATE = [
    ("SUBJ", 1, "nsubj"),
    ("VERB2", -1, "root"),
    ("a", 4, "det"),
    ("CUE", 4, "amod"),
    ("NOUN", 1, "obj"),
    ("with", 6, "case"),
    ("OBJ", 4, "nmod"),
    ("last", 8, "amod"),
    ("PERIOD", 1, "obl:tmod"),
]

_OPS_TEMPLATE = [
    ("SUBJ", 1, "nsubj"),
    ("VERB3", -1, "root"),
    ("CUE", 3, "amod"),
    ("operations", 1, "obj"),
    ("in", 5, "case"),
    ("OBJ", 3, "nmod"),
    ("during", 8, "case"),
    ("the", 8, "det"),
    ("PERIOD", 1, "obl"),
]

_NOREL_TEMPLATE = [
    ("SUBJ", 1, "nsubj"),
    ("VERB4", -1, "root"),
    ("a", 4, "det"),
    ("CUE", 4, "amod"),
    ("NOUN", 1, "obj"),
    ("regarding", 6, "case"),
    ("OBJ", 4, "nmod"),
]

# Per-relation template list with the word pools their open slots draw from.
# The CUE/VCUE/PART pools are polarity-split and resolved at generation time.
#
# Confusable relation pairs (profit/loss, revenue/debt, agreement/dispute)
# share templates and verbs; what separates them is the object NOUN, drawn
# from disjoint per-relation synonym pools of words absent from the
# sentiment lexicon.  The NOUN lies on the dependency path between the two
# entities, whereas the cue adjectives hang off it — so the fully reliable
# relation signal is on the SDP while the prominent cue words only agree
# with the relation as often as the sentiment coupling allows.
_TEMPLATES = {
    "profit_of": [
        (_REPORT_TEMPLATE, {"VERB": ["reported", "posted"],
                            "NOUN": ["earnings", "payout", "margin", "takings", "windfall", "proceeds"]}),
        (_FIGURE_TEMPLATE, {"NOUN": ["earnings", "payout"]}),
    ],
    "loss_of": [
        (_REPORT_TEMPLATE, {"VERB": ["reported", "posted"],
                            "NOUN": ["writeoff", "outflow", "overrun", "charge", "drawdown", "burn"]}),
        (_FIGURE_TEMPLATE, {"NOUN": ["writeoff", "outflow"]}),
    ],
    "revenue_of": [
        (_REPORT_TEMPLATE, {"VERB": ["recorded", "disclosed"],
                            "NOUN": ["revenue", "turnover", "billings", "receipts", "sales", "intake"]}),
    ],
    "debt_of": [
        (_REPORT_TEMPLATE, {"VERB": ["recorded", "disclosed"],
                            "NOUN": ["debt", "borrowings", "liabilities", "arrears", "loans", "obligations"]}),
    ],
    "agreement_with": [
        (_PACT_TEMPLATE, {"VERB2": ["entered", "announced"],
                          "NOUN": ["pact", "alliance", "accord", "partnership", "tieup", "venture"]}),
    ],
    "dispute_with": [
        (_PACT_TEMPLATE, {"VERB2": ["entered", "announced"],
                          "NOUN": ["lawsuit", "feud", "standoff", "quarrel", "clash", "grievance"]}),
    ],
    "operations_in": [
        (_OPS_TEMPLATE, {"VERB3": ["kept", "maintained"]}),
    ],
    NO_RELATION: [
        (_NOREL_TEMPLATE, {"VERB4": ["issued", "circulated"], "NOUN": ["statement", "memo"]}),
    ],
}


# Optional segments.  Head "R" attaches to the sentence root token; integer
# heads are segment-local.
_OPENER = [
    ("In", 2, "case"),
    ("the", 2, "det"),
    ("PERIOD", "R", "obl"),
    (",", "R", "punct"),
]

_TAIL_GOLD_CUE = [
    (",", "R", "punct"),
    ("amid", 3, "case"),
    ("TAILCUE", 3, "amod"),
    ("conditions", "R", "obl"),
]

_TAIL_DISTRACTOR = [
    (",", "R", "punct"),
    ("despite", 3, "case"),
    ("DCUE", 3, "amod"),
    ("pressure", "R", "obl"),
]

# Segments carrying a noun from a *different* relation's pool, hung off the
# root and away from the entity pair.  A bag-of-words reading of the
# sentence then sees two competing relation nouns; only the one on the
# dependency path between the entities names the gold relation.  The
# distractor may appear before the subject or at the very end, so absolute
# position does not separate it from the real signal.
_OPENER_RELNOUN = [
    ("After", 2, "case"),
    ("the", 2, "det"),
    ("DNOUN", "R", "obl"),
    (",", "R", "punct"),
]

_TAIL_RELNOUN = [
    (",", "R", "punct"),
    ("after", 3, "case"),
    ("the", 3, "det"),
    ("DNOUN", "R", "obl"),
    ("of", 6, "case"),
    ("the", 6, "det"),
    ("PERIOD", 3, "nmod"),
]


# Ambiguous instances: a confusable pair sometimes shares a NOUN that names
# either relation ("a bullish swing" vs "a bearish swing").  There the only
# disambiguator is sentiment, and the in-text cue is drawn from a polarity
# vocabulary whose *test-split* surface forms never occur in train.  A model
# that reads the raw cue word therefore faces out-of-vocabulary tokens at
# test time; the prepended sentiment token normalizes all those surfaces to
# two canonical forms, so the sentiment channel is the only reliable signal.
# All cue forms live in the bundled lexicon, keeping the tagger's
# majority-vote guarantee intact.
AMBIGUOUS_NOUNS = {
    "profit_of": ["result", "swing", "variance"],
    "loss_of": ["result", "swing", "variance"],
    "revenue_of": ["balance", "tally"],
    "debt_of": ["balance", "tally"],
    "agreement_with": ["dealings", "arrangement"],
    "dispute_with": ["dealings", "arrangement"],
}

AMB_CUES_TRAIN = {
    POSITIVE: ["bullish", "optimistic", "profitable", "thriving", "prosperous",
               "strengthened", "rebounded", "rallied"],
    NEGATIVE: ["bearish", "pessimistic", "distressed", "struggling", "volatile",
               "slumped", "plunged", "declined"],
}
AMB_CUES_HELDOUT = {
    POSITIVE: ["upgrade", "rally", "recovery", "expansion", "surplus"],
    NEGATIVE: ["downgrade", "slump", "recession", "shortfall", "deficit"],
}


def _relation_nouns():
    out = {}
    for rel, templates in _TEMPLATES.items():
        nouns = set()
        for _, pools in templates:
            nouns.update(pools.get("NOUN", ()))
        out[rel] = sorted(nouns)
    return out


RELATION_NOUNS = _relation_nouns()
# each relation's distractor nouns: the nouns of every other relation's pools
_DNOUNS = {rel: sorted({n for other, nouns in RELATION_NOUNS.items() if other != rel
                        for n in nouns})
           for rel in RELATION_NOUNS}
_ALL_CUES = POSITIVE_CUES + NEGATIVE_CUES
_CUE_POOLS = {
    POSITIVE: {"CUE": POSITIVE_CUES, "VCUE": POSITIVE_VERBS, "PART": POSITIVE_PARTICLES},
    NEGATIVE: {"CUE": NEGATIVE_CUES, "VCUE": NEGATIVE_VERBS, "PART": NEGATIVE_PARTICLES},
}


def _compose(base, opener, tails):
    """Merge opener + base + tails into one item list with global heads.

    A sentence-final period is appended after any tails.
    """
    segments = ([opener] if opener else []) + [base] + list(tails) + [[(".", "R", "punct")]]
    offsets = []
    off = 0
    for seg in segments:
        offsets.append(off)
        off += len(seg)
    base_off = offsets[1] if opener else offsets[0]
    root_slot = base_off + next(i for i, (_, h, _) in enumerate(base) if h == -1)
    items = []
    for seg, off in zip(segments, offsets):
        for word, head, deprel in seg:
            if head == "R":
                items.append((word, root_slot, deprel))
            elif head == -1:
                items.append((word, -1, deprel))
            else:
                items.append((word, head + off, deprel))
    return items


@functools.cache
def _layout(relation, template_draw, opener_draw, cue_tails, relnoun, subj_deps, obj_deps):
    """The tokens of one composed template, given the deprels of each
    entity's tokens but its last: (forms, heads, deprels, draws, subj span,
    obj span).  ``forms`` holds each word, and None where a word is drawn
    or an entity goes; ``draws`` lists each (position, pool name) in slot
    order, the order the words are drawn in.  Cached: the default relations
    have 432 layouts."""
    base = _TEMPLATES[relation][template_draw][0]
    tails = [_TAIL_GOLD_CUE, _TAIL_DISTRACTOR][:cue_tails] + [_TAIL_RELNOUN] * relnoun
    items = _compose(base, (None, _OPENER, _OPENER_RELNOUN)[opener_draw], tails)
    inner = [{"SUBJ": subj_deps, "OBJ": obj_deps}.get(word, ()) for word, _, _ in items]
    # each slot's last token, where its dependents attach
    ends = [slot + extra for slot, extra
            in enumerate(itertools.accumulate(len(deps) for deps in inner))]
    forms, heads, deprels, draws, spans = [], [], [], [], {}
    for (word, head_slot, deprel), deps, end in zip(items, inner, ends):
        forms += [None] * len(deps)
        heads += [end] * len(deps)
        deprels += deps
        if word in ("SUBJ", "OBJ"):
            spans[word] = (end - len(deps), end)
        elif word.isupper():
            draws.append((end, word))
        forms.append(None if word.isupper() else word)
        heads.append(ROOT if head_slot == -1 else ends[head_slot])
        deprels.append(deprel)
    return tuple(forms), tuple(heads), tuple(deprels), tuple(draws), spans["SUBJ"], spans["OBJ"]


def default_manifest(seed=0, train=2000, dev=400, test=400):
    return CorpusManifest(
        relations=list(DEFAULT_RELATIONS),
        entity_types={r: (s, o) for r, (s, o, _) in RELATION_SPECS.items()},
        split_sizes={"train": train, "dev": dev, "test": test},
        seed=seed,
    ).validate()


def _make_entity(kind, rng):
    """Return (forms, deprels of all forms but the last, which attach to the
    last: the entity head)."""
    if kind == "ORG":
        name = ORG_NAMES[rng.randrange(len(ORG_NAMES))]
        if rng.randrange(2):
            return [name, ORG_SUFFIXES[rng.randrange(len(ORG_SUFFIXES))]], ("compound",)
        return [name], ()
    if kind == "GPE":
        return [GPE_NAMES[rng.randrange(len(GPE_NAMES))]], ()
    if kind == "MISC":
        return ["the", MISC_NOUNS[rng.randrange(len(MISC_NOUNS))]], ("det",)
    if kind == "MONEY":
        num = MONEY_NUMBERS[rng.randrange(len(MONEY_NUMBERS))]
        unit = MONEY_UNITS[rng.randrange(len(MONEY_UNITS))]
        return ["$", num, unit], ("symbol", "nummod")
    raise ConfigError(f"unknown entity kind {kind!r}")


def _draw_sentiment(polarity, coupling, rng):
    grain = 10**6  # integer draw keeps byte-identical output across platforms
    if polarity is not None and rng.randrange(grain) < int(round(coupling * grain)):
        return polarity
    return POSITIVE if rng.randrange(2) == 0 else NEGATIVE


def synthesize_instance(inst_id, relation, coupling, rng, heldout_cues=False):
    subj_kind, obj_kind, polarity = RELATION_SPECS[relation]
    sentiment = _draw_sentiment(polarity, coupling, rng)
    templates = _TEMPLATES[relation]
    ambiguous = relation in AMBIGUOUS_NOUNS and rng.randrange(3) == 0
    template_draw = 0 if ambiguous else rng.randrange(len(templates))
    opener_draw = rng.randrange(3)  # 0: none, 1: period opener, 2: distractor-noun opener
    # tails: 0 none, 1 gold cue, 2 gold cue + distractor cue; then the
    # distractor-noun tail or not
    cue_tails = 0 if ambiguous else min(rng.randrange(4), 2)
    relnoun = rng.randrange(2)
    cues = _CUE_POOLS[sentiment]
    pools = {
        "PERIOD": PERIOD_NOUNS,
        "TAILCUE": cues["CUE"],
        "DCUE": _ALL_CUES,
        "DNOUN": _DNOUNS[relation],
        **templates[template_draw][1],
        **cues,
    }
    if ambiguous:
        # the shared noun names either relation of the pair; the single cue
        # carries gold sentiment through split-specific surface forms
        pools["NOUN"] = AMBIGUOUS_NOUNS[relation]
        amb = AMB_CUES_HELDOUT if heldout_cues else AMB_CUES_TRAIN
        pools["CUE"] = amb[sentiment]
    subj_forms, subj_deps = _make_entity(subj_kind, rng)
    obj_forms, obj_deps = _make_entity(obj_kind, rng)
    forms, heads, deprels, draws, subj, obj = _layout(
        relation, template_draw, opener_draw, cue_tails, relnoun, subj_deps, obj_deps)
    forms = list(forms)
    for pos, name in draws:
        pool = pools[name]
        forms[pos] = pool[rng.randrange(len(pool))]
    forms[subj[0]:subj[1] + 1] = subj_forms
    forms[obj[0]:obj[1] + 1] = obj_forms
    return Instance(
        id=inst_id,
        tokens=tuple(forms),
        heads=heads,
        deprels=deprels,
        subj=subj,
        obj=obj,
        relation=relation,
        sentiment=sentiment,
    ).validate()


def synthesize_corpus(manifest, sentiment_coupling):
    """Generate {split: [Instance]} deterministically from the manifest seed."""
    manifest.validate()
    if not 0.0 <= sentiment_coupling <= 1.0:
        raise ConfigError(f"coupling {sentiment_coupling} outside [0, 1]")
    for rel in manifest.relations:
        if rel not in RELATION_SPECS:
            raise ConfigError(f"no templates for relation {rel!r}")
    splits = {}
    for split, count in manifest.split_sizes.items():
        rng = random.Random(f"{manifest.seed}:{split}")
        instances = []
        for i in range(count):
            relation = manifest.relations[rng.randrange(len(manifest.relations))]
            instances.append(
                synthesize_instance(f"{split}-{i:05d}", relation, sentiment_coupling,
                                    rng, heldout_cues=(split == "test"))
            )
        splits[split] = instances
    return splits
