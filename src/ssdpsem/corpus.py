"""Corpus handling: instance records, CoNLL-U ingestion, and synthetic data.

An Instance is one sentence with its dependency analysis, the two entity
spans, a relation label, and an optional gold sentiment.  Dependency heads
use -1 as the ROOT sentinel throughout (CoNLL-U's 0-based head column is
converted on read).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass

ROOT = -1

POSITIVE = "positive"
NEGATIVE = "negative"


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class ValidationError(ValueError):
    """An instance violates its structural invariants."""


class ConfigError(ValueError):
    """Bad generation or training configuration."""


@dataclass(slots=True)
class Token:
    """One word of a sentence.  Slotted, so it has no per-token ``__dict__``;
    the readers intern ``surface`` and ``deprel``, so a loaded corpus holds
    each distinct string once.  Nothing hashes or mutates a token."""

    index: int
    surface: str
    head: int  # parent token index, or ROOT (-1)
    deprel: str


@dataclass
class Instance:
    id: str
    tokens: list[Token]
    subj: tuple[int, int]  # inclusive span
    obj: tuple[int, int]
    relation: str
    sentiment: str | None = None
    fragmented: bool = False

    def __len__(self):
        return len(self.tokens)

    def validate(self, relations=None):
        n = len(self.tokens)
        if n == 0:
            raise ValidationError(f"{self.id}: empty sentence")
        roots = 0
        for tok in self.tokens:
            if tok.head == tok.index:
                raise ValidationError(f"{self.id}: token {tok.index} is its own head")
            if tok.head == ROOT:
                roots += 1
            elif not 0 <= tok.head < n:
                raise ValidationError(f"{self.id}: head {tok.head} out of range")
        if roots != 1 and not self.fragmented:
            raise ValidationError(f"{self.id}: {roots} roots but not marked fragmented")
        for name, (lo, hi) in (("subj", self.subj), ("obj", self.obj)):
            if lo > hi:
                raise ValidationError(f"{self.id}: empty {name} span {lo}..{hi}")
            if lo < 0 or hi >= n:
                raise ValidationError(f"{self.id}: {name} span {lo}..{hi} out of bounds (n={n})")
        if not (self.subj[1] < self.obj[0] or self.obj[1] < self.subj[0]):
            raise ValidationError(f"{self.id}: overlapping entity spans")
        if self.sentiment is not None and self.sentiment not in (POSITIVE, NEGATIVE):
            raise ValidationError(f"{self.id}: bad sentiment {self.sentiment!r}")
        if relations is not None and self.relation not in relations:
            raise ValidationError(f"{self.id}: unknown relation {self.relation!r}")
        return self


@dataclass
class CorpusManifest:
    relations: list[str]
    entity_types: dict[str, tuple[str, str]]  # relation -> (subj type, obj type)
    split_sizes: dict[str, int]
    seed: int
    no_relation_label: str = "no_relation"

    def validate(self):
        if len(set(self.relations)) != len(self.relations):
            raise ValidationError("duplicate relation labels in manifest")
        if len(self.relations) < 2:
            raise ConfigError("need at least 2 relation labels")
        return self


# ---------------------------------------------------------------------------
# CoNLL-U + sidecar reading


def _parse_conllu_sentences(path):
    """The (sent_id, rows) of each blank-line-separated sentence, as a list;
    a row is (id, form, head, deprel) with the file's 1-based numbering."""
    sentences = []
    sent_id = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                if rows:
                    sentences.append((sent_id, rows))
                    sent_id, rows = None, []
                continue
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
            rows.append((idx, cols[1], head, cols[7]))
    if rows:
        sentences.append((sent_id, rows))
    return sentences


def read_conllu(conllu_path, sidecar_path):
    """Read a CoNLL-U file plus its JSONL sidecar of spans and labels.

    Sidecar rows are line-delimited JSON with at least ``subj``, ``obj``
    and ``relation``; they pair with sentences by ``id`` when both sides
    carry one, else positionally.
    """
    sentences = _parse_conllu_sentences(conllu_path)
    sidecar = list(_parse_lines(sidecar_path, lambda row: {
        **row, "subj": _span(row, "subj"), "obj": _span(row, "obj"), "relation": _relation(row),
    }))
    if len(sidecar) != len(sentences):
        raise ParseError(
            f"{sidecar_path}: {len(sidecar)} sidecar rows for {len(sentences)} sentences"
        )
    by_id = {}
    for row in sidecar:
        if "id" in row:
            by_id[str(row["id"])] = row
    instances = []
    for pos, (sent_id, rows) in enumerate(sentences):
        sid = sent_id if sent_id is not None else str(pos)
        row = by_id.get(sid, sidecar[pos])
        tokens = []
        for idx, form, head, deprel in rows:
            # CoNLL-U is 1-based with head 0 = root
            tokens.append(Token(idx - 1, sys.intern(form), head - 1 if head > 0 else ROOT,
                                sys.intern(deprel)))
        roots = sum(1 for t in tokens if t.head == ROOT)
        inst = Instance(
            id=sid,
            tokens=tokens,
            subj=row["subj"],
            obj=row["obj"],
            relation=row["relation"],
            sentiment=row.get("sentiment"),
            fragmented=roots != 1,
        )
        inst.validate()
        instances.append(inst)
    return instances


# ---------------------------------------------------------------------------
# JSONL instance records


def instance_to_dict(inst):
    rec = {
        "id": inst.id,
        "tokens": [t.surface for t in inst.tokens],
        "heads": [t.head for t in inst.tokens],
        "deprels": [t.deprel for t in inst.tokens],
        "subj": list(inst.subj),
        "obj": list(inst.obj),
        "relation": inst.relation,
    }
    if inst.sentiment is not None:
        rec["sentiment"] = inst.sentiment
    if inst.fragmented:
        rec["fragmented"] = True
    return rec


def _span(rec, key):
    span = rec[key]
    if not (isinstance(span, list) and len(span) == 2
            and all(isinstance(i, int) and not isinstance(i, bool) for i in span)):
        raise ParseError(f"{key} must be a [start, end] pair of token indices, got {span!r}")
    return tuple(span)


def _relation(rec):
    relation = rec["relation"]
    if not isinstance(relation, str):
        raise ParseError(f"relation must be str, got {relation!r}")
    return relation


# the element type of each per-token list; a bool is not an int
_TOKEN_LISTS = {"tokens": str, "heads": int, "deprels": str}


def instance_from_dict(rec):
    for key, kind in _TOKEN_LISTS.items():
        values = rec[key]
        if not isinstance(values, list):
            raise ParseError(f"{key} must be a list, got {type(values).__name__}")
        for i, v in enumerate(values):
            if type(v) is not kind:
                raise ParseError(f"{key}[{i}] must be {kind.__name__}, got {v!r}")
        if len(values) != len(rec["tokens"]):
            raise ParseError(f"{key} has {len(values)} entries for "
                             f"{len(rec['tokens'])} tokens")
    tokens = [
        Token(i, sys.intern(s), h, sys.intern(d))
        for i, (s, h, d) in enumerate(zip(rec["tokens"], rec["heads"], rec["deprels"]))
    ]
    return Instance(
        id=str(rec["id"]),
        tokens=tokens,
        subj=_span(rec, "subj"),
        obj=_span(rec, "obj"),
        relation=_relation(rec),
        sentiment=rec.get("sentiment"),
        fragmented=rec.get("fragmented", False),
    )


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
    if not isinstance(rec, dict):
        raise ConfigError(f"expected a JSON object, got {type(rec).__name__}")
    rec = {"no_relation_label": "no_relation", **rec}
    for key, (ok, kind) in _MANIFEST_KEYS.items():
        if key not in rec:
            raise ConfigError(f"missing key {key!r}")
        if not ok(rec[key]):
            raise ConfigError(f"{key} must be {kind}, got {rec[key]!r}")
    return CorpusManifest(
        relations=rec["relations"],
        entity_types={r: tuple(pair) for r, pair in rec["entity_types"].items()},
        split_sizes=rec["split_sizes"],
        seed=rec["seed"],
        no_relation_label=rec["no_relation_label"],
    ).validate()


def write_jsonl(instances, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_dict(inst), ensure_ascii=False) + "\n")


def _parse_lines(path, parse):
    """parse(record) for each non-blank line, which must hold a JSON object;
    a bad line, a missing key or a ParseError from parse names path:line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise ParseError(
                    f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}"
                )
            try:
                yield parse(rec)
            except KeyError as exc:
                raise ParseError(f"{path}:{lineno}: missing key {exc}") from exc
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc


def read_jsonl(path):
    return [inst.validate() for inst in _parse_lines(path, instance_from_dict)]


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
    "no_relation": ("ORG", "MISC", None),
}

DEFAULT_RELATIONS = list(RELATION_SPECS)

# Template items are (slot-or-word, head slot index, deprel); head -1 = root.
# SUBJ/OBJ expand to multi-token entities whose internal tokens attach to the
# entity head (last token); other slots expand to exactly one word.
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
    "no_relation": [
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


def default_manifest(seed=0, train=2000, dev=400, test=400):
    return CorpusManifest(
        relations=list(DEFAULT_RELATIONS),
        entity_types={r: (s, o) for r, (s, o, _) in RELATION_SPECS.items()},
        split_sizes={"train": train, "dev": dev, "test": test},
        seed=seed,
    ).validate()


def _make_entity(kind, rng):
    """Return (forms, relative heads, relative deprels); head of last = None."""
    if kind == "ORG":
        name = ORG_NAMES[rng.randrange(len(ORG_NAMES))]
        if rng.randrange(2):
            suffix = ORG_SUFFIXES[rng.randrange(len(ORG_SUFFIXES))]
            return [name, suffix], [1, None], ["compound", None]
        return [name], [None], [None]
    if kind == "GPE":
        return [GPE_NAMES[rng.randrange(len(GPE_NAMES))]], [None], [None]
    if kind == "MISC":
        noun = MISC_NOUNS[rng.randrange(len(MISC_NOUNS))]
        return ["the", noun], [1, None], ["det", None]
    if kind == "MONEY":
        num = MONEY_NUMBERS[rng.randrange(len(MONEY_NUMBERS))]
        unit = MONEY_UNITS[rng.randrange(len(MONEY_UNITS))]
        return ["$", num, unit], [2, 2, None], ["symbol", "nummod", None]
    raise ConfigError(f"unknown entity kind {kind!r}")


def _cue_pools(sentiment):
    if sentiment == POSITIVE:
        return {"CUE": POSITIVE_CUES, "VCUE": POSITIVE_VERBS, "PART": POSITIVE_PARTICLES}
    return {"CUE": NEGATIVE_CUES, "VCUE": NEGATIVE_VERBS, "PART": NEGATIVE_PARTICLES}


def _expand_template(template, pools, subj_ent, obj_ent, rng):
    """Instantiate a template into (tokens, subj span, obj span)."""
    forms, heads, deprels = [], [], []
    slot_head_token = {}  # slot index -> token index the slot's dependents attach to
    slot_of_token = []
    for slot_idx, (item, _, _) in enumerate(template):
        if item == "SUBJ":
            ent = subj_ent
        elif item == "OBJ":
            ent = obj_ent
        else:
            pool = pools.get(item)
            word = pool[rng.randrange(len(pool))] if pool else item
            ent = ([word], [None], [None])
        base = len(forms)
        e_forms, e_heads, e_deprels = ent
        for k, form in enumerate(e_forms):
            forms.append(form)
            heads.append(None if e_heads[k] is None else base + e_heads[k])
            deprels.append(e_deprels[k])
            slot_of_token.append(slot_idx)
        slot_head_token[slot_idx] = base + len(e_forms) - 1
        if item == "SUBJ":
            subj_span = (base, base + len(e_forms) - 1)
        elif item == "OBJ":
            obj_span = (base, base + len(e_forms) - 1)
    tokens = []
    for i, form in enumerate(forms):
        if heads[i] is None:
            slot_idx = slot_of_token[i]
            _, head_slot, deprel = template[slot_idx]
            head = ROOT if head_slot == -1 else slot_head_token[head_slot]
        else:
            head = heads[i]
            deprel = deprels[i]
        tokens.append(Token(i, form, head, deprel))
    return tokens, subj_span, obj_span


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
    if ambiguous:
        base, pools = templates[0]
    else:
        base, pools = templates[rng.randrange(len(templates))]
    opener_draw = rng.randrange(3)  # 0: none, 1: period opener, 2: distractor-noun opener
    opener = (None, _OPENER, _OPENER_RELNOUN)[opener_draw]
    tails = []
    if not ambiguous:
        tail_draw = rng.randrange(4)  # 0: none, 1: gold tail, 2-3: gold + distractor
        if tail_draw >= 1:
            tails.append(_TAIL_GOLD_CUE)
        if tail_draw >= 2:
            tails.append(_TAIL_DISTRACTOR)
    if rng.randrange(2):
        tails.append(_TAIL_RELNOUN)
    template = _compose(base, opener, tails)
    all_cues = POSITIVE_CUES + NEGATIVE_CUES
    dnouns = sorted(
        {n for rel, nouns in RELATION_NOUNS.items() if rel != relation for n in nouns}
    )
    pools = {
        "PERIOD": PERIOD_NOUNS,
        "TAILCUE": _cue_pools(sentiment)["CUE"],
        "DCUE": all_cues,
        "DNOUN": dnouns,
        **pools,
        **_cue_pools(sentiment),
    }
    if ambiguous:
        # the shared noun names either relation of the pair; the single cue
        # carries gold sentiment through split-specific surface forms
        pools["NOUN"] = AMBIGUOUS_NOUNS[relation]
        amb = AMB_CUES_HELDOUT if heldout_cues else AMB_CUES_TRAIN
        pools["CUE"] = amb[sentiment]
    subj_ent = _make_entity(subj_kind, rng)
    obj_ent = _make_entity(obj_kind, rng)
    tokens, subj_span, obj_span = _expand_template(template, pools, subj_ent, obj_ent, rng)
    return Instance(
        id=inst_id,
        tokens=tokens,
        subj=subj_span,
        obj=obj_span,
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
