"""Seeded inputs for the pipeline benchmark.

Every input is a pure function of the seed: the same seed gives the same
notes, gold, reference bundles and dictionary rows, byte for byte. All of
it is built before timing starts, from the bundled structured tables and
templates through the package's own synthesizer, so the pipeline under
test only ever sees generated notes and a generated dictionary file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fhirtwin import fhir_assembly
from fhirtwin.evaluation import GoldAnnotations, GoldMention, GoldRelation
from fhirtwin.ner import ClinicalNote
from fhirtwin.normalizer import normalize_key
from fhirtwin.pipeline import default_data_dir
from fhirtwin.relations import RelationType
from fhirtwin.synthesizer import (
    StructuredRecord,
    TemplateSet,
    load_records,
    load_templates,
    synthesize,
)
from fhirtwin.terminology import EntityType, TerminologyIndex

#: Opens the one long medication-list sentence of a long note. None of its
#: words is a dictionary surface, so it adds no mention of its own.
MED_LIST_OPENING = "Home medications include "

#: Characters of a long note per medication-list item, so the list sentence
#: grows in proportion to the note.
CHARS_PER_MED_ITEM = 150

#: About how long one rendered list item is ("Metformin 500mg twice daily, "),
#: so the synthesized part leaves room for the list.
MED_ITEM_CHARS = 24


@dataclass(frozen=True)
class Case:
    """One patient's inputs and what the pipeline must produce for them.

    Short-note cases carry the byte-exact reference bundle; long-note cases
    carry gold mentions and relations, offset into the one long note.
    """

    patient_id: str
    notes: tuple[ClinicalNote, ...]
    reference_json: Optional[str] = None
    gold: Optional[GoldAnnotations] = None

    @property
    def chars(self) -> int:
        return sum(len(n.text) for n in self.notes)

    @property
    def utf8_bytes(self) -> int:
        return sum(len(n.text.encode("utf-8")) for n in self.notes)


@dataclass(frozen=True)
class Pools:
    """The bundled table rows whose items resolve in the bundled index.

    Rows that do not resolve would be skipped by the synthesizer anyway;
    dropping them here keeps every drawn record fully rendered.
    """

    diagnoses: tuple
    medications: tuple
    dosed_medications: tuple
    labs: tuple
    templates: TemplateSet
    index: TerminologyIndex
    default_timestamp: str


def load_pools(index: TerminologyIndex, default_timestamp: str) -> Pools:
    records = load_records(default_data_dir() / "tables")
    templates = load_templates(default_data_dir() / "templates.tsv")

    def resolves(name: str, etype: EntityType) -> bool:
        return normalize_key(name, etype, index) is not None

    diagnoses = tuple(
        d for r in records for d in r.diagnoses
        if resolves(d.description, EntityType.CONDITION)
    )
    medications = tuple(
        m for r in records for m in r.medications
        if resolves(m.drug, EntityType.MEDICATION)
    )
    labs = tuple(
        lab for r in records for lab in r.labs
        if resolves(lab.test, EntityType.OBSERVATION)
    )
    return Pools(
        diagnoses=diagnoses,
        medications=medications,
        dosed_medications=tuple(m for m in medications if m.dose),
        labs=labs,
        templates=templates,
        index=index,
        default_timestamp=default_timestamp,
    )


def draw_record(rng: random.Random, pools: Pools, patient_id: str) -> StructuredRecord:
    """Resample one patient: 1-2 diagnoses, 1-2 prescriptions, 1-2 labs."""
    return StructuredRecord(
        patient_id=patient_id,
        diagnoses=tuple(rng.choices(pools.diagnoses, k=rng.randint(1, 2))),
        medications=tuple(rng.choices(pools.medications, k=rng.randint(1, 2))),
        labs=tuple(rng.choices(pools.labs, k=rng.randint(1, 2))),
    )


def short_cases(seed: int, pools: Pools, count: int) -> list[Case]:
    """One synthesized ~120-char note per patient, with its reference bundle."""
    rng = random.Random(f"short_notes:{seed}")
    cases = []
    for i in range(count):
        patient_id = f"s{seed}p{i:05d}"
        synthetic = synthesize(
            draw_record(rng, pools, patient_id),
            pools.templates,
            pools.index,
            default_timestamp=pools.default_timestamp,
        )
        cases.append(
            Case(
                patient_id=patient_id,
                notes=(synthetic.note,),
                reference_json=fhir_assembly.bundle_to_json(synthetic.reference),
            )
        )
    return cases


def length_strata(cases: list[Case], count: int) -> list[Case]:
    """``count`` of ``cases``, one from the middle of each equal slice of
    their order by note length, so a few cases stand for the length
    distribution of many."""
    ordered = sorted(cases, key=lambda case: (case.utf8_bytes, case.patient_id))
    return [ordered[(2 * k + 1) * len(ordered) // (2 * count)] for k in range(count)]


def _shift(mention: GoldMention, offset: int) -> GoldMention:
    return GoldMention(
        mention.start + offset, mention.end + offset,
        mention.etype, mention.system, mention.code,
    )


def _shift_relation(relation: GoldRelation, offset: int) -> GoldRelation:
    head, tail = relation.head_span, relation.tail_span
    return GoldRelation(
        relation.rtype,
        (head[0] + offset, head[1] + offset),
        (tail[0] + offset, tail[1] + offset),
    )


def long_case(
    rng: random.Random, pools: Pools, patient_id: str, target_chars: int
) -> Case:
    """One note of about ``target_chars`` characters for one patient.

    The note is seeded synthesized notes joined by single spaces, with
    their gold shifted by each note's offset, followed by one sentence
    listing ``target_chars // CHARS_PER_MED_ITEM`` "drug dose frequency"
    items, each drug linked to its dosage in the gold.
    """
    items = max(1, target_chars // CHARS_PER_MED_ITEM)
    pieces: list[str] = []
    mentions: list[GoldMention] = []
    relations: list[GoldRelation] = []
    length = 0

    def append(text: str) -> int:
        nonlocal length
        if pieces:
            pieces.append(" ")
            length += 1
        offset = length
        pieces.append(text)
        length += len(text)
        return offset

    body_chars = target_chars - items * MED_ITEM_CHARS
    timestamp = None
    k = 0
    while length < body_chars:
        synthetic = synthesize(
            draw_record(rng, pools, f"{patient_id}-{k}"),
            pools.templates,
            pools.index,
            default_timestamp=pools.default_timestamp,
        )
        k += 1
        timestamp = timestamp or synthetic.note.timestamp
        offset = append(synthetic.note.text)
        mentions.extend(_shift(m, offset) for m in synthetic.gold.mentions)
        relations.extend(_shift_relation(r, offset) for r in synthetic.gold.relations)

    sentence = MED_LIST_OPENING
    list_mentions: list[GoldMention] = []
    list_relations: list[GoldRelation] = []
    for n in range(items):
        med = rng.choice(pools.dosed_medications)
        concept = normalize_key(med.drug, EntityType.MEDICATION, pools.index)
        dosage = " ".join(part for part in (med.dose, med.frequency) if part)
        if n:
            sentence += ", "
        drug_span = (len(sentence), len(sentence) + len(med.drug))
        sentence += med.drug + " "
        dosage_span = (len(sentence), len(sentence) + len(dosage))
        sentence += dosage
        list_mentions.append(
            GoldMention(*drug_span, EntityType.MEDICATION, concept.system, concept.code)
        )
        list_mentions.append(GoldMention(*dosage_span, EntityType.DOSAGE, None, None))
        list_relations.append(
            GoldRelation(RelationType.HAS_DOSAGE, drug_span, dosage_span)
        )
    offset = append(sentence + ".")
    mentions.extend(_shift(m, offset) for m in list_mentions)
    relations.extend(_shift_relation(r, offset) for r in list_relations)

    note_id = f"{patient_id}-note"
    note = ClinicalNote(note_id, patient_id, timestamp, "".join(pieces))
    gold = GoldAnnotations(note_id, tuple(mentions), tuple(relations))
    return Case(patient_id=patient_id, notes=(note,), gold=gold)


def long_cases(seed: int, pools: Pools, lengths: tuple[int, ...]) -> list[Case]:
    rng = random.Random(f"long_notes:{seed}")
    return [
        long_case(rng, pools, f"l{seed}p{i:02d}", target)
        for i, target in enumerate(lengths)
    ]


# ---------------------------------------------------------------------------
# Generated dictionary
# ---------------------------------------------------------------------------

_CONSONANTS = "bdfgklmnprstvxz"
_VOWELS = "aeiou"

#: (system, entity type) pairs a generated row may carry; each is a pair
#: the normalizer accepts for that type.
_CODINGS = (
    ("SNOMED", "CONDITION"),
    ("ICD10", "CONDITION"),
    ("RXNORM", "MEDICATION"),
    ("LOINC", "OBSERVATION"),
    ("SNOMED", "OBSERVATION"),
)


def note_vocabulary(pools: Pools) -> frozenset[str]:
    """Every case-folded word a generated note can contain."""
    texts = [MED_LIST_OPENING]
    texts += [t for t in vars(pools.templates).values()]
    texts += [d.description for d in pools.diagnoses]
    texts += [f"{m.drug} {m.dose} {m.frequency}" for m in pools.medications]
    texts += [f"{lab.test} {lab.value} {lab.unit}" for lab in pools.labs]
    words: set[str] = set()
    for text in texts:
        words.update("".join(c if c.isalnum() else " " for c in text).casefold().split())
    return frozenset(words)


def generated_surfaces(seed: int, pools: Pools, count: int) -> list[str]:
    """``count`` distinct surfaces, each holding a word no note contains.

    About half extend a bundled surface ("hypertension zorvek"), so the
    scanner's prefix pruning has to look one token further; the rest are
    unrelated runs of one to four invented words.
    """
    rng = random.Random(f"dictionary:{seed}")
    forbidden = note_vocabulary(pools)
    bundled = sorted(pools.index.entries)

    def word() -> str:
        while True:
            w = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.randint(2, 4))
            ) + rng.choice(_CONSONANTS)
            if w not in forbidden:
                return w

    surfaces: dict[str, None] = {}
    while len(surfaces) < count:
        if rng.random() < 0.5:
            surface = rng.choice(bundled) + " " + " ".join(
                word() for _ in range(rng.randint(1, 2))
            )
        else:
            surface = " ".join(word() for _ in range(rng.randint(1, 4)))
        surfaces.setdefault(surface, None)
    return list(surfaces)


def dictionary_rows(seed: int, surfaces: list[str]) -> list[str]:
    """CSV rows in the bundled dictionary format, one per surface."""
    rng = random.Random(f"codings:{seed}")
    rows = []
    for i, surface in enumerate(surfaces):
        system, etype = rng.choice(_CODINGS)
        rows.append(f"{surface},{system},{900000000 + i},{surface.title()},{etype}")
    return rows


def write_dictionary(path: Path, rows: list[str]) -> Path:
    path.write_text(
        "# generated benchmark dictionary\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    return path
