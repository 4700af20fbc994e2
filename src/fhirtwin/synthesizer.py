"""Synthetic narrative construction from structured clinical tables.

Each patient record (diagnoses, prescriptions, lab events) renders into a
short note, one sentence per item, from a configurable template set. Gold
spans, codes and relations fall out of the rendering itself, and a
reference bundle is built directly from the structured data, so a corpus
produced here is exactly aligned with what the extraction pipeline should
find. Items whose names do not resolve in the terminology index are
skipped with a warning.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from fhirtwin import fhir_assembly
from fhirtwin.evaluation import CorpusCase, GoldAnnotations, GoldMention
from fhirtwin.fhir_assembly import DEFAULT_TIMESTAMP
from fhirtwin.ner import ClinicalNote, check_id
from fhirtwin.normalizer import normalize_key
from fhirtwin.pipeline import check_ratios
from fhirtwin.relations import Relation, RelationType
from fhirtwin.terminology import (
    EntityType,
    MalformedRowError,
    TerminologyIndex,
    table_rows,
)

logger = logging.getLogger(__name__)


class UnresolvableRecordError(Exception):
    """No item in the record resolves against the terminology index."""


@dataclass(frozen=True)
class Diagnosis:
    tag: str
    code: str
    description: str


@dataclass(frozen=True)
class Medication:
    drug: str
    dose: str
    frequency: str


@dataclass(frozen=True)
class Lab:
    test: str
    value: str
    unit: str
    timestamp: str

    def __post_init__(self):
        if self.timestamp and not fhir_assembly.is_date_time(self.timestamp):
            raise ValueError(f"timestamp {self.timestamp!r} is not an R4 dateTime")


@dataclass(frozen=True)
class StructuredRecord:
    patient_id: str
    diagnoses: tuple[Diagnosis, ...]
    medications: tuple[Medication, ...]
    labs: tuple[Lab, ...]


@dataclass(frozen=True)
class TemplateSet:
    history: str
    diagnosis: str
    medication: str
    lab: str


_PLACEHOLDER = re.compile(r"\{(\w+)\}")

#: Each template's slots: those whose span ``synthesize`` reads, which it
#: must use, and those it may use besides.
TEMPLATE_SLOTS = {
    "history": ({"a", "b"}, set()),
    "diagnosis": ({"description"}, set()),
    "medication": ({"drug"}, {"dose", "frequency"}),
    "lab": ({"test"}, {"value", "unit"}),
}


def load_templates(path: str | Path) -> TemplateSet:
    """Load a tab-separated ``key<TAB>template`` file with history,
    diagnosis, medication and lab rows; a later row for a key wins.

    A template using a slot that ``TEMPLATE_SLOTS`` does not give it, or
    leaving out one it must use, raises ``MalformedRowError``.
    """
    entries: dict[str, str] = {}
    for line_no, (key, template) in table_rows(path, 2, "\t"):
        key = key.strip()
        if key in TEMPLATE_SLOTS:
            required, optional = TEMPLATE_SLOTS[key]
            used = set(_PLACEHOLDER.findall(template))
            for fault, slots in (
                ("unknown", used - required - optional),
                ("missing", required - used),
            ):
                if slots:
                    reason = f"{key} template: {fault} slot {{{min(slots)}}}"
                    raise MalformedRowError(path, line_no, reason)
        entries[key] = template
    missing = TEMPLATE_SLOTS.keys() - entries
    if missing:
        raise ValueError(f"{path}: missing templates: {sorted(missing)}")
    return TemplateSet(**{key: entries[key] for key in TEMPLATE_SLOTS})


def render_template(template: str, values: dict[str, str]) -> tuple[str, dict]:
    """Fill a template, returning the text and each filled slot's span.

    Empty values disappear along with the whitespace in front of them, so
    ``"{test} {value} {unit}."`` with an empty unit renders without a
    dangling space.
    """
    out = ""
    spans: dict[str, tuple[int, int]] = {}
    last = 0
    for match in _PLACEHOLDER.finditer(template):
        out += template[last : match.start()]
        name = match.group(1)
        if name not in values:
            raise KeyError(f"template slot {{{name}}} has no value")
        value = values[name]
        if value:
            spans[name] = (len(out), len(out) + len(value))
            out += value
        else:
            out = out.rstrip(" ")
        last = match.end()
    out += template[last:]
    return out, spans


@dataclass
class _NoteBuilder:
    text: str = ""

    def add(self, template: str, values: dict[str, str]) -> dict[str, tuple[int, int]]:
        """Render ``template`` as the note's next sentence; returns each
        filled slot's span in the note."""
        if self.text:
            self.text += " "
        base = len(self.text)
        sentence, spans = render_template(template, values)
        self.text += sentence
        return {name: (base + s, base + e) for name, (s, e) in spans.items()}


def _resolve(name: str, etype: EntityType, index: TerminologyIndex):
    concept = normalize_key(name, etype, index)
    if concept is None:
        logger.warning("skipped item: %r does not resolve as %s", name, etype.value)
    return concept


def note_id_of(patient_id: str) -> str:
    """The id of the note ``synthesize`` renders for a patient."""
    return f"{patient_id}-note"


def synthesize(
    record: StructuredRecord,
    templates: TemplateSet,
    index: TerminologyIndex,
    default_timestamp: str = DEFAULT_TIMESTAMP,
) -> CorpusCase:
    """Render one record into a note with aligned gold and reference bundle."""
    if not (record.diagnoses or record.medications or record.labs):
        raise ValueError(f"record {record.patient_id!r} has no items")
    note_id = note_id_of(record.patient_id)

    lab_times = sorted(lab.timestamp for lab in record.labs if lab.timestamp)
    timestamp = lab_times[0] if lab_times else default_timestamp

    patient = fhir_assembly.build_patient(record.patient_id)
    blocks = fhir_assembly.SharedBlocks(patient)
    builder = _NoteBuilder()
    gold_mentions: list[GoldMention] = []
    gold_relations: list[Relation] = []
    resources = []

    def add_condition(description: str, concept, span: tuple[int, int]) -> None:
        gold_mentions.append(
            GoldMention(span[0], span[1], EntityType.CONDITION, concept.system, concept.code)
        )
        resources.append(
            fhir_assembly.condition_resource(
                record.patient_id, concept, description, span[0], blocks
            )
        )

    diagnoses = [
        (d, c)
        for d in record.diagnoses
        if (c := _resolve(d.description, EntityType.CONDITION, index)) is not None
    ]
    if len(diagnoses) >= 2:
        (first, first_concept), (second, second_concept) = diagnoses[0], diagnoses[1]
        spans = builder.add(
            templates.history, {"a": first.description, "b": second.description}
        )
        add_condition(first.description, first_concept, spans["a"])
        add_condition(second.description, second_concept, spans["b"])
        rest = diagnoses[2:]
    else:
        rest = diagnoses
    for diagnosis, concept in rest:
        spans = builder.add(templates.diagnosis, {"description": diagnosis.description})
        add_condition(diagnosis.description, concept, spans["description"])

    for medication in record.medications:
        concept = _resolve(medication.drug, EntityType.MEDICATION, index)
        if concept is None:
            continue
        spans = builder.add(
            templates.medication,
            {
                "drug": medication.drug,
                "dose": medication.dose,
                "frequency": medication.frequency,
            },
        )
        drug_span = spans["drug"]
        gold_mentions.append(
            GoldMention(
                drug_span[0], drug_span[1], EntityType.MEDICATION,
                concept.system, concept.code,
            )
        )
        dosage_parts = [spans[k] for k in ("dose", "frequency") if k in spans]
        if dosage_parts:
            dosage_span = (
                min(s for s, _ in dosage_parts),
                max(e for _, e in dosage_parts),
            )
            gold_mentions.append(
                GoldMention(
                    dosage_span[0], dosage_span[1], EntityType.DOSAGE, None, None
                )
            )
            gold_relations.append(
                Relation(RelationType.HAS_DOSAGE, drug_span, dosage_span)
            )
            dosage_texts = [builder.text[dosage_span[0] : dosage_span[1]]]
        else:
            dosage_texts = [fhir_assembly.PLACEHOLDER_DOSAGE]
        resources.append(
            fhir_assembly.medication_request_resource(
                record.patient_id,
                concept,
                medication.drug,
                dosage_texts,
                timestamp,
                drug_span[0],
                blocks,
            )
        )

    for lab in record.labs:
        concept = _resolve(lab.test, EntityType.OBSERVATION, index)
        if concept is None:
            continue
        spans = builder.add(
            templates.lab, {"test": lab.test, "value": lab.value, "unit": lab.unit}
        )
        value_parts = [spans[k] for k in ("value", "unit") if k in spans]
        obs_span = (
            spans["test"][0],
            max(e for _, e in value_parts) if value_parts else spans["test"][1],
        )
        gold_mentions.append(
            GoldMention(
                obs_span[0], obs_span[1], EntityType.OBSERVATION,
                concept.system, concept.code,
            )
        )
        value_text = (
            builder.text[min(s for s, _ in value_parts) : obs_span[1]]
            if value_parts
            else ""
        )
        resources.append(
            fhir_assembly.observation_resource(
                record.patient_id,
                concept,
                lab.test,
                value_text,
                timestamp,
                obs_span[0],
                blocks,
            )
        )

    if not resources:
        raise UnresolvableRecordError(
            f"no item of record {record.patient_id!r} resolves in the index"
        )

    note = ClinicalNote(
        note_id=note_id,
        patient_id=record.patient_id,
        timestamp=timestamp,
        text=builder.text,
    )
    gold = GoldAnnotations(note_id, tuple(gold_mentions), tuple(gold_relations))
    issues = fhir_assembly.validate(resources, patient)
    reference = fhir_assembly.bundle(patient, resources, issues)
    return CorpusCase(note=note, gold=gold, reference=reference)


# ---------------------------------------------------------------------------
# Structured table loading
# ---------------------------------------------------------------------------


def _diagnosis(code: str, description: str) -> Diagnosis:
    """A diagnosis item; a ``TAG:code`` code splits at its first ``:``."""
    tag, colon, bare = code.partition(":")
    if not colon:
        return Diagnosis("", code, description)
    return Diagnosis(tag.strip(), bare.strip(), description)


#: Each structured table: its file, its column count, the item a row's
#: cells after the patient id become, and the record field it joins.
TABLES = (
    ("diagnoses.csv", 3, _diagnosis, "diagnoses"),
    ("prescriptions.csv", 4, Medication, "medications"),
    ("labevents.csv", 5, Lab, "labs"),
)


def load_records(tables_dir: str | Path) -> list[StructuredRecord]:
    """Build per-patient records from the ``TABLES`` under ``tables_dir``.

    Cells are stripped, and a first line whose first cell is ``patient_id``
    is a header. A missing table is tolerated with a warning; when none is
    present this raises ``FileNotFoundError``. A row whose patient id
    ``ner.check_id`` rejects, or whose lab timestamp is neither empty nor
    an R4 ``dateTime``, raises ``MalformedRowError``. Records come back
    sorted by patient id.
    """
    tables_dir = Path(tables_dir)
    items: dict[str, dict[str, list]] = {}
    found = False
    for name, columns, make_item, record_field in TABLES:
        path = tables_dir / name
        if not path.exists():
            logger.warning("table %s not found; continuing without it", path)
            continue
        found = True
        for line_no, cells in table_rows(path, columns):
            patient_id, *rest = (cell.strip() for cell in cells)
            if line_no == 1 and patient_id.lower() == "patient_id":
                continue
            try:
                check_id("patient_id", patient_id)
                check_id("note_id", note_id_of(patient_id))
                item = make_item(*rest)
            except ValueError as exc:
                raise MalformedRowError(path, line_no, str(exc)) from None
            items.setdefault(patient_id, {}).setdefault(record_field, []).append(item)
    if not found:
        raise FileNotFoundError(errno.ENOENT, "no input tables found", str(tables_dir))
    return [
        StructuredRecord(
            patient_id, **{f: tuple(fields.get(f, ())) for *_, f in TABLES}
        )
        for patient_id, fields in sorted(items.items())
    ]


# ---------------------------------------------------------------------------
# Corpus splitting
# ---------------------------------------------------------------------------


def _bucket_counts(total: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder allocation; each bucket is within 1 of total*ratio."""
    exact = [total * r for r in ratios]
    counts = [math.floor(x) for x in exact]
    shortfall = total - sum(counts)
    order = sorted(
        range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i)
    )
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def split_corpus(
    cases: Sequence[CorpusCase],
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[list[CorpusCase], list[CorpusCase], list[CorpusCase]]:
    """Deterministic patient-disjoint train/validation/test partition.

    Patients are ordered by a seeded hash of their id and sliced by the
    largest-remainder bucket counts, so every run with the same seed puts
    every case in the same partition and bucket sizes stay within one of
    the exact ratios. Ratios that ``check_ratios`` rejects raise
    ``BadRatiosError``.
    """
    check_ratios(ratios)

    patients = sorted({case.note.patient_id for case in cases})
    ordered = sorted(
        patients,
        key=lambda pid: hashlib.sha256(f"{seed}|{pid}".encode("utf-8")).hexdigest(),
    )
    counts = _bucket_counts(len(ordered), ratios)
    train_ids = set(ordered[: counts[0]])
    val_ids = set(ordered[counts[0] : counts[0] + counts[1]])

    train = [c for c in cases if c.note.patient_id in train_ids]
    val = [c for c in cases if c.note.patient_id in val_ids]
    test = [
        c
        for c in cases
        if c.note.patient_id not in train_ids and c.note.patient_id not in val_ids
    ]
    return train, val, test
