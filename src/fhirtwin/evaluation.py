"""Corpus scoring: extraction F1, relation F1, completeness, interoperability.

Extraction and relation scores are micro-averaged over the corpus with
exact matching: a predicted mention counts only when (start, end, type)
all agree with a gold mention of the same note, and a predicted relation
only when (type, head span, tail span) agree. One comparison of a
patient's generated bundle against their reference bundle, pairing
resources once and fingerprinting each required field once, yields both
bundle metrics, completeness and interoperability; the corpus scores
macro-average them per patient.

Zero-denominator conventions are fixed so every report is total:
precision is 0 with no predictions, recall is 0 with no gold, and F1 is 0
whenever precision + recall is 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from fhirtwin.fhir_assembly import PROFILE, FhirResource, TwinBundle
from fhirtwin.ner import ClinicalNote, EntityMention
from fhirtwin.pipeline import NoteAnnotation, Pipeline
from fhirtwin.relations import Relation, RelationType
from fhirtwin.terminology import CodeSystem, EntityType


class PatientMismatchError(Exception):
    """Bundle comparison requires both bundles to concern one patient."""


class EmptyCorpusError(Exception):
    """evaluate_corpus() needs at least one case."""


# ---------------------------------------------------------------------------
# Gold annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoldMention:
    start: int
    end: int
    etype: EntityType
    system: Optional[CodeSystem]
    code: Optional[str]


#: An alias of ``Relation``, the one record of gold and extracted relations,
#: kept while ``perfbench/workloads.py`` imports it.
GoldRelation = Relation


@dataclass(frozen=True)
class GoldAnnotations:
    note_id: str
    mentions: tuple[GoldMention, ...]
    relations: tuple[Relation, ...]


def gold_to_dict(gold: GoldAnnotations) -> dict:
    return {
        "note_id": gold.note_id,
        "mentions": [
            {
                "start": m.start,
                "end": m.end,
                "etype": m.etype.value,
                "system": m.system.name if m.system else None,
                "code": m.code,
            }
            for m in gold.mentions
        ],
        "relations": [
            {
                "rtype": r.rtype.value,
                "head": list(r.head_span),
                "tail": list(r.tail_span),
            }
            for r in gold.relations
        ],
    }


def gold_from_dict(body: dict) -> GoldAnnotations:
    mentions = tuple(
        GoldMention(
            start=m["start"],
            end=m["end"],
            etype=EntityType(m["etype"]),
            system=CodeSystem[m["system"]] if m.get("system") else None,
            code=m.get("code"),
        )
        for m in body.get("mentions", [])
    )
    rels = tuple(
        Relation(RelationType(r["rtype"]), tuple(r["head"]), tuple(r["tail"]))
        for r in body.get("relations", [])
    )
    return GoldAnnotations(body["note_id"], mentions, rels)


# ---------------------------------------------------------------------------
# Micro-averaged F1
# ---------------------------------------------------------------------------


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f1


def mention_key(note_id: str, mention: EntityMention | GoldMention) -> tuple:
    return (note_id, mention.start, mention.end, mention.etype.value)


#: An alias of ``mention_key``, kept while ``perfbench/harness.py`` imports it.
gold_mention_key = mention_key


def ner_f1(
    predicted: Iterable[tuple], gold: Iterable[tuple]
) -> tuple[float, float, float]:
    """Micro precision/recall/F1 over mention or relation keys.

    Mention keys are (note_id, start, end, etype) and relation keys
    (note_id, rtype, head span, tail span). Each gold key matches at most
    one prediction and vice versa.
    """
    predicted_counts = Counter(predicted)
    gold_counts = Counter(gold)
    tp = sum((predicted_counts & gold_counts).values())
    fp = sum(predicted_counts.values()) - tp
    fn = sum(gold_counts.values()) - tp
    return _prf(tp, fp, fn)


#: An alias of ``ner_f1``, kept while ``perfbench/harness.py`` imports it.
relation_f1 = ner_f1


def relation_keys(
    note_id: str, rels: Iterable[Relation], mentions: Iterable[EntityMention]
) -> list[tuple]:
    """Keys of the relations in ``rels`` whose head and tail spans are both
    spans of ``mentions``."""
    spans = {m.span for m in mentions}
    return [
        (note_id, r.rtype.value, r.head_span, r.tail_span)
        for r in rels
        if r.head_span in spans and r.tail_span in spans
    ]


def gold_relation_keys(note_id: str, gold: GoldAnnotations) -> list[tuple]:
    return [(note_id, r.rtype.value, r.head_span, r.tail_span) for r in gold.relations]


# ---------------------------------------------------------------------------
# Bundle comparison
# ---------------------------------------------------------------------------

#: Profile-required fields per resource type; these drive both scores.
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    resource_type: (
        profile.code_field,
        *(name for _, required, _ in profile.rules for name in required),
        "subject",
    )
    for resource_type, profile in PROFILE.items()
}

#: Fields that hold a CodeableConcept, compared by their set of codings.
CODED_FIELDS = frozenset(
    {"code", "medicationCodeableConcept", "clinicalStatus", "verificationStatus"}
)


def _field_fingerprint(resource: FhirResource, field_name: str):
    """Canonical comparable value for one field (None when absent)."""
    value = resource.fields.get(field_name)
    if value is None:
        return None
    if field_name in CODED_FIELDS:
        coding = value.get("coding") or []
        if not coding:
            return ("text", value.get("text", ""))
        return tuple(sorted((c.get("system", ""), c.get("code", "")) for c in coding))
    if field_name == "dosageInstruction":
        return tuple(d.get("text", "") for d in value)
    if field_name == "subject":
        return value.get("reference", "")
    return value


def _match_key(resource: FhirResource) -> tuple:
    primary = resource.primary_code()
    if primary is None:
        primary = ("text", resource.concept().get("text", ""))
    return (resource.resource_type, primary)


def _scored_resources(twin: TwinBundle) -> list[FhirResource]:
    return [r for r in twin.entries if r.resource_type != "Patient"]


def match_resources(
    generated: Sequence[FhirResource], reference: Sequence[FhirResource]
) -> list[tuple[FhirResource, FhirResource]]:
    """Pair resources by (type, primary code); duplicates pair in id order."""
    gen_groups: dict[tuple, list[FhirResource]] = {}
    for resource in sorted(generated, key=lambda r: r.id):
        gen_groups.setdefault(_match_key(resource), []).append(resource)
    ref_groups: dict[tuple, list[FhirResource]] = {}
    for resource in sorted(reference, key=lambda r: r.id):
        ref_groups.setdefault(_match_key(resource), []).append(resource)
    pairs: list[tuple[FhirResource, FhirResource]] = []
    for key in sorted(ref_groups, key=repr):
        for gen_r, ref_r in zip(gen_groups.get(key, []), ref_groups[key]):
            pairs.append((gen_r, ref_r))
    return pairs


def _agreement(pair: tuple[FhirResource, FhirResource]) -> tuple[int, int]:
    gen_r, ref_r = pair
    required = REQUIRED_FIELDS[ref_r.resource_type]
    equal = 0
    for f in required:
        expected = _field_fingerprint(ref_r, f)
        if expected is not None and _field_fingerprint(gen_r, f) == expected:
            equal += 1
    return equal, len(required)


def compare_bundles(
    generated: TwinBundle, reference: TwinBundle
) -> tuple[float, float]:
    """Score ``generated`` against ``reference``: (completeness, interoperability).

    Completeness is the fraction of reference-required fields the generated
    bundle reproduces; unmatched reference resources contribute all of their
    required fields to the denominator, and a reference with none scores 1.

    Interoperability is 0.5 * F1(matched resources) + 0.5 * mean field
    agreement over the matched pairs. Both-empty bundles score 1; one-sided
    empty bundles score 0.
    """
    if generated.patient_identifier() != reference.patient_identifier():
        raise PatientMismatchError(
            f"bundles concern different patients: "
            f"{generated.patient_identifier()!r} vs {reference.patient_identifier()!r}"
        )
    gen_resources = _scored_resources(generated)
    ref_resources = _scored_resources(reference)
    pairs = match_resources(gen_resources, ref_resources)
    agreements = [_agreement(pair) for pair in pairs]

    denominator = sum(len(REQUIRED_FIELDS[r.resource_type]) for r in ref_resources)
    if denominator == 0:
        completeness = 1.0
    else:
        completeness = sum(equal for equal, _ in agreements) / denominator

    if not gen_resources and not ref_resources:
        interoperability = 1.0
    elif not gen_resources or not ref_resources:
        interoperability = 0.0
    else:
        matched = len(pairs)
        _, _, f1_match = _prf(
            matched, len(gen_resources) - matched, len(ref_resources) - matched
        )
        mean_agreement = (
            sum(equal / total for equal, total in agreements) / matched
            if matched
            else 0.0
        )
        interoperability = 0.5 * f1_match + 0.5 * mean_agreement
    return completeness, interoperability


# ---------------------------------------------------------------------------
# Corpus evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    note: ClinicalNote
    gold: GoldAnnotations
    reference: TwinBundle


@dataclass(frozen=True)
class EvaluationReport:
    ner_precision: float
    ner_recall: float
    ner_f1: float
    re_precision: Optional[float]
    re_recall: Optional[float]
    re_f1: Optional[float]
    semantic_completeness: float
    interoperability: float
    per_note: tuple[dict, ...]
    per_patient: tuple[dict, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_row(self) -> str:
        """Tab-separated NER / RE / Comp. / Interop. row with a header line."""
        re_text = "--" if self.re_f1 is None else f"{self.re_f1:.3f}"
        return (
            "NER\tRE\tComp.\tInterop.\n"
            f"{self.ner_f1:.3f}\t{re_text}\t"
            f"{self.semantic_completeness * 100:.1f}%\t{self.interoperability:.3f}\n"
        )


def evaluate_corpus(cases: Sequence[CorpusCase], pipeline: Pipeline) -> EvaluationReport:
    """Run ``pipeline`` over a corpus and score all four metrics.

    Relation scores are reported as absent when its config disables relation
    extraction. Completeness and interoperability are macro-averaged per
    patient.
    """
    if not cases:
        raise EmptyCorpusError("corpus has no cases")
    config = pipeline.config

    predicted_mentions: list[tuple] = []
    gold_mentions: list[tuple] = []
    predicted_relations: list[tuple] = []
    gold_relations: list[tuple] = []
    per_note: list[dict] = []

    by_patient: dict[str, list[CorpusCase]] = {}
    for case in cases:
        by_patient.setdefault(case.note.patient_id, []).append(case)

    annotations_by_note: dict[str, NoteAnnotation] = {}
    per_patient: list[dict] = []
    for patient_id in sorted(by_patient):
        patient_cases = sorted(by_patient[patient_id], key=lambda c: c.note.note_id)
        twin, _, annotations = pipeline.twin(
            patient_id, [c.note for c in patient_cases]
        )
        for annotation in annotations:
            annotations_by_note[annotation.note.note_id] = annotation
        reference = by_patient[patient_id][0].reference
        completeness, interop = compare_bundles(twin, reference)
        per_patient.append(
            {
                "patient_id": patient_id,
                "completeness": completeness,
                "interoperability": interop,
            }
        )

    for case in cases:
        note_id = case.note.note_id
        annotation = annotations_by_note[note_id]
        mentions = [a.mention for a in annotation.annotated]
        note_pred_mentions = [mention_key(note_id, m) for m in mentions]
        note_gold_mentions = [mention_key(note_id, g) for g in case.gold.mentions]
        predicted_mentions.extend(note_pred_mentions)
        gold_mentions.extend(note_gold_mentions)
        note_pred_relations = relation_keys(note_id, annotation.relations, mentions)
        note_gold_relations = gold_relation_keys(note_id, case.gold)
        if not config.disable_relations:
            predicted_relations.extend(note_pred_relations)
            gold_relations.extend(note_gold_relations)
        per_note.append(
            {
                "note_id": note_id,
                "predicted_mentions": len(note_pred_mentions),
                "gold_mentions": len(note_gold_mentions),
                "predicted_relations": len(note_pred_relations),
                "gold_relations": len(note_gold_relations),
            }
        )

    patients = len(per_patient)
    ner_p, ner_r, ner_f = ner_f1(predicted_mentions, gold_mentions)
    if not config.disable_relations:
        re_p, re_r, re_f = ner_f1(predicted_relations, gold_relations)
    else:
        re_p = re_r = re_f = None

    return EvaluationReport(
        ner_precision=ner_p,
        ner_recall=ner_r,
        ner_f1=ner_f,
        re_precision=re_p,
        re_recall=re_r,
        re_f1=re_f,
        semantic_completeness=sum(r["completeness"] for r in per_patient) / patients,
        interoperability=sum(r["interoperability"] for r in per_patient) / patients,
        per_note=tuple(per_note),
        per_patient=tuple(per_patient),
    )
