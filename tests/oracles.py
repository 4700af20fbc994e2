"""Brute-force oracles for the scores, validation and span extraction.

The scoring oracles re-derive every metric from first principles over
plain JSON dictionaries: exhaustive assignment search for the F1 matching,
quadratic scans instead of grouping for the bundle scores. The validation
oracle writes the profile rules out as one branch per resource type, where
the library reads them from its profile table. The extraction oracles are
the straightforward quadratic scans that the library replaced with
sorted-interval lookups: each candidate against every accepted span, each
span against every sentence, each dosage or cue against every mention of
its sentence. The whitespace oracle is the per-character loop the matcher
replaced with one regex. The lookup oracles resolve every query afresh from the
index's two maps, where the library memoises each hit on the index. The
bundle oracle builds the plain dict document that ``to_json`` renders,
where the library writes each entry straight from its resource. They
share only definitions with the library (the metric definitions, the
allowed code systems, the overlap tie-break priority, the relation types,
the surface normalization), never its code paths.
"""

from __future__ import annotations

import itertools
import re

from fhirtwin.fhir_assembly import FhirResource, TwinBundle
from fhirtwin.ner import _ETYPE_PRIORITY
from fhirtwin.normalizer import SYSTEMS_BY_TYPE
from fhirtwin.relations import Relation, RelationType
from fhirtwin.terminology import SYSTEM_PRECEDENCE, EntityType, normalize_surface

REQUIRED = {
    "Condition": ("code", "clinicalStatus", "verificationStatus", "subject"),
    "Observation": ("code", "valueString", "effectiveDateTime", "subject"),
    "MedicationRequest": (
        "medicationCodeableConcept",
        "dosageInstruction",
        "authoredOn",
        "subject",
    ),
}

CODED = ("code", "medicationCodeableConcept", "clinicalStatus", "verificationStatus")


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def max_matching_f1(predicted: list, gold: list) -> tuple[float, float, float]:
    """Exhaustively search injective prediction-to-gold assignments."""
    if len(predicted) <= len(gold):
        shorter, longer = list(predicted), list(gold)
    else:
        shorter, longer = list(gold), list(predicted)
    best = 0
    for assignment in itertools.permutations(range(len(longer)), len(shorter)):
        matches = sum(1 for i, j in enumerate(assignment) if shorter[i] == longer[j])
        best = max(best, matches)
    tp = best
    return prf(tp, len(predicted) - tp, len(gold) - tp)


def canon_field(resource: dict, field: str):
    value = resource.get(field)
    if value is None:
        return None
    if field in CODED:
        coding = value.get("coding") or []
        if not coding:
            return ("text", value.get("text", ""))
        return tuple(sorted((c.get("system", ""), c.get("code", "")) for c in coding))
    if field == "dosageInstruction":
        return tuple(d.get("text", "") for d in value)
    if field == "subject":
        return value.get("reference", "")
    return value


def resource_key(resource: dict) -> tuple:
    field = (
        "medicationCodeableConcept"
        if resource["resourceType"] == "MedicationRequest"
        else "code"
    )
    coding = (resource.get(field) or {}).get("coding") or []
    if coding:
        primary = (coding[0].get("system", ""), coding[0].get("code", ""))
    else:
        primary = ("text", (resource.get(field) or {}).get("text", ""))
    return (resource["resourceType"], primary)


def resource_to_dict(resource: FhirResource) -> dict:
    body = {"resourceType": resource.resource_type, "id": resource.id}
    body.update(resource.fields)
    return body


def bundle_to_dict(twin: TwinBundle) -> dict:
    """The Bundle document as plain dicts, which ``to_json`` renders to the
    bytes ``bundle_to_json`` writes entry by entry."""
    return {
        "resourceType": "Bundle",
        "type": twin.bundle_type,
        "entry": [{"resource": resource_to_dict(r)} for r in twin.entries],
    }


def _non_patient(twin: TwinBundle) -> list[dict]:
    return [
        resource_to_dict(r) for r in twin.entries if r.resource_type != "Patient"
    ]


def _pair_up(gen: list[dict], ref: list[dict]) -> list[tuple[dict, dict]]:
    """Quadratic-scan pairing by key, both sides consumed in id order."""
    gen_sorted = sorted(gen, key=lambda r: r.get("id", ""))
    ref_sorted = sorted(ref, key=lambda r: r.get("id", ""))
    used = [False] * len(gen_sorted)
    pairs = []
    for ref_resource in ref_sorted:
        for i, gen_resource in enumerate(gen_sorted):
            if used[i]:
                continue
            if resource_key(gen_resource) == resource_key(ref_resource):
                used[i] = True
                pairs.append((gen_resource, ref_resource))
                break
    return pairs


def _pair_agreement(gen_resource: dict, ref_resource: dict) -> tuple[int, int]:
    required = REQUIRED[ref_resource["resourceType"]]
    equal = 0
    for field in required:
        ref_value = canon_field(ref_resource, field)
        if ref_value is not None and canon_field(gen_resource, field) == ref_value:
            equal += 1
    return equal, len(required)


def oracle_completeness(generated: TwinBundle, reference: TwinBundle) -> float:
    gen, ref = _non_patient(generated), _non_patient(reference)
    denominator = sum(len(REQUIRED[r["resourceType"]]) for r in ref)
    if denominator == 0:
        return 1.0
    numerator = 0
    for gen_resource, ref_resource in _pair_up(gen, ref):
        numerator += _pair_agreement(gen_resource, ref_resource)[0]
    return numerator / denominator


def oracle_interoperability(
    generated: TwinBundle, reference: TwinBundle, match_weight: float = 0.5
) -> float:
    gen, ref = _non_patient(generated), _non_patient(reference)
    if not gen and not ref:
        return 1.0
    if not gen or not ref:
        return 0.0
    pairs = _pair_up(gen, ref)
    matched = len(pairs)
    _, _, f1_match = prf(matched, len(gen) - matched, len(ref) - matched)
    if pairs:
        agreement = sum(
            equal / total for equal, total in (_pair_agreement(g, r) for g, r in pairs)
        ) / len(pairs)
    else:
        agreement = 0.0
    return match_weight * f1_match + (1 - match_weight) * agreement


# ---------------------------------------------------------------------------
# Extraction: quadratic scans
# ---------------------------------------------------------------------------


def oracle_collapse_whitespace(text):
    """Replace each ``str.isspace`` run with a single space, keeping other chars."""
    parts = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            parts.append(" ")
            while i < n and text[i].isspace():
                i += 1
        else:
            parts.append(text[i])
            i += 1
    return "".join(parts)


def oracle_containing_sentence(sentences, start, end):
    """Index of the first sentence holding ``[start, end)``, or ``None``."""
    for sentence in sentences:
        if sentence.start <= start and end <= sentence.end:
            return sentence.index
    return None


def oracle_resolve_overlaps(candidates):
    """Greedy acceptance, testing each candidate against every accepted span."""
    ordered = sorted(
        set(candidates),
        key=lambda c: (-(c[1] - c[0]), c[0], _ETYPE_PRIORITY[c[2]], c[1]),
    )
    accepted = []
    for start, end, etype in ordered:
        if all(end <= a_start or start >= a_end for a_start, a_end, _ in accepted):
            accepted.append((start, end, etype))
    accepted.sort(key=lambda c: c[0])
    return accepted


def nearest_preceding(mentions, position, etypes):
    best = None
    for mention in mentions:
        if mention.etype in etypes and mention.end <= position:
            if best is None or mention.start > best.start:
                best = mention
    return best


def nearest_following(mentions, position, etypes):
    best = None
    for mention in mentions:
        if mention.etype in etypes and mention.start >= position:
            if best is None or mention.start < best.start:
                best = mention
    return best


_MED = frozenset({EntityType.MEDICATION})
_SYMPTOM_HEADS = frozenset({EntityType.OBSERVATION, EntityType.CONDITION})
_CONDITION = frozenset({EntityType.CONDITION})


def oracle_extract_relations(annotated, sentences, note_text, cues):
    """The relation rules, scanning the whole sentence for every lookup."""
    mentions = [a.mention for a in annotated]
    start_of = {m.mention_id: m.start for m in mentions}
    cue_patterns = [
        re.compile(r"\b" + re.escape(cue) + r"\b", re.IGNORECASE) for cue in cues
    ]
    found = {}
    for sentence in sentences:
        group = sorted(
            (m for m in mentions if m.sentence_index == sentence.index),
            key=lambda m: m.start,
        )
        for mention in group:
            if mention.etype != EntityType.DOSAGE:
                continue
            med = nearest_preceding(group, mention.start, _MED)
            if med is not None:
                relation = Relation(
                    RelationType.HAS_DOSAGE, med.mention_id, mention.mention_id
                )
                found.setdefault(
                    relation, (sentence.index, start_of[med.mention_id], "has-dosage")
                )
        sentence_text = note_text[sentence.start : sentence.end]
        for cue_pattern in cue_patterns:
            for match in cue_pattern.finditer(sentence_text):
                cue_start = sentence.start + match.start()
                cue_end = sentence.start + match.end()
                head = nearest_preceding(group, cue_start, _SYMPTOM_HEADS)
                tail = nearest_following(group, cue_end, _CONDITION)
                if head is None or tail is None or head.mention_id == tail.mention_id:
                    continue
                relation = Relation(
                    RelationType.SYMPTOM_OF, head.mention_id, tail.mention_id
                )
                found.setdefault(
                    relation, (sentence.index, start_of[head.mention_id], "symptom-of")
                )
    return sorted(found, key=found.__getitem__)


# ---------------------------------------------------------------------------
# Validation: one branch per resource type
# ---------------------------------------------------------------------------

#: Coded field, coding rule and entity type (for its allowed systems).
_CODING = {
    "Condition": ("code", "C1", EntityType.CONDITION),
    "Observation": ("code", "O1", EntityType.OBSERVATION),
    "MedicationRequest": ("medicationCodeableConcept", "M1", EntityType.MEDICATION),
}


def _oracle_coding(resource, issues: list) -> None:
    code_field, rule, etype = _CODING[resource.resource_type]
    allowed = {system.uri for system in SYSTEMS_BY_TYPE[etype]}
    coding = (resource.fields.get(code_field) or {}).get("coding") or []
    if not coding:
        issues.append((resource.id, rule, "ERROR", f"{code_field} has no coding"))
        return
    for entry in coding:
        system = entry.get("system", "")
        if system not in allowed:
            issues.append(
                (
                    resource.id,
                    rule,
                    "ERROR",
                    f"{code_field} uses disallowed system {system!r}",
                )
            )
        if not entry.get("code"):
            issues.append(
                (resource.id, rule, "ERROR", f"{code_field} coding lacks a code")
            )


def oracle_validate(
    resources, patient, default_timestamp=None, placeholder_dosage="as directed"
) -> list[tuple]:
    """The profile rules written out per resource type, as
    ``(resource_id, rule, severity, message)`` tuples in issue order."""
    issues: list[tuple] = []
    expected_subject = f"Patient/{patient.id}"
    for resource in resources:
        fields = resource.fields
        if resource.resource_type == "Patient":
            continue

        subject_ref = (fields.get("subject") or {}).get("reference", "")
        if subject_ref != expected_subject:
            issues.append(
                (
                    resource.id,
                    "S1",
                    "ERROR",
                    f"subject {subject_ref!r} does not reference the bundle patient",
                )
            )

        if resource.resource_type == "Condition":
            _oracle_coding(resource, issues)
            if not fields.get("clinicalStatus") or not fields.get("verificationStatus"):
                issues.append(
                    (
                        resource.id,
                        "C2",
                        "ERROR",
                        "clinicalStatus and verificationStatus are required",
                    )
                )
        elif resource.resource_type == "Observation":
            _oracle_coding(resource, issues)
            if not fields.get("valueString") or not fields.get("effectiveDateTime"):
                issues.append(
                    (
                        resource.id,
                        "O2",
                        "ERROR",
                        "a value and an effectiveDateTime are required",
                    )
                )
            elif default_timestamp and fields["effectiveDateTime"] == default_timestamp:
                issues.append(
                    (
                        resource.id,
                        "W2",
                        "WARNING",
                        "effectiveDateTime fell back to the default instant",
                    )
                )
        elif resource.resource_type == "MedicationRequest":
            _oracle_coding(resource, issues)
            dosage = fields.get("dosageInstruction") or []
            if not dosage:
                issues.append(
                    (
                        resource.id,
                        "M1",
                        "ERROR",
                        "at least one dosageInstruction is required",
                    )
                )
            elif any(d.get("text") == placeholder_dosage for d in dosage):
                issues.append(
                    (resource.id, "W1", "WARNING", "dosageInstruction is a placeholder")
                )
            if not fields.get("authoredOn"):
                issues.append((resource.id, "M2", "ERROR", "authoredOn is required"))
            elif default_timestamp and fields["authoredOn"] == default_timestamp:
                issues.append(
                    (
                        resource.id,
                        "W2",
                        "WARNING",
                        "authoredOn fell back to the default instant",
                    )
                )
    return issues


# ---------------------------------------------------------------------------
# Terminology lookup and normalization, resolved afresh on every call
# ---------------------------------------------------------------------------


def _direct_and_synonym(index, surface):
    key = normalize_surface(surface)
    canonical = index.synonym_map.get(key)
    synonym = index.entries.get(canonical, ()) if canonical is not None else ()
    return index.entries.get(key, ()), synonym


def oracle_lookup(index, surface):
    """Entries of the surface and of its canonical form, one per identity."""
    direct, synonym = _direct_and_synonym(index, surface)
    unique = []
    for entry in direct + synonym:
        if not any(
            (e.system, e.code, e.entity_type)
            == (entry.system, entry.code, entry.entity_type)
            for e in unique
        ):
            unique.append(entry)
    return sorted(unique, key=lambda e: (SYSTEM_PRECEDENCE[e.system], e.code))


def oracle_normalize_key(key, etype, index):
    """(system, code, display, score) of the best concept, or None."""
    direct, synonym = _direct_and_synonym(index, key)
    allowed = SYSTEMS_BY_TYPE[etype]
    best = None
    for entries, score in ((direct, 1.0), (synonym, 0.9)):
        for entry in entries:
            if entry.entity_type != etype or entry.system not in allowed:
                continue
            rank = (-score, allowed.index(entry.system), entry.code)
            if best is None or rank < best[0]:
                best = (rank, (entry.system, entry.code, entry.display, score))
    return None if best is None else best[1]
