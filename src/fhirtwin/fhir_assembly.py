"""FHIR R4 resource construction, profile validation, and bundling.

The digital-twin profile is intentionally small: Condition, Observation
and MedicationRequest resources hang off a single Patient. Resource ids
are content hashes of (patient, type, code, span start), so identical
inputs always serialize to identical bytes. ``PROFILE`` states the profile
once, and validation, bundle order and the evaluator's required fields are
read from it; resources failing any ERROR rule are kept out of the bundle.

Resources share their coded blocks. ``assemble`` builds the
``code``/``medicationCodeableConcept`` block once per (concept, text) and
the ``subject`` block once per call, and every Condition holds the same
``clinicalStatus`` and ``verificationStatus`` constants. These shared
blocks are ``ReadOnlyDict``/``ReadOnlyList`` at every level: a write raises
``TypeError``, while each still compares equal to its plain ``dict``/``list``
form, and ``dict(block)`` or ``json.loads(json.dumps(block))`` give mutable
copies. Because they never change, ``to_json`` renders each one once per
indentation and reuses the text; plain containers are rendered every time.
``assemble`` also splits each distinct observation text once per call.

``bundle_to_json`` writes the Bundle document straight from the
``FhirResource`` entries, with no dict per entry or resource, and sends
every field value through the same renderer and memo as ``to_json``, so
its bytes are those of ``to_json`` over the equivalent dicts.
``FhirResource`` and ``ValidationIssue`` are frozen slotted records.

Rule codes:

* C1  Condition.code carries a SNOMED or ICD-10 coding
* C2  Condition has clinicalStatus and verificationStatus
* O1  Observation.code carries a LOINC or SNOMED coding
* O2  Observation has a value and an effectiveDateTime
* M1  MedicationRequest is RxNorm-coded with at least one dosageInstruction
* M2  MedicationRequest has authoredOn
* S1  subject references the bundle's Patient
* W1  dosageInstruction is the "as directed" placeholder (warning)
* W2  timestamp fell back to the configured default instant (warning)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from fhirtwin.ner import ClinicalNote, EntityType
from fhirtwin.normalizer import (
    AnnotatedMention,
    NormalizedConcept,
    SYSTEMS_BY_TYPE,
    split_observation_text,
)
from fhirtwin.relations import Relation, RelationType

CLINICAL_STATUS_URI = "http://terminology.hl7.org/CodeSystem/condition-clinical"
VERIFICATION_STATUS_URI = "http://terminology.hl7.org/CodeSystem/condition-ver-status"

DEFAULT_TIMESTAMP = "2024-01-01T00:00:00Z"
PLACEHOLDER_DOSAGE = "as directed"


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} cannot be changed")


class ReadOnlyDict(dict):
    """A ``dict`` whose writes raise ``TypeError``; equal to its plain copy."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


class ReadOnlyList(list):
    """A ``list`` whose writes raise ``TypeError``; equal to its plain copy."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return (type(self), (list(self),))


def read_only(value):
    """``value`` with every dict and list in it made read-only."""
    if isinstance(value, dict):
        return ReadOnlyDict({key: read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        return ReadOnlyList(read_only(item) for item in value)
    return value


CLINICAL_STATUS_ACTIVE = read_only(
    {"coding": [{"system": CLINICAL_STATUS_URI, "code": "active"}]}
)
VERIFICATION_STATUS_CONFIRMED = read_only(
    {"coding": [{"system": VERIFICATION_STATUS_URI, "code": "confirmed"}]}
)


@dataclass(frozen=True)
class ResourceProfile:
    """What the digital-twin profile requires of one resource type.

    ``code_rule`` requires ``code_field`` to hold at least one coding, each
    with a code and a system that ``SYSTEMS_BY_TYPE`` allows for
    ``entity_type``. Each of ``rules`` is ``(rule, required fields,
    message)`` and fails with ``message`` unless every field is non-empty.
    W2 compares ``time_field``, when set, with the default timestamp.
    """

    entity_type: EntityType
    code_field: str
    code_rule: str
    rules: tuple[tuple[str, tuple[str, ...], str], ...]
    time_field: Optional[str] = None
    allowed_systems: frozenset[str] = field(init=False)

    def __post_init__(self):
        allowed = frozenset(s.uri for s in SYSTEMS_BY_TYPE[self.entity_type])
        object.__setattr__(self, "allowed_systems", allowed)


#: The digital-twin profile by resource type, in bundle order after the
#: Patient. A type missing here is checked against S1 only.
PROFILE: dict[str, ResourceProfile] = {
    "Condition": ResourceProfile(
        EntityType.CONDITION,
        "code",
        "C1",
        (
            (
                "C2",
                ("clinicalStatus", "verificationStatus"),
                "clinicalStatus and verificationStatus are required",
            ),
        ),
    ),
    "Observation": ResourceProfile(
        EntityType.OBSERVATION,
        "code",
        "O1",
        (
            (
                "O2",
                ("valueString", "effectiveDateTime"),
                "a value and an effectiveDateTime are required",
            ),
        ),
        time_field="effectiveDateTime",
    ),
    "MedicationRequest": ResourceProfile(
        EntityType.MEDICATION,
        "medicationCodeableConcept",
        "M1",
        (
            (
                "M1",
                ("dosageInstruction",),
                "at least one dosageInstruction is required",
            ),
            ("M2", ("authoredOn",), "authoredOn is required"),
        ),
        time_field="authoredOn",
    ),
}


class EmptyPatientIdError(Exception):
    """build_patient() requires a non-empty patient identifier."""


class Severity(Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"

    __hash__ = object.__hash__  # as for terminology.CodeSystem


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    resource_id: str
    rule: str
    severity: Severity
    message: str


@dataclass(frozen=True, slots=True)
class FhirResource:
    resource_type: str
    id: str
    fields: dict

    @property
    def code_field(self) -> str:
        """Name of the field that holds this resource's coded concept."""
        profile = PROFILE.get(self.resource_type)
        return profile.code_field if profile else "code"

    def concept(self) -> dict:
        return self.fields.get(self.code_field) or {}

    def coding(self) -> list[dict]:
        return self.concept().get("coding") or []

    def primary_code(self) -> Optional[tuple[str, str]]:
        """(system URI, code) of the first coding, or None when uncoded."""
        coding = self.coding()
        if not coding:
            return None
        return (coding[0].get("system", ""), coding[0].get("code", ""))


@dataclass(frozen=True)
class TwinBundle:
    entries: tuple[FhirResource, ...]
    bundle_type: str = "collection"

    def patient(self) -> FhirResource:
        for entry in self.entries:
            if entry.resource_type == "Patient":
                return entry
        raise ValueError("bundle has no Patient entry")

    def patient_identifier(self) -> str:
        identifiers = self.patient().fields.get("identifier") or [{}]
        return identifiers[0].get("value", "")


def resource_id(
    patient_id: str, resource_type: str, code_key: str, span_start: object
) -> str:
    digest = hashlib.sha256(
        f"{patient_id}|{resource_type}|{code_key}|{span_start}".encode("utf-8")
    ).hexdigest()
    return digest[:16]


def _codeable_concept(concept: Optional[NormalizedConcept], text: str) -> dict:
    if concept is None:
        return ReadOnlyDict(text=text)
    coding = ReadOnlyDict(
        system=concept.system.uri, code=concept.code, display=concept.display
    )
    return ReadOnlyDict(coding=ReadOnlyList((coding,)), text=text)


def _code_key(concept: Optional[NormalizedConcept], text: str) -> str:
    if concept is None:
        return f"text:{text}"
    return f"{concept.system.uri}#{concept.code}"


def build_patient(patient_id: str) -> FhirResource:
    """The single Patient resource every other resource references."""
    if not patient_id:
        raise EmptyPatientIdError("patient_id must be non-empty")
    return FhirResource(
        resource_type="Patient",
        id=resource_id(patient_id, "Patient", patient_id, ""),
        fields={"identifier": [{"value": patient_id}]},
    )


class SharedBlocks:
    """The read-only blocks that the resources built for one patient share.

    ``subject`` references the patient; ``concept`` builds the coded block
    and the identity key of a (concept, text) pair on first use and then
    returns the same pair. ``assemble`` makes one per call and the
    synthesizer one per record.
    """

    def __init__(self, patient: FhirResource):
        self.subject = ReadOnlyDict(reference=f"Patient/{patient.id}")
        self._concepts: dict = {}

    def concept(
        self, concept: Optional[NormalizedConcept], text: str
    ) -> tuple[dict, str]:
        key = (concept, text)
        shared = self._concepts.get(key)
        if shared is None:
            shared = self._concepts[key] = (
                _codeable_concept(concept, text),
                _code_key(concept, text),
            )
        return shared


def condition_resource(
    patient_id: str,
    concept: Optional[NormalizedConcept],
    text: str,
    span_start: object,
    blocks: SharedBlocks,
) -> FhirResource:
    code, code_key = blocks.concept(concept, text)
    return FhirResource(
        resource_type="Condition",
        id=resource_id(patient_id, "Condition", code_key, span_start),
        fields={
            "clinicalStatus": CLINICAL_STATUS_ACTIVE,
            "verificationStatus": VERIFICATION_STATUS_CONFIRMED,
            "code": code,
            "subject": blocks.subject,
        },
    )


def observation_resource(
    patient_id: str,
    concept: Optional[NormalizedConcept],
    name_text: str,
    value: str,
    effective: str,
    span_start: object,
    blocks: SharedBlocks,
) -> FhirResource:
    code, code_key = blocks.concept(concept, name_text)
    fields: dict = {"code": code}
    if value:
        fields["valueString"] = value
    fields["effectiveDateTime"] = effective
    fields["subject"] = blocks.subject
    return FhirResource(
        resource_type="Observation",
        id=resource_id(patient_id, "Observation", code_key, span_start),
        fields=fields,
    )


def medication_request_resource(
    patient_id: str,
    concept: Optional[NormalizedConcept],
    text: str,
    dosage_texts: Sequence[str],
    authored_on: str,
    span_start: object,
    blocks: SharedBlocks,
) -> FhirResource:
    code, code_key = blocks.concept(concept, text)
    return FhirResource(
        resource_type="MedicationRequest",
        id=resource_id(patient_id, "MedicationRequest", code_key, span_start),
        fields={
            "medicationCodeableConcept": code,
            "dosageInstruction": [{"text": t} for t in dosage_texts],
            "authoredOn": authored_on,
            "subject": blocks.subject,
        },
    )


def assemble(
    note: ClinicalNote,
    annotated: Sequence[AnnotatedMention],
    rels: Sequence[Relation],
    patient: FhirResource,
    default_timestamp: str = DEFAULT_TIMESTAMP,
    placeholder_dosage: str = PLACEHOLDER_DOSAGE,
    naive_mapping: bool = False,
) -> list[FhirResource]:
    """Turn one note's annotated mentions and relations into resources.

    Mentions without a concept normally produce nothing; in naive-mapping
    mode they produce display-text resources with no coding (which the
    validator will then reject from the bundle).
    """
    timestamp = note.timestamp or default_timestamp
    mention_by_id = {a.mention.mention_id: a.mention for a in annotated}
    dosages: dict[str, list[tuple[int, str]]] = {}
    for relation in rels:
        if relation.rtype != RelationType.HAS_DOSAGE:
            continue
        tail = mention_by_id.get(relation.tail)
        if tail is not None:
            dosages.setdefault(relation.head, []).append((tail.start, tail.text))

    blocks = SharedBlocks(patient)
    observation_parts: dict[str, tuple[str, str]] = {}
    resources: list[FhirResource] = []
    for item in annotated:
        mention, concept = item.mention, item.concept
        if mention.etype in (EntityType.DOSAGE, EntityType.TEMPORAL):
            continue
        if concept is None and not naive_mapping:
            continue
        patient_id, start = note.patient_id, mention.start
        if mention.etype == EntityType.CONDITION:
            resources.append(
                condition_resource(patient_id, concept, mention.text, start, blocks)
            )
        elif mention.etype == EntityType.OBSERVATION:
            parts = observation_parts.get(mention.text)
            if parts is None:
                parts = observation_parts[mention.text] = split_observation_text(
                    mention.text
                )
            name, value = parts
            resources.append(
                observation_resource(
                    patient_id, concept, name, value, timestamp, start, blocks
                )
            )
        elif mention.etype == EntityType.MEDICATION:
            attached = sorted(dosages.get(mention.mention_id, []))
            dosage_texts = [text for _, text in attached] or [placeholder_dosage]
            resources.append(
                medication_request_resource(
                    patient_id,
                    concept,
                    mention.text,
                    dosage_texts,
                    timestamp,
                    start,
                    blocks,
                )
            )
    return resources


def validate(
    resources: Iterable[FhirResource],
    patient: FhirResource,
    default_timestamp: Optional[str] = None,
    placeholder_dosage: str = PLACEHOLDER_DOSAGE,
) -> list[ValidationIssue]:
    """Check every resource against the profile rules; issues are the output.

    ERROR issues exclude a resource from the bundle downstream; WARNING
    issues are informational. Passing the configured ``default_timestamp``
    lets the validator flag fallback timestamps with W2.
    """
    issues: list[ValidationIssue] = []
    expected_subject = f"Patient/{patient.id}"
    for resource in resources:
        fields = resource.fields
        if resource.resource_type == "Patient":
            continue

        subject_ref = (fields.get("subject") or {}).get("reference", "")
        if subject_ref != expected_subject:
            issues.append(
                ValidationIssue(
                    resource.id,
                    "S1",
                    Severity.ERROR,
                    f"subject {subject_ref!r} does not reference the bundle patient",
                )
            )
        profile = PROFILE.get(resource.resource_type)
        if profile is None:
            continue

        code_field, rule = profile.code_field, profile.code_rule
        coding = (fields.get(code_field) or {}).get("coding") or []
        if not coding:
            issues.append(
                ValidationIssue(
                    resource.id, rule, Severity.ERROR, f"{code_field} has no coding"
                )
            )
        for entry in coding:
            system = entry.get("system", "")
            if system not in profile.allowed_systems:
                issues.append(
                    ValidationIssue(
                        resource.id,
                        rule,
                        Severity.ERROR,
                        f"{code_field} uses disallowed system {system!r}",
                    )
                )
            if not entry.get("code"):
                issues.append(
                    ValidationIssue(
                        resource.id,
                        rule,
                        Severity.ERROR,
                        f"{code_field} coding lacks a code",
                    )
                )

        time_field = profile.time_field
        for rule, required, message in profile.rules:
            for name in required:
                if not fields.get(name):
                    issues.append(
                        ValidationIssue(resource.id, rule, Severity.ERROR, message)
                    )
                    break
            else:  # every required field is present
                if time_field in required:
                    if default_timestamp and fields[time_field] == default_timestamp:
                        issues.append(
                            ValidationIssue(
                                resource.id,
                                "W2",
                                Severity.WARNING,
                                f"{time_field} fell back to the default instant",
                            )
                        )
                elif "dosageInstruction" in required and any(
                    d.get("text") == placeholder_dosage
                    for d in fields["dosageInstruction"]
                ):
                    issues.append(
                        ValidationIssue(
                            resource.id,
                            "W1",
                            Severity.WARNING,
                            "dosageInstruction is a placeholder",
                        )
                    )
    return issues


def bundle(
    patient: FhirResource,
    resources: Sequence[FhirResource],
    issues: Sequence[ValidationIssue],
) -> TwinBundle:
    """Group the patient and every ERROR-free resource into one bundle.

    Entries are ordered Patient, then one group per ``PROFILE`` type in its
    order (Conditions, Observations, MedicationRequests), each group sorted
    by id; duplicate ids (the same fact stated in several notes) collapse to
    their first occurrence.
    """
    rejected = {i.resource_id for i in issues if i.severity == Severity.ERROR}
    entries: list[FhirResource] = [patient]
    seen: set[str] = {patient.id}
    for resource_type in PROFILE:
        group = sorted(
            (r for r in resources if r.resource_type == resource_type),
            key=lambda r: r.id,
        )
        for resource in group:
            if resource.id in rejected or resource.id in seen:
                continue
            seen.add(resource.id)
            entries.append(resource)
    return TwinBundle(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def to_json(value) -> str:
    """Return ``json.dumps(value, indent=2) + "\\n"``, built without the
    stdlib's pure-Python indent encoder.

    ``value`` is a JSON value built from ``dict`` with ``str`` keys,
    ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool`` and ``None``.
    Strings and keys go through the C ASCII escaper the stdlib uses, and
    every other scalar through ``json.dumps``, so the bytes match. A key
    that is not a ``str`` raises ``TypeError`` from the escaper, where the
    stdlib would coerce it; every writer in this package builds its dicts
    with ``str`` keys only. A ``ReadOnlyDict`` or ``ReadOnlyList`` is
    rendered once per indentation and its text reused wherever it recurs:
    keying that memo on ``id()`` is sound because such a block cannot change
    and ``value`` keeps it alive until the call returns.
    """
    parts: list[str] = []
    _emit(value, "\n", parts.append, {})
    parts.append("\n")
    return "".join(parts)


_READ_ONLY_TYPES = frozenset({ReadOnlyDict, ReadOnlyList})


def _emit(value, newline: str, emit, rendered: Optional[dict]) -> None:
    """Append ``value``'s text to ``emit``; ``rendered`` memoises read-only
    blocks by (id, indentation), and is None inside a block being memoised,
    whose nested blocks are rendered into its text."""
    if isinstance(value, str):
        emit(_encode_str(value))
    elif rendered is not None and type(value) in _READ_ONLY_TYPES:
        key = (id(value), newline)
        text = rendered.get(key)
        if text is None:
            parts: list[str] = []
            _emit(value, newline, parts.append, None)
            text = rendered[key] = "".join(parts)
        emit(text)
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "{" + inner
        for key, item in value.items():
            emit(separator)
            emit(_encode_str(key))
            emit(": ")
            _emit(item, inner, emit, rendered)
            separator = comma
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        separator = "[" + inner
        for item in value:
            emit(separator)
            _emit(item, inner, emit, rendered)
            separator = comma
        emit(newline + "]")
    else:
        emit(json.dumps(value))


#: Text between the fields of a bundle entry's resource, and the text that
#: opens the first and each later entry up to its ``resourceType`` value.
_FIELD_NEWLINE = "\n        "
_FIELD_SEPARATOR = "," + _FIELD_NEWLINE
_ENTRY_OPEN = '{\n      "resource": {' + _FIELD_NEWLINE + '"resourceType": '


def bundle_to_json(twin: TwinBundle) -> str:
    """The Bundle document of ``twin`` as ``to_json`` writes it.

    Each entry is rendered straight from its ``FhirResource``, with no
    intermediate dict: ``resourceType`` and ``id`` first, then the fields,
    where a field named ``resourceType`` or ``id`` takes that key's place
    as ``dict.update`` would. Every value goes through ``_emit`` with one
    read-only memo, so a shared block is rendered once.
    """
    parts = ['{\n  "resourceType": "Bundle",\n  "type": ']
    emit = parts.append
    rendered: dict = {}
    _emit(twin.bundle_type, "\n  ", emit, rendered)
    emit(',\n  "entry": ')
    if not twin.entries:
        emit("[]\n}\n")
        return "".join(parts)
    separator = "[\n    " + _ENTRY_OPEN
    for resource in twin.entries:
        fields = resource.fields
        emit(separator)
        resource_type = fields.get("resourceType", resource.resource_type)
        _emit(resource_type, _FIELD_NEWLINE, emit, rendered)
        emit(_FIELD_SEPARATOR + '"id": ')
        _emit(fields.get("id", resource.id), _FIELD_NEWLINE, emit, rendered)
        for key, value in fields.items():
            if key != "resourceType" and key != "id":
                emit(_FIELD_SEPARATOR)
                emit(_encode_str(key))
                emit(": ")
                _emit(value, _FIELD_NEWLINE, emit, rendered)
        emit("\n      }\n    }")
        separator = ",\n    " + _ENTRY_OPEN
    emit("\n  ]\n}\n")
    return "".join(parts)


def resource_from_dict(body: dict) -> FhirResource:
    fields = {k: v for k, v in body.items() if k not in ("resourceType", "id")}
    return FhirResource(
        resource_type=body["resourceType"], id=body.get("id", ""), fields=fields
    )


def bundle_from_dict(body: dict) -> TwinBundle:
    if body.get("resourceType") != "Bundle":
        raise ValueError("not a Bundle document")
    entries = tuple(
        resource_from_dict(entry["resource"]) for entry in body.get("entry", [])
    )
    return TwinBundle(entries=entries, bundle_type=body.get("type", "collection"))


def bundle_from_json(text: str) -> TwinBundle:
    return bundle_from_dict(json.loads(text))


def issues_to_json(issues: Sequence[ValidationIssue]) -> str:
    rows = [
        {
            "resource_id": issue.resource_id,
            "rule": issue.rule,
            "severity": issue.severity.value,
            "message": issue.message,
        }
        for issue in issues
    ]
    return to_json(rows)
