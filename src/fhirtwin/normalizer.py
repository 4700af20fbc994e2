"""Mention-to-code normalization against a terminology index.

Each codeable mention maps to at most one concept. Exact surface matches
score 1.0, synonym-resolved matches 0.9; ties fall back to per-type system
preference (SNOMED over ICD-10 for conditions, LOINC over SNOMED for
observations) and finally to the smaller code. Dosage and temporal
mentions never carry codes; they shape resource structure instead.

``normalize_all`` normalizes each distinct (text, entity type) once per
call and hands the same concept to every mention that repeats it; the
memo lives only for that call. ``NormalizedConcept`` and
``AnnotatedMention`` are frozen slotted records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from fhirtwin.ner import EntityMention
from fhirtwin.terminology import (
    CODEABLE_TYPES,
    CodeSystem,
    ConceptEntry,
    EntityType,
    Resolution,
    TerminologyIndex,
)

EXACT_SCORE = 1.0
SYNONYM_SCORE = 0.9

#: Code systems a concept may use, per entity type, in preference order.
SYSTEMS_BY_TYPE: dict[EntityType, tuple[CodeSystem, ...]] = {
    EntityType.CONDITION: (CodeSystem.SNOMED, CodeSystem.ICD10),
    EntityType.MEDICATION: (CodeSystem.RXNORM,),
    EntityType.OBSERVATION: (CodeSystem.LOINC, CodeSystem.SNOMED),
}

#: Unit words that count as part of a trailing observation value.
VALUE_UNITS = frozenset(
    {
        "mmhg",
        "bpm",
        "%",
        "mg/dl",
        "mmol/l",
        "meq/l",
        "g/dl",
        "k/ul",
        "x10^9/l",
        "u/l",
        "ng/ml",
        "pg/ml",
        "kg",
        "lb",
        "lbs",
        "cm",
        "f",
        "c",
        "/min",
        "sec",
        "mm/hr",
    }
)

_CHUNK = re.compile(r"\S+")


class TypeMismatchError(Exception):
    """normalize() was called on a mention type that never carries codes."""


@dataclass(frozen=True, slots=True)
class NormalizedConcept:
    system: CodeSystem
    code: str
    display: str
    score: float


@dataclass(frozen=True, slots=True)
class AnnotatedMention:
    mention: EntityMention
    concept: Optional[NormalizedConcept]


def split_observation_text(text: str) -> tuple[str, str]:
    """Split an observation span into (name, trailing value) parts.

    The value part is the maximal trailing run of whitespace-separated
    chunks that start with a digit or are a known unit word, so names with
    embedded digits ("HbA1c", "SpO2") stay on the name side.
    ``"BP 145/92"`` becomes ``("BP", "145/92")``; spans without a trailing
    value return the full text and an empty value.
    """
    chunks = list(_CHUNK.finditer(text))
    split_at = len(chunks)
    for match in reversed(chunks):
        chunk = match.group()
        if chunk[0].isdigit() or chunk.casefold() in VALUE_UNITS:
            split_at -= 1
        else:
            break
    if split_at == 0 or split_at == len(chunks):
        return text, ""
    value_start = chunks[split_at].start()
    return text[:value_start].rstrip(), text[value_start:]


def _pick(resolution: Resolution, etype: EntityType) -> Optional[NormalizedConcept]:
    """The best concept of ``etype`` among a resolution's entries, or None."""
    allowed = SYSTEMS_BY_TYPE[etype]
    scored: list[tuple[ConceptEntry, float]] = []
    seen: set[tuple[CodeSystem, str]] = set()
    for entries, score in (
        (resolution.exact, EXACT_SCORE),
        (resolution.via_synonym, SYNONYM_SCORE),
    ):
        for entry in entries:
            if entry.entity_type != etype or entry.system not in allowed:
                continue
            if (entry.system, entry.code) in seen:
                continue
            seen.add((entry.system, entry.code))
            scored.append((entry, score))
    if not scored:
        return None
    preference = {system: rank for rank, system in enumerate(allowed)}
    entry, score = min(
        scored, key=lambda pair: (-pair[1], preference[pair[0].system], pair[0].code)
    )
    return NormalizedConcept(entry.system, entry.code, entry.display, score)


def normalize_key(
    key: str, etype: EntityType, index: TerminologyIndex
) -> Optional[NormalizedConcept]:
    """Select the single best concept for a lookup key, or None.

    The pick is kept on the index's resolution of ``key``, so every later
    call with the same normalized key and type returns the same object.
    """
    resolution = index.resolve(key)
    if resolution is None:
        return None
    concepts = resolution.concepts
    try:
        return concepts[etype]
    except KeyError:
        concept = concepts[etype] = _pick(resolution, etype)
        return concept


def normalize(
    mention: EntityMention, index: TerminologyIndex
) -> Optional[NormalizedConcept]:
    """Map a codeable mention to its best concept, or None when unknown.

    Observation spans are keyed on their name part, with trailing value
    tokens stripped before lookup.
    """
    if mention.etype not in CODEABLE_TYPES:
        raise TypeMismatchError(
            f"{mention.etype.value} mentions do not carry concepts"
        )
    key = mention.text
    if mention.etype == EntityType.OBSERVATION:
        key, _ = split_observation_text(key)
    return normalize_key(key, mention.etype, index)


def normalize_all(
    mentions: list[EntityMention], index: TerminologyIndex
) -> list[AnnotatedMention]:
    """Order-preserving normalization; non-codeable mentions pass through.

    Each distinct (text, entity type) is normalized once per call.
    """
    concepts: dict[tuple[str, EntityType], Optional[NormalizedConcept]] = {}
    annotated: list[AnnotatedMention] = []
    for mention in mentions:
        concept = None
        if mention.etype in CODEABLE_TYPES:
            key = (mention.text, mention.etype)
            if key in concepts:
                concept = concepts[key]
            else:
                concept = concepts[key] = normalize(mention, index)
        annotated.append(AnnotatedMention(mention, concept))
    return annotated
