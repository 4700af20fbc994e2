from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin.ner import ClinicalNote, EntityMention, extract_entities
from fhirtwin.normalizer import (
    SYSTEMS_BY_TYPE,
    TypeMismatchError,
    normalize,
    normalize_all,
)
from fhirtwin.terminology import (
    CODEABLE_TYPES,
    CodeSystem,
    ConceptEntry,
    EntityType,
    TerminologyIndex,
    load_terminology,
)

from conftest import FIG1_TEXT, TABLE3_TEXT, write_dictionary


def mention(text, etype, start=0):
    return EntityMention(
        start=start,
        end=start + len(text),
        text=text,
        etype=etype,
        sentence_index=0,
        name=text,
        value="",
    )


def extracted(index, text, patterns=()):
    """The mentions ``extract_entities`` finds in a one-note ``text``."""
    return extract_entities(ClinicalNote("n1", "p1", None, text), index, patterns)


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,etype,system,code",
    [
        ("hypertension", EntityType.CONDITION, CodeSystem.SNOMED, "38341003"),
        ("type 2 diabetes", EntityType.CONDITION, CodeSystem.SNOMED, "44054006"),
        ("Lisinopril", EntityType.MEDICATION, CodeSystem.RXNORM, "29046"),
        ("BP 145/92", EntityType.OBSERVATION, CodeSystem.LOINC, "85354-9"),
        ("diabetes", EntityType.CONDITION, CodeSystem.SNOMED, "73211009"),
        ("Metformin", EntityType.MEDICATION, CodeSystem.RXNORM, "6809"),
    ],
)
def test_worked_normalizations(index, text, etype, system, code):
    (found,) = extracted(index, text + ".")
    assert (found.text, found.etype) == (text, etype)
    concept = normalize(found, index)
    assert concept is not None
    assert (concept.system, concept.code) == (system, code)
    assert concept.score == 1.0


def test_unknown_condition_is_absent(index):
    assert normalize(mention("frobnosticosis", EntityType.CONDITION), index) is None


def test_dosage_mentions_are_rejected(index):
    with pytest.raises(TypeMismatchError):
        normalize(mention("10mg daily", EntityType.DOSAGE), index)
    with pytest.raises(TypeMismatchError):
        normalize(mention("yesterday", EntityType.TEMPORAL), index)


def test_synonym_match_scores_lower(index):
    concept = normalize(mention("HTN", EntityType.CONDITION), index)
    assert concept is not None
    assert concept.code == "38341003"
    assert concept.score == 0.9


# ---------------------------------------------------------------------------
# Selection order
# ---------------------------------------------------------------------------


def test_condition_prefers_snomed_over_icd10(index):
    concept = normalize(mention("heart failure", EntityType.CONDITION), index)
    assert concept.system == CodeSystem.SNOMED


def test_observation_prefers_loinc_over_snomed(index):
    # "glucose" carries both a LOINC and a SNOMED coding in the bundled set.
    (found,) = extracted(index, "Glucose 180 mg/dL.")
    concept = normalize(found, index)
    assert (concept.system, concept.code) == (CodeSystem.LOINC, "2345-7")


def test_equal_candidates_pick_smaller_code(tmp_path):
    rows_a = [
        "twin condition,SNOMED,2222,Twin B,CONDITION",
        "twin condition,SNOMED,1111,Twin A,CONDITION",
    ]
    rows_b = list(reversed(rows_a))
    for name, rows in (("a.csv", rows_a), ("b.csv", rows_b)):
        index = load_terminology([write_dictionary(tmp_path, rows, name)])
        concept = normalize(mention("twin condition", EntityType.CONDITION), index)
        assert concept.code == "1111"


def test_system_compatibility_always_holds(pipeline, index):
    for text in (TABLE3_TEXT, FIG1_TEXT):
        note = ClinicalNote("n1", "p1", None, text)
        for annotated in normalize_all(
            extract_entities(note, index, pipeline.patterns), index
        ):
            if annotated.concept is not None:
                allowed = SYSTEMS_BY_TYPE[annotated.mention.etype]
                assert annotated.concept.system in allowed


# ---------------------------------------------------------------------------
# normalize_all
# ---------------------------------------------------------------------------


def test_normalize_all_preserves_order_and_length(index):
    mentions = [
        mention("diabetes", EntityType.CONDITION, 0),
        mention("Metformin", EntityType.MEDICATION, 20),
        mention("500mg twice daily", EntityType.DOSAGE, 40),
    ]
    annotated = normalize_all(mentions, index)
    assert [a.mention for a in annotated] == mentions
    assert annotated[0].concept.code == "73211009"
    assert annotated[1].concept.code == "6809"
    assert annotated[2].concept is None


def test_normalize_all_empty():
    assert normalize_all([], TerminologyIndex()) == []


def test_normalize_all_keeps_unknowns_as_slots(index):
    mentions = [
        mention("diabetes", EntityType.CONDITION, 0),
        mention("frobnosticosis", EntityType.CONDITION, 20),
    ]
    annotated = normalize_all(mentions, index)
    assert len(annotated) == 2
    assert annotated[0].concept is not None
    assert annotated[1].concept is None


def test_per_mention_results_ignore_siblings(index):
    alone = normalize(mention("diabetes", EntityType.CONDITION), index)
    with_siblings = normalize_all(
        [
            mention("hypertension", EntityType.CONDITION, 0),
            mention("diabetes", EntityType.CONDITION, 20),
        ],
        index,
    )[1].concept
    assert alone == with_siblings


# ---------------------------------------------------------------------------
# Observation names and values, as extraction parts them
# ---------------------------------------------------------------------------


def observations(index, patterns, text):
    """(text, name, value) of each observation mention in a one-note ``text``."""
    return [
        (m.text, m.name, m.value)
        for m in extracted(index, text, patterns)
        if m.etype == EntityType.OBSERVATION
    ]


@pytest.mark.parametrize(
    "text,name,value",
    [
        ("BP 145/92", "BP", "145/92"),
        ("HbA1c 8.2 %", "HbA1c", "8.2 %"),
        ("Glucose 180 mg/dL", "Glucose", "180 mg/dL"),
        ("Heart rate 102 bpm", "Heart rate", "102 bpm"),
        ("SpO2 94 %", "SpO2", "94 %"),
        ("oxygen saturation", "oxygen saturation", ""),
        ("INR 2.3", "INR", "2.3"),
        ("Glucose: 180 mg/dL", "Glucose", "180 mg/dL"),
        ("BP:145/92", "BP", "145/92"),
        ("Heart rate : 88 bpm", "Heart rate", "88 bpm"),
        ("Blood  pressure 120 / 80", "Blood  pressure", "120 / 80"),
        ("O2 sat 95%", "O2 sat", "95%"),
        ("Glucose was 180 mg/dL", "Glucose", "180 mg/dL"),
        ("Heart rate of 88 bpm", "Heart rate", "88 bpm"),
        ("BP: is 120/80", "BP", "120/80"),
        ("WBC 12 x10^9/L", "WBC", "12 x10^9/L"),
        ("Platelets 250 x10^3/uL", "Platelets", "250 x10^3/uL"),
        ("Temperature 38.5°C", "Temperature", "38.5°C"),
        ("Temperature 101 °F", "Temperature", "101 °F"),
    ],
)
def test_split_observation_text(index, patterns, text, name, value):
    """``text`` ending a one-sentence note is one observation mention with
    that name and value."""
    assert observations(index, patterns, text + ".") == [(text, name, value)]


@pytest.mark.parametrize("text", ["145/92", ": 5"])
def test_a_value_without_a_name_is_no_observation(index, patterns, text):
    assert observations(index, patterns, text + ".") == []


# One surface under three entity types, reachable through a synonym too.
_SHARED_SURFACE_INDEX = TerminologyIndex(
    entries={
        "cold": (
            ConceptEntry("cold", CodeSystem.SNOMED, "1001", "Cold", EntityType.CONDITION),
            ConceptEntry("cold", CodeSystem.LOINC, "1002-3", "Cold", EntityType.OBSERVATION),
            ConceptEntry("cold", CodeSystem.RXNORM, "1003", "Cold", EntityType.MEDICATION),
        ),
    },
    synonym_map={"chill": "cold"},
)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["cold", "Cold", "chill", "cold 37 c", "flu"]),
            st.sampled_from(list(EntityType)),
        ),
        max_size=12,
    )
)
def test_normalize_all_equals_normalize_per_mention(drawn):
    mentions = [mention(text, etype, start=10 * i) for i, (text, etype) in enumerate(drawn)]
    annotated = normalize_all(mentions, _SHARED_SURFACE_INDEX)
    assert [a.mention for a in annotated] == mentions
    assert [a.concept for a in annotated] == [
        normalize(m, _SHARED_SURFACE_INDEX) if m.etype in CODEABLE_TYPES else None
        for m in mentions
    ]
