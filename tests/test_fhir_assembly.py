from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhirtwin.fhir_assembly import (
    DEFAULT_TIMESTAMP,
    PLACEHOLDER_DOSAGE,
    EmptyPatientIdError,
    FhirResource,
    ReadOnlyDict,
    ReadOnlyList,
    Severity,
    SharedBlocks,
    TwinBundle,
    assemble,
    build_patient,
    bundle,
    bundle_from_dict,
    bundle_to_json,
    issues_to_json,
    read_only,
    to_json,
    validate,
)
from fhirtwin.ner import ClinicalNote
from fhirtwin.pipeline import Pipeline
from fhirtwin.terminology import CodeSystem

from conftest import FIG1_TEXT, TABLE3_TEXT
from oracles import bundle_to_dict, oracle_validate


def annotate(pipeline, text, note_id="n1", patient_id="p1", timestamp="2023-03-01T08:30:00Z"):
    note = ClinicalNote(note_id, patient_id, timestamp, text)
    annotation = pipeline.annotate(note)
    return note, annotation


def build_resources(pipeline, text, **kwargs):
    note, annotation = annotate(pipeline, text, **kwargs)
    patient = build_patient(note.patient_id)
    resources = assemble(
        note, annotation.annotated, annotation.relations, SharedBlocks(patient)
    )
    return patient, resources


# ---------------------------------------------------------------------------
# Patient
# ---------------------------------------------------------------------------


def test_build_patient():
    patient = build_patient("p001")
    assert patient.fields["identifier"] == [{"value": "p001"}]
    assert patient.id == build_patient("p001").id
    assert patient.id != build_patient("p002").id


def test_build_patient_rejects_empty_id():
    with pytest.raises(EmptyPatientIdError):
        build_patient("")


def test_build_patient_rejects_an_id_that_cannot_name_a_file():
    with pytest.raises(EmptyPatientIdError, match="cannot name a file"):
        build_patient("\ud800")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_table3_assembly(pipeline):
    patient, resources = build_resources(pipeline, TABLE3_TEXT)
    by_type = {}
    for resource in resources:
        by_type.setdefault(resource.resource_type, []).append(resource)
    assert sorted(r.primary_code()[1] for r in by_type["Condition"]) == [
        "38341003",
        "44054006",
    ]
    observation = by_type["Observation"][0]
    assert observation.primary_code() == (CodeSystem.LOINC.uri, "85354-9")
    assert observation.fields["valueString"] == "145/92"
    assert observation.fields["effectiveDateTime"] == "2023-03-01T08:30:00Z"
    med = by_type["MedicationRequest"][0]
    assert med.primary_code() == (CodeSystem.RXNORM.uri, "29046")
    assert med.fields["dosageInstruction"] == [{"text": "10mg daily"}]
    assert med.fields["authoredOn"] == "2023-03-01T08:30:00Z"
    for resource in resources:
        assert resource.fields["subject"] == {"reference": f"Patient/{patient.id}"}


def test_empty_mentions_produce_no_resources(pipeline):
    _, resources = build_resources(pipeline, "The weather is nice")
    assert resources == []


def test_medication_without_dosage_gets_placeholder(pipeline):
    patient, resources = build_resources(pipeline, "Continue Aspirin.")
    (med,) = resources
    assert med.fields["dosageInstruction"] == [{"text": "as directed"}]
    issues = validate(resources, patient)
    assert [(i.rule, i.severity) for i in issues] == [("W1", Severity.WARNING)]


def test_words_outside_the_dictionary_make_no_resources(pipeline):
    note = ClinicalNote("n1", "p1", None, "Patient has frobnosticosis.")
    annotation = pipeline.annotate(note)
    patient = build_patient("p1")
    # An unknown word never becomes a mention, so it has nothing to assemble.
    assert annotation.annotated == ()
    assert assemble(note, annotation.annotated, (), SharedBlocks(patient)) == []


def test_naive_mapping_emits_uncoded_resources(config):
    naive = dataclasses.replace(
        config, disable_normalization=True, disable_relations=True
    )
    note = ClinicalNote("n1", "p1", None, FIG1_TEXT)
    annotation = Pipeline(naive).annotate(note)
    patient = build_patient("p1")
    resources = assemble(
        note, annotation.annotated, annotation.relations, SharedBlocks(patient)
    )
    assert {r.resource_type for r in resources} == {"Condition", "MedicationRequest"}
    for resource in resources:
        assert resource.primary_code() is None
    issues = validate(resources, patient)
    assert {i.rule for i in issues if i.severity == Severity.ERROR} == {"C1", "M1"}


# ---------------------------------------------------------------------------
# Validation rules
# ---------------------------------------------------------------------------


def golden_bundle_parts(pipeline):
    patient, resources = build_resources(pipeline, TABLE3_TEXT)
    return patient, resources


def test_golden_resources_validate_clean(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    issues = validate(resources, patient)
    assert [i for i in issues if i.severity == Severity.ERROR] == []


def drop_field(resource, field_name):
    fields = {k: v for k, v in resource.fields.items() if k != field_name}
    return type(resource)(resource.resource_type, resource.id, fields)


def swap_system(resource, field_name, uri):
    fields = json.loads(json.dumps(resource.fields))
    fields[field_name]["coding"][0]["system"] = uri
    return type(resource)(resource.resource_type, resource.id, fields)


def pick(resources, resource_type):
    return next(r for r in resources if r.resource_type == resource_type)


@pytest.mark.parametrize(
    "resource_type,mutate,expected_rule",
    [
        ("Condition", lambda r: drop_field(r, "verificationStatus"), "C2"),
        ("Condition", lambda r: drop_field(r, "clinicalStatus"), "C2"),
        ("Condition", lambda r: swap_system(r, "code", CodeSystem.RXNORM.uri), "C1"),
        ("Observation", lambda r: swap_system(r, "code", CodeSystem.RXNORM.uri), "O1"),
        ("Observation", lambda r: drop_field(r, "valueString"), "O2"),
        ("Observation", lambda r: drop_field(r, "effectiveDateTime"), "O2"),
        (
            "MedicationRequest",
            lambda r: swap_system(r, "medicationCodeableConcept", CodeSystem.LOINC.uri),
            "M1",
        ),
        (
            "MedicationRequest",
            lambda r: type(r)(r.resource_type, r.id, {**r.fields, "dosageInstruction": []}),
            "M1",
        ),
        ("MedicationRequest", lambda r: drop_field(r, "authoredOn"), "M2"),
        (
            "Observation",
            lambda r: type(r)(
                r.resource_type, r.id, {**r.fields, "subject": {"reference": "Patient/nope"}}
            ),
            "S1",
        ),
    ],
)
def test_each_violation_yields_its_rule(pipeline, resource_type, mutate, expected_rule):
    patient, resources = golden_bundle_parts(pipeline)
    victim = pick(resources, resource_type)
    mutated = [mutate(victim) if r is victim else r for r in resources]
    issues = validate(mutated, patient)
    errors = [i for i in issues if i.severity == Severity.ERROR]
    assert [i.rule for i in errors] == [expected_rule]
    assert errors[0].resource_id == victim.id
    twin = bundle(patient, mutated, issues)
    assert victim.id not in {r.id for r in twin.entries}


_PATIENT = build_patient("p1")
_TIMES = ["2023-03-01T08:30:00Z", DEFAULT_TIMESTAMP]
_codings = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "system": st.sampled_from([s.uri for s in CodeSystem] + ["urn:local"]),
            "code": st.sampled_from(["", "38341003"]),
        },
    ),
    max_size=2,
)
# Each field a resource of any profiled type may carry, with a valid value
# drawn more often than an emptied one; a field drawn as _DROP is left out.
_DROP = object()
_FIELD_VALUES = {
    "code": st.fixed_dictionaries({"coding": _codings, "text": st.just("x")}),
    "medicationCodeableConcept": st.fixed_dictionaries({"coding": _codings}),
    "clinicalStatus": st.just({"coding": [{"code": "active"}]}),
    "verificationStatus": st.just({"coding": [{"code": "confirmed"}]}),
    "valueString": st.just("145/92"),
    "effectiveDateTime": st.sampled_from(_TIMES),
    "dosageInstruction": st.lists(
        st.fixed_dictionaries(
            {"text": st.sampled_from([PLACEHOLDER_DOSAGE, "10mg daily"])}
        ),
        min_size=1,
        max_size=2,
    ),
    "authoredOn": st.sampled_from(_TIMES),
    "subject": st.sampled_from(
        [{"reference": f"Patient/{_PATIENT.id}"}, {"reference": "Patient/other"}]
    ),
}
_resources = st.builds(
    FhirResource,
    resource_type=st.sampled_from(
        ["Condition", "Observation", "MedicationRequest", "Patient", "Encounter"]
    ),
    id=st.sampled_from(["r0", "r1", "r2"]),
    fields=st.fixed_dictionaries(
        {
            name: st.one_of(
                values, values, st.sampled_from([_DROP, None, "", [], {}])
            )
            for name, values in _FIELD_VALUES.items()
        }
    ).map(lambda fields: {k: v for k, v in fields.items() if v is not _DROP}),
)


@settings(max_examples=400)
@given(
    st.lists(_resources, max_size=5),
    st.sampled_from([None, DEFAULT_TIMESTAMP, _TIMES[0]]),
)
def test_validate_matches_per_type_oracle(resources, default_timestamp):
    issues = validate(resources, _PATIENT, default_timestamp)
    assert [
        (i.resource_id, i.rule, i.severity.value, i.message) for i in issues
    ] == oracle_validate(resources, _PATIENT, default_timestamp, PLACEHOLDER_DOSAGE)


# ---------------------------------------------------------------------------
# Bundling
# ---------------------------------------------------------------------------


def test_bundle_of_five(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    twin = bundle(patient, resources, validate(resources, patient))
    assert len(twin.entries) == 5
    assert [r.resource_type for r in twin.entries] == [
        "Patient",
        "Condition",
        "Condition",
        "Observation",
        "MedicationRequest",
    ]
    conditions = [r.id for r in twin.entries if r.resource_type == "Condition"]
    assert conditions == sorted(conditions)


def test_bundle_keeps_patient_only_when_everything_fails(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    broken = [drop_field(r, "subject") for r in resources]
    twin = bundle(patient, broken, validate(broken, patient))
    assert [r.resource_type for r in twin.entries] == ["Patient"]


def test_bundle_excludes_only_flagged_resource(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    victim = pick(resources, "Observation")
    mutated = [drop_field(r, "valueString") if r is victim else r for r in resources]
    twin = bundle(patient, mutated, validate(mutated, patient))
    assert len(twin.entries) == 4
    assert victim.id not in {r.id for r in twin.entries}


def test_emitted_bundles_revalidate_clean(pipeline):
    # profile soundness: whatever bundle() lets through passes validation
    patient, resources = golden_bundle_parts(pipeline)
    damaged = [drop_field(pick(resources, "Observation"), "valueString")] + [
        r for r in resources if r.resource_type != "Observation"
    ]
    twin = bundle(patient, damaged, validate(damaged, patient))
    recheck = validate(
        [r for r in twin.entries if r.resource_type != "Patient"], patient
    )
    assert [i for i in recheck if i.severity == Severity.ERROR] == []


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Any code point, lone surrogates included, with the characters JSON must
# escape drawn often.
json_text = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
    ),
    max_size=8,
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300)
@given(json_values)
def test_to_json_matches_stdlib_indent_encoder(value):
    assert to_json(value) == json.dumps(value, indent=2) + "\n"


@st.composite
def shared_blocks(draw):
    """A value whose read-only blocks recur under several parents, at two
    depths or more, and nest inside one another."""
    blocks = draw(st.lists(json_values.map(read_only), min_size=1, max_size=3))
    blocks.append(read_only({"inner": [blocks[0]], "again": blocks[0]}))
    some = st.lists(st.sampled_from(blocks), min_size=1, max_size=4)
    return {
        "shallow": draw(some),
        "deep": [{"blocks": draw(some)} for _ in range(draw(st.integers(1, 3)))],
        "plain": draw(json_scalars),
    }


@settings(max_examples=150)
@given(shared_blocks())
def test_to_json_renders_shared_blocks_like_stdlib(value):
    assert to_json(value) == json.dumps(value, indent=2) + "\n"


@st.composite
def twin_bundles(draw):
    """Bundles of any text whose entries share read-only blocks at several
    depths and may hold ``resourceType`` or ``id`` among their fields."""
    blocks = draw(st.lists(json_values.map(read_only), min_size=1, max_size=3))
    blocks.append(read_only({"inner": [blocks[0]], "again": blocks[0]}))
    block = st.sampled_from(blocks)
    value = st.one_of(
        json_values,
        block,
        st.lists(block, max_size=3),
        st.builds(lambda b: {"nested": [{"deeper": b}]}, block),
    )
    key = st.one_of(st.sampled_from(["resourceType", "id", "code"]), json_text)
    resource = st.builds(
        FhirResource,
        resource_type=json_text,
        id=json_text,
        fields=st.dictionaries(key, value, max_size=5),
    )
    entries = draw(st.lists(resource, max_size=4))
    return TwinBundle(tuple(entries), bundle_type=draw(json_text))


@settings(max_examples=100)
@given(twin_bundles())
@example(TwinBundle(()))
@example(TwinBundle((FhirResource("Condition", "c1", {"id": "x", "resourceType": 5}),)))
def test_bundle_to_json_matches_the_dict_oracle(twin):
    expected = to_json(bundle_to_dict(twin))
    assert bundle_to_json(twin) == expected
    assert expected == json.dumps(bundle_to_dict(twin), indent=2) + "\n"


def _writes(block):
    """Every way of changing a dict or a list in place."""
    if isinstance(block, dict):
        key = next(iter(block), "k")
        return [
            lambda: block.__setitem__("k", 1),
            lambda: block.__delitem__(key),
            lambda: block.update(k=1),
            lambda: block.setdefault("k", 1),
            lambda: block.pop(key),
            lambda: block.popitem(),
            lambda: block.clear(),
            lambda: block.__ior__({"k": 1}),
        ]
    return [
        lambda: block.__setitem__(0, 1),
        lambda: block.__delitem__(0),
        lambda: block.append(1),
        lambda: block.extend([1]),
        lambda: block.insert(0, 1),
        lambda: block.pop(),
        lambda: block.remove(block[0]),
        lambda: block.clear(),
        lambda: block.sort(),
        lambda: block.reverse(),
        lambda: block.__iadd__([1]),
        lambda: block.__imul__(2),
    ]


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def test_shared_blocks_refuse_every_write(pipeline):
    _, resources = build_resources(pipeline, TABLE3_TEXT + " Lisinopril 10mg daily.")
    condition = pick(resources, "Condition")
    first, second = [r for r in resources if r.resource_type == "MedicationRequest"]
    assert first.fields["medicationCodeableConcept"] is second.fields[
        "medicationCodeableConcept"
    ]
    assert len({id(r.fields["subject"]) for r in resources}) == 1
    shared = [
        condition.fields[name]
        for name in ("code", "clinicalStatus", "verificationStatus", "subject")
    ] + [first.fields["medicationCodeableConcept"]]
    for block in shared:
        plain = json.loads(json.dumps(block))
        for container in _containers(block):
            assert type(container) in (ReadOnlyDict, ReadOnlyList)
            for write in _writes(container):
                with pytest.raises(TypeError):
                    write()
        assert block == plain
        assert json.loads(json.dumps(block)) == plain


def test_one_concept_under_several_surfaces_keeps_each_text(pipeline):
    _, resources = build_resources(
        pipeline,
        "Hypertension. History of hypertension. GERD, not gastroesophageal reflux disease.",
    )
    codes = [r.fields["code"] for r in resources]
    assert [c["text"] for c in codes] == [
        "Hypertension",
        "hypertension",
        "GERD",
        "gastroesophageal reflux disease",
    ]
    assert codes[0]["coding"] == codes[1]["coding"]
    assert codes[2]["coding"] == codes[3]["coding"]


def test_copies_of_shared_blocks_are_mutable(pipeline):
    _, resources = build_resources(pipeline, TABLE3_TEXT)
    condition = pick(resources, "Condition")
    before = json.loads(json.dumps(condition.fields))

    fields = dict(condition.fields)
    fields["clinicalStatus"] = {"coding": []}
    deep = json.loads(json.dumps(condition.fields))
    deep["code"]["coding"][0]["system"] = "http://example.org/other"
    code = dict(condition.fields["code"])
    code["text"] = "changed"

    assert json.loads(json.dumps(condition.fields)) == before
    for block in (condition.fields["code"], condition.fields["subject"]):
        for clone in (copy.deepcopy(block), pickle.loads(pickle.dumps(block))):
            assert clone == block and type(clone) is type(block)


def test_blocks_keep_their_text_and_behave_as_before(pipeline):
    note_text = TABLE3_TEXT + " Lisinopril 10mg daily."
    patient, resources = build_resources(pipeline, note_text)
    twin = bundle(patient, resources, validate(resources, patient))
    text = bundle_to_json(twin)
    blocks = {
        id(value): value
        for entry in twin.entries
        for value in entry.fields.values()
        if type(value) is ReadOnlyDict
    }
    assert len(blocks) == 7  # subject, two statuses, four codes
    for block in blocks.values():
        cached = block._field_json
        plain = json.loads(json.dumps(block))
        assert block == plain and plain == block and not block != plain
        assert type(dict(block)) is dict and dict(block) == block
        assert block.__reduce__() == (ReadOnlyDict, (plain,))
        for clone in (
            copy.copy(block),
            copy.deepcopy(block),
            pickle.loads(pickle.dumps(block)),
        ):
            assert clone == block and type(clone) is ReadOnlyDict
            assert not hasattr(clone, "_field_json")
        for write in _writes(block):
            with pytest.raises(TypeError):
                write()
        assert block == plain and block._field_json is cached
    assert bundle_to_json(twin) == text == to_json(bundle_to_dict(twin))


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_to_json_rejects_non_string_keys(key):
    with pytest.raises(TypeError):
        to_json({"outer": [{key: "value"}]})


def test_bundle_round_trip(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    twin = bundle(patient, resources, validate(resources, patient))
    text = bundle_to_json(twin)
    assert bundle_from_dict(json.loads(text)) == twin
    parsed = json.loads(text)
    assert parsed["resourceType"] == "Bundle"
    assert parsed["type"] == "collection"
    assert list(parsed["entry"][0]["resource"].keys())[0] == "resourceType"


def test_serialization_is_byte_deterministic(pipeline):
    patient_a, resources_a = build_resources(pipeline, TABLE3_TEXT)
    patient_b, resources_b = build_resources(pipeline, TABLE3_TEXT)
    twin_a = bundle(patient_a, resources_a, validate(resources_a, patient_a))
    twin_b = bundle(patient_b, resources_b, validate(resources_b, patient_b))
    assert bundle_to_json(twin_a) == bundle_to_json(twin_b)


def test_issue_report_serialization(pipeline):
    patient, resources = golden_bundle_parts(pipeline)
    broken = [drop_field(pick(resources, "Condition"), "clinicalStatus")]
    rows = json.loads(issues_to_json(validate(broken, patient)))
    assert rows[0]["rule"] == "C2"
    assert rows[0]["severity"] == "ERROR"
    assert set(rows[0]) == {"resource_id", "rule", "severity", "message"}


def test_default_timestamp_flagged_as_warning(pipeline, config):
    note = ClinicalNote("n1", "p1", None, "BP 145/92.")
    annotation = pipeline.annotate(note)
    patient = build_patient("p1")
    resources = assemble(
        note,
        annotation.annotated,
        (),
        SharedBlocks(patient),
        default_timestamp=config.default_timestamp,
    )
    issues = validate(resources, patient, default_timestamp=config.default_timestamp)
    assert [(i.rule, i.severity) for i in issues] == [("W2", Severity.WARNING)]
