from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin import ner
from fhirtwin.cli import _config_from_args, build_parser
from fhirtwin.fhir_assembly import (
    DEFAULT_TIMESTAMP,
    FhirResource,
    Severity,
    ValidationIssue,
    bundle_to_json,
    to_json,
)
from fhirtwin.ner import ClinicalNote, EntityMention, Sentence
from fhirtwin.normalizer import AnnotatedMention, NormalizedConcept
from fhirtwin.pipeline import Pipeline, PipelineConfig, build_config, load_config_file
from fhirtwin.relations import Relation, RelationType
from fhirtwin.synthesizer import load_records, load_templates, synthesize
from fhirtwin.terminology import CodeSystem, EntityType

from conftest import TABLE3_TEXT, write_dictionary
from oracles import bundle_to_dict


def test_build_config_uses_bundled_defaults(config):
    assert config.dictionaries[0].name == "terminology.csv"
    assert config.patterns.name == "patterns.tsv"
    assert config.split_ratios == (0.70, 0.15, 0.15)


def test_a_bare_config_is_the_bundled_one_and_builds_a_pipeline(config, pipeline):
    assert PipelineConfig() == config
    bare = Pipeline(PipelineConfig())
    note = ClinicalNote("n1", "p1", None, TABLE3_TEXT)
    assert bare.annotate(note) == pipeline.annotate(note)


def test_config_file_parsing(tmp_path):
    (tmp_path / "dict.csv").write_text("", encoding="utf-8")
    conf = tmp_path / "fhirtwin.conf"
    conf.write_text(
        "# comment\n"
        "dictionary = dict.csv\n"
        "seed = 99\n"
        "train_ratio = 0.8\n"
        "validation_ratio = 0.1\n"
        "test_ratio = 0.1\n"
        "disable_relations = true\n"
        "default_timestamp = 2020-05-05T00:00:00Z\n",
        encoding="utf-8",
    )
    parsed = load_config_file(conf)
    assert parsed["dictionaries"] == (tmp_path / "dict.csv",)
    assert parsed["seed"] == 99
    assert parsed["disable_relations"] is True
    config = build_config(conf)
    assert config.split_ratios == (0.8, 0.1, 0.1)
    assert config.default_timestamp == "2020-05-05T00:00:00Z"


@pytest.mark.parametrize(
    "value, flag",
    [("1", True), ("TRUE", True), ("Yes", True), ("oN", True)]
    + [("0", False), ("False", False), ("NO", False), ("off", False)],
)
def test_boolean_config_values_take_eight_spellings_in_any_case(tmp_path, value, flag):
    conf = tmp_path / "fhirtwin.conf"
    conf.write_text(f"disable_validation = {value}\n", encoding="utf-8")
    assert load_config_file(conf) == {"disable_validation": flag}


def test_config_ratios_left_out_take_their_defaults(tmp_path):
    conf = tmp_path / "fhirtwin.conf"
    conf.write_text("train_ratio = 0.7\ntest_ratio = 0.15\n", encoding="utf-8")
    assert load_config_file(conf) == {"split_ratios": (0.7, 0.15, 0.15)}


def test_config_file_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(conf)


def test_config_file_rejects_bare_lines(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(conf)


def test_default_timestamp_is_set_by_the_config_file_only(tmp_path, monkeypatch):
    monkeypatch.setenv("FHIRTWIN_DEFAULT_TIMESTAMP", "1999-12-31T23:59:59Z")
    assert build_config().default_timestamp == DEFAULT_TIMESTAMP
    conf = tmp_path / "fhirtwin.conf"
    conf.write_text("default_timestamp = 2020-05-05T00:00:00Z\n", encoding="utf-8")
    assert build_config(conf).default_timestamp == "2020-05-05T00:00:00Z"


def test_explicit_overrides_beat_config_file(tmp_path):
    conf = tmp_path / "fhirtwin.conf"
    conf.write_text("seed = 1\n", encoding="utf-8")
    assert build_config(conf, seed=7).seed == 7
    assert build_config(conf, seed=None).seed == 1


def test_disabling_normalization_keeps_mentions(config):
    note = ClinicalNote("n1", "p1", None, TABLE3_TEXT)
    full = Pipeline(config).annotate(note)
    ablated = Pipeline(
        dataclasses.replace(config, disable_normalization=True)
    ).annotate(note)
    assert [a.mention for a in ablated.annotated] == [
        a.mention for a in full.annotated
    ]
    assert all(a.concept is None for a in ablated.annotated)


def test_naive_mapping_disables_normalization_and_relations():
    args = build_parser().parse_args(["twin", "notes", "--naive"])
    config = _config_from_args(args)
    assert config.disable_normalization and config.disable_relations
    assert not config.disable_validation
    note = ClinicalNote("n1", "p1", None, TABLE3_TEXT)
    naive = Pipeline(config).annotate(note)
    assert all(a.concept is None for a in naive.annotated)
    assert naive.relations == ()


@pytest.mark.parametrize(
    "flags, calls",
    [
        ({}, 2),
        ({"disable_relations": True}, 1),
        ({"disable_normalization": True, "disable_relations": True}, 1),
        ({"disable_normalization": True}, 2),
    ],
)
def test_notes_are_segmented_again_only_for_relations(config, monkeypatch, flags, calls):
    pipeline = Pipeline(dataclasses.replace(config, **flags))
    segment = ner.segment
    texts = []

    def counting_segment(text):
        texts.append(text)
        return segment(text)

    monkeypatch.setattr(ner, "segment", counting_segment)
    notes = [
        ClinicalNote("n1", "p1", None, TABLE3_TEXT),
        ClinicalNote("n2", "p1", None, "Patient has diabetes."),
    ]
    pipeline.twin("p1", notes)
    assert texts == [note.text for note in notes for _ in range(calls)]


def test_a_dictionary_surface_longer_than_six_tokens_is_matched_whole(config, tmp_path):
    surface = "24 HR metformin hydrochloride 500 MG Extended Release Oral Tablet"
    extra = write_dictionary(tmp_path, [f"{surface},RXNORM,860975,{surface},MEDICATION"])
    pipeline = Pipeline(
        dataclasses.replace(config, dictionaries=config.dictionaries + (extra,))
    )
    annotation = pipeline.annotate(ClinicalNote("n1", "p1", None, f"Started {surface}."))
    assert [
        (a.mention.text, a.mention.etype, a.concept.system, a.concept.code)
        for a in annotation.annotated
    ] == [(surface, EntityType.MEDICATION, CodeSystem.RXNORM, "860975")]


def test_twin_bundles_have_exactly_one_patient(pipeline):
    note = ClinicalNote("n1", "p1", "2023-01-01T00:00:00Z", TABLE3_TEXT)
    twin, _, _ = pipeline.twin("p1", [note])
    patients = [r for r in twin.entries if r.resource_type == "Patient"]
    assert len(patients) == 1
    for resource in twin.entries[1:]:
        assert resource.fields["subject"]["reference"] == f"Patient/{patients[0].id}"


def test_twin_merges_notes_per_patient(pipeline):
    notes = [
        ClinicalNote("n1", "p1", "2023-01-01T00:00:00Z", "Patient has diabetes."),
        ClinicalNote("n2", "p1", "2023-01-02T00:00:00Z", "Patient has hypertension."),
    ]
    twin, _, _ = pipeline.twin("p1", notes)
    codes = sorted(
        r.primary_code()[1] for r in twin.entries if r.resource_type == "Condition"
    )
    assert codes == ["38341003", "73211009"]


def test_missing_input_file_fails_at_startup(config):
    broken = dataclasses.replace(config, patterns=config.patterns.parent / "nope.tsv")
    with pytest.raises(FileNotFoundError):
        Pipeline(broken)


def test_warm_pipeline_twins_like_a_cold_one(config, tables_dir):
    """The index memo and the shared blocks never leak from one note into
    another: every note's bundle after twinning the whole corpus equals the
    bundle of a pipeline that has seen nothing else, and the plain-dict
    oracle's, however often it is rendered."""
    warm = Pipeline(config)
    templates = load_templates(config.templates)
    notes = [
        synthesize(record, templates, warm.index, config.default_timestamp).note
        for record in load_records(tables_dir)
    ]
    for note in notes:
        warm.twin(note.patient_id, [note])
    assert warm.index._resolutions
    for note in notes:
        cold, _, _ = Pipeline(config).twin(note.patient_id, [note])
        again, _, _ = warm.twin(note.patient_id, [note])
        expected = to_json(bundle_to_dict(again))
        assert bundle_to_json(again) == bundle_to_json(cold) == expected, note.note_id
        assert bundle_to_json(again) == expected


#: Values as ``ner.OBSERVATION_VALUE`` reads them: a number or a ratio,
#: then an optional unit.
observation_values = st.builds(
    "{}{}{}".format,
    st.one_of(st.integers(0, 400).map(str), st.just("13.5"), st.just("98.6")),
    st.sampled_from(["", "/80", " / 60", "/ 7.5"]),
    st.sampled_from(
        ["", " mmHg", "mg/dL", " mmol/L", " mEq/L", " g/dL", " K/uL", " U/L",
         " ng/mL", " pg/mL", " mm/hr", "/min", " bpm", " lb", " lbs", " kg",
         " cm", " sec", "%", " %", " F", " C", " x10^9/L", "x10^3/uL", "°C", " °F"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    spell=st.sampled_from([str, str.upper, str.title]),
    separator=st.sampled_from([" ", ":", " : ", "  ", " was ", " is ", ": of  "]),
    value=observation_values,
)
def test_an_observation_name_and_value_make_one_coded_observation(
    pipeline, data, spell, separator, value
):
    """Each observation surface and synonym of the dictionary, in any case
    and followed by any separator and value, gives one coded Observation
    with that name and value, and no dosage inside it."""
    index = pipeline.index
    names = sorted(
        surface
        for surface in (*index.entries, *index.synonym_map)
        if index.lookup(surface)[0].entity_type == EntityType.OBSERVATION
    )
    name = spell(data.draw(st.sampled_from(names)))
    text = f"{name}{separator}{value}."
    twin, issues, (annotation,) = pipeline.twin(
        "p1", [ClinicalNote("n1", "p1", "2024-02-02T00:00:00Z", text)]
    )
    observations = [r for r in twin.entries if r.resource_type == "Observation"]
    assert len(observations) == 1, text
    (observation,) = observations
    assert observation.fields["code"]["text"] == name
    assert observation.fields["code"]["coding"]
    assert observation.fields["valueString"] == value
    assert issues == []
    assert [a.mention.etype for a in annotation.annotated] == [EntityType.OBSERVATION]



def test_coded_blocks_are_bounded_by_concept_and_text(config, benchmark_cases):
    """The pipeline keeps one coded block per distinct (concept, text) pair
    it has assembled, however many notes repeat the pair."""
    pipeline = Pipeline(config)
    pairs = set()
    for _ in range(2):
        for case in benchmark_cases["short_notes"]:
            _, _, annotations = pipeline.twin(case.patient_id, case.notes)
            for item in (a for annotation in annotations for a in annotation.annotated):
                etype, name = item.mention.etype, item.mention.name
                if etype not in (EntityType.DOSAGE, EntityType.TEMPORAL):
                    pairs.add((item.concept, name))
    assert set(pipeline.concept_blocks) == pairs
    assert len(pairs) < len(benchmark_cases["short_notes"]) / 5


_MENTION = EntityMention(0, 3, "flu", EntityType.CONDITION, 0, "flu", "")
_CONCEPT = NormalizedConcept(CodeSystem.SNOMED, "6142004", "Influenza", 1.0)


@pytest.mark.parametrize(
    "record, field, other",
    [
        (Sentence(0, 10), "end", 12),
        (_MENTION, "text", "flu!"),
        (_CONCEPT, "score", 0.9),
        (AnnotatedMention(_MENTION, _CONCEPT), "concept", None),
        pytest.param(
            Relation(RelationType.HAS_DOSAGE, (0, 3), (4, 8)),
            "tail_span",
            (9, 12),
            id="Relation-tail_span-(9, 12)",
        ),
        (ValidationIssue("r1", "C1", Severity.ERROR, "no coding"), "rule", "C2"),
        (FhirResource("Condition", "r1", {"code": {"text": "flu"}}), "id", "r2"),
    ],
    ids=lambda value: type(value).__name__ if dataclasses.is_dataclass(value) else None,
)
def test_per_note_records_are_slotted_and_frozen(record, field, other):
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, other)
    same = dataclasses.replace(record)
    changed = dataclasses.replace(record, **{field: other})
    assert same == record and same is not record
    assert changed != record and getattr(changed, field) == other
    assert pickle.loads(pickle.dumps(record)) == record
    if isinstance(record, FhirResource):  # its fields dict is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(same) == hash(record)
