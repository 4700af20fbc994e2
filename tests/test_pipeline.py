from __future__ import annotations

import dataclasses
import pickle

import pytest

from fhirtwin import ner
from fhirtwin.fhir_assembly import FhirResource, Severity, ValidationIssue, bundle_to_json
from fhirtwin.ner import ClinicalNote, EntityMention, Sentence
from fhirtwin.normalizer import AnnotatedMention, NormalizedConcept
from fhirtwin.pipeline import (
    TIMESTAMP_ENV_VAR,
    Pipeline,
    build_config,
    load_config_file,
)
from fhirtwin.relations import Relation, RelationType
from fhirtwin.synthesizer import load_records, load_templates, synthesize
from fhirtwin.terminology import CodeSystem, EntityType

from conftest import TABLE3_TEXT


def test_build_config_uses_bundled_defaults(config):
    assert config.dictionaries[0].name == "terminology.csv"
    assert config.patterns.name == "patterns.tsv"
    assert config.split_ratios == (0.70, 0.15, 0.15)


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


def test_env_var_overrides_default_timestamp(monkeypatch):
    monkeypatch.setenv(TIMESTAMP_ENV_VAR, "1999-12-31T23:59:59Z")
    assert build_config().default_timestamp == "1999-12-31T23:59:59Z"


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


def test_naive_mapping_disables_normalization_and_relations(config):
    note = ClinicalNote("n1", "p1", None, TABLE3_TEXT)
    naive = Pipeline(dataclasses.replace(config, naive_mapping=True)).annotate(note)
    assert all(a.concept is None for a in naive.annotated)
    assert naive.relations == ()


@pytest.mark.parametrize(
    "flags, calls",
    [
        ({}, 2),
        ({"disable_relations": True}, 1),
        ({"naive_mapping": True}, 1),
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
    bundle of a pipeline that has seen nothing else."""
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
        assert bundle_to_json(again) == bundle_to_json(cold), note.note_id


_MENTION = EntityMention("n1:0-3", "n1", 0, 3, "flu", EntityType.CONDITION, 0)
_CONCEPT = NormalizedConcept(CodeSystem.SNOMED, "6142004", "Influenza", 1.0)


@pytest.mark.parametrize(
    "record, field, other",
    [
        (Sentence(0, 10, 0), "end", 12),
        (_MENTION, "text", "flu!"),
        (_CONCEPT, "score", 0.9),
        (AnnotatedMention(_MENTION, _CONCEPT), "concept", None),
        (Relation(RelationType.HAS_DOSAGE, "n1:0-3", "n1:4-8"), "tail", "n1:9-12"),
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
