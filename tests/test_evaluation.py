from __future__ import annotations

import dataclasses
import random

import pytest

from fhirtwin.evaluation import (
    REQUIRED_FIELDS,
    CorpusCase,
    EmptyCorpusError,
    PatientMismatchError,
    compare_bundles,
    evaluate_corpus,
    gold_from_dict,
    gold_to_dict,
    ner_f1,
)
from fhirtwin.fhir_assembly import (
    SharedBlocks,
    TwinBundle,
    build_patient,
    bundle,
    condition_resource,
    validate,
)
from fhirtwin.normalizer import NormalizedConcept
from fhirtwin.pipeline import Pipeline
from fhirtwin.synthesizer import load_records, load_templates, synthesize
from fhirtwin.terminology import CodeSystem

from oracles import max_matching_f1, oracle_completeness, oracle_interoperability


# ---------------------------------------------------------------------------
# F1 with hand-counted fixtures
# ---------------------------------------------------------------------------


def keys(*items):
    return [("note", *item) for item in items]


def test_ner_f1_identity():
    gold = keys((0, 5, "CONDITION"), (10, 15, "MEDICATION"))
    assert ner_f1(gold, gold) == (1.0, 1.0, 1.0)


def test_ner_f1_empty_prediction():
    gold = keys((0, 5, "CONDITION"))
    assert ner_f1([], gold) == (0.0, 0.0, 0.0)


def test_ner_f1_two_of_three():
    # gold {A,B,C}, predicted {A,B,D}: TP=2, FP=1, FN=1
    gold = keys((0, 1, "A"), (2, 3, "B"), (4, 5, "C"))
    predicted = keys((0, 1, "A"), (2, 3, "B"), (6, 7, "D"))
    precision, recall, f1 = ner_f1(predicted, gold)
    assert (precision, recall, f1) == (2 / 3, 2 / 3, 2 / 3)


def test_relation_f1_identity_and_disjoint():
    gold = keys(("has-dosage", (0, 5), (6, 10)))
    assert ner_f1(gold, gold) == (1.0, 1.0, 1.0)
    other = keys(("has-dosage", (20, 25), (26, 30)))
    assert ner_f1(other, gold) == (0.0, 0.0, 0.0)


def test_relation_f1_one_spurious():
    # both gold relations found plus one spurious: (2/3, 1, 4/5)
    gold = keys(("has-dosage", (0, 5), (6, 10)), ("symptom-of", (12, 16), (20, 28)))
    predicted = gold + keys(("has-dosage", (30, 35), (36, 40)))
    precision, recall, f1 = ner_f1(predicted, gold)
    assert precision == pytest.approx(2 / 3)
    assert recall == 1.0
    assert f1 == pytest.approx(4 / 5)


def test_f1_matches_exhaustive_oracle_with_duplicates():
    gold = keys((0, 1, "A"), (0, 1, "A"), (2, 3, "B"))
    predicted = keys((0, 1, "A"), (2, 3, "B"), (2, 3, "B"))
    assert ner_f1(predicted, gold) == pytest.approx(max_matching_f1(predicted, gold))


# ---------------------------------------------------------------------------
# Bundle scores with hand-counted fixtures
# ---------------------------------------------------------------------------


def test_required_fields_table():
    assert list(REQUIRED_FIELDS.items()) == [
        ("Condition", ("code", "clinicalStatus", "verificationStatus", "subject")),
        ("Observation", ("code", "valueString", "effectiveDateTime", "subject")),
        (
            "MedicationRequest",
            ("medicationCodeableConcept", "dosageInstruction", "authoredOn", "subject"),
        ),
    ]


def concept(system, code, display):
    return NormalizedConcept(system, code, display, 1.0)


def small_bundle(patient_id="p1", conditions=(("38341003", "Hypertensive disorder"),)):
    patient = build_patient(patient_id)
    blocks = SharedBlocks(patient)
    resources = [
        condition_resource(
            patient_id,
            concept(CodeSystem.SNOMED, code, display),
            display,
            i,
            blocks,
        )
        for i, (code, display) in enumerate(conditions)
    ]
    return bundle(patient, resources, validate(resources, patient))


def test_completeness_identity():
    twin = small_bundle()
    assert compare_bundles(twin, twin)[0] == 1.0


def test_completeness_patient_only_generated():
    reference = small_bundle(conditions=(("1", "A"), ("2", "B"), ("3", "C")))
    generated = TwinBundle(entries=(build_patient("p1"),))
    assert compare_bundles(generated, reference)[0] == 0.0


def test_completeness_three_of_four_fields():
    reference = small_bundle()
    # same condition, different verificationStatus: 3 of 4 required fields agree
    damaged_entries = []
    for resource in reference.entries:
        if resource.resource_type == "Condition":
            fields = dict(resource.fields)
            fields["verificationStatus"] = {
                "coding": [{"system": "urn:other", "code": "provisional"}]
            }
            damaged_entries.append(type(resource)(resource.resource_type, resource.id, fields))
        else:
            damaged_entries.append(resource)
    generated = TwinBundle(entries=tuple(damaged_entries))
    assert compare_bundles(generated, reference)[0] == pytest.approx(3 / 4)


def test_completeness_patient_mismatch():
    with pytest.raises(PatientMismatchError):
        compare_bundles(small_bundle("p1"), small_bundle("p2"))


def test_interoperability_identity():
    twin = small_bundle()
    assert compare_bundles(twin, twin)[1] == 1.0


def test_interoperability_patient_only_generated():
    reference = small_bundle()
    generated = TwinBundle(entries=(build_patient("p1"),))
    assert compare_bundles(generated, reference)[1] == 0.0


def test_interoperability_half_matched():
    # reference has 2 resources, generated matches 1 perfectly:
    # F1_match = 2/3, agreement = 1.0, score = 5/6
    reference = small_bundle(conditions=(("1", "A"), ("2", "B")))
    generated = small_bundle(conditions=(("1", "A"),))
    assert compare_bundles(generated, reference)[1] == pytest.approx(5 / 6)


def test_interoperability_both_empty():
    generated = TwinBundle(entries=(build_patient("p1"),))
    assert compare_bundles(generated, generated)[1] == 1.0


def test_bundle_scores_match_oracles_on_goldens(pipeline, config, tables_dir):
    templates = load_templates(config.templates)
    for record in load_records(tables_dir)[:6]:
        case = synthesize(record, templates, pipeline.index, config.default_timestamp)
        twin, _, _ = pipeline.twin(record.patient_id, [case.note])
        assert compare_bundles(twin, case.reference)[0] == pytest.approx(
            oracle_completeness(twin, case.reference), abs=1e-12
        )
        assert compare_bundles(twin, case.reference)[1] == pytest.approx(
            oracle_interoperability(twin, case.reference), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------


def test_removing_correct_prediction_never_increases_recall():
    rng = random.Random(7)
    universe = [(i, i + 1, "CONDITION") for i in range(10)]
    for _ in range(50):
        gold = keys(*rng.sample(universe, k=rng.randint(1, 6)))
        predicted = keys(*rng.sample(universe, k=rng.randint(1, 6)))
        correct = [p for p in predicted if p in gold]
        if not correct:
            continue
        smaller = list(predicted)
        smaller.remove(correct[0])
        assert ner_f1(smaller, gold)[1] <= ner_f1(predicted, gold)[1]


def test_adding_spurious_prediction_never_increases_precision():
    rng = random.Random(11)
    universe = [(i, i + 1, "CONDITION") for i in range(10)]
    for _ in range(50):
        gold = keys(*rng.sample(universe, k=rng.randint(1, 5)))
        predicted = keys(*rng.sample(universe, k=rng.randint(1, 5)))
        spurious = ("note", 99, 100, "SPURIOUS")
        assert ner_f1(predicted + [spurious], gold)[0] <= ner_f1(predicted, gold)[0]


# ---------------------------------------------------------------------------
# Corpus evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(pipeline, config, tables_dir):
    templates = load_templates(config.templates)
    cases = []
    for record in load_records(tables_dir)[:5]:
        cases.append(synthesize(record, templates, pipeline.index, config.default_timestamp))
    return cases


def test_evaluate_corpus_full_pipeline(small_corpus, pipeline):
    report = evaluate_corpus(small_corpus, pipeline)
    assert report.ner_f1 == 1.0
    assert report.re_f1 == 1.0
    assert report.semantic_completeness == 1.0
    assert report.interoperability == 1.0
    assert len(report.per_note) == len(small_corpus)


def test_evaluate_corpus_without_relations(small_corpus, config):
    ablated = dataclasses.replace(config, disable_relations=True)
    report = evaluate_corpus(small_corpus, Pipeline(ablated))
    assert report.re_f1 is None
    assert report.semantic_completeness < 1.0
    assert "--" in report.summary_row()


def test_evaluate_corpus_empty():
    with pytest.raises(EmptyCorpusError):
        evaluate_corpus([], None)


def test_evaluate_corpus_single_empty_note(pipeline):
    from fhirtwin.evaluation import GoldAnnotations
    from fhirtwin.ner import ClinicalNote

    patient_only = TwinBundle(entries=(build_patient("p1"),))
    case = CorpusCase(
        note=ClinicalNote("n1", "p1", None, ""),
        gold=GoldAnnotations("n1", (), ()),
        reference=patient_only,
    )
    report = evaluate_corpus([case], pipeline)
    # zero-denominator conventions: F1 components are 0, and the
    # both-empty bundle comparison scores 1 by the stated edge rule
    assert (report.ner_precision, report.ner_recall, report.ner_f1) == (0.0, 0.0, 0.0)
    assert (report.re_precision, report.re_recall, report.re_f1) == (0.0, 0.0, 0.0)
    assert report.semantic_completeness == 1.0
    assert report.interoperability == 1.0


def test_report_serialization_round_trip(small_corpus, pipeline):
    report = evaluate_corpus(small_corpus, pipeline)
    body = report.to_dict()
    assert body["ner_f1"] == 1.0
    assert body["re_f1"] == 1.0
    header, row, _ = report.summary_row().split("\n")
    assert header.split("\t") == ["NER", "RE", "Comp.", "Interop."]
    assert row.split("\t") == ["1.000", "1.000", "100.0%", "1.000"]


def test_gold_round_trip(small_corpus):
    gold = small_corpus[0].gold
    assert gold_from_dict(gold_to_dict(gold)) == gold
