"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import fhirtwin
from fhirtwin.cli import main
from fhirtwin.evaluation import compare_bundles, ner_f1
from fhirtwin.fhir_assembly import (
    Severity,
    SharedBlocks,
    TwinBundle,
    build_patient,
    bundle,
    condition_resource,
    medication_request_resource,
    observation_resource,
    validate,
)
from fhirtwin.normalizer import NormalizedConcept
from fhirtwin.terminology import CodeSystem

from conftest import FIG1_TEXT, TABLE3_TEXT
from oracles import max_matching_f1, oracle_completeness, oracle_interoperability

TOLERANCE = 1e-12


def report(criterion, text):
    print(f"[acceptance] criterion {criterion} PASS: {text}")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_extract_twin(tmp_path, text, note_id):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / f"{note_id}.txt").write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started
    annotation = read_json(out / "annotations" / f"{note_id}.json")
    twin = read_json(out / "bundles" / f"twin_{note_id}.json")
    issues = read_json(out / "bundles" / f"twin_{note_id}.issues.json")
    return annotation, twin, issues, elapsed


def coded_entities(annotation):
    return [
        (m["concept"]["system"], m["concept"]["code"])
        for m in annotation["mentions"]
        if m["concept"]
    ]


def relations_with_texts(annotation):
    texts = {m["mention_id"]: m["text"] for m in annotation["mentions"]}
    return [
        (r["rtype"], texts[r["head"]], texts[r["tail"]])
        for r in annotation["relations"]
    ]


def test_criterion_1_golden_table3(tmp_path):
    annotation, twin, issues, elapsed = run_extract_twin(tmp_path, TABLE3_TEXT, "case")
    assert coded_entities(annotation) == [
        ("SNOMED", "38341003"),
        ("SNOMED", "44054006"),
        ("LOINC", "85354-9"),
        ("RXNORM", "29046"),
    ]
    assert relations_with_texts(annotation) == [
        ("has-dosage", "Lisinopril", "10mg daily")
    ]
    assert len(twin["entry"]) == 5
    assert [i for i in issues if i["severity"] == "ERROR"] == []
    assert elapsed < 1.0
    report(1, f"Table 3 golden case exact, 5 resources, 0 errors, {elapsed:.2f}s")


def test_criterion_2_golden_fig1(tmp_path):
    annotation, twin, issues, elapsed = run_extract_twin(tmp_path, FIG1_TEXT, "case")
    assert coded_entities(annotation) == [
        ("SNOMED", "73211009"),
        ("RXNORM", "6809"),
    ]
    assert relations_with_texts(annotation) == [
        ("has-dosage", "Metformin", "500mg twice daily")
    ]
    types = [entry["resource"]["resourceType"] for entry in twin["entry"]]
    assert types.count("Condition") == 1
    assert types.count("MedicationRequest") == 1
    assert [i for i in issues if i["severity"] == "ERROR"] == []
    assert elapsed < 1.0
    report(2, f"Fig. 1 golden case exact, Condition + MedicationRequest, {elapsed:.2f}s")


def test_criterion_3_corpus_closure_and_ablation_directions(tables_dir, tmp_path):
    started = time.perf_counter()
    corpus = tmp_path / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(corpus)]) == 0
    manifest = read_json(corpus / "manifest.json")
    assert len(manifest["notes"]) >= 20
    assert len({n["patient_id"] for n in manifest["notes"]}) >= 10

    def evaluate(tag, *flags):
        out = tmp_path / f"eval-{tag}"
        assert main(["evaluate", str(corpus), "--out", str(out), *flags]) == 0
        return read_json(out / "report.json")

    full = evaluate("full")
    no_relations = evaluate("norel", "--no-relations")
    no_normalize = evaluate("nonorm", "--no-normalize")
    no_validate = evaluate("noval", "--no-validate")
    elapsed = time.perf_counter() - started

    assert full["ner_f1"] == 1.0
    assert full["re_f1"] == 1.0
    assert full["semantic_completeness"] > no_relations["semantic_completeness"]
    assert full["interoperability"] > no_normalize["interoperability"]
    assert full["semantic_completeness"] >= no_validate["semantic_completeness"]
    assert elapsed < 30.0
    report(
        3,
        "corpus closure NER/RE F1 = 1.0 on "
        f"{len(manifest['notes'])} notes; ablation directions hold; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: metric oracle equivalence on randomized micro-instances
# ---------------------------------------------------------------------------

_STATUS_CODES = ("active", "recurrence", "inactive")
_VERIFICATION_CODES = ("confirmed", "provisional")


def _random_resource(rng, patient, other_patient, code):
    concept_system, rtype = rng.choice(
        [
            (CodeSystem.SNOMED, "Condition"),
            (CodeSystem.ICD10, "Condition"),
            (CodeSystem.LOINC, "Observation"),
            (CodeSystem.RXNORM, "MedicationRequest"),
        ]
    )
    concept = NormalizedConcept(concept_system, str(code), f"concept {code}", 1.0)
    blocks = SharedBlocks(rng.choice([patient, patient, patient, other_patient]))
    if rtype == "Condition":
        resource = condition_resource("p1", concept, f"text {code}", code, blocks)
        fields = dict(resource.fields)
        fields["clinicalStatus"] = {
            "coding": [{"system": "urn:cs", "code": rng.choice(_STATUS_CODES)}]
        }
        fields["verificationStatus"] = {
            "coding": [{"system": "urn:vs", "code": rng.choice(_VERIFICATION_CODES)}]
        }
        resource = type(resource)(rtype, resource.id, fields)
    elif rtype == "Observation":
        resource = observation_resource(
            "p1",
            concept,
            f"name {code}",
            rng.choice(["", "7.2", "145/92"]),
            rng.choice(["2023-01-01T00:00:00Z", "2023-06-01T00:00:00Z"]),
            code,
            blocks,
        )
    else:
        resource = medication_request_resource(
            "p1",
            concept,
            f"drug {code}",
            rng.choice([["10mg daily"], ["as directed"], []]),
            rng.choice(["2023-01-01T00:00:00Z", "2023-06-01T00:00:00Z"]),
            code,
            blocks,
        )
    if rng.random() < 0.3:  # drop one required field entirely
        victim = rng.choice(list(resource.fields))
        fields = {k: v for k, v in resource.fields.items() if k != victim}
        resource = type(resource)(resource.resource_type, resource.id, fields)
    return resource


def _random_bundle(rng):
    patient = build_patient("p1")
    other = build_patient("p9")
    codes = rng.sample(range(12), rng.randint(0, 5))
    resources = tuple(_random_resource(rng, patient, other, c) for c in codes)
    return TwinBundle(entries=(patient,) + resources)


def _random_keys(rng, max_items):
    pool = [
        ("note", i, i + rng.randint(1, 3), etype)
        for i in range(0, 12, 2)
        for etype in ("CONDITION", "MEDICATION")
    ]
    return [rng.choice(pool) for _ in range(rng.randint(0, max_items))]


def test_criterion_4_metric_oracle_equivalence():
    rng = random.Random(20240117)
    for instance in range(50):
        predicted = _random_keys(rng, 6)
        gold = _random_keys(rng, 6)
        for ours, oracle in (
            (ner_f1(predicted, gold), max_matching_f1(predicted, gold)),
            (ner_f1(predicted, gold), max_matching_f1(predicted, gold)),
        ):
            for a, b in zip(ours, oracle):
                assert abs(a - b) <= TOLERANCE, (instance, predicted, gold)

        generated = _random_bundle(rng)
        reference = _random_bundle(rng)
        assert abs(
            compare_bundles(generated, reference)[0]
            - oracle_completeness(generated, reference)
        ) <= TOLERANCE, instance
        assert abs(
            compare_bundles(generated, reference)[1]
            - oracle_interoperability(generated, reference)
        ) <= TOLERANCE, instance
    report(4, "50 randomized micro-instances agree with brute-force oracles to 1e-12")


# ---------------------------------------------------------------------------
# Criterion 5: validation mutation soundness
# ---------------------------------------------------------------------------


def test_criterion_5_validation_mutation_suite(pipeline):
    from fhirtwin.ner import ClinicalNote
    from fhirtwin.fhir_assembly import assemble

    note = ClinicalNote("case", "p1", "2023-03-01T08:30:00Z", TABLE3_TEXT)
    annotation = pipeline.annotate(note)
    patient = build_patient("p1")
    resources = assemble(
        note, annotation.annotated, annotation.relations, SharedBlocks(patient)
    )

    def pick(rtype):
        return next(r for r in resources if r.resource_type == rtype)

    def drop(resource, field):
        fields = {k: v for k, v in resource.fields.items() if k != field}
        return type(resource)(resource.resource_type, resource.id, fields)

    def wrong_system(resource, field):
        fields = json.loads(json.dumps(resource.fields))
        fields[field]["coding"][0]["system"] = "http://example.org/other"
        return type(resource)(resource.resource_type, resource.id, fields)

    def wrong_subject(resource):
        fields = dict(resource.fields)
        fields["subject"] = {"reference": "Patient/intruder"}
        return type(resource)(resource.resource_type, resource.id, fields)

    mutations = [
        ("missing verificationStatus", drop(pick("Condition"), "verificationStatus"), "C2"),
        ("wrong condition system URI", wrong_system(pick("Condition"), "code"), "C1"),
        ("wrong observation system URI", wrong_system(pick("Observation"), "code"), "O1"),
        ("missing value", drop(pick("Observation"), "valueString"), "O2"),
        ("missing effectiveDateTime", drop(pick("Observation"), "effectiveDateTime"), "O2"),
        (
            "wrong medication system URI",
            wrong_system(pick("MedicationRequest"), "medicationCodeableConcept"),
            "M1",
        ),
        (
            "missing dosageInstruction",
            type(pick("MedicationRequest"))(
                "MedicationRequest",
                pick("MedicationRequest").id,
                {**pick("MedicationRequest").fields, "dosageInstruction": []},
            ),
            "M1",
        ),
        ("missing authoredOn", drop(pick("MedicationRequest"), "authoredOn"), "M2"),
        ("wrong subject", wrong_subject(pick("Condition")), "S1"),
    ]

    for label, mutated_resource, expected_rule in mutations:
        cohort = [mutated_resource if r.id == mutated_resource.id else r for r in resources]
        issues = validate(cohort, patient)
        errors = [i for i in issues if i.severity == Severity.ERROR]
        assert [i.rule for i in errors] == [expected_rule], label
        assert errors[0].resource_id == mutated_resource.id, label
        twin = bundle(patient, cohort, issues)
        assert mutated_resource.id not in {r.id for r in twin.entries}, label

    # zero false positives on the untouched golden resources
    clean = [i for i in validate(resources, patient) if i.severity == Severity.ERROR]
    assert clean == []
    report(5, f"{len(mutations)} mutations each flagged with the expected rule; goldens clean")


# ---------------------------------------------------------------------------
# Criterion 6: determinism
# ---------------------------------------------------------------------------


def _full_run(tables_dir, root):
    corpus = root / "corpus"
    run = root / "run"
    assert main(["synthesize", str(tables_dir), "--out", str(corpus), "--seed", "13"]) == 0
    assert main(["extract", str(corpus), "--out", str(run)]) == 0
    assert main(["twin", str(corpus), "--out", str(run)]) == 0
    assert main(["evaluate", str(corpus), "--out", str(run), "--seed", "13"]) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_6_byte_identical_runs(tables_dir, tmp_path):
    first = _full_run(tables_dir, tmp_path / "a")
    second = _full_run(tables_dir, tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    report(6, f"two full runs produced {len(first)} byte-identical files")


def test_criterion_6_byte_identical_across_hash_seeds(tables_dir, tmp_path):
    """Runs in one process share one string-hash salt, so only separate
    processes with different ``PYTHONHASHSEED`` can show output that follows
    set or dict order of hashed keys."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from test_acceptance import _full_run\n"
        "_full_run(Path(sys.argv[1]), Path(sys.argv[2]))\n"
    )
    # The package as this test imports it, and this directory for _full_run.
    paths = [str(Path(fhirtwin.__file__).parents[1]), str(Path(__file__).parent)]
    runs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        root = tmp_path / f"seed{seed}"
        subprocess.run(
            [sys.executable, "-c", script, str(tables_dir), str(root)],
            env=env,
            check=True,
            timeout=300,
        )
        runs[seed] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
    assert runs["0"].keys() == runs["1"].keys()
    assert len(runs["0"]) > 10
    for name in runs["0"]:
        assert runs["0"][name] == runs["1"][name], name
    report(6, f"{len(runs['0'])} files byte-identical under PYTHONHASHSEED 0 and 1")


# ---------------------------------------------------------------------------
# Criterion 7: split correctness
# ---------------------------------------------------------------------------


def test_criterion_7_split_correctness(pipeline, config):
    from fhirtwin.synthesizer import (
        Diagnosis,
        StructuredRecord,
        load_templates,
        split_corpus,
        synthesize,
    )

    templates = load_templates(config.templates)
    cases = [
        synthesize(
            StructuredRecord(
                f"q{i:03d}", (Diagnosis("ICD10", "I10", "hypertension"),), (), ()
            ),
            templates,
            pipeline.index,
            config.default_timestamp,
        )
        for i in range(100)
    ]
    first = split_corpus(cases, (0.70, 0.15, 0.15), seed=13)
    sizes = tuple(len(bucket) for bucket in first)
    assert abs(sizes[0] - 70) <= 1 and abs(sizes[1] - 15) <= 1 and abs(sizes[2] - 15) <= 1
    assert sum(sizes) == 100
    patients = [{c.note.patient_id for c in bucket} for bucket in first]
    assert not (patients[0] & patients[1])
    assert not (patients[0] & patients[2])
    assert not (patients[1] & patients[2])
    second = split_corpus(cases, (0.70, 0.15, 0.15), seed=13)
    assert [
        [c.note.note_id for c in bucket] for bucket in first
    ] == [[c.note.note_id for c in bucket] for bucket in second]
    report(7, f"100 patients split {sizes[0]}/{sizes[1]}/{sizes[2]}, disjoint and seed-stable")
