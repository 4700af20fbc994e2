from __future__ import annotations

import json
import shutil

import pytest

from fhirtwin.cli import load_notes, main

from conftest import FIG1_TEXT, TABLE3_TEXT


@pytest.fixture()
def corpus(tables_dir, tmp_path):
    out = tmp_path / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(out)]) == 0
    return out


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_writes_corpus(corpus):
    manifest = read_json(corpus / "manifest.json")
    notes = manifest["notes"]
    assert len(notes) == 24
    assert {n["split"] for n in notes} <= {"train", "validation", "test"}
    sample = notes[0]
    assert (corpus / "notes" / f"{sample['note_id']}.txt").exists()
    assert (corpus / "gold" / f"{sample['note_id']}.json").exists()
    assert (corpus / "references" / f"twin_{sample['patient_id']}.json").exists()


def test_synthesize_without_labevents(tables_dir, tmp_path, caplog):
    partial = tmp_path / "tables"
    partial.mkdir()
    for name in ("diagnoses.csv", "prescriptions.csv"):
        shutil.copy(tables_dir / name, partial / name)
    out = tmp_path / "corpus"
    assert main(["synthesize", str(partial), "--out", str(out)]) == 0
    assert "labevents" in caplog.text
    for path in (out / "references").glob("twin_*.json"):
        body = read_json(path)
        types = {entry["resource"]["resourceType"] for entry in body["entry"]}
        assert "Observation" not in types


def test_synthesize_bad_ratios_exits_2(tables_dir, tmp_path):
    config = tmp_path / "fhirtwin.conf"
    config.write_text(
        "train_ratio = 0.5\nvalidation_ratio = 0.2\ntest_ratio = 0.2\n",
        encoding="utf-8",
    )
    code = main(
        [
            "synthesize",
            str(tables_dir),
            "--out",
            str(tmp_path / "x"),
            "--config",
            str(config),
        ]
    )
    assert code == 2


def test_synthesize_missing_tables_dir(tmp_path):
    assert main(["synthesize", str(tmp_path / "nope"), "--out", str(tmp_path / "x")]) == 1


def test_synthesize_malformed_table_names_file(tmp_path, caplog):
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / "diagnoses.csv").write_text("p1,I10\n", encoding="utf-8")
    assert main(["synthesize", str(tables), "--out", str(tmp_path / "x")]) == 1
    assert "diagnoses.csv" in caplog.text


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


def test_extract_table3_note(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "case1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    body = read_json(out / "annotations" / "case1.json")
    coded = [
        (m["text"], m["concept"]["system"], m["concept"]["code"])
        for m in body["mentions"]
        if m["concept"]
    ]
    assert coded == [
        ("hypertension", "SNOMED", "38341003"),
        ("type 2 diabetes", "SNOMED", "44054006"),
        ("BP 145/92", "LOINC", "85354-9"),
        ("Lisinopril", "RXNORM", "29046"),
    ]
    assert len(body["mentions"]) == 5
    assert [r["rtype"] for r in body["relations"]] == ["has-dosage"]


def test_extract_empty_notes_dir(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert list((out / "annotations").iterdir()) == []


def test_extract_unknown_terms_note(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "odd.txt").write_text("The weather is nice\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    body = read_json(out / "annotations" / "odd.json")
    assert body["mentions"] == [] and body["relations"] == []


def write_json(path, body):
    path.write_text(json.dumps(body), encoding="utf-8")


def test_duplicate_note_ids_keep_the_first_note(tmp_path, caplog):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    write_json(notes / "n1.json", {"text": "The weather is nice"})
    write_json(notes / "a.json", {"note_id": "n2", "text": FIG1_TEXT})
    write_json(notes / "b.json", {"note_id": "n2", "text": "The weather is nice"})
    loaded = load_notes(notes)
    assert [(n.note_id, n.text) for n in loaded] == [
        ("n1", TABLE3_TEXT),
        ("n2", FIG1_TEXT),
    ]
    assert f"skipping {notes / 'n1.json'}: note id n1 already read from" in caplog.text
    assert f"skipping {notes / 'b.json'}: note id n2 already read from" in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "annotations").iterdir()) == [
        "n1.json",
        "n2.json",
    ]
    assert read_json(out / "annotations" / "n1.json")["mentions"]
    assert read_json(out / "annotations" / "n2.json")["mentions"]


def test_json_notes_with_non_string_fields_are_skipped(tmp_path, caplog):
    notes = tmp_path / "notes"
    notes.mkdir()
    write_json(notes / "int_text.json", {"text": 5})
    write_json(notes / "int_id.json", {"note_id": 7, "text": "Patient has diabetes."})
    write_json(notes / "null_patient.json", {"patient_id": None, "text": "BP 120/80."})
    write_json(notes / "dict_time.json", {"timestamp": {"x": 1}, "text": "BP 120/80."})
    write_json(notes / "good.json", {"timestamp": None, "text": FIG1_TEXT})
    assert [n.note_id for n in load_notes(notes)] == ["good"]
    for name, fields in (
        ("int_text", "text"),
        ("int_id", "note_id"),
        ("null_patient", "patient_id"),
        ("dict_time", "timestamp"),
    ):
        assert f"skipping {notes / name}.json: {fields} not a string" in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert [p.name for p in (out / "annotations").iterdir()] == ["good.json"]


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("empty_id.json", b'{"note_id": "", "text": "BP 120/80."}', "note_id must be non-empty"),
        ("latin1.txt", "Fi\xe8vre.".encode("latin-1"), "can't decode byte 0xe8"),
        ("broken.json", b'{"text": "BP 120/80."', "Expecting ','"),
        ("string.json", b'"BP 120/80 and some text"', "not a JSON object"),
        ("folder.txt", None, "Is a directory"),
    ],
    ids=["empty_note_id", "not_utf8", "not_json", "not_an_object", "directory"],
)
def test_one_bad_note_file_is_skipped(tmp_path, caplog, name, content, reason):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    if content is None:
        (notes / name).mkdir()
    else:
        (notes / name).write_bytes(content)
    assert [n.note_id for n in load_notes(notes)] == ["n1"]
    assert f"skipping {notes / name}: " in caplog.text
    assert reason in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    assert [p.name for p in (out / "annotations").iterdir()] == ["n1.json"]
    assert sorted(p.name for p in (out / "bundles").iterdir()) == [
        "twin_n1.issues.json",
        "twin_n1.json",
    ]


@pytest.mark.parametrize(
    "content, reason",
    [
        ("{bad", "Expecting property name"),
        ('["n1"]', "not a JSON object with a list of objects as notes"),
        ('{"notes": {"note_id": "n1"}}', "not a JSON object with a list of objects"),
        ('{"notes": ["n1"]}', "not a JSON object with a list of objects as notes"),
        ('{"notes": [{"patient_id": "p1"}]}', "note_id not a string"),
        (
            '{"notes": [{"note_id": "n1", "timestamp": {"x": 1}}]}',
            "timestamp not a string",
        ),
    ],
    ids=[
        "not_json",
        "not_an_object",
        "notes_not_a_list",
        "entry_not_an_object",
        "entry_without_note_id",
        "timestamp_not_a_string",
    ],
)
def test_bad_manifest_is_skipped(tmp_path, caplog, content, reason):
    corpus = tmp_path / "corpus"
    (corpus / "notes").mkdir(parents=True)
    (corpus / "notes" / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    manifest = corpus / "manifest.json"
    manifest.write_text(content, encoding="utf-8")
    loaded = load_notes(corpus)
    assert [(n.note_id, n.patient_id, n.timestamp) for n in loaded] == [
        ("n1", "n1", None)
    ]
    assert f"skipping {manifest}: {reason}" in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(corpus), "--out", str(out)]) == 0
    assert main(["twin", str(corpus), "--out", str(out)]) == 0
    assert [p.name for p in (out / "annotations").iterdir()] == ["n1.json"]
    assert sorted(p.name for p in (out / "bundles").iterdir()) == [
        "twin_n1.issues.json",
        "twin_n1.json",
    ]


# ---------------------------------------------------------------------------
# twin
# ---------------------------------------------------------------------------


def test_twin_fig1_note(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "fig1.txt").write_text(FIG1_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    body = read_json(out / "bundles" / "twin_fig1.json")
    codes = [
        entry["resource"].get("code", entry["resource"].get("medicationCodeableConcept", {}))
        .get("coding", [{}])[0]
        .get("code")
        for entry in body["entry"]
    ]
    assert codes == [None, "73211009", "6809"]
    issues = read_json(out / "bundles" / "twin_fig1.issues.json")
    assert [i for i in issues if i["severity"] == "ERROR"] == []


def test_twin_empty_input(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    out = tmp_path / "out"
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    assert list((out / "bundles").iterdir()) == []


def test_twin_excludes_error_resources(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    # a bare observation name with no value fails rule O2 and stays out
    (notes / "odd.txt").write_text(
        "Patient has hypertension. Oxygen saturation stable.\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    body = read_json(out / "bundles" / "twin_odd.json")
    types = [entry["resource"]["resourceType"] for entry in body["entry"]]
    assert types == ["Patient", "Condition"]
    issues = read_json(out / "bundles" / "twin_odd.issues.json")
    assert any(i["rule"] == "O2" and i["severity"] == "ERROR" for i in issues)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_full_pipeline(corpus, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert report["ner_f1"] == 1.0
    assert report["re_f1"] == 1.0
    assert report["semantic_completeness"] == 1.0
    summary = (out / "summary.tsv").read_text(encoding="utf-8")
    assert summary.splitlines()[0] == "NER\tRE\tComp.\tInterop."


def test_evaluate_naive_scores_lower(corpus, tmp_path):
    full_out = tmp_path / "full"
    naive_out = tmp_path / "naive"
    assert main(["evaluate", str(corpus), "--out", str(full_out)]) == 0
    assert main(["evaluate", str(corpus), "--out", str(naive_out), "--naive"]) == 0
    full = read_json(full_out / "report.json")
    naive = read_json(naive_out / "report.json")
    assert naive["semantic_completeness"] < full["semantic_completeness"]
    assert naive["re_f1"] is None


def test_evaluate_no_relations_reports_dash(corpus, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out), "--no-relations"]) == 0
    report = read_json(out / "report.json")
    assert report["re_f1"] is None
    assert "--" in (out / "summary.tsv").read_text(encoding="utf-8")


def test_evaluate_empty_corpus(tmp_path):
    assert main(["evaluate", str(tmp_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "relative, content",
    [
        ("gold/p001-note.json", None),
        ("gold/p001-note.json", "{}"),
        ("references/twin_p001.json", "[]"),
        ("notes/p001-note.txt", b"\xff"),
        ("manifest.json", '{"notes": [{"note_id": "p001-note"}]}'),
        (
            "manifest.json",
            '{"notes": [{"note_id": "p001-note", "patient_id": "p001", '
            '"timestamp": 5}]}',
        ),
    ],
    ids=[
        "gold_missing",
        "gold_without_note_id",
        "reference_not_a_bundle",
        "note_not_utf8",
        "manifest_entry_without_patient",
        "manifest_timestamp_not_a_string",
    ],
)
def test_evaluate_bad_corpus_file_names_it(corpus, tmp_path, caplog, relative, content):
    path = corpus / relative
    if content is None:
        path.unlink()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert f"bad corpus file {path}: " in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "resource_type, field, value, reason",
    [
        ("Condition", "code", "x", "Condition {id}: code is not an object"),
        ("Condition", "clinicalStatus", ["active"], "clinicalStatus is not an object"),
        ("Condition", "code", {"coding": ["x"]}, "code is not an object"),
        (
            "MedicationRequest",
            "medicationCodeableConcept",
            7,
            "medicationCodeableConcept is not an object",
        ),
        ("Observation", "subject", "Patient/p001", "subject is not an object"),
        (
            "MedicationRequest",
            "dosageInstruction",
            "10mg daily",
            "dosageInstruction is not a list of objects",
        ),
        ("Observation", "resourceType", "Encounter", "not a profile resource type"),
        ("Patient", "resourceType", "Person", "bundle has no Patient entry"),
        (
            "Patient",
            "identifier",
            [{"value": "p999"}],
            "Patient 'p999' is not the manifest's 'p001'",
        ),
    ],
    ids=[
        "code_a_string",
        "status_a_list",
        "coding_of_strings",
        "medication_code_a_number",
        "subject_a_string",
        "dosage_a_string",
        "unknown_resource_type",
        "no_patient",
        "another_patient",
    ],
)
def test_evaluate_rejects_reference_it_cannot_score(
    corpus, tmp_path, caplog, resource_type, field, value, reason
):
    path = corpus / "references" / "twin_p001.json"
    body = read_json(path)
    resource = next(
        entry["resource"]
        for entry in body["entry"]
        if entry["resource"]["resourceType"] == resource_type
    )
    resource[field] = value
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert f"bad corpus file {path}: ValueError: " in caplog.text
    assert reason.format(id=repr(resource["id"])) in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# Idempotency
# ---------------------------------------------------------------------------


def test_rerun_overwrites_identically(corpus, tables_dir, tmp_path):
    before = {
        p.relative_to(corpus): p.read_bytes() for p in sorted(corpus.rglob("*")) if p.is_file()
    }
    assert main(["synthesize", str(tables_dir), "--out", str(corpus)]) == 0
    after = {
        p.relative_to(corpus): p.read_bytes() for p in sorted(corpus.rglob("*")) if p.is_file()
    }
    assert before == after
