from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from fhirtwin.cli import ABSENT, check, load_notes, main
from fhirtwin.fhir_assembly import is_date_time
from fhirtwin.ner import MAX_ID_BYTES
from fhirtwin.pipeline import Pipeline, default_data_dir

from conftest import FIG1_TEXT, TABLE3_TEXT, tree


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


def test_synthesize_missing_tables_dir(tmp_path):
    assert main(["synthesize", str(tmp_path / "nope"), "--out", str(tmp_path / "x")]) == 1


def test_synthesize_exits_3_after_skipping_a_patient(tmp_path, caplog):
    rows = "patient_id,code,description\np1,ICD10:I10,hypertension\n"
    runs = {}
    for name, extra in (("clean", ""), ("partial", "p2,ICD10:X99,frobnosticosis\n")):
        tables = tmp_path / name
        tables.mkdir()
        (tables / "diagnoses.csv").write_text(rows + extra, encoding="utf-8")
        out = tmp_path / f"out_{name}"
        runs[name] = main(["synthesize", str(tables), "--out", str(out)]), tree(out)
    assert runs["clean"][0] == 0
    assert runs["partial"][0] == 3
    assert "skipping patient p2" in caplog.text
    assert runs["partial"][1] == runs["clean"][1]
    assert Path("notes/p1-note.txt") in runs["clean"][1]


def test_setup_files_read_the_same_with_a_byte_order_mark(tables_dir, tmp_path):
    data = default_data_dir()
    setup = {
        "dictionary": "terminology.csv",
        "synonyms": "synonyms.csv",
        "patterns": "patterns.tsv",
        "cues": "cues.txt",
        "templates": "templates.tsv",
    }
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        root = tmp_path / ("bom" if bom else "plain")
        tables = root / "tables"
        tables.mkdir(parents=True)
        for table in tables_dir.iterdir():
            (tables / table.name).write_bytes(bom + table.read_bytes())
        for name in setup.values():
            (root / name).write_bytes(bom + (data / name).read_bytes())
        config = root / "fhirtwin.conf"
        lines = "".join(f"{key} = {name}\n" for key, name in setup.items())
        config.write_bytes(bom + lines.encode("utf-8"))
        out = root / "out"
        flags = ["--config", str(config)]
        assert main(["synthesize", str(tables), "--out", str(out / "corpus"), *flags]) == 0
        assert main(["evaluate", str(out / "corpus"), "--out", str(out / "eval"), *flags]) == 0
        outputs.append(tree(out))
    assert outputs[0] == outputs[1]
    assert read_json(tmp_path / "bom/out/eval/report.json")["ner_f1"] == 1.0


def test_synthesize_malformed_table_names_file(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / "diagnoses.csv").write_text("p1,I10\n", encoding="utf-8")
    assert main(["synthesize", str(tables), "--out", str(tmp_path / "x")]) == 1
    path = tables / "diagnoses.csv"
    assert capsys.readouterr().err == f"error: {path}:1: expected 3 columns, found 2\n"


@pytest.mark.parametrize(
    "files, reason",
    [
        (
            {"diagnoses.csv": "patient_id,code,description\np1,ICD10:I10\n"},
            "{dir}/diagnoses.csv:2: expected 3 columns, found 2",
        ),
        (
            {"labevents.csv": "p1,BP,120/80,,2023-01-01T00:00:00Z\n ,BP,1,,\n"},
            "{dir}/labevents.csv:2: patient_id must be non-empty",
        ),
        ({}, "{dir}: no input tables found"),
        (
            {"prescriptions.csv": b"p1,Lisinopril,10mg,daily\n\xff\n"},
            "{dir}/prescriptions.csv: 'utf-8' codec",
        ),
        (
            {"labevents.csv": "p1,BP,1,,2023-01-01T00:00:00Z\np1,BP,1,,last tuesday\n"},
            "{dir}/labevents.csv:2: timestamp 'last tuesday' is not an R4 dateTime",
        ),
        (
            {"labevents.csv": "p1,BP,1,,2023-02-29\n"},
            "{dir}/labevents.csv:1: timestamp '2023-02-29' is not an R4 dateTime",
        ),
    ],
    ids=[
        "bad_row", "empty_patient_id", "no_tables", "not_utf8", "lab_timestamp",
        "lab_timestamp_not_a_day",
    ],
)
def test_synthesize_bad_tables_are_one_error_line_and_exit_1(
    tmp_path, capsys, files, reason
):
    tables = tmp_path / "tables"
    tables.mkdir()
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        (tables / name).write_bytes(data)
    out = tmp_path / "out"
    assert main(["synthesize", str(tables), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + reason.format(dir=tables))
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["extract", "twin"])
@pytest.mark.parametrize("make", [None, "file"], ids=["missing", "a_file"])
def test_unlistable_notes_dir_is_a_setup_error(tmp_path, capsys, command, make):
    notes = tmp_path / "notes"
    if make == "file":
        notes.write_text(TABLE3_TEXT, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(notes), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    reason = "No such file or directory" if make is None else "Not a directory"
    assert err == f"error: {notes}: {reason}\n"
    assert not out.exists()


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
    loaded, skipped = load_notes(notes)
    assert len(skipped) == 2
    assert [(n.note_id, n.text) for n in loaded] == [
        ("n1", TABLE3_TEXT),
        ("n2", FIG1_TEXT),
    ]
    assert f"skipping {notes / 'n1.json'}: note id n1 already read from" in caplog.text
    assert f"skipping {notes / 'b.json'}: note id n2 already read from" in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert sorted(p.name for p in (out / "annotations").iterdir()) == [
        "n1.json",
        "n2.json",
    ]
    assert read_json(out / "annotations" / "n1.json")["mentions"]
    assert read_json(out / "annotations" / "n2.json")["mentions"]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("command", ["extract", "twin"])
def test_notes_read_the_same_with_a_byte_order_mark(tmp_path, caplog, command):
    """A ``.txt`` note, a ``.json`` note and a manifest, each saved with a
    byte-order mark, give the outputs of the same files without one."""
    outputs = []
    for bom in (b"", BOM):
        root = tmp_path / ("bom" if bom else "plain")
        notes = root / "notes"
        notes.mkdir(parents=True)
        files = {
            "manifest.json": {"notes": [{"note_id": "a", "patient_id": "p1"}]},
            "notes/a.txt": FIG1_TEXT + "\n",
            "notes/b.json": {"note_id": "b", "patient_id": "p2", "text": FIG1_TEXT},
        }
        for name, body in files.items():
            text = body if isinstance(body, str) else json.dumps(body)
            (root / name).write_bytes(bom + text.encode("utf-8"))
        out = root / "out"
        assert main([command, str(notes), "--out", str(out)]) == 0
        outputs.append(tree(out))
    assert outputs[0] == outputs[1]
    assert "skipping" not in caplog.text
    if command == "extract":
        for name in ("a.json", "b.json"):
            body = read_json(tmp_path / "bom/out/annotations" / name)
            assert (12, 20, "diabetes") in [
                (m["start"], m["end"], m["text"]) for m in body["mentions"]
            ]


def test_evaluate_reads_a_corpus_saved_with_byte_order_marks(corpus, tmp_path):
    """Manifest, notes, gold and reference files each read the same with a
    leading byte-order mark."""
    marked = tmp_path / "marked"
    shutil.copytree(corpus, marked)
    for path in marked.rglob("*"):
        if path.is_file():
            path.write_bytes(BOM + path.read_bytes())
    reports = []
    for root in (corpus, marked):
        out = tmp_path / f"eval_{root.name}"
        assert main(["evaluate", str(root), "--out", str(out)]) == 0
        reports.append(tree(out))
    assert reports[0] == reports[1]
    assert read_json(tmp_path / "eval_marked" / "report.json")["ner_f1"] == 1.0


def test_json_notes_with_non_string_fields_are_skipped(tmp_path, caplog):
    notes = tmp_path / "notes"
    notes.mkdir()
    write_json(notes / "int_text.json", {"text": 5})
    write_json(notes / "int_id.json", {"note_id": 7, "text": "Patient has diabetes."})
    write_json(notes / "null_patient.json", {"patient_id": None, "text": "BP 120/80."})
    write_json(notes / "dict_time.json", {"timestamp": {"x": 1}, "text": "BP 120/80."})
    write_json(notes / "good.json", {"timestamp": None, "text": FIG1_TEXT})
    assert [n.note_id for n in load_notes(notes)[0]] == ["good"]
    for name, fields in (
        ("int_text", "text"),
        ("int_id", "note_id"),
        ("null_patient", "patient_id"),
        ("dict_time", "timestamp"),
    ):
        assert f"skipping {notes / name}.json: {fields}: not a string" in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert [p.name for p in (out / "annotations").iterdir()] == ["good.json"]


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("empty_id.json", b'{"note_id": "", "text": "BP 120/80."}', "note_id must be non-empty"),
        ("latin1.txt", "Fi\xe8vre.".encode("latin-1"), "can't decode byte 0xe8"),
        ("broken.json", b'{"text": "BP 120/80."', "Expecting ','"),
        ("string.json", b'"BP 120/80 and some text"', "not a JSON object"),
        ("folder.txt", None, "Is a directory"),
        (
            "bad_time.json",
            b'{"timestamp": "last tuesday", "text": "BP 120/80."}',
            "timestamp: not a string in R4 dateTime form or null",
        ),
    ],
    ids=[
        "empty_note_id", "not_utf8", "not_json", "not_an_object", "directory",
        "timestamp_not_a_date_time",
    ],
)
def test_one_bad_note_file_is_skipped(tmp_path, caplog, name, content, reason):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    if content is None:
        (notes / name).mkdir()
    else:
        (notes / name).write_bytes(content)
    assert [n.note_id for n in load_notes(notes)[0]] == ["n1"]
    assert f"skipping {notes / name}: " in caplog.text
    assert reason in caplog.text

    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert main(["twin", str(notes), "--out", str(out)]) == 3
    assert [p.name for p in (out / "annotations").iterdir()] == ["n1.json"]
    assert sorted(p.name for p in (out / "bundles").iterdir()) == [
        "twin_n1.issues.json",
        "twin_n1.json",
    ]


@pytest.mark.parametrize(
    "content, reason",
    [
        ("{bad", "Expecting property name"),
        ('["n1"]', "not a JSON object"),
        ('{"notes": {"note_id": "n1"}}', "notes: not a list"),
        ('{"notes": ["n1"]}', "notes[0]: not a JSON object"),
        ('{"notes": [{"patient_id": "p1"}]}', "notes[0].note_id: missing"),
        (
            '{"notes": [{"note_id": "n1", "timestamp": {"x": 1}}]}',
            "notes[0].timestamp: not a string",
        ),
        (
            '{"notes": [{"note_id": "n1", "timestamp": "last tuesday"}]}',
            "notes[0].timestamp: not a string in R4 dateTime form or null",
        ),
        (
            '{"notes": [{"note_id": "n1", "timestamp": "2023-04-31T10:00:00Z"}]}',
            "notes[0].timestamp: not a string in R4 dateTime form or null",
        ),
    ],
    ids=[
        "not_json",
        "not_an_object",
        "notes_not_a_list",
        "entry_not_an_object",
        "entry_without_note_id",
        "timestamp_not_a_string",
        "timestamp_not_a_date_time",
        "timestamp_not_a_day",
    ],
)
def test_bad_manifest_is_skipped(tmp_path, caplog, content, reason):
    corpus = tmp_path / "corpus"
    (corpus / "notes").mkdir(parents=True)
    (corpus / "notes" / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    manifest = corpus / "manifest.json"
    manifest.write_text(content, encoding="utf-8")
    loaded, skipped = load_notes(corpus)
    assert [(n.note_id, n.patient_id, n.timestamp) for n in loaded] == [
        ("n1", "n1", None)
    ]
    assert f"skipping {manifest}: {reason}" in caplog.text
    assert len(skipped) == 1 and reason in skipped[0]

    out = tmp_path / "out"
    assert main(["extract", str(corpus), "--out", str(out)]) == 3
    assert main(["twin", str(corpus), "--out", str(out)]) == 3
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


def test_twin_no_normalize_rejects_every_codeable_resource(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "n1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["twin", str(notes), "--out", str(out), "--no-normalize"]) == 0
    twin = read_json(out / "bundles" / "twin_n1.json")
    assert [e["resource"]["resourceType"] for e in twin["entry"]] == ["Patient"]
    issues = read_json(out / "bundles" / "twin_n1.issues.json")
    rules = {}
    for issue in issues:
        if issue["severity"] == "ERROR":
            rules.setdefault(issue["resource_id"], []).append(issue["rule"])
    # Two conditions, the blood pressure and the medication: one rejection each.
    assert sorted(rules.values()) == [["C1"], ["C1"], ["M1"], ["O1"]]


def test_evaluate_no_relations_reports_dash(corpus, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out), "--no-relations"]) == 0
    report = read_json(out / "report.json")
    assert report["re_f1"] is None
    assert "--" in (out / "summary.tsv").read_text(encoding="utf-8")


def test_evaluate_rejects_a_has_result_gold_relation(corpus, tmp_path, caplog):
    path = corpus / "gold" / "p001-note.json"
    body = read_json(path)
    body["relations"][0]["rtype"] = "has-result"
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert f"bad corpus file {path}: ValueError: relations[0].rtype" in caplog.text
    assert not out.exists()


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
        (
            "manifest.json",
            '{"notes": [{"note_id": "p001-note", "patient_id": "p001", '
            '"timestamp": "last tuesday"}]}',
        ),
    ],
    ids=[
        "gold_missing",
        "gold_without_note_id",
        "reference_not_a_bundle",
        "note_not_utf8",
        "manifest_entry_without_patient",
        "manifest_timestamp_not_a_string",
        "manifest_timestamp_not_a_date_time",
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


def test_evaluate_rejects_a_note_listed_twice(corpus, tmp_path, caplog):
    manifest_path = corpus / "manifest.json"
    manifest = read_json(manifest_path)
    manifest["notes"].append(manifest["notes"][0])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert (
        f"bad corpus file {manifest_path}: ValueError: note 'p001-note' is listed twice"
        in caplog.text
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "resource_type, field, value, reason",
    [
        ("Condition", "code", "x", "entry[{i}].resource.code: not a JSON object"),
        (
            "Condition",
            "clinicalStatus",
            ["active"],
            "entry[{i}].resource.clinicalStatus: not a JSON object",
        ),
        (
            "Condition",
            "code",
            {"coding": ["x"]},
            "entry[{i}].resource.code.coding[0]: not a JSON object",
        ),
        (
            "MedicationRequest",
            "medicationCodeableConcept",
            7,
            "entry[{i}].resource.medicationCodeableConcept: not a JSON object",
        ),
        (
            "Observation",
            "subject",
            "Patient/p001",
            "entry[{i}].resource.subject: not a JSON object",
        ),
        (
            "MedicationRequest",
            "dosageInstruction",
            "10mg daily",
            "entry[{i}].resource.dosageInstruction: not a list",
        ),
        (
            "Observation",
            "resourceType",
            "Encounter",
            "entry[{i}].resource.resourceType: not one of",
        ),
        ("Patient", "resourceType", "Person", "entry[{i}].resource.resourceType: not one of"),
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
    i, resource = next(
        (i, entry["resource"])
        for i, entry in enumerate(body["entry"])
        if entry["resource"]["resourceType"] == resource_type
    )
    resource[field] = value
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert f"bad corpus file {path}: ValueError: " in caplog.text
    assert reason.format(i=i) in caplog.text
    assert not out.exists()


def first_of(body, resource_type):
    return next(
        (i, entry["resource"])
        for i, entry in enumerate(body["entry"])
        if entry["resource"]["resourceType"] == resource_type
    )


def set_gold_start(body):
    body["mentions"][0]["start"] = str(body["mentions"][0]["start"])
    return "mentions[0].start: not an integer"


def set_gold_head_of_three(body):
    body["relations"][0]["head"].append(9)
    return "relations[0].head: not a list of 2"


def set_gold_note_id(body):
    body["note_id"] = "p002-note"
    return "note_id 'p002-note' is not the manifest's 'p001-note'"


def set_reference_id(body):
    i, resource = first_of(body, "Condition")
    resource["id"] = 5
    return f"entry[{i}].resource.id: not a string"


def add_second_coding(body):
    i, resource = first_of(body, "Condition")
    coding = resource["code"]["coding"]
    coding.append({"system": coding[0]["system"], "code": 5})
    return f"entry[{i}].resource.code.coding[1].code: not a string"


def set_dosage_text(body):
    i, resource = first_of(body, "MedicationRequest")
    resource["dosageInstruction"][0]["text"] = ["10mg", "daily"]
    return f"entry[{i}].resource.dosageInstruction[0].text: not a string"


def set_subject_reference(body):
    i, resource = first_of(body, "Observation")
    resource["subject"]["reference"] = 5
    return f"entry[{i}].resource.subject.reference: not a string"


@pytest.mark.parametrize(
    "relative, mutate",
    [
        ("gold/p001-note.json", set_gold_start),
        ("gold/p001-note.json", set_gold_head_of_three),
        ("gold/p001-note.json", set_gold_note_id),
        ("references/twin_p001.json", set_reference_id),
        ("references/twin_p001.json", add_second_coding),
        ("references/twin_p001.json", set_dosage_text),
        ("references/twin_p001.json", set_subject_reference),
    ],
    ids=[
        "gold_start_a_string",
        "gold_head_of_three",
        "gold_of_another_note",
        "reference_id_a_number",
        "second_coding_code_a_number",
        "dosage_text_a_list",
        "subject_reference_a_number",
    ],
)
def test_evaluate_names_the_field_it_cannot_score(corpus, tmp_path, caplog, relative, mutate):
    path = corpus / relative
    body = read_json(path)
    field = mutate(body)
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
    assert f"bad corpus file {path}: ValueError: {field}" in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# Setup errors and exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "files, config, reason",
    [
        ({}, None, "{config}: No such file or directory"),
        ({}, "colour = red\n", "{config}: unknown config key 'colour'"),
        ({}, "seed = x\n", "{config}: seed: invalid literal for int()"),
        ({}, "max_ngram = 6\n", "{config}: unknown config key 'max_ngram'"),
        (
            {},
            "placeholder_dosage = see label\n",
            "{config}: unknown config key 'placeholder_dosage'",
        ),
        ({}, "naive_mapping = 1\n", "{config}: unknown config key 'naive_mapping'"),
        (
            {},
            "train_ratio = 0.5\nvalidation_ratio = 0.2\ntest_ratio = 0.2\n",
            "{config}: ratios (0.5, 0.2, 0.2) must be non-negative and sum to 1",
        ),
        (
            {},
            "train_ratio = -1\nvalidation_ratio = 0.5\ntest_ratio = 0.5\n",
            "{config}: ratios (-1.0, 0.5, 0.5) must be non-negative and sum to 1",
        ),
        (
            {},
            "disable_relations = ture\n",
            "{config}: disable_relations: 'ture' is not 1/0, true/false",
        ),
        ({}, "dictionary = nope.csv\n", "{dir}/nope.csv: No such file or directory"),
        ({}, "dictionary =\n", "{config}: dictionary: empty value"),
        ({}, "dictionary = , \n", "{config}: dictionary: no file named"),
        ({}, "dictionary = a\0b\n", "{config}:1: line contains NUL"),
        ({}, "default_timestamp =\n", "{config}: default_timestamp: empty value"),
        (
            {},
            "default_timestamp = last tuesday\n",
            "{config}: default_timestamp: 'last tuesday' is not an R4 dateTime",
        ),
        (
            {},
            "default_timestamp = 2023-02-31T00:00:00Z\n",
            "{config}: default_timestamp: '2023-02-31T00:00:00Z' is not an R4 dateTime",
        ),
        ({}, "out =\n", "{config}: out: empty value"),
        ({}, "patterns = \n", "{config}: patterns: empty value"),
        ({}, "seed =\n", "{config}: seed: empty value"),
        ({}, "disable_relations =\n", "{config}: disable_relations: empty value"),
        ({}, "test_ratio =\n", "{config}: test_ratio: empty value"),
        (
            {"d.csv": "hypertension,SNOMED,38341003\n"},
            "dictionary = d.csv\n",
            "{dir}/d.csv:1: expected 5 columns, found 3",
        ),
        (
            {"s.csv": "bp,bp\n"},
            "synonyms = s.csv\n",
            "{dir}/s.csv: synonym 'bp' points at itself",
        ),
        (
            {"p.tsv": "dose\tDOSAGE\t(\\d+\n"},
            "patterns = p.tsv\n",
            "{dir}/p.tsv:1: bad regex: missing )",
        ),
        ({"c.txt": b"due to\n\xff\n"}, "cues = c.txt\n", "{dir}/c.txt: 'utf-8' codec"),
        (
            {"t.tsv": "history\tHistory of {a} and {b}.\n"},
            "templates = t.tsv\n",
            "{dir}/t.tsv: missing templates",
        ),
        (
            {
                "t.tsv": "history\tHistory of {a} and {b}.\n"
                "diagnosis\tPatient has {description}.\n"
                "medication\tStarted {drug} {dose} {frequency}.\n"
                "lab\t{test} {value} {units}.\n"
            },
            "templates = t.tsv\n",
            "{dir}/t.tsv:4: lab template: unknown slot {{units}}",
        ),
    ],
    ids=[
        "config_missing",
        "config_unknown_key",
        "config_bad_int",
        "config_removed_max_ngram",
        "config_removed_placeholder_dosage",
        "config_removed_naive_mapping",
        "config_ratios_not_summing_to_1",
        "config_negative_ratio",
        "config_bad_bool",
        "dictionary_missing",
        "dictionary_empty",
        "dictionary_only_commas",
        "config_line_with_nul",
        "default_timestamp_empty",
        "default_timestamp_not_a_date_time",
        "default_timestamp_not_a_day",
        "out_empty",
        "patterns_empty",
        "seed_empty",
        "bool_empty",
        "ratio_empty",
        "dictionary_bad_row",
        "synonym_to_itself",
        "pattern_bad_regex",
        "cues_not_utf8",
        "templates_incomplete",
        "template_unknown_slot",
    ],
)
@pytest.mark.parametrize("command", ["synthesize", "extract", "twin", "evaluate"])
def test_setup_error_is_one_line_and_exit_1(tmp_path, capsys, files, config, reason, command):
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        (tmp_path / name).write_bytes(data)
    config_path = tmp_path / "fhirtwin.conf"
    if config is not None:
        config_path.write_text(config, encoding="utf-8")
    notes = tmp_path / "notes"
    notes.mkdir()
    argv = [command, str(notes), "--out", str(tmp_path / "out"), "--config", str(config_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + reason.format(config=config_path, dir=tmp_path))
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad_id",
    [
        "sub/n1",
        "../../escaped",
        "..",
        ".",
        "a\\b",
        "nul\0",
        pytest.param("x" * 300, id="300_chars"),
    ],
)
def test_no_command_writes_outside_out_whatever_the_ids(
    tables_dir, tmp_path, caplog, capsys, bad_id
):
    root = tmp_path / "in" / "deep"
    notes = root / "notes"
    notes.mkdir(parents=True)
    for name in ("good", "m"):
        (notes / f"{name}.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    write_json(root / "manifest.json", {"notes": [{"note_id": "m", "patient_id": bad_id}]})
    write_json(notes / "n.json", {"note_id": bad_id, "text": TABLE3_TEXT})
    write_json(notes / "p.json", {"note_id": "p", "patient_id": bad_id, "text": TABLE3_TEXT})
    tables = root / "tables"
    tables.mkdir()
    diagnoses = tables / "diagnoses.csv"
    diagnoses.write_text(
        f"p1,ICD10:I10,hypertension\n{bad_id},ICD10:I10,hypertension\n", encoding="utf-8"
    )
    corpus = root / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(corpus)]) == 0
    manifest = read_json(corpus / "manifest.json")
    manifest["notes"][0]["note_id"] = bad_id
    write_json(corpus / "manifest.json", manifest)
    inputs = tree(tmp_path)
    capsys.readouterr()
    out = root / "out"

    assert main(["synthesize", str(tables), "--out", str(out / "s")]) == 1
    why = (
        f"is longer than {MAX_ID_BYTES} UTF-8 bytes"
        if len(bad_id) > MAX_ID_BYTES
        else "is not a plain file name part"
    )
    # A setup table rejects a NUL anywhere in a line before reading its cells.
    reason = "line contains NUL" if "\0" in bad_id else f"patient_id {bad_id!r} {why}"
    assert capsys.readouterr().err == f"error: {diagnoses}:2: {reason}\n"
    assert main(["extract", str(notes), "--out", str(out / "x")]) == 3
    assert main(["twin", str(notes), "--out", str(out / "t")]) == 3
    for name, field in (
        ("m.txt", "patient_id"),
        ("n.json", "note_id"),
        ("p.json", "patient_id"),
    ):
        assert f"skipping {notes / name}: {field} {bad_id!r} {why}" in caplog.text
    assert main(["evaluate", str(corpus), "--out", str(out / "e")]) == 2
    assert f"bad corpus file {corpus / 'manifest.json'}: ValueError: note_id" in caplog.text

    written = tree(tmp_path)
    assert {p: data for p, data in written.items() if out not in (tmp_path / p).parents} == inputs
    assert sorted(path.as_posix() for path in tree(out)) == [
        "t/bundles/twin_good.issues.json",
        "t/bundles/twin_good.json",
        "x/annotations/good.json",
    ]


def test_unusable_note_files_beside_a_good_one_exit_3(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "good.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    (notes / "latin1.txt").write_bytes("Fi\xe8vre.".encode("latin-1"))
    write_json(notes / "int_text.json", {"text": 5})
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert main(["twin", str(notes), "--out", str(out)]) == 3
    assert [p.name for p in (out / "annotations").iterdir()] == ["good.json"]
    assert sorted(p.name for p in (out / "bundles").iterdir()) == [
        "twin_good.issues.json",
        "twin_good.json",
    ]


def test_a_failing_note_or_patient_exits_3(tmp_path, monkeypatch, caplog):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "good.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    (notes / "bad.txt").write_text(FIG1_TEXT + "\n", encoding="utf-8")
    annotate = Pipeline.annotate

    def failing_annotate(self, note):
        if note.note_id == "bad":
            raise RuntimeError("boom")
        return annotate(self, note)

    monkeypatch.setattr(Pipeline, "annotate", failing_annotate)
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert "note=bad stage=extract failed: boom" in caplog.text
    assert main(["twin", str(notes), "--out", str(out)]) == 3
    assert "patient=bad stage=twin failed: boom" in caplog.text
    assert [p.name for p in (out / "annotations").iterdir()] == ["good.json"]
    assert sorted(p.name for p in (out / "bundles").iterdir()) == [
        "twin_good.issues.json",
        "twin_good.json",
    ]


def test_an_id_of_the_longest_allowed_length_is_written(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    # A two-byte character, so the limit counts UTF-8 bytes, not characters.
    longest = "é" * (MAX_ID_BYTES // 2)
    too_long = longest + "x"
    for note_id in (longest, too_long):
        (notes / f"{note_id}.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 3
    assert main(["twin", str(notes), "--out", str(out)]) == 3
    assert sorted(path.name for path in tree(out)) == [
        f"twin_{longest}.issues.json",
        f"twin_{longest}.json",
        f"{longest}.json",
    ]


def test_a_patient_id_whose_note_id_is_too_long_is_a_bad_row(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    diagnoses = tables / "diagnoses.csv"
    # The note id adds "-note", so the longest patient id is 5 bytes short.
    longest = "p" * (MAX_ID_BYTES - len("-note"))
    diagnoses.write_text(f"{longest},ICD10:I10,hypertension\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synthesize", str(tables), "--out", str(out / "ok")]) == 0
    assert (out / "ok" / "notes" / f"{longest}-note.txt").is_file()
    diagnoses.write_text(f"{longest}p,ICD10:I10,hypertension\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["synthesize", str(tables), "--out", str(out / "bad")]) == 1
    assert capsys.readouterr().err == (
        f"error: {diagnoses}:1: note_id '{longest}p-note' "
        f"is longer than {MAX_ID_BYTES} UTF-8 bytes\n"
    )
    assert not (out / "bad").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="needs file names of any bytes")
def test_a_note_file_name_that_is_not_utf8_is_extracted(tmp_path):
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / os.fsdecode(b"n\xff.txt")).write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["extract", str(notes), "--out", str(out)]) == 0
    assert os.listdir(os.fsencode(out / "annotations")) == [b"n\xff.json"]
    assert main(["twin", str(notes), "--out", str(out)]) == 0
    assert sorted(os.listdir(os.fsencode(out / "bundles"))) == [
        b"twin_n\xff.issues.json",
        b"twin_n\xff.json",
    ]


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("extract", "annotations/n1.json"),
        ("twin", "bundles/twin_n1.json"),
        ("twin", "bundles/twin_n1.issues.json"),
    ],
)
def test_an_unwritable_output_fails_only_its_item(tmp_path, caplog, command, blocked):
    notes = tmp_path / "notes"
    notes.mkdir()
    for note_id in ("n1", "n2"):
        (notes / f"{note_id}.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, str(notes), "--out", str(out)]) == 3
    item = "note" if command == "extract" else "patient"
    assert caplog.text.count(f"stage={command} failed") == 1
    assert f"{item}=n1 stage={command} failed: [Errno 21]" in caplog.text
    # n2 is written, and so is n1's bundle when only its issues file fails.
    if command == "extract":
        expected = {"annotations/n2.json"}
    else:
        twins = ("twin_n1.json", "twin_n2.json", "twin_n2.issues.json")
        expected = {f"bundles/{name}" for name in twins} - {blocked}
    assert {path.as_posix() for path in tree(out)} == expected


@pytest.mark.parametrize(
    "command, blocked", [("synthesize", "notes/p002-note.txt"), ("evaluate", "report.json")]
)
def test_an_unwritable_corpus_file_or_report_fails_only_its_item(
    corpus, tables_dir, tmp_path, caplog, command, blocked
):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    source = tables_dir if command == "synthesize" else corpus
    assert main([command, str(source), "--out", str(out)]) == 3
    assert caplog.text.count(f"stage={command} failed") == 1
    written = tree(out)
    if command == "evaluate":
        assert f"corpus={corpus} stage=evaluate failed: [Errno 21]" in caplog.text
        assert written == {}
        return
    assert "note=p002-note stage=synthesize failed: [Errno 21]" in caplog.text
    # The other 23 cases are written, and the manifest still lists p002-note,
    # so evaluating this corpus names the missing file.
    p002 = {Path(blocked), Path("gold/p002-note.json"), Path("references/twin_p002.json")}
    assert written == {path: data for path, data in tree(corpus).items() if path not in p002}
    assert main(["evaluate", str(out), "--out", str(tmp_path / "eval")]) == 2
    assert f"bad corpus file {out / blocked}: IsADirectoryError" in caplog.text


@pytest.mark.parametrize("kind", ["a_file", "nul"])
@pytest.mark.parametrize("command", ["synthesize", "extract", "twin", "evaluate"])
def test_an_out_that_cannot_be_made_is_a_setup_error(
    corpus, tables_dir, tmp_path, capsys, command, kind
):
    if kind == "a_file":
        out = tmp_path / "out"
        out.write_text("", encoding="utf-8")
        reason = f"{out}: {os.strerror(errno.EEXIST)}"
    else:  # as a config file's ``out`` can give
        out, reason = tmp_path / "o\0ut", "embedded null byte"
    before = tree(tmp_path)
    source = tables_dir if command == "synthesize" else corpus
    capsys.readouterr()
    assert main([command, str(source), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert tree(tmp_path) == before


@pytest.mark.parametrize(
    "value, shape, error",
    [
        ({"a": 1, "extra": [None]}, {"a": int}, None),
        ({}, {"a": (int, ABSENT)}, None),
        ({}, {"a": int}, "a: missing"),
        ({"a": True}, {"a": int}, "a: not an integer"),
        ({"a": None}, {"a": (str, None)}, None),
        ({"a": 1}, {"a": (str, None, ABSENT)}, "a: not a string or null"),
        ([[1, 2], [3, 4]], [[int, int]], None),
        ([[1, 2], [3]], [[int, int]], "[1]: not a list of 2"),
        ({"e": [{"t": "B"}]}, {"e": [{"t": frozenset("AB")}]}, None),
        ({"e": [{"t": "C"}]}, {"e": [{"t": frozenset("AB")}]}, "e[0].t: not one of A, B"),
        ("text", {"a": int}, "not a JSON object"),
        *(
            pytest.param(value, is_date_time, error, id=f"date_time-{value}")
            for value, error in (
                ("2023-03-01T08:30:00Z", None),
                ("2023-03-01T08:30:00.25-05:00", None),
                ("2023-03", None),
                ("2024-02-29", None),
                ("last tuesday", "not a string in R4 dateTime form"),
                ("2023-03-01T08:30Z", "not a string in R4 dateTime form"),
                (5, "not a string in R4 dateTime form"),
                ("2023-02-31", "not a string in R4 dateTime form"),
                ("2023-02-29", "not a string in R4 dateTime form"),
                ("2023-04-31T10:00:00Z", "not a string in R4 dateTime form"),
            )
        ),
        pytest.param(
            {"t": "2023-03-01 "},
            {"t": (is_date_time, None)},
            "t: not a string in R4 dateTime form or null",
            id="date_time_or_null",
        ),
    ],
)
def test_check(value, shape, error):
    if error is None:
        check(value, shape)
    else:
        with pytest.raises(ValueError) as excinfo:
            check(value, shape)
        assert str(excinfo.value) == error


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


#: sha256 over the relative path and bytes of every file that
#: ``synthesize`` writes for the bundled tables and that ``extract``,
#: ``twin`` and ``evaluate`` write for that corpus, with no flag and with
#: ``--naive``. A change that alters an output on purpose updates it.
GOLDEN_OUTPUTS_SHA256 = "5ac214c4e0f2192cb6fc0233816c59bf1c6f0b77385745e8522e7f0acd4457a1"


def test_outputs_on_the_bundled_tables_match_the_golden_digest(tables_dir, tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(corpus)]) == 0
    for name, flags in (("full", []), ("naive", ["--naive"])):
        for command in ("extract", "twin", "evaluate"):
            out = tmp_path / name / command
            assert main([command, str(corpus), "--out", str(out), *flags]) == 0
    digest = hashlib.sha256()
    for path, data in tree(tmp_path).items():
        digest.update(f"{path.as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    assert digest.hexdigest() == GOLDEN_OUTPUTS_SHA256


#: The observation row the bundled ``patterns.tsv`` had before observation
#: values were read after dictionary names.
OLD_OBS_VALUE_ROW = (
    "OBS_VALUE\tOBSERVATION\t"
    r"\b(?:a(?:1c|lbumin)|b(?:ilirubin|lood pressure|mi|np|p|un)|c(?:holesterol"
    r"|reatinine)|ejection fraction|glucose|h(?:ba1c|dl|eart rate|emoglobin|r)"
    r"|inr|l(?:actate|dl)|o(?:2 sat|xygen saturation)|p(?:latelets|otassium)"
    r"|respiratory rate|s(?:odium|po2)|t(?:emperature|riglycerides|roponin)"
    r"|w(?:bc|eight))(?:\s*:\s*|\s+)\d+(?:\.\d+)?(?:\s?/\s?\d+(?:\.\d+)?)?"
    r"(?:\s?(?:mmhg|mg/dl|mmol/l|meq/l|g/dl|k/ul|u/l|ng/ml|pg/ml|mm/hr|/min|bpm"
    r"|lbs?|kg|cm|sec|%|f|c))?(?!\w)"
    "\n"
)


def test_a_pattern_file_with_the_old_observation_row_gives_the_same_outputs(
    tables_dir, tmp_path
):
    old = tmp_path / "old_patterns.tsv"
    bundled = (default_data_dir() / "patterns.tsv").read_text(encoding="utf-8")
    old.write_text(bundled + OLD_OBS_VALUE_ROW, encoding="utf-8")
    (tmp_path / "old.conf").write_text(f"patterns = {old}\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(corpus)]) == 0
    for flags in ([], ["--naive"], ["--no-normalize"], ["--no-relations"], ["--no-validate"]):
        outputs = {}
        for name, config in (("new", []), ("old", ["--config", str(tmp_path / "old.conf")])):
            for command in ("extract", "twin", "evaluate"):
                out = tmp_path / name / command
                assert main([command, str(corpus), "--out", str(out), *flags, *config]) == 0
            outputs[name] = tree(tmp_path / name)
            shutil.rmtree(tmp_path / name)
        assert outputs["old"] == outputs["new"], flags
        assert any(b'"etype": "OBSERVATION"' in data for data in outputs["new"].values())
