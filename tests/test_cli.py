from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from fhirtwin.cli import ABSENT, check, load_notes, main
from fhirtwin.pipeline import Pipeline

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
        ({}, "max_ngram = -3\n", "{config}: max_ngram: -3 is below 1"),
        ({}, "dictionary = nope.csv\n", "{dir}/nope.csv: No such file or directory"),
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
    ],
    ids=[
        "config_missing",
        "config_unknown_key",
        "config_bad_int",
        "config_max_ngram_below_1",
        "dictionary_missing",
        "dictionary_bad_row",
        "synonym_to_itself",
        "pattern_bad_regex",
        "cues_not_utf8",
        "templates_incomplete",
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
