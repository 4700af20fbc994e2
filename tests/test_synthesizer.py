from __future__ import annotations

import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhirtwin.evaluation import (
    gold_relation_keys,
    mention_key,
    relation_keys,
)
from fhirtwin.fhir_assembly import Severity, validate
from fhirtwin.normalizer import normalize_key
from fhirtwin.pipeline import BadRatiosError
from fhirtwin.synthesizer import (
    Diagnosis,
    Lab,
    Medication,
    StructuredRecord,
    UnresolvableRecordError,
    load_records,
    load_templates,
    render_template,
    split_corpus,
    synthesize,
)
from fhirtwin.terminology import EntityType, MalformedRowError

from conftest import FIG1_TEXT


@pytest.fixture(scope="module")
def templates(config):
    return load_templates(config.templates)


def record(patient_id="p1", diagnoses=(), medications=(), labs=()):
    return StructuredRecord(
        patient_id=patient_id,
        diagnoses=tuple(Diagnosis(*d) for d in diagnoses),
        medications=tuple(Medication(*m) for m in medications),
        labs=tuple(Lab(*lab) for lab in labs),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_template_tracks_spans():
    text, spans = render_template("Started {drug} {dose}.", {"drug": "Metformin", "dose": "500mg"})
    assert text == "Started Metformin 500mg."
    assert text[slice(*spans["drug"])] == "Metformin"
    assert text[slice(*spans["dose"])] == "500mg"


def test_render_template_swallows_empty_slots():
    text, spans = render_template(
        "{test} {value} {unit}.", {"test": "BP", "value": "145/92", "unit": ""}
    )
    assert text == "BP 145/92."
    assert "unit" not in spans


def test_render_template_missing_slot():
    with pytest.raises(KeyError):
        render_template("{a} {b}", {"a": "x"})


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


BUNDLED_TEMPLATES = {
    "history": "History of {a} and {b}.",
    "diagnosis": "Patient has {description}.",
    "medication": "Started {drug} {dose} {frequency}.",
    "lab": "{test} {value} {unit}.",
}


@pytest.mark.parametrize(
    "key, template, reason",
    [
        ("lab", "{test} {value} {units}.", "lab template: unknown slot {units}"),
        ("history", "History of {a}, {b} and {c}.", "history template: unknown slot {c}"),
        ("diagnosis", "Patient has {drug}.", "diagnosis template: unknown slot {drug}"),
        ("history", "History of {a}.", "history template: missing slot {b}"),
        ("medication", "Started {dose} {frequency}.", "medication template: missing slot {drug}"),
        ("lab", "{value} {unit}.", "lab template: missing slot {test}"),
    ],
)
def test_load_templates_checks_each_templates_slots(tmp_path, key, template, reason):
    lines = [f"{k}\t{template if k == key else t}" for k, t in BUNDLED_TEMPLATES.items()]
    path = tmp_path / "templates.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as raised:
        load_templates(path)
    line_no = list(BUNDLED_TEMPLATES).index(key) + 1
    assert str(raised.value) == f"{path}:{line_no}: {reason}"


def test_load_templates_takes_the_optional_slots_or_leaves_them_out(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text(
        "history\t{b} then {a}.\ndiagnosis\tHas {description}.\n"
        "medication\tOn {drug}.\nlab\t{unit} {test}.\n",
        encoding="utf-8",
    )
    assert load_templates(path).medication == "On {drug}."


def test_fig1_record_renders_expected_note(templates, index, config):
    case = synthesize(
        record(
            diagnoses=[("ICD10", "E14", "diabetes")],
            medications=[("Metformin", "500mg", "twice daily")],
        ),
        templates,
        index,
        config.default_timestamp,
    )
    assert case.note.text == FIG1_TEXT
    coded = [
        (case.note.text[m.start : m.end], m.system.name if m.system else None, m.code)
        for m in case.gold.mentions
    ]
    assert coded == [
        ("diabetes", "SNOMED", "73211009"),
        ("Metformin", "RXNORM", "6809"),
        ("500mg twice daily", None, None),
    ]
    assert len(case.gold.relations) == 1


def test_empty_record_is_rejected(templates, index, config):
    with pytest.raises(ValueError):
        synthesize(record(), templates, index, config.default_timestamp)


def test_unresolvable_record(templates, index, config):
    with pytest.raises(UnresolvableRecordError):
        synthesize(
            record(diagnoses=[("ICD10", "X99", "frobnosticosis")]),
            templates,
            index,
            config.default_timestamp,
        )


def test_partially_resolvable_record_warns_and_skips(templates, index, config, caplog):
    with caplog.at_level(logging.WARNING):
        case = synthesize(
            record(
                diagnoses=[
                    ("ICD10", "X99", "frobnosticosis"),
                    ("ICD10", "I10", "hypertension"),
                ]
            ),
            templates,
            index,
            config.default_timestamp,
        )
    assert "frobnosticosis" in caplog.text
    assert case.note.text == "Patient has hypertension."


def test_gold_spans_slice_note_text(pipeline, config, templates, tables_dir):
    for rec in load_records(tables_dir):
        case = synthesize(rec, templates, pipeline.index, config.default_timestamp)
        for mention in case.gold.mentions:
            assert 0 <= mention.start < mention.end <= len(case.note.text)


@pytest.fixture(scope="module")
def resolvable(index):
    """Each item kind's dictionary surfaces that resolve as its entity type."""
    return {
        etype: sorted(k for k in index.entries if normalize_key(k, etype, index))
        for etype in (EntityType.CONDITION, EntityType.MEDICATION, EntityType.OBSERVATION)
    }


#: A table cell as ``load_records`` leaves it: stripped, and possibly empty.
maybe_empty = st.one_of(
    st.just(""), st.from_regex(r"[0-9a-z/]{1,5}( [0-9a-z/]{1,5})?", fullmatch=True)
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gold_spans_slice_note_to_each_items_text(data, resolvable, templates, index):
    def names(etype):
        return st.sampled_from(resolvable[etype])

    rec = record(
        diagnoses=data.draw(
            st.lists(st.tuples(st.just(""), st.just("x"), names(EntityType.CONDITION)))
        ),
        medications=data.draw(
            st.lists(st.tuples(names(EntityType.MEDICATION), maybe_empty, maybe_empty))
        ),
        labs=data.draw(
            st.lists(
                st.tuples(
                    names(EntityType.OBSERVATION),
                    maybe_empty,
                    maybe_empty,
                    st.sampled_from(["", "2023-03-01T08:30:00Z"]),
                )
            )
        ),
    )
    assume(rec.diagnoses or rec.medications or rec.labs)
    case = synthesize(rec, templates, index)
    text = case.note.text

    def filled(*parts):
        return [part for part in parts if part]

    expected = [(EntityType.CONDITION, d.description) for d in rec.diagnoses]
    dosages = []
    for medication in rec.medications:
        expected.append((EntityType.MEDICATION, medication.drug))
        parts = filled(medication.dose, medication.frequency)
        if parts:
            expected.append((EntityType.DOSAGE, " ".join(parts)))
            dosages.append(parts)
    for lab in rec.labs:
        expected.append((EntityType.OBSERVATION, " ".join(filled(lab.test, lab.value, lab.unit))))
    mentions = case.gold.mentions
    assert [(m.etype, text[m.start : m.end]) for m in mentions] == expected

    dosage_spans = [(m.start, m.end) for m in mentions if m.etype == EntityType.DOSAGE]
    assert [r.tail_span for r in case.gold.relations] == dosage_spans
    for (start, end), parts in zip(dosage_spans, dosages):
        assert text.startswith(parts[0], start)
        assert text.endswith(parts[-1], start, end)


def test_reference_bundles_validate_clean(pipeline, config, templates, tables_dir):
    for rec in load_records(tables_dir):
        case = synthesize(rec, templates, pipeline.index, config.default_timestamp)
        entries = [r for r in case.reference.entries if r.resource_type != "Patient"]
        issues = validate(entries, case.reference.patient())
        assert [i for i in issues if i.severity == Severity.ERROR] == []


def test_pipeline_reproduces_gold_exactly(pipeline, config, templates, tables_dir):
    # closure: run the full pipeline over every synthesized note and compare
    # mention and relation keys against the emitted gold, both directions
    for rec in load_records(tables_dir):
        case = synthesize(rec, templates, pipeline.index, config.default_timestamp)
        annotation = pipeline.annotate(case.note)
        mentions = [a.mention for a in annotation.annotated]
        predicted = sorted(mention_key(case.note.note_id, m) for m in mentions)
        gold = sorted(mention_key(case.note.note_id, g) for g in case.gold.mentions)
        assert predicted == gold, case.note.text
        predicted_rel = sorted(
            relation_keys(case.note.note_id, annotation.relations, mentions)
        )
        gold_rel = sorted(gold_relation_keys(case.note.note_id, case.gold))
        assert predicted_rel == gold_rel, case.note.text


def test_note_timestamp_comes_from_earliest_lab(templates, index, config):
    case = synthesize(
        record(
            labs=[
                ("Glucose", "180", "mg/dL", "2023-06-02T08:00:00Z"),
                ("Sodium", "140", "mmol/L", "2023-06-01T07:00:00Z"),
            ]
        ),
        templates,
        index,
        config.default_timestamp,
    )
    assert case.note.timestamp == "2023-06-01T07:00:00Z"


def test_medication_without_dose_gets_placeholder_reference(templates, index, config):
    case = synthesize(
        record(medications=[("Aspirin", "", "")]), templates, index, config.default_timestamp
    )
    assert case.note.text == "Started Aspirin."
    meds = [
        r for r in case.reference.entries if r.resource_type == "MedicationRequest"
    ]
    assert meds[0].fields["dosageInstruction"] == [{"text": "as directed"}]
    assert case.gold.relations == ()


# ---------------------------------------------------------------------------
# Table loading
# ---------------------------------------------------------------------------


def test_load_records_from_bundled_tables(tables_dir):
    records = load_records(tables_dir)
    assert len(records) == 24
    assert records[0].patient_id == "p001"
    assert records[0].diagnoses[0].description == "hypertension"
    assert records[0].diagnoses[0].tag == "ICD10"


def test_load_records_missing_table_warns(tmp_path, tables_dir, caplog):
    (tmp_path / "diagnoses.csv").write_text(
        (tables_dir / "diagnoses.csv").read_text(encoding="utf-8"), encoding="utf-8"
    )
    with caplog.at_level(logging.WARNING):
        records = load_records(tmp_path)
    assert "labevents" in caplog.text
    assert all(not r.labs and not r.medications for r in records)


def test_load_records_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_records(tmp_path)


def test_load_records_bad_column_count(tmp_path):
    (tmp_path / "diagnoses.csv").write_text("p1,I10\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_records(tmp_path)


#: Each table's header row and the record item its rows become.
TABLES = {
    "diagnoses": ("patient_id,code,description", Diagnosis),
    "prescriptions": ("patient_id,drug,dose,frequency", Medication),
    "labevents": ("patient_id,test,value,unit,timestamp", Lab),
}
#: Cells hold no comma, quote, colon or ``#``, so each reads back as drawn,
#: stripped.
cell = st.text(" abXY019.-/%", max_size=6)
patient_id = st.text("pq012", min_size=1, max_size=3)
#: A lab timestamp cell: empty or an R4 ``dateTime``, padded or not. The
#: colons are safe here: only a diagnosis code splits at one.
lab_timestamp = st.sampled_from(
    ["", " ", "2023", "2023-01", "2023-01-02", "2023-01-02T03:04:05Z",
     " 2024-02-29T23:59:60.5+14:00 "]
)
#: Blank, whitespace-only and comment lines, which the loader skips
#: wherever they are.
junk_line = st.sampled_from(["", "   ", "\t", " \t ", "# comment", "  # a, b, c", "#,,,"])


@st.composite
def table_file(draw, name):
    """The lines of one table, and the (patient id, item) of each data row."""
    header, item_type = TABLES[name]
    lines = [header] if draw(st.booleans()) else []
    items = []
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(junk_line, max_size=2))
        pid = draw(patient_id)
        cells = [draw(cell) for _ in range(header.count(","))]
        if item_type is Lab:
            cells[-1] = draw(lab_timestamp)
        fields = [c.strip() for c in cells]
        if item_type is Diagnosis:
            tag = draw(st.sampled_from(["", "ICD10", "SNOMED"]))
            cells[0] = f"{tag}:{cells[0]}" if tag else cells[0]
            fields = [tag] + fields
        lines.append(",".join([pid] + cells))
        items.append((pid, item_type(*fields)))
    return lines, items


@st.composite
def table_files(draw):
    """At least one of the three tables, each as ``table_file`` draws it."""
    names = draw(st.lists(st.sampled_from(sorted(TABLES)), min_size=1, unique=True))
    return {name: draw(table_file(name)) for name in names}


def write_tables(root: Path, files) -> None:
    for name, (lines, _) in files.items():
        (root / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(table_files())
def test_load_records_groups_valid_rows_per_patient(files):
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp), files)
        records = load_records(tmp)
    expected = sorted({pid for _, items in files.values() for pid, _ in items})
    assert [record.patient_id for record in records] == expected
    for record in records:
        for name, got in (
            ("diagnoses", record.diagnoses),
            ("prescriptions", record.medications),
            ("labevents", record.labs),
        ):
            items = files.get(name, ((), ()))[1]
            assert list(got) == [item for pid, item in items if pid == record.patient_id]


@settings(max_examples=150, deadline=None)
@given(table_files(), st.data())
def test_load_records_names_the_line_of_a_row_with_the_wrong_column_count(files, data):
    name = data.draw(st.sampled_from(sorted(files)))
    lines, items = files[name]
    columns = TABLES[name][0].count(",") + 1
    count = data.draw(st.integers(1, columns + 2).filter(lambda n: n != columns))
    at = data.draw(st.integers(0, len(lines)))
    bad_row = ",".join([data.draw(patient_id)] + ["x"] * (count - 1))
    files = {**files, name: (lines[:at] + [bad_row] + lines[at:], items)}
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp), files)
        with pytest.raises(ValueError) as raised:
            load_records(tmp)
    path = Path(tmp) / f"{name}.csv"
    assert str(raised.value) == f"{path}:{at + 1}: expected {columns} columns, found {count}"


@settings(max_examples=100, deadline=None)
@given(table_files(), st.data())
def test_load_records_names_the_line_of_a_row_with_an_empty_patient_id(files, data):
    name = data.draw(st.sampled_from(sorted(files)))
    lines, items = files[name]
    at = data.draw(st.integers(0, len(lines)))
    empty_id = data.draw(st.sampled_from(["", " ", "  "]))
    bad_row = ",".join([empty_id] + ["x"] * TABLES[name][0].count(","))
    files = {**files, name: (lines[:at] + [bad_row] + lines[at:], items)}
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp), files)
        with pytest.raises(MalformedRowError) as raised:
            load_records(tmp)
    path = Path(tmp) / f"{name}.csv"
    assert str(raised.value) == f"{path}:{at + 1}: patient_id must be non-empty"


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def make_cases(templates, index, config, n):
    cases = []
    for i in range(n):
        cases.append(
            synthesize(
                record(
                    patient_id=f"s{i:03d}",
                    diagnoses=[("ICD10", "I10", "hypertension")],
                ),
                templates,
                index,
                config.default_timestamp,
            )
        )
    return cases


def test_split_100_patients(templates, index, config):
    cases = make_cases(templates, index, config, 100)
    train, val, test = split_corpus(cases, (0.70, 0.15, 0.15), seed=13)
    assert (len(train), len(val), len(test)) == (70, 15, 15)
    ids = lambda bucket: {c.note.patient_id for c in bucket}
    assert not (ids(train) & ids(val)) and not (ids(train) & ids(test))
    assert not (ids(val) & ids(test))


def test_split_is_seed_stable(templates, index, config):
    cases = make_cases(templates, index, config, 40)
    first = split_corpus(cases, (0.70, 0.15, 0.15), seed=42)
    second = split_corpus(cases, (0.70, 0.15, 0.15), seed=42)
    assert [
        [c.note.note_id for c in bucket] for bucket in first
    ] == [[c.note.note_id for c in bucket] for bucket in second]
    different = split_corpus(cases, (0.70, 0.15, 0.15), seed=43)
    assert first != different or True  # different seed may legally coincide


def test_split_single_patient(templates, index, config):
    cases = make_cases(templates, index, config, 1)
    buckets = split_corpus(cases, (0.70, 0.15, 0.15), seed=13)
    assert sum(len(b) for b in buckets) == 1


def test_split_keeps_multi_note_patients_together(templates, index, config):
    cases = make_cases(templates, index, config, 9)
    doubled = cases + cases  # two cases per patient
    for bucket in split_corpus(doubled, (0.70, 0.15, 0.15), seed=5):
        for case in bucket:
            twins = [c for c in doubled if c.note.patient_id == case.note.patient_id]
            assert all(t in bucket for t in twins)


def test_split_bad_ratios(templates, index, config):
    cases = make_cases(templates, index, config, 4)
    with pytest.raises(BadRatiosError):
        split_corpus(cases, (0.5, 0.3, 0.3), seed=13)
    with pytest.raises(BadRatiosError):
        split_corpus(cases, (1.2, -0.1, -0.1), seed=13)
