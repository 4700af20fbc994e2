from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin import terminology
from fhirtwin.ner import load_patterns
from fhirtwin.normalizer import normalize_key
from fhirtwin.pipeline import Pipeline
from fhirtwin.synthesizer import load_records, load_templates
from fhirtwin.terminology import (
    CODEABLE_TYPES,
    CodeSystem,
    ConceptEntry,
    EntityType,
    MalformedRowError,
    load_synonyms,
    load_terminology,
    normalize_surface,
    table_rows,
)

from conftest import write_dictionary
from oracles import (
    oracle_load_entries,
    oracle_lookup,
    oracle_normalize_key,
    oracle_table_rows,
)


def test_load_terminology_maps_hypertension_row(tmp_path):
    path = write_dictionary(
        tmp_path,
        ["hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION"],
    )
    index = load_terminology([path])
    entries = index.lookup("hypertension")
    assert len(entries) == 1
    assert entries[0].system == CodeSystem.SNOMED
    assert entries[0].code == "38341003"
    assert entries[0].entity_type == EntityType.CONDITION


def test_a_dictionary_with_a_byte_order_mark_resolves_its_first_row(tmp_path):
    path = tmp_path / "dict.csv"
    path.write_bytes(
        b"\xef\xbb\xbfhypertension,SNOMED,38341003,Hypertensive disorder,CONDITION\n"
    )
    (entry,) = load_terminology([path]).lookup("hypertension")
    assert entry.code == "38341003"


def test_empty_file_gives_empty_index(tmp_path):
    path = write_dictionary(tmp_path, ["# nothing but a comment", ""])
    index = load_terminology([path])
    assert index.lookup("anything") == []
    assert index.match_keys() == frozenset()


def test_malformed_row_names_line_and_aborts(tmp_path):
    rows = [
        "hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION",
        "diabetes,SNOMED,73211009,Diabetes mellitus,CONDITION",
        "asthma,SNOMED,195967001,Asthma",  # 4 columns
        "metformin,RXNORM,6809,Metformin,MEDICATION",
        "bp,LOINC,85354-9,Blood pressure panel,OBSERVATION",
    ]
    path = write_dictionary(tmp_path, rows)
    with pytest.raises(MalformedRowError) as excinfo:
        load_terminology([path])
    assert excinfo.value.line_no == 3


def test_unknown_system_tag(tmp_path):
    path = write_dictionary(tmp_path, ["aspirin,NDC,0001,Aspirin,MEDICATION"])
    with pytest.raises(MalformedRowError) as excinfo:
        load_terminology([path])
    assert str(excinfo.value) == f"{path}:1: unknown code system 'NDC'"


@pytest.mark.parametrize(
    "load, name, lines, reason",
    [
        (
            lambda path: load_terminology([path]),
            "dict.csv",
            [
                "hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION",
                "   ",
                "asthma,SNOMED,195967001,Asthma",
            ],
            "3: expected 5 columns, found 4",
        ),
        (load_synonyms, "syn.csv", ["# alias,canonical", "htn,hypertension,bp"], "2: expected 2 columns, found 3"),
        (load_patterns, "patterns.tsv", ["\t", "DOSE\tDOSAGE"], "2: expected 3 columns, found 2"),
        (
            load_templates,
            "templates.tsv",
            ["history\tHistory of {a} and {b}.", "", "lab\t{test}\t{value}"],
            "3: expected 2 columns, found 3",
        ),
        (
            lambda path: load_records(path.parent),
            "prescriptions.csv",
            ["patient_id,drug,dose,frequency", "p1,Lisinopril,10mg daily"],
            "2: expected 4 columns, found 3",
        ),
    ],
    ids=["dictionary", "synonyms", "patterns", "templates", "prescriptions"],
)
def test_every_setup_table_names_a_wrong_cell_count_alike(tmp_path, load, name, lines, reason):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}:{reason}"


#: One table of each loader: how to load it, its file name, a good line and
#: its delimiter.
SETUP_TABLES = {
    "dictionary": (
        lambda path: load_terminology([path]),
        "dict.csv",
        "hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION",
    ),
    "synonyms": (load_synonyms, "syn.csv", "htn,hypertension"),
    "patterns": (load_patterns, "patterns.tsv", "DOSE\tDOSAGE\t\\d+ ?mg"),
    "templates": (load_templates, "templates.tsv", "lab\t{test} {value} {unit}."),
    "prescriptions": (
        lambda path: load_records(path.parent),
        "prescriptions.csv",
        "p1,Lisinopril,10mg,daily",
    ),
}


@pytest.mark.parametrize("table", sorted(SETUP_TABLES))
@pytest.mark.parametrize("at", [0, 3, -1])
def test_every_setup_table_rejects_a_nul_alike(tmp_path, table, at):
    load, name, line = SETUP_TABLES[table]
    cut = len(line) if at == -1 else at
    path = tmp_path / name
    path.write_text(f"# a comment\n{line[:cut]}\0{line[cut:]}\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}:2: line contains NUL"


@pytest.mark.parametrize("table", ["dictionary", "synonyms", "prescriptions"])
def test_a_quoted_cell_over_the_csv_field_limit_is_a_bad_row(tmp_path, table):
    load, name, line = SETUP_TABLES[table]
    cells = line.split(",")
    cells[-1] = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    path = tmp_path / name
    path.write_text(",".join(cells) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as excinfo:
        load(path)
    limit = csv.field_size_limit()
    assert str(excinfo.value) == f"{path}:1: field larger than field limit ({limit})"


def test_unknown_entity_type_is_malformed(tmp_path):
    path = write_dictionary(tmp_path, ["aspirin,RXNORM,1191,Aspirin,DRUG"])
    with pytest.raises(MalformedRowError):
        load_terminology([path])


def test_duplicate_codes_register_extra_surfaces(tmp_path):
    path = write_dictionary(
        tmp_path,
        [
            "gerd,SNOMED,235595009,Gastroesophageal reflux disease,CONDITION",
            "gastroesophageal reflux disease,SNOMED,235595009,Gastroesophageal reflux disease,CONDITION",
        ],
    )
    index = load_terminology([path])
    assert index.lookup("gerd")[0].code == "235595009"
    assert index.lookup("gastroesophageal reflux disease")[0].code == "235595009"


def test_lookup_metformin(index):
    entries = index.lookup("Metformin")
    assert [(e.system, e.code) for e in entries] == [(CodeSystem.RXNORM, "6809")]


def test_lookup_empty_query(index):
    assert index.lookup("") == []


def test_lookup_unknown_surface(index):
    assert index.lookup("frobnosticosis") == []


def test_synonym_matches_canonical(index):
    assert index.lookup("HTN") == index.lookup("hypertension")
    assert index.lookup("HTN")[0].code == "38341003"


def test_lookup_ordering_by_system_precedence(index):
    systems = [e.system for e in index.lookup("hypertension")]
    assert systems == [CodeSystem.SNOMED, CodeSystem.ICD10]


def test_lookup_ordering_by_code_within_system(tmp_path):
    rows = [
        "twin condition,SNOMED,2222,Twin B,CONDITION",
        "twin condition,SNOMED,1111,Twin A,CONDITION",
    ]
    index = load_terminology([write_dictionary(tmp_path, rows)])
    assert [e.code for e in index.lookup("twin condition")] == ["1111", "2222"]


def test_merge_is_idempotent(tmp_path):
    path = write_dictionary(
        tmp_path,
        [
            "hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION",
            "metformin,RXNORM,6809,Metformin,MEDICATION",
        ],
    )
    once = load_terminology([path])
    twice = load_terminology([path, path])
    for surface in ("hypertension", "metformin", "missing"):
        assert once.lookup(surface) == twice.lookup(surface)


def test_merge_combines_distinct_files(tmp_path):
    a = write_dictionary(
        tmp_path, ["hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION"], "a.csv"
    )
    b = write_dictionary(tmp_path, ["metformin,RXNORM,6809,Metformin,MEDICATION"], "b.csv")
    merged = load_terminology([a, b])
    assert merged.lookup("hypertension") and merged.lookup("metformin")


def test_synonym_chain_rejected(tmp_path):
    path = write_dictionary(
        tmp_path, ["hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION"]
    )
    synonyms = tmp_path / "syn.csv"
    synonyms.write_text("htn,high bp\nhigh bp,hypertension\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_terminology([path], synonyms)


def test_one_index_and_one_dedupe_per_surface(tmp_path, monkeypatch):
    a = write_dictionary(
        tmp_path,
        [
            "hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION",
            "HTN,SNOMED,38341003,Hypertensive disorder,CONDITION",
        ],
        "a.csv",
    )
    b = write_dictionary(
        tmp_path,
        [
            "hypertension,ICD10,I10,Essential hypertension,CONDITION",
            "hypertension,SNOMED,38341003,Second display,CONDITION",
            "metformin,RXNORM,6809,Metformin,MEDICATION",
        ],
        "b.csv",
    )
    built, deduped = [], []
    index_class = terminology.TerminologyIndex
    first_per_identity = terminology._first_per_identity

    def counting_index(**fields):
        built.append(fields)
        return index_class(**fields)

    def counting_dedupe(entries):
        deduped.append(entries)
        return first_per_identity(entries)

    monkeypatch.setattr(terminology, "TerminologyIndex", counting_index)
    monkeypatch.setattr(terminology, "_first_per_identity", counting_dedupe)
    index = load_terminology([a, b, a])
    assert len(built) == 1
    assert len(deduped) == len(index.entries) == 3
    assert list(index.entries) == ["hypertension", "htn", "metformin"]
    assert [(e.code, e.display) for e in index.entries["hypertension"]] == [
        ("38341003", "Hypertensive disorder"),
        ("I10", "Essential hypertension"),
    ]


@pytest.mark.parametrize(
    "rows, error",
    [
        ("bp,bp\n", "{path}: synonym 'bp' points at itself"),
        (
            "htn,high bp\nhigh bp,hypertension\n",
            "{path}: synonym chain 'htn' -> 'high bp'",
        ),
        ("bp,hypertension\nq,q\nx,bp\n", "{path}: synonym 'q' points at itself"),
        ("bp,bp\nbp,blood pressure\n", None),
    ],
    ids=["self_loop", "chain", "self_loop_before_chain", "overwritten_self_loop"],
)
def test_synonyms_are_checked_on_the_final_mapping(tmp_path, rows, error):
    path = tmp_path / "syn.csv"
    path.write_text(rows, encoding="utf-8")
    if error is None:
        assert load_synonyms(path) == {"bp": "blood pressure"}
        return
    with pytest.raises(ValueError) as excinfo:
        load_synonyms(path)
    assert str(excinfo.value).startswith(error.format(path=path))


def test_synonym_file_loading(tmp_path):
    path = tmp_path / "syn.csv"
    path.write_text("# comment\nHTN,Hypertension\n", encoding="utf-8")
    assert load_synonyms(path) == {"htn": "hypertension"}


@given(st.sampled_from(["hypertension", "type 2 diabetes", "Metformin", "BP", "HTN"]))
def test_case_insensitivity(index, surface):
    assert index.lookup(surface) == index.lookup(surface.upper())
    assert index.lookup(surface) == index.lookup(surface.casefold())


@settings(max_examples=50)
@given(st.text(max_size=30))
def test_lookup_is_deterministic_and_total(index, query):
    assert index.lookup(query) == index.lookup(query)


def test_all_synonyms_resolve_like_their_canonicals(index):
    for alias, canonical in index.synonym_map.items():
        assert index.lookup(alias) == index.lookup(canonical)


def test_normalize_surface_collapses_whitespace():
    assert normalize_surface("  Type   2\tDiabetes ") == "type 2 diabetes"


# ---------------------------------------------------------------------------
# Resolution memo
# ---------------------------------------------------------------------------

_NON_KEYS = ["frobnosticosis", "", "   ", "bp 145/92", "type 2", "hypertension x"]


def _variants(index):
    """Case and whitespace variants of the index's keys, aliases and non-keys."""
    surfaces = sorted(index.entries) + sorted(index.synonym_map) + _NON_KEYS
    return st.builds(
        lambda surface, case, gap, lead, trail: lead
        + gap.join(case(surface).split())
        + trail,
        st.sampled_from(surfaces),
        st.sampled_from([str, str.upper, str.title, str.swapcase, str.casefold]),
        st.sampled_from([" ", "  ", "\t", " \n ", "\u00a0"]),
        st.sampled_from(["", " ", "\t "]),
        st.sampled_from(["", " ", " \n"]),
    )


@settings(max_examples=300)
@given(st.data())
def test_memoised_lookups_match_uncached_oracle(index, data):
    surface = data.draw(_variants(index))
    for _ in range(2):  # the second round reads the memo filled by the first
        assert index.lookup(surface) == oracle_lookup(index, surface)
        for etype in sorted(CODEABLE_TYPES, key=lambda t: t.value):
            concept = normalize_key(surface, etype, index)
            expected = oracle_normalize_key(surface, etype, index)
            assert (
                None
                if concept is None
                else (concept.system, concept.code, concept.display, concept.score)
            ) == expected


def test_lookup_returns_a_new_list_each_call(index):
    first = index.lookup("hypertension")
    first.clear()
    assert index.lookup("hypertension")


def test_memo_is_bounded_by_keys_and_aliases(config):
    index = Pipeline(config).index
    assert index.resolve("hypertension") is not None
    for n in range(2000):
        unknown = f"unknown surface {n}"
        assert index.lookup(unknown) == []
        assert normalize_key(unknown, EntityType.CONDITION, index) is None
    assert len(index._resolutions) == 1
    for surface in [*index.entries, *index.synonym_map]:
        for etype in CODEABLE_TYPES:
            normalize_key(surface.upper(), etype, index)
    assert len(index._resolutions) <= len(index.entries) + len(index.synonym_map)


# ---------------------------------------------------------------------------
# Setup tables and dictionaries against the line-at-a-time oracle
# ---------------------------------------------------------------------------

#: Characters of a drawn setup-table line: both delimiters, the quote, NUL,
#: ``#``, whitespace that ``str.split()`` and ``str.strip()`` treat as such
#: but a file does not break lines at (vertical tab, the file separator,
#: NEL, the line separator), and letters.
table_line = st.text(
    st.sampled_from([",", '"', "\t", " ", "\x0b", "\x1c", "\x85", "\u2028", "\0", "#"])
    | st.sampled_from("abÉ"),
    max_size=16,
)


def _outcome(rows):
    """The rows a loader gives, or the message of the error it raises."""
    try:
        return list(rows)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    lines=st.lists(table_line, min_size=1, max_size=4),
    columns=st.integers(1, 5),
    delimiter=st.sampled_from([",", "\t"]),
)
def test_table_rows_split_each_line_as_a_reader_of_its_own(lines, columns, delimiter):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _outcome(table_rows(path, columns, delimiter))
        assert got == _outcome(oracle_table_rows(path, columns, delimiter))


#: Text for a dictionary cell: no NUL, but the delimiter, the quote and
#: whitespace the line does not break at.
cell_text = st.text(st.sampled_from([" ", "\t", "\x85", "\u2028", ",", '"', "a", "b", "É"]))


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _cell(draw, valid: list[str], invalid: list[str], text: bool = False) -> str:
    """Mostly a valid cell, sometimes an invalid one, and with ``text``
    sometimes quoted ``cell_text``."""
    if text and draw(st.integers(0, 4)) == 0:
        return _quoted(draw(cell_text))
    return draw(st.sampled_from(valid * 12 + invalid))


@st.composite
def dictionary_line(draw):
    """Mostly a dictionary row, valid or with a bad cell and any cell maybe
    quoted; else any line at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(table_line)
    cells = [
        _cell(draw, ["bp", " BP", "b  p", "ab", "a\x85b"], ["", " "], text=True),
        _cell(draw, ["SNOMED", " icd10 ", "LOINC", "RxNorm"], ["NDC", ""]),
        _cell(draw, ["1", "2", " 2 "], ["", "1,2"]),
        _cell(draw, ["Blood pressure", ' "x" ', ""], [], text=True),
        _cell(draw, ["CONDITION", " medication", "Observation"], ["DOSAGE", "DRUG", ""]),
    ]
    if draw(st.booleans()):
        cells = [_quoted(c) if draw(st.booleans()) else c for c in cells]
    return ",".join(cells)


@settings(max_examples=400, deadline=None)
@given(
    files=st.lists(st.lists(dictionary_line(), max_size=6), min_size=1, max_size=3),
    data=st.data(),
)
def test_load_terminology_matches_the_line_at_a_time_oracle(files, data):
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for n, lines in enumerate(files):
            path = Path(tmp) / f"d{n}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written += [path, f"{tmp}/./d{n}.csv"]  # messages name the Path form
        paths = data.draw(st.lists(st.sampled_from(written), min_size=1, max_size=4))
        try:
            index = load_terminology(paths)
        except ValueError as exc:
            got = str(exc)
        else:
            got = list(index.entries.items())
            assert all(
                type(entry) is ConceptEntry for entries in index.entries.values()
                for entry in entries
            )
        try:
            expected = list(oracle_load_entries(paths).items())
        except ValueError as exc:
            expected = str(exc)
        assert got == expected
