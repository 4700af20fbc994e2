from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhirtwin.ner import (
    _ETYPE_BY_PRIORITY,
    _ETYPE_PRIORITY,
    _VALUE,
    ClinicalNote,
    _containing_sentence,
    _guarded_period,
    _resolve_overlaps,
    extract_entities,
    load_patterns,
    segment,
)
from fhirtwin.terminology import EntityType, load_terminology

from conftest import FIG1_TEXT, TABLE3_TEXT, scanner_text, write_dictionary
from oracles import (
    ORACLE_OBSERVATION_NAMES,
    ORACLE_PATTERNS,
    oracle_containing_sentence,
    oracle_guarded_period,
    oracle_resolve_overlaps,
    oracle_segment,
)


def note(text, note_id="n1", patient_id="p1"):
    return ClinicalNote(note_id, patient_id, None, text)


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------


def test_segment_two_sentences():
    sentences = segment(FIG1_TEXT)
    assert len(sentences) == 2
    assert FIG1_TEXT[sentences[0].start : sentences[0].end] == "Patient has diabetes."
    assert (
        FIG1_TEXT[sentences[1].start : sentences[1].end]
        == "Started Metformin 500mg twice daily."
    )


def test_segment_empty():
    assert segment("") == []
    assert segment("   \n ") == []


def test_segment_offsets_verified_by_slicing():
    text = "BP 145/92. Started Lisinopril 10mg daily."
    sentences = segment(text)
    assert [text[s.start : s.end] for s in sentences] == [
        "BP 145/92.",
        "Started Lisinopril 10mg daily.",
    ]
    assert [(s.start, s.end) for s in sentences] == [(0, 10), (11, 41)]


def test_segment_abbreviation_guard():
    assert len(segment("Dr. Smith reviewed the labs.")) == 1
    assert len(segment("Take 500 mg. b.i.d. as needed.")) == 1


def test_segment_decimal_guard():
    assert len(segment("Dose is 2.5mg daily.")) == 1


def test_segment_newlines_split():
    sentences = segment("BP stable\nStarted Aspirin.")
    assert len(sentences) == 2


def test_segment_exclamation_and_question():
    assert len(segment("Improving! Continue plan? Yes.")) == 3


#: Text around periods: long and short alphanumeric runs, abbreviations in
#: any case, and letters that ``casefold`` turns into two (``ß``, ``ﬁ``,
#: ``İ``) or into an ASCII letter (``K``, ``ſ``).
period_text = st.lists(
    st.one_of(
        scanner_text,
        st.sampled_from(
            ["Prof", "PROFS", "xprof", "e.g", "Dr", "ß", "ﬁ", "İ", "K", "ſ"]
        ),
        st.text("ab1.!?\n", max_size=8),
    ),
    max_size=6,
).map("".join)


@settings(max_examples=500)
@example("4²/2")
@example("3①.2")
@example("٣.٥")
@example("2.5e.g.\n")
@example("Take 500 mg. b.i.d. as needed.")
@example("Take 5 mg.! Then rest.\n\nDone")
@example("Take 5 mg..? Then")
@example("e.g.. x")
@example("Dr.!? Smith")
@example("3.5.\n")
@example("ends in mg.")
@given(period_text)
def test_segment_matches_the_per_character_loop(text):
    # period_text holds every scanner_text input, and builds the runs of
    # terminators led by a guarded period where one verdict per run could
    # differ from one verdict per period.
    assert segment(text) == oracle_segment(text)


@settings(max_examples=500)
@example("Professor. Smith")
@example("xprof.")
@example("ßprof.")
@example("12345.6")
@given(period_text)
def test_period_guard_matches_the_full_word_scan(text):
    for i, ch in enumerate(text):
        if ch == ".":
            assert _guarded_period(text, i) == oracle_guarded_period(text, i), i


def test_sentences_ordered_and_disjoint():
    sentences = segment(TABLE3_TEXT)
    assert len(sentences) == 3
    for first, second in zip(sentences, sentences[1:]):
        assert first.end <= second.start


# ---------------------------------------------------------------------------
# Entity extraction
# ---------------------------------------------------------------------------


def test_extract_fig1(index, patterns):
    mentions = extract_entities(note(FIG1_TEXT), index, patterns)
    assert [(m.text, m.etype) for m in mentions] == [
        ("diabetes", EntityType.CONDITION),
        ("Metformin", EntityType.MEDICATION),
        ("500mg twice daily", EntityType.DOSAGE),
    ]


def test_extract_table3(index, patterns):
    mentions = extract_entities(note(TABLE3_TEXT), index, patterns)
    assert [(m.text, m.etype) for m in mentions] == [
        ("hypertension", EntityType.CONDITION),
        ("type 2 diabetes", EntityType.CONDITION),
        ("BP 145/92", EntityType.OBSERVATION),
        ("Lisinopril", EntityType.MEDICATION),
        ("10mg daily", EntityType.DOSAGE),
    ]


def test_extract_nothing_from_plain_text(index, patterns):
    assert extract_entities(note("The weather is nice"), index, patterns) == []


def brute_force_dictionary_matches(text, surfaces):
    """Oracle: every tight substring whose normalized form is a surface.

    Only spans without surrounding whitespace count; padded variants
    normalize to the same key and would double-count the same hit.
    """
    normalized = {" ".join(s.casefold().split()) for s in surfaces}
    hits = set()
    for start in range(len(text)):
        for end in range(start + 1, len(text) + 1):
            chunk = text[start:end]
            if chunk != chunk.strip():
                continue
            if " ".join(chunk.casefold().split()) in normalized:
                hits.add((start, end))
    return hits


def longest_wins(hits):
    accepted = []
    for start, end in sorted(hits, key=lambda h: (-(h[1] - h[0]), h[0])):
        if all(end <= s or start >= e for s, e in accepted):
            accepted.append((start, end))
    return sorted(accepted)


def test_longest_match_beats_fragment(tmp_path, patterns):
    rows = [
        "diabetes,SNOMED,73211009,Diabetes mellitus,CONDITION",
        "type 2 diabetes,SNOMED,44054006,Diabetes mellitus type 2,CONDITION",
    ]
    index = load_terminology([write_dictionary(tmp_path, rows)])
    text = "Patient has type 2 diabetes."
    mentions = extract_entities(note(text), index, patterns)
    assert [m.text for m in mentions] == ["type 2 diabetes"]

    # The oracle enumerates every dictionary substring, then keeps the
    # longest non-overlapping winners; extraction must agree.
    oracle = longest_wins(
        brute_force_dictionary_matches(text, ["diabetes", "type 2 diabetes"])
    )
    # Token alignment: keep only oracle hits on token boundaries.
    assert [(m.start, m.end) for m in mentions] == oracle


def test_span_fidelity_and_non_overlap(index, patterns):
    text = TABLE3_TEXT
    mentions = extract_entities(note(text), index, patterns)
    for mention in mentions:
        assert mention.text == text[mention.start : mention.end]
    for first, second in zip(mentions, mentions[1:]):
        assert first.end <= second.start


def test_sentence_containment(index, patterns):
    text = TABLE3_TEXT
    sentences = segment(text)
    for mention in extract_entities(note(text), index, patterns):
        sentence = sentences[mention.sentence_index]
        assert sentence.start <= mention.start and mention.end <= sentence.end


def test_determinism(index, patterns):
    first = extract_entities(note(TABLE3_TEXT), index, patterns)
    second = extract_entities(note(TABLE3_TEXT), index, patterns)
    assert first == second


def test_monotonic_under_dictionary_growth(tmp_path, patterns):
    base_rows = ["hypertension,SNOMED,38341003,Hypertensive disorder,CONDITION"]
    grown_rows = base_rows + ["edema,SNOMED,267038008,Edema,CONDITION"]
    text = "Patient has hypertension and edema."
    base_index = load_terminology([write_dictionary(tmp_path, base_rows, "a.csv")])
    grown_index = load_terminology([write_dictionary(tmp_path, grown_rows, "b.csv")])
    base = extract_entities(note(text), base_index, patterns)
    grown = extract_entities(note(text), grown_index, patterns)
    base_spans = {(m.start, m.end, m.etype) for m in base}
    grown_spans = {(m.start, m.end, m.etype) for m in grown}
    assert base_spans <= grown_spans


def test_dosage_pattern_variants(index, patterns):
    cases = {
        "Started Aspirin 81mg daily.": "81mg daily",
        "Started Ceftriaxone 1g daily.": "1g daily",
        "Started Tamsulosin 0.4mg daily.": "0.4mg daily",
        "Started Insulin glargine 20 units nightly.": "20 units nightly",
        "Started Gabapentin 300mg three times daily.": "300mg three times daily",
    }
    for text, expected in cases.items():
        mentions = extract_entities(note(text), index, patterns)
        dosages = [m.text for m in mentions if m.etype == EntityType.DOSAGE]
        assert dosages == [expected], text


def test_temporal_patterns(index, patterns):
    mentions = extract_entities(
        note("Symptoms started 3 days ago, follow up on 2023-05-01."), index, patterns
    )
    temporal = [m.text for m in mentions if m.etype == EntityType.TEMPORAL]
    assert temporal == ["3 days ago", "2023-05-01"]


def test_age_phrase_is_not_temporal(index, patterns):
    mentions = extract_entities(note("65-year-old male."), index, patterns)
    assert [m for m in mentions if m.etype == EntityType.TEMPORAL] == []


@settings(max_examples=60)
@given(
    st.lists(
        st.sampled_from(
            ["hypertension", "type", "2", "diabetes", "BP", "145/92", "male", "with."]
        ),
        max_size=10,
    ).map(" ".join)
)
def test_extraction_invariants_on_generated_text(index, patterns, text):
    mentions = extract_entities(note(text, "g1", "g1"), index, patterns)
    sentences = segment(text)
    for mention in mentions:
        assert mention.text == text[mention.start : mention.end]
        sentence = sentences[mention.sentence_index]
        assert sentence.start <= mention.start and mention.end <= sentence.end
    for first, second in zip(mentions, mentions[1:]):
        assert first.end <= second.start


# ---------------------------------------------------------------------------
# Sorted-interval lookups against the quadratic scans
# ---------------------------------------------------------------------------

# Starts and lengths from small ranges, so draws tie on length, on start and
# on entity type, and spans nest, touch and overlap.
candidate_strategy = st.builds(
    lambda start, length, etype: (start, start + length, etype),
    st.integers(0, 20),
    st.integers(1, 6),
    st.sampled_from(list(EntityType)),
)


@settings(max_examples=300)
@given(st.lists(candidate_strategy, min_size=1, max_size=30))
def test_resolve_overlaps_matches_quadratic_reference(candidates):
    ranked = [
        (start - end, start, _ETYPE_PRIORITY[etype], end, 0, end, end)
        for start, end, etype in candidates
    ]
    resolved = [
        (start, end, _ETYPE_BY_PRIORITY[priority])
        for _, start, priority, end, *_ in _resolve_overlaps(ranked)
    ]
    assert resolved == oracle_resolve_overlaps(candidates)


@settings(max_examples=200)
@given(
    st.lists(
        st.sampled_from(
            ["a", "bc", "1", "2.5", ".", "!", "?", "\n", " ", "e.g.", "Dr."]
        ),
        max_size=16,
    ).map("".join)
)
def test_containing_sentence_matches_linear_scan(text):
    """Every non-empty span, including those crossing or touching a boundary."""
    sentences = segment(text)
    starts = [s.start for s in sentences]
    ends = [s.end for s in sentences]
    for start in range(len(text) + 1):
        for end in range(start + 1, len(text) + 2):
            assert _containing_sentence(
                starts, ends, start, end
            ) == oracle_containing_sentence(sentences, start, end), (start, end)


def test_pattern_file_round_trip(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("NAME\tDOSAGE\t\\d+mg\n# comment\n", encoding="utf-8")
    loaded = load_patterns(path)
    assert len(loaded) == 1
    assert loaded[0].etype == EntityType.DOSAGE


def test_pattern_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("ONLY_TWO\tDOSAGE\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_patterns(path)


# ---------------------------------------------------------------------------
# Bundled patterns against the patterns as first written
# ---------------------------------------------------------------------------

#: Text for the patterns: digits, cased letters, the separators they use,
#: the four letters with special ``IGNORECASE`` matches, and the words the
#: patterns look for, in any case.
pattern_text = st.lists(
    st.one_of(
        st.sampled_from(list("0123456789/-.: \nİıſKabgmxz_")),
        st.sampled_from(
            ["BP", "bp", "hr", "Bun", "a1c", "hba1c", "weight", "mg", "mmHg",
             "%", "days", "Years", " ago", "for", "since", "today", "b.i.d.",
             "daily", "Twice daily"]
        ),
    ),
    max_size=30,
).map("".join)


def _spans(regex, text):
    return [match.span() for match in regex.finditer(text)]


@settings(max_examples=500)
@example("12 days ago 3/4/2023 x1 BP 1/2 2023-01-02")
@example("0mg")
@given(pattern_text)
def test_bundled_patterns_match_as_first_written(patterns, text):
    bundled = {pattern.name: pattern.regex for pattern in patterns}
    assert bundled.keys() == ORACLE_PATTERNS.keys() - {"OBS_VALUE"}
    for name, regex in bundled.items():
        assert _spans(regex, text) == _spans(ORACLE_PATTERNS[name], text), name


@pytest.mark.parametrize("workload", ["short_notes", "long_notes"])
def test_bundled_patterns_match_as_first_written_on_benchmark_notes(
    patterns, benchmark_cases, workload
):
    texts = [note.text for case in benchmark_cases[workload] for note in case.notes]
    for pattern in patterns:
        regex = ORACLE_PATTERNS[pattern.name]
        assert [_spans(pattern.regex, t) for t in texts] == [
            _spans(regex, t) for t in texts
        ], pattern.name


# ---------------------------------------------------------------------------
# Observation values after dictionary names, against OBS_VALUE
# ---------------------------------------------------------------------------

_ORACLE_NAME = re.compile(ORACLE_OBSERVATION_NAMES, re.IGNORECASE)


def _valued_observations(index, text):
    """Spans of the observation mentions that carry a value, for the names
    the oracle lists."""
    spans = []
    for mention in extract_entities(note(text), index, ()):
        if mention.value and _ORACLE_NAME.fullmatch(mention.name):
            spans.append(mention.span)
    return spans


def _oracle_valued_observations(index, text):
    """OBS_VALUE's spans that sit in one sentence, for the names the
    dictionary knows as observations."""
    sentences = segment(text)
    return [
        match.span()
        for match in ORACLE_PATTERNS["OBS_VALUE"].finditer(text)
        if any(
            entry.entity_type == EntityType.OBSERVATION
            for entry in index.lookup(match["name"])[:1]
        )
        and oracle_containing_sentence(sentences, *match.span()) is not None
    ]


#: ``pattern_text`` with more observation names, spelled as the dictionary,
#: its synonyms or only the oracle has them, with letters that fold to a
#: name's letters in one of the two only, and with linking words and units.
observation_text = st.lists(
    st.one_of(
        st.sampled_from(list("0123456789/-.: \nİıſKabgmxz_")),
        st.sampled_from(
            ["BP", "bp", "hr", "Bun", "a1c", "hba1c", "Hgb", "O2 sat", "o2  sat",
             "heart rate", "Heart  rate", "ınr", "İnr", "ſodium", "weight", "mg",
             "mmHg", "mg/dL", "g/dL", "%", "bpm", "F", "c", "was", "IS", "of",
             "x10^9/L", "x10^3/uL", "°C", "°f"]
        ),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500)
@example("BP: 1/2 _bp 3 hr\n4 Hgb 5 g/dL O2 sat 95% ſodium 140")
@given(observation_text)
def test_observation_values_match_obs_value(index, text):
    assert _valued_observations(index, text) == _oracle_valued_observations(index, text)


@settings(max_examples=500)
@example("BP: 1/2 _bp 3 hr\n4 Hgb 5 g/dL O2 sat 95% ſodium 140 mg")
@given(observation_text)
def test_a_mention_is_its_name_then_its_value(index, patterns, text):
    """A valued observation's text is its name, then an
    ``OBSERVATION_VALUE`` whose ``value`` group is its value; every other
    mention's name is its text, and its value is empty."""
    for mention in extract_entities(note(text), index, patterns):
        assert mention.text.startswith(mention.name)
        assert mention.text.endswith(mention.value)
        if not mention.value:
            assert mention.name == mention.text
            continue
        assert mention.etype == EntityType.OBSERVATION
        match = _VALUE.fullmatch(mention.text[len(mention.name) :])
        assert match is not None and match["value"] == mention.value


@pytest.mark.parametrize("workload", ["short_notes", "long_notes"])
def test_observation_values_match_obs_value_on_benchmark_notes(
    index, benchmark_cases, workload
):
    texts = [note.text for case in benchmark_cases[workload] for note in case.notes]
    found = [_valued_observations(index, t) for t in texts]
    assert found == [_oracle_valued_observations(index, t) for t in texts]
    assert any(found)
