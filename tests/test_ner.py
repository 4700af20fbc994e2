from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin.ner import (
    _ETYPE_BY_PRIORITY,
    _ETYPE_PRIORITY,
    ClinicalNote,
    _containing_sentence,
    _resolve_overlaps,
    extract_entities,
    load_patterns,
    segment,
)
from fhirtwin.terminology import EntityType, load_dictionary

from conftest import FIG1_TEXT, TABLE3_TEXT, write_dictionary
from oracles import oracle_containing_sentence, oracle_resolve_overlaps


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
    assert [s.index for s in sentences] == [0, 1]


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
    index = load_dictionary(write_dictionary(tmp_path, rows))
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
    base = extract_entities(
        note(text), load_dictionary(write_dictionary(tmp_path, base_rows, "a.csv")), patterns
    )
    grown = extract_entities(
        note(text), load_dictionary(write_dictionary(tmp_path, grown_rows, "b.csv")), patterns
    )
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
        (start - end, start, _ETYPE_PRIORITY[etype], end, 0)
        for start, end, etype in candidates
    ]
    resolved = [
        (start, end, _ETYPE_BY_PRIORITY[priority])
        for _, start, priority, end, _ in _resolve_overlaps(ranked)
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
    assert len(loaded.patterns) == 1
    assert loaded.patterns[0].etype == EntityType.DOSAGE


def test_pattern_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("ONLY_TWO\tDOSAGE\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_patterns(path)
