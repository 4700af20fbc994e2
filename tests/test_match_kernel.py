"""Matcher kernel behavior, checked against brute-force oracles."""

from __future__ import annotations

import gc
import weakref

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhirtwin._match import pymatch
from fhirtwin.ner import ClinicalNote, extract_entities
from fhirtwin.terminology import load_terminology

from conftest import scanner_text, write_dictionary
from oracles import oracle_collapse_whitespace, oracle_token_spans


def tokens(text):
    return [text[s:e] for s, e in pymatch.token_spans(text)]


def test_numbers_with_slash_and_dot_stay_whole():
    assert tokens("BP 145/92") == ["BP", "145/92"]
    assert tokens("dose 2.5mg") == ["dose", "2.5mg"]


def test_punctuation_separates():
    assert tokens("diabetes, hypertension.") == ["diabetes", "hypertension"]
    assert tokens("65-year-old") == ["65", "year", "old"]


def test_slash_between_letters_separates():
    assert tokens("mg/dL") == ["mg", "dL"]


def test_empty_and_whitespace():
    assert pymatch.token_spans("") == []
    assert pymatch.token_spans("   \n\t") == []


def test_trailing_dot_not_inside_number():
    assert tokens("value 2.5.") == ["value", "2.5"]


def test_only_decimal_digits_join_across_a_dot_or_slash():
    assert tokens("4²/2") == ["4²", "2"]
    assert tokens("3①.2") == ["3①", "2"]
    assert tokens("٣.٥") == ["٣.٥"]


@settings(max_examples=500)
@example("4²/2")
@example("3①.2")
@example("٣.٥")
@example("2.5e.g.\n")
@example("Take 500 mg. b.i.d. as needed.")
@given(scanner_text)
def test_token_spans_match_the_per_character_loop(text):
    assert pymatch.token_spans(text) == oracle_token_spans(text)


def _normalize(text):
    return " ".join(text.casefold().split())


def brute_force_dictionary_spans(text, keys, max_ngram):
    """Oracle: test every token-start/token-end pair directly; a
    ``max_ngram`` of None is no cap."""
    spans = pymatch.token_spans(text)
    hits = []
    for i, (start, _) in enumerate(spans):
        for j in range(i, len(spans)):
            if max_ngram is not None and j - i + 1 > max_ngram:
                continue
            end = spans[j][1]
            if _normalize(text[start:end]) in keys:
                hits.append((start, end))
    return sorted(hits)


KEYS = frozenset(
    {"diabetes", "type 2 diabetes", "bp", "heart failure", "metformin", "2.5mg"}
)


def test_dictionary_spans_find_multiword_terms():
    text = "Patient has type 2 diabetes and heart failure."
    spans = pymatch.token_spans(text)
    hits = pymatch.dictionary_spans(text, spans, KEYS, 6)
    assert sorted(text[s:e] for s, e in hits) == [
        "diabetes",
        "heart failure",
        "type 2 diabetes",
    ]


def test_dictionary_spans_against_oracle():
    text = "BP stable. Metformin ok, type 2 diabetes with heart failure; 2.5mg"
    spans = pymatch.token_spans(text)
    got = sorted(pymatch.dictionary_spans(text, spans, KEYS, 6))
    assert got == brute_force_dictionary_spans(text, KEYS, 6)


def test_ngram_budget_respected():
    text = "type 2 diabetes"
    spans = pymatch.token_spans(text)
    assert pymatch.dictionary_spans(text, spans, KEYS, 1) == [
        (7, 15)
    ]  # only the single-token "diabetes" fits
    assert pymatch.dictionary_spans(text, spans, KEYS, 0) == []


def test_a_mutable_key_set_is_read_afresh_on_each_call():
    text = "type 2 diabetes"
    spans = pymatch.token_spans(text)
    keys = {"diabetes"}
    assert pymatch.dictionary_spans(text, spans, keys, 6) == [(7, 15)]
    keys.add("type 2 diabetes")
    assert pymatch.dictionary_spans(text, spans, keys, 6) == [(0, 15), (7, 15)]


WORDS = ["type", "2", "diabetes", "BP", "145/92", "mg", "heart", "failure,", "x"]
text_strategy = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join)
# Each example scans under its own dictionary, so one process sees many key
# sets; a prefix memo that answered for the wrong key set would show here.
keys_strategy = st.frozensets(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
        lambda words: _normalize(" ".join(words))
    ),
    max_size=6,
)


@settings(max_examples=200)
@given(text_strategy, keys_strategy, st.none() | st.integers(0, 6))
def test_oracle_agreement_on_generated_text(text, keys, max_ngram):
    spans = pymatch.token_spans(text)
    assert sorted(pymatch.dictionary_spans(text, spans, keys, max_ngram)) == (
        brute_force_dictionary_spans(text, keys, max_ngram)
    )


#: Unicode whitespace, including the separators ``\x1c``-``\x1f`` and the
#: non-ASCII spaces that ``str.split()`` and ``\s`` also treat as blanks.
UNICODE_SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0"
    "\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
)


@settings(max_examples=300)
@example(f"a{UNICODE_SPACES}b")
@given(
    st.text(
        st.one_of(
            st.sampled_from(UNICODE_SPACES + "\u200b\ufeff-,."),
            st.characters(),
        ),
        max_size=30,
    )
)
def test_whitespace_runs_collapse_like_the_isspace_loop(text):
    assert pymatch._WHITESPACE.sub(" ", text) == oracle_collapse_whitespace(text)


def test_indexes_from_different_dictionaries_match_only_their_own_surfaces(tmp_path):
    conditions = load_terminology(
        [
            write_dictionary(
                tmp_path,
                ["chronic kidney disease,SNOMED,709044004,Chronic kidney disease,CONDITION"],
                name="conditions.csv",
            )
        ]
    )
    medications = load_terminology(
        [
            write_dictionary(
                tmp_path,
                ["lisinopril,RXNORM,29046,Lisinopril,MEDICATION"],
                name="medications.csv",
            )
        ]
    )
    note = ClinicalNote("n1", "p1", None, "Chronic kidney disease; started lisinopril.")
    cases = ((conditions, ["Chronic kidney disease"]), (medications, ["lisinopril"]))
    for index, expected in cases * 2:
        assert [m.text for m in extract_entities(note, index, ())] == expected


def test_prefix_memo_lets_a_discarded_key_set_go():
    keys = frozenset({"type 2 diabetes", "heart failure"})
    prefixes = weakref.ref(pymatch.key_prefixes(keys))
    assert pymatch.key_prefixes(keys) is prefixes()
    del keys
    gc.collect()
    assert prefixes() is None
