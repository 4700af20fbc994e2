"""Whole-pipeline invariants: changes to a patient's notes that must not
change the twin.

Notes are drawn from the bundled templates, filled with the bundled
dictionary surfaces. Each test builds the twin with ``Pipeline.twin``
before and after one change and compares either the bundle bytes or its
``fact_projection`` (the facts without resource ids).

Not checked yet, because it does not hold: splitting a note in two at a
sentence boundary. Two notes reading ``Patient has hypertension.`` give
one Condition, while the one note holding both sentences gives two (the
same fact stated twice in one note; ROADMAP item 3).
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fhirtwin.fhir_assembly import bundle_to_json
from fhirtwin.ner import ClinicalNote, extract_entities
from fhirtwin.pipeline import Pipeline, build_config
from fhirtwin.synthesizer import load_templates
from fhirtwin.terminology import EntityType

from oracles import fact_projection

PIPELINE = Pipeline(build_config())
TEMPLATES = load_templates(PIPELINE.config.templates)
_INDEX = PIPELINE.index


def _surfaces(etype: EntityType) -> list[str]:
    """Every dictionary surface and synonym alias that resolves to ``etype``."""
    return sorted(
        surface
        for surface in {*_INDEX.entries, *_INDEX.synonym_map}
        if _INDEX.lookup(surface)[0].entity_type == etype
    )


_CONDITIONS = st.sampled_from(_surfaces(EntityType.CONDITION))
_MEDICATIONS = st.sampled_from(_surfaces(EntityType.MEDICATION))
_OBSERVATIONS = st.sampled_from(_surfaces(EntityType.OBSERVATION))

#: A sentence as (template, slot values, name of the one dictionary slot
#: whose surface ``_render`` may upper-case).
sentences = st.one_of(
    st.builds(
        lambda a, b: (TEMPLATES.history, {"a": a, "b": b}, "a"),
        _CONDITIONS,
        _CONDITIONS,
    ),
    st.builds(
        lambda d: (TEMPLATES.diagnosis, {"description": d}, "description"),
        _CONDITIONS,
    ),
    st.builds(
        lambda drug, dose, frequency: (
            TEMPLATES.medication,
            {"drug": drug, "dose": dose, "frequency": frequency},
            "drug",
        ),
        _MEDICATIONS,
        st.sampled_from(["10mg", "500 mg", "2.5mg", "40 units", ""]),
        st.sampled_from(["daily", "twice daily", "b.i.d.", "as needed", ""]),
    ),
    st.builds(
        lambda test, value, unit: (
            TEMPLATES.lab,
            {"test": test, "value": value, "unit": unit},
            "test",
        ),
        _OBSERVATIONS,
        st.sampled_from(["145/92", "7.2", "98", "1.1", "high"]),
        st.sampled_from(["mmHg", "%", "mg/dL", "bpm", ""]),
    ),
)

#: A note: its sentences, as ``sentences`` draws them.
note_sentences = st.lists(sentences, min_size=1, max_size=4)

#: Words that, alone or together, match no dictionary surface or pattern;
#: ``neutral_sentence`` checks the whole sentence.
_NEUTRAL_WORDS = st.sampled_from(
    ["Seen", "in", "clinic", "feels", "well", "plan", "reviewed", "with",
     "family", "the", "and", "due", "to", "rest", "Discussed", "questions"]
)
neutral_sentence = st.lists(_NEUTRAL_WORDS, min_size=1, max_size=6).map(
    lambda words: " ".join(words) + "."
)

_TIMESTAMPS = st.sampled_from([None, "2023-03-01T08:30:00Z", "2023-04-02"])


def _render(drawn, upper: int = -1) -> str:
    """The note text of drawn sentences; sentence ``upper``'s dictionary
    slot is upper-cased."""
    parts = []
    for i, (template, slots, surface_slot) in enumerate(drawn):
        if i == upper:
            slots = {**slots, surface_slot: slots[surface_slot].upper()}
        parts.append(" ".join(template.format(**slots).split()))
    return " ".join(parts)


def _bundle(notes) -> str:
    return bundle_to_json(PIPELINE.twin("p1", notes)[0])


def _facts(notes) -> list[tuple]:
    return fact_projection(PIPELINE.twin("p1", notes)[0])


def _is_neutral(sentence: str) -> bool:
    note = ClinicalNote("n0", "p1", None, sentence)
    return not extract_entities(note, PIPELINE.index, PIPELINE.patterns)


_SETTINGS = settings(deadline=None)


@_SETTINGS
@given(note_sentences, neutral_sentence, _TIMESTAMPS)
def test_appending_a_neutral_sentence_keeps_the_bundle_bytes(drawn, extra, timestamp):
    assume(_is_neutral(extra))
    text = _render(drawn)
    before = ClinicalNote("n1", "p1", timestamp, text)
    after = ClinicalNote("n1", "p1", timestamp, text + " " + extra)
    assert _bundle([after]) == _bundle([before])


@_SETTINGS
@given(note_sentences, neutral_sentence, _TIMESTAMPS)
def test_prepending_a_neutral_sentence_keeps_the_facts(drawn, extra, timestamp):
    assume(_is_neutral(extra))
    text = _render(drawn)
    before = ClinicalNote("n1", "p1", timestamp, text)
    after = ClinicalNote("n1", "p1", timestamp, extra + " " + text)
    assert _facts([after]) == _facts([before])


@_SETTINGS
@given(
    st.lists(st.tuples(note_sentences, _TIMESTAMPS), min_size=1, max_size=3),
    st.sampled_from(["a", "note-", "Z_"]),
    st.randoms(use_true_random=False),
)
def test_renaming_or_reordering_notes_keeps_the_bundle_bytes(drawn, prefix, rng):
    notes = [
        ClinicalNote(f"n{i}", "p1", timestamp, _render(sentences))
        for i, (sentences, timestamp) in enumerate(drawn)
    ]
    # Renamed in an order-preserving way: which of two notes comes first
    # decides which of their same-id resources the bundle keeps (item 3).
    renamed = [
        ClinicalNote(prefix + note.note_id, "p1", note.timestamp, note.text)
        for note in notes
    ]
    shuffled = list(notes)
    rng.shuffle(shuffled)
    expected = _bundle(notes)
    assert _bundle(renamed) == expected
    assert _bundle(shuffled) == expected


@_SETTINGS
@given(note_sentences, st.data())
def test_upper_casing_a_dictionary_surface_keeps_the_facts(drawn, data):
    upper = data.draw(st.integers(0, len(drawn) - 1))
    before = ClinicalNote("n1", "p1", None, _render(drawn))
    after = ClinicalNote("n1", "p1", None, _render(drawn, upper))
    assert _facts([after]) == _facts([before])
