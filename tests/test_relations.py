from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin.cli import annotation_to_dict
from fhirtwin.ner import ClinicalNote, EntityMention, extract_entities, segment
from fhirtwin.normalizer import AnnotatedMention, normalize_all
from fhirtwin.pipeline import NoteAnnotation, default_data_dir
from fhirtwin.relations import RelationType, extract_relations, load_cues
from fhirtwin.terminology import EntityType

from conftest import FIG1_TEXT, TABLE3_TEXT
from oracles import oracle_containing_sentence, oracle_extract_relations


def annotate(text, pipeline):
    note = ClinicalNote("n1", "p1", None, text)
    sentences = segment(text)
    mentions = extract_entities(note, pipeline.index, pipeline.patterns)
    annotated = normalize_all(mentions, pipeline.index)
    return annotated, sentences, text


def relation_texts(annotated, rels):
    by_span = {a.mention.span: a.mention.text for a in annotated}
    return [(r.rtype, by_span[r.head_span], by_span[r.tail_span]) for r in rels]


def test_table3_single_dosage_relation(pipeline):
    annotated, sentences, text = annotate(TABLE3_TEXT, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert relation_texts(annotated, rels) == [
        (RelationType.HAS_DOSAGE, "Lisinopril", "10mg daily")
    ]


def test_fig1_dosage_relation(pipeline):
    annotated, sentences, text = annotate(FIG1_TEXT, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert relation_texts(annotated, rels) == [
        (RelationType.HAS_DOSAGE, "Metformin", "500mg twice daily")
    ]


def test_no_relations_without_dosage_or_cues(pipeline):
    annotated, sentences, text = annotate("Patient has diabetes.", pipeline)
    assert extract_relations(annotated, sentences, text, pipeline.cues) == []


def nearest_preceding_oracle(annotated):
    """Brute force: consider every medication x dosage pair per sentence."""
    mentions = [a.mention for a in annotated]
    pairs = []
    for med, dose in itertools.product(mentions, mentions):
        if med.etype != EntityType.MEDICATION or dose.etype != EntityType.DOSAGE:
            continue
        if med.sentence_index != dose.sentence_index or med.end > dose.start:
            continue
        pairs.append((med, dose))
    best = {}
    for med, dose in pairs:
        current = best.get(dose.span)
        if current is None or med.start > current[0].start:
            best[dose.span] = (med, dose)
    return sorted(
        (med.text, dose.text) for med, dose in best.values()
    )


def test_two_dosages_attach_to_their_own_medications(pipeline):
    text = "Started Aspirin 81mg daily and Metformin 500mg twice daily."
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    got = sorted(
        (head, tail)
        for rtype, head, tail in relation_texts(annotated, rels)
        if rtype == RelationType.HAS_DOSAGE
    )
    assert got == [("Aspirin", "81mg daily"), ("Metformin", "500mg twice daily")]
    assert got == nearest_preceding_oracle(annotated)


def test_symptom_of_cue(pipeline):
    text = "Edema due to heart failure."
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert relation_texts(annotated, rels) == [
        (RelationType.SYMPTOM_OF, "Edema", "heart failure")
    ]


def test_symptom_of_with_observation_head(pipeline):
    text = "BP 180/110 consistent with hypertension."
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert relation_texts(annotated, rels) == [
        (RelationType.SYMPTOM_OF, "BP 180/110", "hypertension")
    ]


def test_cross_sentence_relations_excluded(pipeline):
    text = "Started Aspirin. 81mg daily was planned."
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert [r for r in rels if r.rtype == RelationType.HAS_DOSAGE] == []


def test_dosage_without_preceding_medication(pipeline):
    text = "81mg daily Aspirin started."  # dosage precedes the drug
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert [r for r in rels if r.rtype == RelationType.HAS_DOSAGE] == []


def test_each_dosage_is_tail_at_most_once(pipeline):
    text = (
        "Started Aspirin 81mg daily and Metformin 500mg twice daily. "
        "Started Lisinopril 10mg daily."
    )
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    tails = [r.tail_span for r in rels if r.rtype == RelationType.HAS_DOSAGE]
    assert len(tails) == len(set(tails))


def test_sentence_locality(pipeline):
    annotated, sentences, text = annotate(TABLE3_TEXT, pipeline)
    by_span = {a.mention.span: a.mention for a in annotated}
    for rel in extract_relations(annotated, sentences, text, pipeline.cues):
        head, tail = by_span[rel.head_span], by_span[rel.tail_span]
        assert head.sentence_index == tail.sentence_index


def test_determinism(pipeline):
    annotated, sentences, text = annotate(TABLE3_TEXT, pipeline)
    first = extract_relations(annotated, sentences, text, pipeline.cues)
    second = extract_relations(annotated, sentences, text, pipeline.cues)
    assert first == second


def test_load_cues(tmp_path):
    path = tmp_path / "cues.txt"
    path.write_text("# attribution cues\ndue to\nsecondary to\n", encoding="utf-8")
    assert load_cues(path) == ("due to", "secondary to")
    assert load_cues(default_data_dir() / "cues.txt") == (
        "due to",
        "secondary to",
        "consistent with",
        "attributed to",
    )


# ---------------------------------------------------------------------------
# One sweep and bisection against the quadratic scans
# ---------------------------------------------------------------------------

# Notes are drawn as runs of cue words, filler, bracketed words and sentence
# ends; mentions as short spans laid left to right over that text with drawn
# gaps, so they can touch each other, touch or straddle a cue, and start or
# end a sentence. Spans crossing a sentence are left out, as extraction
# drops them.
_PIECES = [
    "z",
    "zz",
    "(z)",
    " ",
    " ",
    ", ",
    " due to ",
    "due to",
    "secondary to",
    " consistent with ",
    "to",
    ". ",
    "\n",
    "!",
]


@st.composite
def drawn_notes(draw):
    text = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=6, max_size=40)))
    sentences = segment(text)
    annotated = []
    end = 0
    while True:
        start = end + draw(st.integers(0, 4))
        end = start + draw(st.integers(1, 6))
        if end > len(text):
            break
        sentence_index = oracle_containing_sentence(sentences, start, end)
        if sentence_index is None:
            continue
        mention = EntityMention(
            start=start,
            end=end,
            text=text[start:end],
            etype=draw(st.sampled_from(list(EntityType))),
            sentence_index=sentence_index,
            name=text[start:end],
            value="",
        )
        annotated.append(AnnotatedMention(mention, None))
    return annotated, sentences, text


@settings(max_examples=500)
@given(
    drawn_notes(),
    st.lists(
        st.sampled_from(["due to", "secondary to", "consistent with", "to"]),
        unique=True,
    ),
)
def test_relations_match_quadratic_reference(note, cues):
    annotated, sentences, text = note
    rels = extract_relations(annotated, sentences, text, cues)
    assert rels == oracle_extract_relations(annotated, sentences, text, cues)

    # Each relation joins two distinct mentions of one sentence by their
    # spans, and the annotation file names both by <note_id>:<start>-<end>.
    by_span = {a.mention.span: a.mention for a in annotated}
    for relation in rels:
        head, tail = by_span[relation.head_span], by_span[relation.tail_span]
        assert head is not tail and head.sentence_index == tail.sentence_index
    note = ClinicalNote("g", "p", None, text)
    body = annotation_to_dict(NoteAnnotation(note, tuple(annotated), tuple(rels)))
    span_of = {}
    for mention in body["mentions"]:
        assert mention["mention_id"] == f"g:{mention['start']}-{mention['end']}"
        span_of[mention["mention_id"]] = [mention["start"], mention["end"]]
    assert len(body["relations"]) == len(rels)
    for relation in body["relations"]:
        assert span_of[relation["head"]] == relation["head_span"]
        assert span_of[relation["tail"]] == relation["tail_span"]


def test_relations_match_reference_on_a_long_medication_list(pipeline):
    items = "Aspirin 81mg daily, Metformin 500mg twice daily, Lisinopril 10mg daily"
    text = f"Edema due to heart failure. Started {', '.join([items] * 40)}."
    annotated, sentences, _ = annotate(text, pipeline)
    rels = extract_relations(annotated, sentences, text, pipeline.cues)
    assert rels == oracle_extract_relations(annotated, sentences, text, pipeline.cues)
    assert sum(r.rtype == RelationType.HAS_DOSAGE for r in rels) == 120
