"""Sentence segmentation and entity mention extraction.

Extraction combines dictionary matching (longest token n-gram wins) with a
configurable set of regular-expression patterns for dosages, observations
with inline values, and temporal expressions. Everything here is a pure
function of its inputs, so notes can be processed in parallel against a
shared read-only index.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fhirtwin._match.pymatch import dictionary_spans, token_spans
from fhirtwin.terminology import EntityType, TerminologyIndex, data_lines

#: Tokens that keep a following period from ending a sentence.
ABBREVIATIONS = frozenset(
    {
        "dr",
        "mr",
        "mrs",
        "ms",
        "st",
        "jr",
        "sr",
        "prof",
        "vs",
        "e.g",
        "i.e",
        "mg",
        "mcg",
        "ml",
        "b.i.d",
        "t.i.d",
        "q.i.d",
        "q.d",
        "p.r.n",
    }
)

_TERMINATORS = ".!?"

#: Overlap tie-break priority (lower wins) when spans have equal length.
_ETYPE_PRIORITY = {
    EntityType.CONDITION: 0,
    EntityType.MEDICATION: 1,
    EntityType.OBSERVATION: 2,
    EntityType.DOSAGE: 3,
    EntityType.TEMPORAL: 4,
}
_ETYPE_BY_PRIORITY = tuple(sorted(_ETYPE_PRIORITY, key=_ETYPE_PRIORITY.__getitem__))

DEFAULT_MAX_NGRAM = 6


@dataclass(frozen=True)
class ClinicalNote:
    note_id: str
    patient_id: str
    timestamp: Optional[str]
    text: str

    def __post_init__(self):
        if not self.note_id:
            raise ValueError("note_id must be non-empty")
        if not self.patient_id:
            raise ValueError("patient_id must be non-empty")


@dataclass(frozen=True)
class Sentence:
    start: int
    end: int
    index: int


@dataclass(frozen=True)
class EntityMention:
    mention_id: str
    note_id: str
    start: int
    end: int
    text: str
    etype: EntityType
    sentence_index: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class Pattern:
    name: str
    etype: EntityType
    regex: re.Pattern


@dataclass(frozen=True)
class PatternSet:
    patterns: tuple[Pattern, ...]


def load_patterns(path: str | Path) -> PatternSet:
    """Load a tab-separated pattern file: NAME<TAB>ETYPE<TAB>REGEX per line."""
    patterns: list[Pattern] = []
    for line_no, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected 3 tab-separated fields")
        name, raw_type, regex = parts
        try:
            etype = EntityType[raw_type.strip().upper()]
            compiled = re.compile(regex, re.IGNORECASE)
        except KeyError:
            raise ValueError(
                f"{path}:{line_no}: unknown entity type {raw_type!r}"
            ) from None
        except re.error as exc:
            raise ValueError(f"{path}:{line_no}: bad regex: {exc}") from None
        patterns.append(Pattern(name.strip(), etype, compiled))
    return PatternSet(tuple(patterns))


def _guarded_period(text: str, i: int) -> bool:
    """True when the period at ``i`` should not end a sentence."""
    n = len(text)
    if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return True
    # Take the maximal run of word characters and periods around the dot, so
    # every period inside "e.g." or "b.i.d." sees the whole abbreviation.
    k = i - 1
    while k >= 0 and (text[k].isalnum() or text[k] == "."):
        k -= 1
    j = i + 1
    while j < n and (text[j].isalnum() or text[j] == "."):
        j += 1
    token = text[k + 1 : j].casefold().strip(".")
    return token in ABBREVIATIONS


def segment(text: str) -> list[Sentence]:
    """Split text into sentences on ``.``, ``!``, ``?`` and newlines.

    Periods inside numbers and after known abbreviations do not split.
    Terminator punctuation stays inside its sentence; surrounding
    whitespace does not. Empty segments are dropped.
    """
    boundaries: list[int] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            boundaries.append(i)
            i += 1
        elif ch in _TERMINATORS:
            if ch == "." and _guarded_period(text, i):
                i += 1
                continue
            while i < n and text[i] in _TERMINATORS:
                i += 1
            boundaries.append(i)
        else:
            i += 1

    sentences: list[Sentence] = []
    seg_start = 0
    for boundary in boundaries + [n]:
        if boundary < seg_start:
            continue
        chunk = text[seg_start:boundary]
        left = len(chunk) - len(chunk.lstrip())
        right = len(chunk.rstrip())
        if right > left:
            sentences.append(
                Sentence(seg_start + left, seg_start + right, len(sentences))
            )
        seg_start = boundary + 1 if boundary < n and text[boundary] == "\n" else boundary
    return sentences


def _containing_sentence(
    sentences: list[Sentence], starts: list[int], start: int, end: int
) -> Optional[int]:
    """Index of the sentence holding the non-empty span, or ``None``.

    ``sentences`` are sorted and disjoint, as ``segment`` returns them, and
    ``starts`` lists their start offsets, so only the last sentence that
    starts at or before ``start`` can hold the span.
    """
    i = bisect_right(starts, start) - 1
    if i >= 0 and end <= sentences[i].end:
        return sentences[i].index
    return None


def _resolve_overlaps(
    candidates: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Longest span wins; ties go to leftmost start, then etype priority.

    Each candidate is ``(start, end, priority)``, with the ``_ETYPE_PRIORITY``
    of its entity type, so that ordering them compares ints only.
    Candidates are non-empty spans, and two of them overlap exactly when
    they share a character. So a candidate is accepted when none of its
    characters is covered by an accepted span yet, which costs time in
    proportion to its length, not to the number of spans accepted.
    """
    ordered = sorted(set(candidates), key=lambda c: (c[0] - c[1], c[0], c[2], c[1]))
    covered = bytearray(max((end for _, end, _ in ordered), default=0))
    accepted: list[tuple[int, int, int]] = []
    for start, end, priority in ordered:
        if covered.find(1, start, end) < 0:
            covered[start:end] = b"\x01" * (end - start)
            accepted.append((start, end, priority))
    accepted.sort(key=lambda c: c[0])
    return accepted


def extract_entities(
    note: ClinicalNote,
    index: TerminologyIndex,
    patterns: PatternSet,
    max_ngram: int = DEFAULT_MAX_NGRAM,
) -> list[EntityMention]:
    """Extract typed, non-overlapping entity mentions from a note.

    Dictionary hits are typed by their concept entries; pattern hits by the
    pattern's entity type. Candidates crossing a sentence boundary are
    dropped, so every returned mention sits inside exactly one sentence.
    Output is sorted by start offset.
    """
    text = note.text
    sentences = segment(text)
    sentence_starts = [sentence.start for sentence in sentences]
    candidates: list[tuple[int, int, int]] = []

    keys = index.match_keys()
    if keys:
        spans = token_spans(text)
        for start, end in dictionary_spans(text, spans, keys, max_ngram):
            entries = index.lookup(text[start:end])
            if entries:
                candidates.append(
                    (start, end, _ETYPE_PRIORITY[entries[0].entity_type])
                )

    for pattern in patterns.patterns:
        priority = _ETYPE_PRIORITY[pattern.etype]
        for match in pattern.regex.finditer(text):
            if match.start() < match.end():
                candidates.append((match.start(), match.end(), priority))

    # Sentence containment is decided before overlap resolution so that a
    # boundary-crossing candidate cannot knock out an in-sentence one.
    contained: list[tuple[int, int, int]] = []
    sentence_of: dict[tuple[int, int], int] = {}
    for start, end, priority in candidates:
        sentence_index = _containing_sentence(
            sentences, sentence_starts, start, end
        )
        if sentence_index is not None:
            contained.append((start, end, priority))
            sentence_of[(start, end)] = sentence_index

    return [
        EntityMention(
            mention_id=f"{note.note_id}:{start}-{end}",
            note_id=note.note_id,
            start=start,
            end=end,
            text=text[start:end],
            etype=_ETYPE_BY_PRIORITY[priority],
            sentence_index=sentence_of[(start, end)],
        )
        for start, end, priority in _resolve_overlaps(contained)
    ]
