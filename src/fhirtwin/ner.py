"""Sentence segmentation and entity mention extraction.

Extraction combines dictionary matching (longest token n-gram wins, up to
the longest dictionary key) with a configurable set of regular-expression
patterns for dosages and temporal expressions. Everything here is a pure
function of its inputs, so notes can be processed in parallel against a
shared read-only index.

Observation names come from the dictionary alone, and
``OBSERVATION_VALUE`` is the one grammar of the value that may follow one.
``extract_entities`` matches it once, after the name, and the mention
keeps both parts, so no later stage parses its text again.

``segment`` and ``token_spans`` scan the text with one regex each; a run
of periods alone ends no sentence when its first period is guarded.

``extract_entities`` makes one ``Candidate`` tuple per candidate, whose
natural order is the overlap ranking, and gives it its sentence as it is
made, so a candidate that crosses a sentence boundary is never kept. Each
distinct dictionary surface of a note is looked up once. ``Sentence`` and
``EntityMention`` are frozen slotted records: they carry no ``__dict__``,
which keeps the many made per long note small. A mention is identified
by its note and span; no string id is made for it.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Optional

from fhirtwin._match.pymatch import dictionary_spans, token_spans
from fhirtwin.terminology import (
    EntityType,
    MalformedRowError,
    TerminologyIndex,
    table_rows,
)

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

#: A sentence break: a newline, or a run of terminators.
_BREAK = re.compile(r"\n|[.!?]+")

#: Overlap tie-break priority (lower wins) when spans have equal length.
_ETYPE_PRIORITY = {
    EntityType.CONDITION: 0,
    EntityType.MEDICATION: 1,
    EntityType.OBSERVATION: 2,
    EntityType.DOSAGE: 3,
    EntityType.TEMPORAL: 4,
}
_ETYPE_BY_PRIORITY = tuple(sorted(_ETYPE_PRIORITY, key=_ETYPE_PRIORITY.__getitem__))

_OBSERVATION = _ETYPE_PRIORITY[EntityType.OBSERVATION]
#: An observation value after its name: a colon or whitespace, optionally
#: ``was``, ``is`` or ``of`` and whitespace, a number or a ratio, then an
#: optional unit. Compiled case-insensitive.
OBSERVATION_VALUE = (
    r"(?:\s*:\s*|\s+)(?:(?:was|is|of)\s+)?"
    r"(?P<value>\d+(?:\.\d+)?(?:\s?/\s?\d+(?:\.\d+)?)?"
    r"(?:\s?(?:mmhg|mg/dl|mmol/l|meq/l|g/dl|k/ul|u/l|ng/ml|pg/ml|mm/hr|/min"
    r"|x10\^9/l|x10\^3/ul|bpm|lbs?|kg|cm|sec|%|°c|°f|f|c))?)(?!\w)"
)
_VALUE = re.compile(OBSERVATION_VALUE, re.IGNORECASE)

#: An extraction candidate ranked for overlap resolution:
#: ``(start - end, start, priority, end, sentence index, name end, value
#: start)``. The last two are ``end, end`` unless it is a valued observation.
Candidate = tuple[int, int, int, int, int, int, int]


#: A 255-byte file name less the longest affix the CLI adds to an id.
MAX_ID_BYTES = 255 - len("twin_.issues.json")


def check_id(field: str, value: str, error: Callable[[str], Exception] = ValueError):
    """Raise ``error(reason)`` unless ``value``, a note or patient id, can
    name a file: it must be non-empty, not ``.`` or ``..``, hold no ``/``,
    ``\\`` or NUL, and take at most ``MAX_ID_BYTES`` bytes as a file name
    (``os.fsencode``, which gives back the bytes of a name that was not
    UTF-8)."""
    if not value:
        raise error(f"{field} must be non-empty")
    if value in (".", "..") or any(c in value for c in "/\\\0"):
        raise error(f"{field} {value!r} is not a plain file name part")
    try:
        size = len(os.fsencode(value))
    except UnicodeEncodeError:
        raise error(f"{field} {value!r} cannot name a file") from None
    if size > MAX_ID_BYTES:
        raise error(f"{field} {value!r} is longer than {MAX_ID_BYTES} UTF-8 bytes")


@dataclass(frozen=True)
class ClinicalNote:
    note_id: str
    patient_id: str
    timestamp: Optional[str]
    text: str

    def __post_init__(self):
        check_id("note_id", self.note_id)
        check_id("patient_id", self.patient_id)


@dataclass(frozen=True, slots=True)
class Sentence:
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class EntityMention:
    """A typed span of a note, which its ``span`` identifies in the note.

    A valued observation's ``text`` is its dictionary ``name``, then an
    ``OBSERVATION_VALUE`` whose ``value`` group is ``value``; any other
    mention has ``name == text`` and ``value == ""``."""

    start: int
    end: int
    text: str
    etype: EntityType
    sentence_index: int
    name: str
    value: str

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class Pattern:
    name: str
    etype: EntityType
    regex: re.Pattern


def load_patterns(path: str | Path) -> tuple[Pattern, ...]:
    """Load a tab-separated pattern file: NAME<TAB>ETYPE<TAB>REGEX per line."""
    patterns: list[Pattern] = []
    for line_no, (name, raw_type, regex) in table_rows(path, 3, "\t"):
        try:
            etype = EntityType[raw_type.strip().upper()]
            compiled = re.compile(regex, re.IGNORECASE)
        except KeyError:
            raise MalformedRowError(
                path, line_no, f"unknown entity type {raw_type!r}"
            ) from None
        except re.error as exc:
            raise MalformedRowError(path, line_no, f"bad regex: {exc}") from None
        patterns.append(Pattern(name.strip(), etype, compiled))
    return tuple(patterns)


def _guarded_period(text: str, i: int) -> bool:
    """True when the period at ``i`` should not end a sentence.

    A period right after five alphanumerics ends one at once: the longest
    dot-free part of an abbreviation (``prof``) has four characters, and
    ``casefold`` neither shortens a run nor puts a period in it.
    """
    n = len(text)
    if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return True
    if i >= 5 and text[i - 5 : i].isalnum():
        return False
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

    A sentence ends after each newline and each maximal run of
    terminators (``mg.!`` ends after ``!``), except a run of periods alone
    whose first period is guarded, and at the end of the text. The
    periods of a run lie in one maximal run of alphanumerics and periods,
    so they share the first one's abbreviation verdict, and a period
    guarded by the digit rule has a digit after it, so its run is that
    one period.
    """
    ends = [
        match.end()
        for match in _BREAK.finditer(text)
        if match[0].strip(".") or not _guarded_period(text, match.start())
    ]
    ends.append(len(text))
    sentences: list[Sentence] = []
    start = 0
    for end in ends:
        chunk = text[start:end]
        left = len(chunk) - len(chunk.lstrip())
        right = len(chunk.rstrip())
        if right > left:
            sentences.append(Sentence(start + left, start + right))
        start = end
    return sentences


def _containing_sentence(
    starts: list[int], ends: list[int], start: int, end: int
) -> Optional[int]:
    """Index of the sentence holding the non-empty span, or ``None``.

    ``starts`` and ``ends`` list the offsets of sorted, disjoint sentences,
    as ``segment`` returns them, so only the last sentence that starts at
    or before ``start`` can hold the span.
    """
    i = bisect_right(starts, start) - 1
    if i >= 0 and end <= ends[i]:
        return i
    return None


def _resolve_overlaps(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Longest span wins; ties go to leftmost start, then etype priority.

    Each candidate is a ``Candidate``, with the ``_ETYPE_PRIORITY`` of its
    entity type, so the natural order of the tuples is the ranking and
    comparing them compares ints only.
    Candidates are non-empty spans, and two of them overlap exactly when
    they share a character. So a candidate is accepted when none of its
    characters is covered by an accepted span yet, which costs time in
    proportion to its length, not to the number of spans accepted.
    Accepted candidates are returned in start order.
    """
    ranked = sorted(set(candidates))
    covered = bytearray(max((c[3] for c in ranked), default=0))
    accepted: list[Candidate] = []
    for candidate in ranked:
        start, end = candidate[1], candidate[3]
        if covered.find(1, start, end) < 0:
            covered[start:end] = b"\x01" * (end - start)
            accepted.append(candidate)
    accepted.sort(key=itemgetter(1))
    return accepted


def extract_entities(
    note: ClinicalNote,
    index: TerminologyIndex,
    patterns: tuple[Pattern, ...],
) -> list[EntityMention]:
    """Extract typed, non-overlapping entity mentions from a note.

    Dictionary hits are typed by their concept entries; pattern hits by the
    pattern's entity type. An observation hit followed by an
    ``OBSERVATION_VALUE`` is a candidate both bare and with its value, and
    the valued mention keeps the hit as its ``name``.
    Candidates crossing a sentence boundary are dropped, so every returned
    mention sits inside exactly one sentence. Output is sorted by start
    offset.
    """
    text = note.text
    sentences = segment(text)
    starts = [sentence.start for sentence in sentences]
    ends = [sentence.end for sentence in sentences]
    # Sentence containment is decided as each candidate is made, before
    # overlap resolution, so that a boundary-crossing candidate cannot
    # knock out an in-sentence one.
    candidates: list[Candidate] = []

    keys = index.match_keys()
    if keys:
        # Each distinct surface is looked up once per note.
        priority_of: dict[str, Optional[int]] = {}
        for start, end in dictionary_spans(text, token_spans(text), keys):
            surface = text[start:end]
            if surface not in priority_of:
                entries = index.lookup(surface)
                priority_of[surface] = (
                    _ETYPE_PRIORITY[entries[0].entity_type] if entries else None
                )
            priority = priority_of[surface]
            if priority is not None:
                sentence = _containing_sentence(starts, ends, start, end)
                if sentence is not None:
                    candidates.append((start - end, start, priority, end, sentence, end, end))
                    value = _VALUE.match(text, end) if priority == _OBSERVATION else None
                    if value is not None and value.end() <= ends[sentence]:
                        name_end, value_start, end = end, value.start("value"), value.end()
                        candidates.append(
                            (start - end, start, priority, end, sentence, name_end, value_start)
                        )

    for pattern in patterns:
        priority = _ETYPE_PRIORITY[pattern.etype]
        for match in pattern.regex.finditer(text):
            start, end = match.span()
            if start < end:
                sentence = _containing_sentence(starts, ends, start, end)
                if sentence is not None:
                    candidates.append((start - end, start, priority, end, sentence, end, end))

    mentions: list[EntityMention] = []
    for _, start, priority, end, sentence, name_end, value_start in _resolve_overlaps(
        candidates
    ):
        surface = text[start:end]  # a full slice of a str is that str, not a copy
        name, value = surface[: name_end - start], surface[value_start - start :]
        etype = _ETYPE_BY_PRIORITY[priority]
        mentions.append(EntityMention(start, end, surface, etype, sentence, name, value))
    return mentions
