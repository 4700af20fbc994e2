"""Sentence-scoped rule-based relation extraction.

Two rules produce relations between distinct mentions:

* every dosage attaches to the nearest preceding medication in its
  sentence (``has-dosage``);
* an observation or condition followed by a cue phrase ("due to",
  "secondary to", ...) and then a condition yields ``symptom-of``.

Observations that carry their value inline ("BP 145/92") need no relation:
assembly reads the value straight off the span.

Each cue becomes a case-insensitive whole-word regex. The regexes are
compiled once per distinct tuple of cues and reused by every later call.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from fhirtwin.ner import EntityMention, Sentence
from fhirtwin.normalizer import AnnotatedMention
from fhirtwin.terminology import EntityType, data_lines


class RelationType(Enum):
    SYMPTOM_OF = "symptom-of"
    HAS_DOSAGE = "has-dosage"

    __hash__ = object.__hash__  # as for terminology.CodeSystem


@dataclass(frozen=True, slots=True)
class Relation:
    """A link between two mentions of one note, named by their spans."""

    rtype: RelationType
    head_span: tuple[int, int]
    tail_span: tuple[int, int]


def load_cues(path: str | Path) -> tuple[str, ...]:
    """Load cue phrases, one per line; blanks and ``#`` comments ignored."""
    return tuple(line.strip() for _, line in data_lines(path))


_SYMPTOM_HEADS = frozenset({EntityType.OBSERVATION, EntityType.CONDITION})
_START = attrgetter("start")
_END = attrgetter("end")


@lru_cache(maxsize=16)
def _cue_patterns(cues: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    return tuple(
        re.compile(r"\b" + re.escape(cue) + r"\b", re.IGNORECASE) for cue in cues
    )


def extract_relations(
    annotated: Sequence[AnnotatedMention],
    sentences: Sequence[Sentence],
    note_text: str,
    cues: Iterable[str],
) -> list[Relation]:
    """Apply the per-sentence attachment rules over annotated mentions.

    The mentions must be non-empty and must not overlap, as
    ``extract_entities`` returns them: in start order their ends are then
    sorted too, which the nearest-mention lookups rely on.

    ``sentences[i]`` holds the mentions whose ``sentence_index`` is ``i``.
    Output is deduplicated and sorted by (sentence, head start, relation
    type), so identical inputs always produce identical lists.
    """
    by_sentence: dict[int, list[EntityMention]] = {}
    for item in annotated:
        by_sentence.setdefault(item.mention.sentence_index, []).append(item.mention)

    cue_patterns = _cue_patterns(tuple(cues))

    # (rtype, head span, tail span) -> its sentence, in first-found order.
    found: dict[tuple[RelationType, tuple[int, int], tuple[int, int]], int] = {}

    for sentence_index, sentence in enumerate(sentences):
        group = sorted(by_sentence.get(sentence_index, []), key=_START)
        if not group:
            continue

        # One sweep in start order: a dosage attaches to the last medication
        # before it, and the cue rule's heads and tails are kept in order.
        med = None
        heads: list[EntityMention] = []
        tails: list[EntityMention] = []
        for mention in group:
            if mention.etype == EntityType.MEDICATION:
                med = mention
            elif mention.etype == EntityType.DOSAGE and med is not None:
                relation = (RelationType.HAS_DOSAGE, med.span, mention.span)
                found.setdefault(relation, sentence_index)
            if mention.etype in _SYMPTOM_HEADS:
                heads.append(mention)
            if mention.etype == EntityType.CONDITION:
                tails.append(mention)
        if not heads or not tails:
            continue

        sentence_text = note_text[sentence.start : sentence.end]
        for cue_pattern in cue_patterns:
            for match in cue_pattern.finditer(sentence_text):
                # The head ends at or before the cue, the tail starts at or
                # after it; the nearest of each is found by bisection.
                h = bisect_right(heads, sentence.start + match.start(), key=_END)
                t = bisect_left(tails, sentence.start + match.end(), key=_START)
                if h == 0 or t == len(tails):
                    continue
                head, tail = heads[h - 1], tails[t]
                relation = (RelationType.SYMPTOM_OF, head.span, tail.span)
                found.setdefault(relation, sentence_index)

    ranked = sorted(found, key=lambda r: (found[r], r[1][0], r[0].value))
    return [Relation(*relation) for relation in ranked]
