"""Sentence-scoped rule-based relation extraction.

Two rules produce relations between distinct mentions:

* every dosage attaches to the nearest preceding medication in its
  sentence (``has-dosage``);
* an observation or condition followed by a cue phrase ("due to",
  "secondary to", ...) and then a condition yields ``symptom-of``.

Observations that carry their value inline ("BP 145/92") need no relation:
assembly reads the value straight off the span. ``has-result`` exists as a
relation type so gold annotations and external annotation files can
express explicit result links, and it scores like any other type.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from fhirtwin.ner import EntityMention, Sentence
from fhirtwin.normalizer import AnnotatedMention
from fhirtwin.terminology import EntityType, data_lines


class RelationType(Enum):
    SYMPTOM_OF = "symptom-of"
    HAS_DOSAGE = "has-dosage"
    HAS_RESULT = "has-result"

    __hash__ = object.__hash__  # as for terminology.CodeSystem


@dataclass(frozen=True, slots=True)
class Relation:
    rtype: RelationType
    head: str
    tail: str


DEFAULT_CUES = ("due to", "secondary to", "consistent with")


def load_cues(path: str | Path) -> tuple[str, ...]:
    """Load cue phrases, one per line; blanks and ``#`` comments ignored."""
    return tuple(line.strip() for _, line in data_lines(path))


_SYMPTOM_HEADS = frozenset({EntityType.OBSERVATION, EntityType.CONDITION})
_START = attrgetter("start")
_END = attrgetter("end")


def extract_relations(
    annotated: Sequence[AnnotatedMention],
    sentences: Sequence[Sentence],
    note_text: str,
    cues: Iterable[str] = DEFAULT_CUES,
) -> list[Relation]:
    """Apply the per-sentence attachment rules over annotated mentions.

    The mentions must be non-empty and must not overlap, as
    ``extract_entities`` returns them: in start order their ends are then
    sorted too, which the nearest-mention lookups rely on.

    Output is deduplicated and sorted by (sentence, head start, relation
    type), so identical inputs always produce identical lists.
    """
    mentions = [a.mention for a in annotated]
    by_sentence: dict[int, list[EntityMention]] = {}
    for mention in mentions:
        by_sentence.setdefault(mention.sentence_index, []).append(mention)

    cue_patterns = [
        re.compile(r"\b" + re.escape(cue) + r"\b", re.IGNORECASE) for cue in cues
    ]

    start_of = {m.mention_id: m.start for m in mentions}
    found: dict[Relation, tuple[int, int, str]] = {}

    def add(relation: Relation, sentence_index: int) -> None:
        found.setdefault(
            relation, (sentence_index, start_of[relation.head], relation.rtype.value)
        )

    for sentence in sentences:
        group = sorted(by_sentence.get(sentence.index, []), key=_START)
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
                relation = Relation(
                    RelationType.HAS_DOSAGE, med.mention_id, mention.mention_id
                )
                add(relation, sentence.index)
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
                relation = Relation(
                    RelationType.SYMPTOM_OF, head.mention_id, tail.mention_id
                )
                add(relation, sentence.index)

    return sorted(found, key=found.__getitem__)
