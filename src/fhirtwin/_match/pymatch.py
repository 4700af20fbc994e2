"""Matcher kernel: tokenization and dictionary span scanning.

These are the two hot functions behind dictionary entity extraction.

Token rule: a token is a run of alphanumeric characters, joined across a
``/`` or ``.`` that has decimal digits (``str.isdecimal``) on both sides:
``145/92`` and ``2.5mg`` are one token each, ``4²/2`` is ``4²`` and ``2``.
Everything else separates tokens. One regex scans for them.

Dictionary keys are normalized the same way terminology lookup normalizes
queries: case-fold the verbatim slice and collapse whitespace runs. The
scanner builds candidate keys incrementally (token + separator at a time)
and prunes an n-gram as soon as its key stops being a prefix of any
dictionary key, which is what makes scanning large corpora cheap. A gap
between tokens is normalized only when an n-gram grows across it. The
prefix set is built once per key set and memoised on it, so a large
dictionary costs nothing per note once its first note has been scanned.
"""

from __future__ import annotations

import re
from weakref import ref

#: A whitespace run, which a key holds as one space. ``\s`` matches exactly
#: the characters ``str.isspace`` accepts.
_WHITESPACE = re.compile(r"\s+")

#: The token rule: ``[^\W_]`` matches exactly what ``str.isalnum`` accepts,
#: and ``\d`` what ``str.isdecimal`` accepts.
_TOKEN = re.compile(r"[^\W_]+(?:[./](?<=\d[./])(?=\d)[^\W_]+)*")

#: id(key set) -> (weak reference to that set, its prefix set). Keyed by
#: identity because comparing two large sets for equality is O(size); the
#: entry is dropped when its key set is freed, so a discarded dictionary
#: keeps no memory here.
_PREFIXES: dict[int, tuple[ref, frozenset[str]]] = {}


def token_spans(text: str) -> list[tuple[int, int]]:
    """Return (start, end) offsets of every token in ``text``."""
    return [match.span() for match in _TOKEN.finditer(text)]


def key_prefixes(keys: frozenset[str] | set[str]) -> frozenset[str]:
    """Every dictionary key cut at each of its own token ends.

    A candidate key that is not in this set cannot grow into a full key by
    appending more tokens, so the scanner may stop extending it. The result
    is memoised for as long as ``keys`` lives, so a repeat call with the
    same frozenset is O(1). A mutable set is copied first, so a change to
    it is seen on the next call.
    """
    if not isinstance(keys, frozenset):
        keys = frozenset(keys)
    key_id = id(keys)
    cached = _PREFIXES.get(key_id)
    if cached is not None and cached[0]() is keys:
        return cached[1]
    prefixes = frozenset(key[:end] for key in keys for _, end in token_spans(key))
    _PREFIXES[key_id] = (ref(keys, lambda _: _PREFIXES.pop(key_id, None)), prefixes)
    return prefixes


def dictionary_spans(
    text: str,
    spans: list[tuple[int, int]],
    keys: frozenset[str] | set[str],
    max_ngram: int | None = None,
) -> list[tuple[int, int]]:
    """All token n-gram spans (n <= max_ngram) whose normalized slice is a key.

    With ``max_ngram`` None the prefix set alone bounds each scan, at the
    longest key. Returns every hit, ordered by (start, end); overlap
    resolution happens in the caller.
    """
    count = len(spans)
    if max_ngram is None:
        max_ngram = count
    if count == 0 or not keys or max_ngram <= 0:
        return []
    folded = [text[s:e].casefold() for s, e in spans]
    prefixes = key_prefixes(keys)

    hits: list[tuple[int, int]] = []
    for i in range(count):
        key = folded[i]
        j = i
        while key in prefixes:
            if key in keys:
                hits.append((spans[i][0], spans[j][1]))
            j += 1
            if j >= count or j - i >= max_ngram:
                break
            gap = text[spans[j - 1][1] : spans[j][0]]
            # A one-space gap, by far the most common, needs no substitution.
            if gap != " ":
                gap = _WHITESPACE.sub(" ", gap.casefold())
            key = key + gap + folded[j]
    return hits
