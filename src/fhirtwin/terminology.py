"""Controlled-vocabulary dictionaries and surface-form lookup.

Four code systems are supported: SNOMED CT, ICD-10, LOINC and RxNorm.
Dictionaries are plain UTF-8 comma-delimited files with five columns,

    surface_form,system,code,display,entity_type

where ``system`` is one of SNOMED/ICD10/LOINC/RXNORM and ``entity_type``
is CONDITION, MEDICATION or OBSERVATION. A second two-column file maps
synonym aliases to canonical surface forms (``alias,canonical``); aliases
must point directly at canonical forms, never at other aliases.

These two and every other setup table (patterns, templates and the
synthesizer's structured tables) are read through ``table_rows``, which
skips blank, whitespace-only and ``#`` lines, splits each line with
``str.split`` (only a comma line holding a ``"`` goes through
``csv.reader``) and checks each row's cell count; each loader then checks
its own cells. A bad row of any of them is one ``MalformedRowError``,
``<file>:<line>: <reason>``, on every Python version: a line ``csv`` cannot
parse is a bad row of every table, and so is a line holding NUL of every
file read through ``data_lines``, the config file and the cue list too.

``load_terminology`` builds an index in one flat loop per dictionary: it
checks each row's cells, in file order, into one staging dict, keeps the
first entry of each concept per surface, and attaches the synonym map,
which ``load_synonyms`` has already checked for self-loops and chains.

Indexes are immutable once built and safe to share across threads. Each
keeps a memo of what a normalized surface resolves to, created empty on
the first lookup, so a note that repeats a concept resolves it once. The
memo keeps hits only: it never holds more than one ``Resolution`` per
dictionary surface and synonym alias, however many unknown surfaces are
looked up. Two threads filling it at once store equal values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class MalformedRowError(ValueError):
    """A row of a setup table could not be parsed; the message is
    ``<file>:<line>: <reason>``."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


class CodeSystem(Enum):
    """The four supported code systems; values are the canonical URIs."""

    SNOMED = "http://snomed.info/sct"
    ICD10 = "http://hl7.org/fhir/sid/icd-10"
    LOINC = "http://loinc.org"
    RXNORM = "http://www.nlm.nih.gov/research/umls/rxnorm"

    # Members are singletons compared by identity, so the C-level identity
    # hash agrees with equality and skips Enum's Python-level __hash__.
    __hash__ = object.__hash__

    @property
    def uri(self) -> str:
        return self.value


# Tie-breaking order for lookup results.
SYSTEM_PRECEDENCE: dict[CodeSystem, int] = {
    system: rank for rank, system in enumerate(CodeSystem)
}


class EntityType(Enum):
    CONDITION = "CONDITION"
    MEDICATION = "MEDICATION"
    OBSERVATION = "OBSERVATION"
    DOSAGE = "DOSAGE"
    TEMPORAL = "TEMPORAL"

    __hash__ = object.__hash__  # as for CodeSystem


#: Entity types that may carry an ontology code (and appear in dictionaries).
CODEABLE_TYPES = frozenset(
    {EntityType.CONDITION, EntityType.MEDICATION, EntityType.OBSERVATION}
)

# The members of each enum by name, as ``CodeSystem[name]`` finds them,
# without a call of Enum's ``__getitem__`` per dictionary row.
_SYSTEMS = dict(CodeSystem.__members__)
_ENTITY_TYPES = dict(EntityType.__members__)


def normalize_surface(surface: str) -> str:
    """Case-fold and collapse internal whitespace; the canonical lookup key."""
    return " ".join(surface.casefold().split())


class ConceptEntry(NamedTuple):
    """One dictionary row: a surface form bound to an ontology code.

    A tuple, so building one runs no per-field ``__setattr__``: a load
    makes one per dictionary row.
    """

    surface_form: str
    system: CodeSystem
    code: str
    display: str
    entity_type: EntityType

    def sort_key(self) -> tuple[int, str]:
        return (SYSTEM_PRECEDENCE[self.system], self.code)


def _first_per_identity(entries: Sequence[ConceptEntry]) -> tuple[ConceptEntry, ...]:
    """The first entry of each (system, code, entity type), in first-seen order."""
    if len(entries) == 1:
        return tuple(entries)
    unique: dict[tuple[CodeSystem, str, EntityType], ConceptEntry] = {}
    for entry in entries:
        unique.setdefault((entry.system, entry.code, entry.entity_type), entry)
    return tuple(unique.values())


@dataclass(frozen=True)
class Resolution:
    """What one normalized surface finds in an index.

    ``exact`` holds the entries of the surface itself, ``via_synonym`` those
    of the canonical form it is an alias of, and ``entries`` both in
    ``lookup`` order. ``concepts`` is the normalizer's pick per entity type,
    filled as each type is first asked for.
    """

    exact: tuple[ConceptEntry, ...]
    via_synonym: tuple[ConceptEntry, ...]
    entries: tuple[ConceptEntry, ...]
    concepts: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class TerminologyIndex:
    """Immutable surface-form index over one or more loaded dictionaries.

    ``entries`` maps normalized surface forms to concept entries;
    ``synonym_map`` maps normalized aliases directly to canonical forms.
    """

    entries: dict[str, tuple[ConceptEntry, ...]] = field(default_factory=dict)
    synonym_map: dict[str, str] = field(default_factory=dict)

    def resolve(self, surface: str) -> Optional[Resolution]:
        """What ``surface`` resolves to directly or through a synonym, or
        None when it finds no entry. Hits are memoised per normalized
        surface; misses are not kept."""
        key = normalize_surface(surface)
        hit = self._resolutions.get(key)
        if hit is None:
            exact = self.entries.get(key, ())
            canonical = self.synonym_map.get(key)
            via_synonym = () if canonical is None else self.entries.get(canonical, ())
            if not (exact or via_synonym):
                return None
            entries = sorted(
                _first_per_identity(exact + via_synonym), key=ConceptEntry.sort_key
            )
            hit = self._resolutions[key] = Resolution(
                exact, via_synonym, tuple(entries)
            )
        return hit

    @cached_property
    def _resolutions(self) -> dict[str, Resolution]:
        return {}

    def lookup(self, surface: str) -> list[ConceptEntry]:
        """All entries matching the query directly or through a synonym.

        Results are ordered by system precedence (SNOMED, ICD10, LOINC,
        RXNORM) and then by code, so repeated lookups are deterministic.
        Unknown surfaces return an empty list. Each call returns a new list.
        """
        resolution = self.resolve(surface)
        return [] if resolution is None else list(resolution.entries)

    def match_keys(self) -> frozenset[str]:
        """Every normalized surface that can produce a lookup hit.

        Built on the first call and kept, so every note scanned against
        this index shares one set (and the matcher's prefix set memoised
        on it).
        """
        return self._match_keys

    @cached_property
    def _match_keys(self) -> frozenset[str]:
        return frozenset(self.entries) | frozenset(self.synonym_map)


def data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line without its newline) for every line of a UTF-8
    text file that is neither blank nor a ``#`` comment. A leading byte-order
    mark, as spreadsheet exports write it, is not part of the first line.

    Raises ``ValueError`` naming the file when it is not UTF-8, and
    ``MalformedRowError`` for a line holding NUL.
    """
    try:
        with Path(path).open(encoding="utf-8-sig") as handle:
            for line_no, raw in enumerate(handle, start=1):
                stripped = raw.strip()
                if stripped and not stripped.startswith("#"):
                    if "\0" in raw:
                        raise MalformedRowError(path, line_no, "line contains NUL")
                    yield line_no, raw.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def table_rows(
    path: str | Path, columns: int, delimiter: str = ","
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, cells) for every data line of a setup table, as
    ``data_lines`` finds them, with its cells unstripped.

    A line is split at ``delimiter`` as it stands, except that a ``","``
    line holding a ``"`` is split by ``csv.reader`` on that line alone: a
    cell may be quoted but cannot span lines. ``str.split`` and that reader
    agree on every other line, since ``data_lines`` never yields a line
    break or an empty line. A line that ``csv`` cannot parse (such as a
    quoted cell over its field-size limit) and a line without exactly
    ``columns`` cells each raise ``MalformedRowError``.
    """
    quoting = delimiter == ","
    for line_no, line in data_lines(path):
        if quoting and '"' in line:
            try:
                cells = next(csv.reader([line]))
            except csv.Error as exc:
                raise MalformedRowError(path, line_no, str(exc)) from None
        else:
            cells = line.split(delimiter)
        if len(cells) != columns:
            raise MalformedRowError(
                path, line_no, f"expected {columns} columns, found {len(cells)}"
            )
        yield line_no, cells


def load_synonyms(path: str | Path) -> dict[str, str]:
    """Load a two-column alias,canonical file into a normalized mapping.

    Later rows for the same alias win. Raises ``ValueError`` naming the
    file when, in that final mapping, an alias points at itself or at
    another alias.
    """
    path = Path(path)
    mapping: dict[str, str] = {}
    for line_no, cells in table_rows(path, 2):
        alias, canonical = (normalize_surface(c) for c in cells)
        if not alias or not canonical:
            raise MalformedRowError(path, line_no, "empty alias or canonical form")
        mapping[alias] = canonical
    for alias, canonical in mapping.items():
        if alias == canonical:
            raise ValueError(f"{path}: synonym {alias!r} points at itself")
    for alias, canonical in mapping.items():
        if canonical in mapping:
            raise ValueError(
                f"{path}: synonym chain {alias!r} -> {canonical!r}: aliases must "
                "point directly at canonical forms"
            )
    return mapping


def load_terminology(
    dictionary_paths: Iterable[str | Path],
    synonym_path: Optional[str | Path] = None,
) -> TerminologyIndex:
    """Build one index from the dictionaries, in order, and the synonyms.

    Any malformed row aborts the load; no partial index is returned. A
    surface keeps the first entry of each (system, code, entity type) in
    file order, so loading a file twice changes nothing, and repeated
    (system, code) pairs simply register more surface forms for a concept.
    """
    staged: dict[str, list[ConceptEntry]] = {}
    for path in map(Path, dictionary_paths):
        for line_no, cells in table_rows(path, 5):
            raw_surface, raw_system, code, display, raw_type = cells
            surface = normalize_surface(raw_surface)
            if not surface:
                raise MalformedRowError(path, line_no, "empty surface form")
            code = code.strip()
            if not code:
                raise MalformedRowError(path, line_no, "empty code")
            raw_system = raw_system.strip()
            system = _SYSTEMS.get(raw_system.upper())
            if system is None:
                raise MalformedRowError(
                    path, line_no, f"unknown code system {raw_system!r}"
                )
            raw_type = raw_type.strip()
            entity_type = _ENTITY_TYPES.get(raw_type.upper())
            if entity_type is None:
                raise MalformedRowError(
                    path, line_no, f"unknown entity type {raw_type!r}"
                )
            if entity_type not in CODEABLE_TYPES:
                raise MalformedRowError(
                    path, line_no, f"entity type {raw_type!r} cannot carry codes"
                )
            entry = ConceptEntry(surface, system, code, display.strip(), entity_type)
            rows = staged.get(surface)
            if rows is None:
                staged[surface] = [entry]
            else:
                rows.append(entry)
    return TerminologyIndex(
        entries={surface: _first_per_identity(rows) for surface, rows in staged.items()},
        synonym_map={} if synonym_path is None else load_synonyms(synonym_path),
    )
