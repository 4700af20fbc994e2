"""Pipeline configuration and the staged note-to-bundle runner.

A PipelineConfig names every input file the stages need, each the bundled
one unless set, plus the ablation flags, which compose independently. The
paper's naive baseline is normalization and relation extraction both
disabled.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from fhirtwin import fhir_assembly, ner, relations, terminology
from fhirtwin.fhir_assembly import (
    DEFAULT_TIMESTAMP,
    FhirResource,
    TwinBundle,
    ValidationIssue,
    is_date_time,
)
from fhirtwin.ner import ClinicalNote, Pattern
from fhirtwin.normalizer import AnnotatedMention, normalize_all
from fhirtwin.relations import Relation
from fhirtwin.terminology import TerminologyIndex, data_lines


def default_data_dir() -> Path:
    return Path(str(importlib.resources.files("fhirtwin").joinpath("data")))


def _bundled(name: str):
    """A path field that defaults to the bundled data file ``name``."""
    return field(default_factory=lambda: default_data_dir() / name)


@dataclass(frozen=True)
class PipelineConfig:
    dictionaries: tuple[Path, ...] = field(
        default_factory=lambda: (default_data_dir() / "terminology.csv",)
    )
    synonyms: Path = _bundled("synonyms.csv")
    patterns: Path = _bundled("patterns.tsv")
    cues: Path = _bundled("cues.txt")
    templates: Path = _bundled("templates.tsv")
    disable_normalization: bool = False
    disable_relations: bool = False
    disable_validation: bool = False
    default_timestamp: str = DEFAULT_TIMESTAMP
    out_dir: Path = Path("out")
    split_ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 13


class BadRatiosError(Exception):
    """Split ratios must be three non-negative numbers summing to 1."""


def check_ratios(ratios: Sequence[float]) -> None:
    """Raise ``BadRatiosError`` unless ``ratios`` are three non-negative
    numbers summing to 1. Stated positively, so that a NaN fails."""
    if not (len(ratios) == 3 and min(ratios) >= 0 and abs(sum(ratios) - 1) <= 1e-9):
        raise BadRatiosError(f"ratios {tuple(ratios)!r} must be non-negative and sum to 1")


_BOOL_KEYS = ("disable_normalization", "disable_relations", "disable_validation")
#: The spellings a boolean config value may take, in any case.
_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_RATIO_KEYS = ("train_ratio", "validation_ratio", "test_ratio")


def load_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file into a raw mapping.

    Values must be non-empty; relative paths are resolved against the
    config file's directory, and the ``*_ratio`` keys come back as one
    checked ``split_ratios`` triple.
    """
    path = Path(path)
    base = path.parent
    raw: dict = {}
    for line_no, line in data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()

    def respath(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base / p

    parsed: dict = {}
    for key, value in raw.items():
        if not value:
            raise ValueError(f"{path}: {key}: empty value")
        if key == "dictionary":
            parsed["dictionaries"] = tuple(
                respath(part.strip()) for part in value.split(",") if part.strip()
            )
            if not parsed["dictionaries"]:
                raise ValueError(f"{path}: {key}: no file named")
        elif key in ("synonyms", "patterns", "cues", "templates"):
            parsed[key] = respath(value)
        elif key == "out":
            parsed["out_dir"] = respath(value)
        elif key in ("seed", *_RATIO_KEYS):
            number = float if key.endswith("_ratio") else int
            try:
                parsed[key] = number(value)
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
        elif key == "default_timestamp":
            if not is_date_time(value):
                raise ValueError(f"{path}: {key}: {value!r} is not an R4 dateTime")
            parsed[key] = value
        elif key in _BOOL_KEYS:
            try:
                parsed[key] = _BOOLS[value.lower()]
            except KeyError:
                raise ValueError(
                    f"{path}: {key}: {value!r} is not 1/0, true/false, yes/no or on/off"
                ) from None
        else:
            raise ValueError(f"{path}: unknown config key {key!r}")
    if any(key in parsed for key in _RATIO_KEYS):
        ratios = tuple(
            parsed.pop(key, default)
            for key, default in zip(_RATIO_KEYS, PipelineConfig.split_ratios)
        )
        try:
            check_ratios(ratios)
        except BadRatiosError as exc:
            raise ValueError(f"{path}: {exc}") from None
        parsed["split_ratios"] = ratios
    return parsed


def build_config(
    config_path: Optional[str | Path] = None, **overrides
) -> PipelineConfig:
    """Layer defaults, config file, and explicit overrides."""
    values: dict = {}
    if config_path is not None:
        values.update(load_config_file(config_path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**values)


@dataclass(frozen=True)
class NoteAnnotation:
    note: ClinicalNote
    annotated: tuple[AnnotatedMention, ...]
    relations: tuple[Relation, ...]


@dataclass
class Pipeline:
    """Loads shared inputs once and runs the stages per note or per patient.

    ``concept_blocks`` keeps every coded block ``twin`` has built, one per
    distinct (concept, surface text) pair (see ``SharedBlocks``).
    """

    config: PipelineConfig
    index: TerminologyIndex = field(init=False)
    patterns: tuple[Pattern, ...] = field(init=False)
    cues: tuple[str, ...] = field(init=False)
    concept_blocks: dict = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        self.index = terminology.load_terminology(cfg.dictionaries, cfg.synonyms)
        self.patterns = ner.load_patterns(cfg.patterns)
        self.cues = relations.load_cues(cfg.cues)
        self.concept_blocks = {}

    def annotate(self, note: ClinicalNote) -> NoteAnnotation:
        cfg = self.config
        mentions = ner.extract_entities(note, self.index, self.patterns)
        if cfg.disable_normalization:
            annotated = [AnnotatedMention(m, None) for m in mentions]
        else:
            annotated = normalize_all(mentions, self.index)
        if not cfg.disable_relations:
            sentences = ner.segment(note.text)
            rels = relations.extract_relations(annotated, sentences, note.text, self.cues)
        else:
            rels = []
        return NoteAnnotation(note, tuple(annotated), tuple(rels))

    def twin(
        self, patient_id: str, notes: Sequence[ClinicalNote]
    ) -> tuple[TwinBundle, list[ValidationIssue], list[NoteAnnotation]]:
        """Build one patient's bundle from all of their notes."""
        cfg = self.config
        patient = fhir_assembly.build_patient(patient_id)
        blocks = fhir_assembly.SharedBlocks(patient, self.concept_blocks)
        annotations = [self.annotate(n) for n in sorted(notes, key=lambda n: n.note_id)]
        resources: list[FhirResource] = []
        for annotation in annotations:
            resources.extend(
                fhir_assembly.assemble(
                    annotation.note,
                    annotation.annotated,
                    annotation.relations,
                    blocks,
                    default_timestamp=cfg.default_timestamp,
                )
            )
        if cfg.disable_validation:
            issues: list[ValidationIssue] = []
        else:
            issues = fhir_assembly.validate(
                resources, patient, default_timestamp=cfg.default_timestamp
            )
        twin = fhir_assembly.bundle(patient, resources, issues)
        return twin, issues, annotations
