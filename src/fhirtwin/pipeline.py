"""Pipeline configuration and the staged note-to-bundle runner.

A PipelineConfig names every input file the stages need plus the ablation
flags. Flags compose independently; naive mapping additionally implies
that normalization and relation extraction are skipped and that uncoded
display-text resources are emitted.
"""

from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

from fhirtwin import fhir_assembly, ner, relations, terminology
from fhirtwin.fhir_assembly import (
    DEFAULT_TIMESTAMP,
    PLACEHOLDER_DOSAGE,
    FhirResource,
    TwinBundle,
    ValidationIssue,
)
from fhirtwin.ner import ClinicalNote, PatternSet
from fhirtwin.normalizer import AnnotatedMention, normalize_all
from fhirtwin.relations import Relation
from fhirtwin.terminology import TerminologyIndex, data_lines

TIMESTAMP_ENV_VAR = "FHIRTWIN_DEFAULT_TIMESTAMP"


def default_data_dir() -> Path:
    return Path(str(importlib.resources.files("fhirtwin").joinpath("data")))


@dataclass(frozen=True)
class PipelineConfig:
    dictionaries: tuple[Path, ...] = ()
    synonyms: Optional[Path] = None
    patterns: Optional[Path] = None
    cues: Optional[Path] = None
    templates: Optional[Path] = None
    disable_normalization: bool = False
    disable_relations: bool = False
    disable_validation: bool = False
    naive_mapping: bool = False
    default_timestamp: str = DEFAULT_TIMESTAMP
    placeholder_dosage: str = PLACEHOLDER_DOSAGE
    out_dir: Path = Path("out")
    split_ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 13
    max_ngram: int = ner.DEFAULT_MAX_NGRAM

    @property
    def normalizes(self) -> bool:
        """Whether mentions are normalized; naive mapping implies not."""
        return not (self.disable_normalization or self.naive_mapping)

    @property
    def extracts_relations(self) -> bool:
        """Whether relations are extracted; naive mapping implies not."""
        return not (self.disable_relations or self.naive_mapping)

    def resolved(self) -> "PipelineConfig":
        """Fill unset file paths from the bundled data directory."""
        data = default_data_dir()
        return replace(
            self,
            dictionaries=self.dictionaries or (data / "terminology.csv",),
            synonyms=self.synonyms if self.synonyms is not None else data / "synonyms.csv",
            patterns=self.patterns or data / "patterns.tsv",
            cues=self.cues or data / "cues.txt",
            templates=self.templates or data / "templates.tsv",
        )


_BOOL_KEYS = (
    "disable_normalization",
    "disable_relations",
    "disable_validation",
    "naive_mapping",
)


def load_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file into a raw mapping.

    Relative paths are resolved against the config file's directory.
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
        if key == "dictionary":
            parsed["dictionaries"] = tuple(
                respath(part.strip()) for part in value.split(",") if part.strip()
            )
        elif key in ("synonyms", "patterns", "cues", "templates"):
            parsed[key] = respath(value)
        elif key == "out":
            parsed["out_dir"] = respath(value)
        elif key in ("seed", "max_ngram", "train_ratio", "validation_ratio", "test_ratio"):
            number = float if key.endswith("_ratio") else int
            try:
                parsed[key] = number(value)
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
            # Below 1 the matcher would silently find no dictionary mention.
            if key == "max_ngram" and parsed[key] < 1:
                raise ValueError(f"{path}: max_ngram: {value} is below 1")
        elif key in ("default_timestamp", "placeholder_dosage"):
            parsed[key] = value
        elif key in _BOOL_KEYS:
            parsed[key] = value.lower() in ("1", "true", "yes", "on")
        else:
            raise ValueError(f"{path}: unknown config key {key!r}")
    return parsed


def build_config(
    config_path: Optional[str | Path] = None, **overrides
) -> PipelineConfig:
    """Layer defaults, config file, environment, and explicit overrides."""
    values: dict = {}
    if config_path is not None:
        values.update(load_config_file(config_path))
    ratios = list(PipelineConfig.split_ratios)
    for i, key in enumerate(("train_ratio", "validation_ratio", "test_ratio")):
        if key in values:
            ratios[i] = values.pop(key)
    values["split_ratios"] = tuple(ratios)
    env_timestamp = os.environ.get(TIMESTAMP_ENV_VAR)
    if env_timestamp:
        values["default_timestamp"] = env_timestamp
    values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**values).resolved()


@dataclass(frozen=True)
class NoteAnnotation:
    note: ClinicalNote
    annotated: tuple[AnnotatedMention, ...]
    relations: tuple[Relation, ...]


@dataclass
class Pipeline:
    """Loads shared inputs once and runs the stages per note or per patient."""

    config: PipelineConfig
    index: TerminologyIndex = field(init=False)
    patterns: PatternSet = field(init=False)
    cues: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        cfg = self.config
        self.index = terminology.load_terminology(cfg.dictionaries, cfg.synonyms)
        self.patterns = ner.load_patterns(cfg.patterns)
        self.cues = relations.load_cues(cfg.cues)

    def annotate(self, note: ClinicalNote) -> NoteAnnotation:
        cfg = self.config
        mentions = ner.extract_entities(note, self.index, self.patterns, cfg.max_ngram)
        if cfg.normalizes:
            annotated = normalize_all(mentions, self.index)
        else:
            annotated = [AnnotatedMention(m, None) for m in mentions]
        if cfg.extracts_relations:
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
        annotations = [self.annotate(n) for n in sorted(notes, key=lambda n: n.note_id)]
        resources: list[FhirResource] = []
        for annotation in annotations:
            resources.extend(
                fhir_assembly.assemble(
                    annotation.note,
                    annotation.annotated,
                    annotation.relations,
                    patient,
                    default_timestamp=cfg.default_timestamp,
                    placeholder_dosage=cfg.placeholder_dosage,
                    naive_mapping=cfg.naive_mapping,
                )
            )
        if cfg.disable_validation:
            issues: list[ValidationIssue] = []
        else:
            issues = fhir_assembly.validate(
                resources,
                patient,
                default_timestamp=cfg.default_timestamp,
                placeholder_dosage=cfg.placeholder_dosage,
            )
        twin = fhir_assembly.bundle(patient, resources, issues)
        return twin, issues, annotations
