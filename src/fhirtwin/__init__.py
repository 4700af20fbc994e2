"""fhirtwin: clinical narratives to FHIR R4 patient digital-twin bundles.

The pipeline extracts typed entity mentions with dictionaries and
patterns, normalizes them to SNOMED CT / ICD-10 / LOINC / RxNorm codes,
links medications to dosages with sentence-scoped rules, and assembles
profile-validated resource bundles. A synthesizer builds aligned test
corpora from structured tables and an evaluation harness scores
extraction F1, relation F1, semantic completeness and interoperability.
"""

from fhirtwin.fhir_assembly import TwinBundle, build_patient
from fhirtwin.ner import ClinicalNote, extract_entities, segment
from fhirtwin.normalizer import normalize, normalize_all
from fhirtwin.pipeline import Pipeline, PipelineConfig, build_config
from fhirtwin.relations import extract_relations
from fhirtwin.terminology import (
    CodeSystem,
    EntityType,
    TerminologyIndex,
    load_terminology,
)

__version__ = "0.1.0"

__all__ = [
    "TwinBundle",
    "build_patient",
    "ClinicalNote",
    "extract_entities",
    "segment",
    "normalize",
    "normalize_all",
    "Pipeline",
    "PipelineConfig",
    "build_config",
    "extract_relations",
    "CodeSystem",
    "EntityType",
    "TerminologyIndex",
    "load_terminology",
    "__version__",
]
