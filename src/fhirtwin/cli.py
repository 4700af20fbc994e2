"""Command-line entry points: synthesize, extract, twin, evaluate.

Machine-readable outputs go only to files under the output directory;
progress and per-note counters are logged to standard error. Every
command is idempotent over its output directory: re-running with the
same inputs, config and seed rewrites identical bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from fhirtwin import fhir_assembly
from fhirtwin.evaluation import (
    CorpusCase,
    EmptyCorpusError,
    check_reference,
    evaluate_corpus,
    gold_from_dict,
    gold_to_dict,
)
from fhirtwin.ner import ClinicalNote
from fhirtwin.pipeline import NoteAnnotation, Pipeline, PipelineConfig, build_config
from fhirtwin.synthesizer import (
    BadRatiosError,
    UnresolvableRecordError,
    load_records,
    load_templates,
    split_corpus,
    synthesize,
)

logger = logging.getLogger("fhirtwin")


def _write_json(path: Path, body) -> None:
    path.write_text(fhir_assembly.to_json(body), encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read_note_text(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    return text[:-1] if text.endswith("\n") else text


# ---------------------------------------------------------------------------
# Note discovery
# ---------------------------------------------------------------------------


def _check_strings(fields: dict) -> None:
    """Raise ``ValueError`` naming each field whose value is not a string;
    a ``timestamp`` may also be ``None``."""
    not_strings = [
        key
        for key, value in fields.items()
        if not isinstance(value, str) and not (key == "timestamp" and value is None)
    ]
    if not_strings:
        raise ValueError(f"{', '.join(not_strings)} not a string")


def _manifest_entries(manifest) -> list[dict]:
    """The note entries of a parsed corpus manifest.

    Raises ``ValueError`` unless they are objects with a string ``note_id``
    and, where present, a string ``patient_id`` and ``timestamp``.
    """
    entries = manifest.get("notes", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("not a JSON object with a list of objects as notes")
    for entry in entries:
        optional = {k: entry[k] for k in ("patient_id", "timestamp") if k in entry}
        _check_strings({"note_id": entry.get("note_id"), **optional})
    return entries


def _load_manifest(directory: Path) -> tuple[dict[str, dict], Path]:
    """Find a corpus manifest beside or above a notes directory.

    Returns its entries by note id and the directory that holds the notes.
    A manifest that cannot be read or that ``_manifest_entries`` rejects is
    skipped with a warning, and the notes are read without its metadata.
    """
    for root in (directory, directory.parent):
        manifest_path = root / "manifest.json"
        if manifest_path.exists():
            notes_dir = root / "notes"
            try:
                text = manifest_path.read_text(encoding="utf-8")
                entries = _manifest_entries(json.loads(text))
            except (OSError, ValueError) as exc:
                logger.warning("skipping %s: %s", manifest_path, exc)
                entries = []
            meta = {entry["note_id"]: entry for entry in entries}
            return meta, notes_dir if notes_dir.is_dir() else directory
    return {}, directory


def _read_note(path: Path, meta: dict[str, dict]) -> ClinicalNote:
    """Read one ``.txt`` or ``.json`` note file.

    Raises ``OSError`` when the file cannot be read, and ``ValueError``
    saying why it holds no usable note; a file that is not UTF-8 or not
    valid JSON raises a subclass of it.
    """
    if path.suffix == ".txt":
        entry = meta.get(path.stem, {})
        return ClinicalNote(
            note_id=path.stem,
            patient_id=entry.get("patient_id", path.stem),
            timestamp=entry.get("timestamp"),
            text=_read_note_text(path),
        )
    body = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(body, dict):
        raise ValueError("not a JSON object")
    if "text" not in body:
        raise ValueError("no text field")
    fields = {
        "note_id": body.get("note_id", path.stem),
        "patient_id": body.get("patient_id", path.stem),
        "timestamp": body.get("timestamp"),
        "text": body["text"],
    }
    _check_strings(fields)
    return ClinicalNote(**fields)


def load_notes(directory: str | Path) -> list[ClinicalNote]:
    """Read notes from a directory of ``.txt``/``.json`` files.

    When a corpus manifest is present its per-note patient ids and
    timestamps are used; bare text files fall back to the file stem for
    both ids and carry no timestamp. A malformed manifest is skipped with a
    warning. A file that cannot be read, is not UTF-8, or is a ``.json``
    note that is not a JSON object with a string ``text`` field, string,
    non-empty ``note_id`` and ``patient_id`` and a string or null
    ``timestamp``, is skipped with a warning, and so is every note after
    the first with the same note id.
    """
    directory = Path(directory)
    meta, notes_dir = _load_manifest(directory)

    paths = sorted(notes_dir.glob("*.txt")) + sorted(
        path for path in notes_dir.glob("*.json") if path.name != "manifest.json"
    )
    loaded: list[tuple[ClinicalNote, Path]] = []
    for path in paths:
        try:
            loaded.append((_read_note(path, meta), path))
        except (OSError, ValueError) as exc:
            logger.warning("skipping %s: %s", path, exc)
    # The sort is stable, so of notes sharing an id the ``.txt`` file wins,
    # then the first ``.json`` file by name.
    loaded.sort(key=lambda pair: pair[0].note_id)
    first_path: dict[str, Path] = {}
    notes: list[ClinicalNote] = []
    for note, path in loaded:
        if note.note_id in first_path:
            logger.warning(
                "skipping %s: note id %s already read from %s",
                path,
                note.note_id,
                first_path[note.note_id],
            )
            continue
        first_path[note.note_id] = path
        notes.append(note)
    return notes


# ---------------------------------------------------------------------------
# Annotation serialization
# ---------------------------------------------------------------------------


def annotation_to_dict(annotation: NoteAnnotation) -> dict:
    spans = {a.mention.mention_id: a.mention.span for a in annotation.annotated}
    return {
        "note_id": annotation.note.note_id,
        "patient_id": annotation.note.patient_id,
        "mentions": [
            {
                "mention_id": a.mention.mention_id,
                "start": a.mention.start,
                "end": a.mention.end,
                "text": a.mention.text,
                "etype": a.mention.etype.value,
                "sentence_index": a.mention.sentence_index,
                "concept": (
                    None
                    if a.concept is None
                    else {
                        "system": a.concept.system.name,
                        "code": a.concept.code,
                        "display": a.concept.display,
                        "score": a.concept.score,
                    }
                ),
            }
            for a in annotation.annotated
        ],
        "relations": [
            {
                "rtype": r.rtype.value,
                "head": r.head,
                "tail": r.tail,
                "head_span": list(spans[r.head]),
                "tail_span": list(spans[r.tail]),
            }
            for r in annotation.relations
        ],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synthesize(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        records = load_records(args.tables)
    except (FileNotFoundError, ValueError) as exc:
        logger.error("cannot load tables: %s", exc)
        return 1

    pipeline = Pipeline(config)
    templates = load_templates(config.templates)
    cases = []
    for record in records:
        try:
            cases.append(
                synthesize(
                    record,
                    templates,
                    pipeline.index,
                    default_timestamp=config.default_timestamp,
                )
            )
        except UnresolvableRecordError as exc:
            logger.warning("skipping patient %s: %s", record.patient_id, exc)
    try:
        train, val, test = split_corpus(cases, config.split_ratios, config.seed)
    except BadRatiosError as exc:
        logger.error("%s", exc)
        return 2

    split_of = {}
    for name, bucket in (("train", train), ("validation", val), ("test", test)):
        for case in bucket:
            split_of[case.note.note_id] = name

    out = config.out_dir
    (out / "notes").mkdir(parents=True, exist_ok=True)
    (out / "gold").mkdir(parents=True, exist_ok=True)
    (out / "references").mkdir(parents=True, exist_ok=True)
    manifest_notes = []
    for case in sorted(cases, key=lambda c: c.note.note_id):
        note = case.note
        _write_text(out / "notes" / f"{note.note_id}.txt", note.text + "\n")
        _write_json(out / "gold" / f"{note.note_id}.json", gold_to_dict(case.gold))
        _write_text(
            out / "references" / f"twin_{note.patient_id}.json",
            fhir_assembly.bundle_to_json(case.reference),
        )
        manifest_notes.append(
            {
                "note_id": note.note_id,
                "patient_id": note.patient_id,
                "timestamp": note.timestamp,
                "split": split_of[note.note_id],
            }
        )
        logger.info(
            "note=%s stage=synthesize mentions=%d relations=%d split=%s",
            note.note_id,
            len(case.gold.mentions),
            len(case.gold.relations),
            split_of[note.note_id],
        )
    _write_json(
        out / "manifest.json",
        {
            "seed": config.seed,
            "ratios": list(config.split_ratios),
            "notes": manifest_notes,
        },
    )
    logger.info(
        "corpus written: %d notes (%d train / %d validation / %d test)",
        len(cases),
        len(train),
        len(val),
        len(test),
    )
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pipeline = Pipeline(config)
    notes = load_notes(args.notes)
    out = config.out_dir
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    for note in notes:
        try:
            annotation = pipeline.annotate(note)
        except Exception as exc:  # per-note failures never abort the run
            logger.error("note=%s stage=extract failed: %s", note.note_id, exc)
            continue
        _write_json(
            out / "annotations" / f"{note.note_id}.json",
            annotation_to_dict(annotation),
        )
        logger.info(
            "note=%s stage=extract mentions=%d relations=%d",
            note.note_id,
            len(annotation.annotated),
            len(annotation.relations),
        )
    return 0


def cmd_twin(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pipeline = Pipeline(config)
    notes = load_notes(args.notes)
    out = config.out_dir
    (out / "bundles").mkdir(parents=True, exist_ok=True)
    by_patient: dict[str, list[ClinicalNote]] = {}
    for note in notes:
        by_patient.setdefault(note.patient_id, []).append(note)
    for patient_id in sorted(by_patient):
        try:
            twin, issues, _ = pipeline.twin(patient_id, by_patient[patient_id])
        except Exception as exc:
            logger.error("patient=%s stage=twin failed: %s", patient_id, exc)
            continue
        _write_text(
            out / "bundles" / f"twin_{patient_id}.json",
            fhir_assembly.bundle_to_json(twin),
        )
        _write_text(
            out / "bundles" / f"twin_{patient_id}.issues.json",
            fhir_assembly.issues_to_json(issues),
        )
        errors = sum(1 for i in issues if i.severity.value == "ERROR")
        logger.info(
            "patient=%s stage=twin resources=%d errors=%d warnings=%d",
            patient_id,
            len(twin.entries),
            errors,
            len(issues) - errors,
        )
    return 0


class CorpusFileError(Exception):
    """A file of a synthesized corpus is missing or malformed."""


@contextmanager
def _corpus_file(path: Path) -> Iterator[None]:
    """Turn a failure to read or parse ``path`` into a CorpusFileError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorpusFileError(
            f"bad corpus file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def load_corpus(corpus_dir: str | Path) -> list[CorpusCase]:
    """Load a synthesized corpus (manifest, notes, gold, references).

    Raises EmptyCorpusError when there is no manifest or it lists no notes,
    and CorpusFileError naming the first file that is missing or malformed,
    including a reference whose fields ``check_reference`` rejects.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.json"
    if not manifest_path.exists():
        raise EmptyCorpusError(f"no manifest.json under {corpus_dir}")
    with _corpus_file(manifest_path):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entries = [
            (entry["note_id"], entry["patient_id"], entry.get("timestamp"))
            for entry in _manifest_entries(manifest)
        ]
    cases: list[CorpusCase] = []
    for note_id, patient_id, timestamp in entries:
        note_path = corpus_dir / "notes" / f"{note_id}.txt"
        with _corpus_file(note_path):
            note = ClinicalNote(note_id, patient_id, timestamp, _read_note_text(note_path))
        gold_path = corpus_dir / "gold" / f"{note_id}.json"
        with _corpus_file(gold_path):
            gold = gold_from_dict(json.loads(gold_path.read_text(encoding="utf-8")))
        reference_path = corpus_dir / "references" / f"twin_{patient_id}.json"
        with _corpus_file(reference_path):
            reference = fhir_assembly.bundle_from_json(
                reference_path.read_text(encoding="utf-8")
            )
            check_reference(reference, patient_id)
        cases.append(CorpusCase(note=note, gold=gold, reference=reference))
    if not cases:
        raise EmptyCorpusError(f"manifest under {corpus_dir} lists no notes")
    return cases


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    try:
        cases = load_corpus(args.corpus)
        report = evaluate_corpus(cases, config)
    except (EmptyCorpusError, CorpusFileError) as exc:
        logger.error("%s", exc)
        return 2
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report.to_dict())
    _write_text(out / "summary.tsv", report.summary_row())
    logger.info(
        "evaluated %d notes: ner_f1=%.3f re_f1=%s completeness=%.3f interop=%.3f",
        len(cases),
        report.ner_f1,
        "--" if report.re_f1 is None else f"{report.re_f1:.3f}",
        report.semantic_completeness,
        report.interoperability,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return build_config(
        args.config,
        disable_normalization=True if args.no_normalize else None,
        disable_relations=True if args.no_relations else None,
        disable_validation=True if args.no_validate else None,
        naive_mapping=True if args.naive else None,
        seed=args.seed,
        out_dir=Path(args.out) if args.out else None,
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="split seed")
    parser.add_argument(
        "--no-normalize", action="store_true", help="skip concept normalization"
    )
    parser.add_argument(
        "--no-relations", action="store_true", help="skip relation extraction"
    )
    parser.add_argument(
        "--no-validate", action="store_true", help="skip profile validation"
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="naive mapping: uncoded resources, no normalization or relations",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhirtwin",
        description="Clinical narratives to FHIR R4 patient digital-twin bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build a synthetic corpus from tables")
    p.add_argument("tables", help="directory with diagnoses/prescriptions/labevents CSVs")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("extract", help="extract annotated mentions and relations")
    p.add_argument("notes", help="directory of note files (or a corpus directory)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("twin", help="assemble validated digital-twin bundles")
    p.add_argument("notes", help="directory of note files (or a corpus directory)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("evaluate", help="score the pipeline against a corpus")
    p.add_argument("corpus", help="corpus directory produced by synthesize")
    _add_common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
