"""Command-line entry points: synthesize, extract, twin, evaluate.

Machine-readable outputs go only to files under the output directory;
progress and per-note counters are logged to standard error. Every
command is idempotent over its output directory: re-running with the
same inputs, config and seed rewrites identical bytes.

Exit codes: 0 ok, 1 bad setup, 2 a bad ``evaluate`` corpus, 3 a partial
``synthesize``/``extract``/``twin`` run. Input JSON is read through
``_read_json`` only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from fhirtwin import fhir_assembly
from fhirtwin.evaluation import (
    CODED_FIELDS,
    CorpusCase,
    EmptyCorpusError,
    evaluate_corpus,
    gold_from_dict,
    gold_to_dict,
)
from fhirtwin.ner import ClinicalNote, check_id
from fhirtwin.pipeline import NoteAnnotation, Pipeline, PipelineConfig, build_config
from fhirtwin.relations import RelationType
from fhirtwin.synthesizer import (
    TemplateSet,
    UnresolvableRecordError,
    load_records,
    load_templates,
    split_corpus,
    synthesize,
)
from fhirtwin.terminology import CodeSystem, EntityType

logger = logging.getLogger("fhirtwin")

#: What every command reads first, in this order; see ``main``.
Setup = tuple[PipelineConfig, Pipeline, TemplateSet]


def _write_json(path: Path, body) -> None:
    path.write_text(fhir_assembly.to_json(body), encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read_note_text(path: Path) -> str:
    """A note file's text; a leading byte-order mark is not part of it."""
    text = path.read_text(encoding="utf-8-sig")
    return text[:-1] if text.endswith("\n") else text


# ---------------------------------------------------------------------------
# Input shapes
# ---------------------------------------------------------------------------
#
# A shape is a type (``str``, or ``int``, which excludes ``bool``), ``None``,
# a tuple of alternatives, ``[shape]`` for a list of that shape, ``[int,
# int]`` for a span, a frozenset of the strings allowed, a function that
# must return true for a string, or a dict of fields. A dict shape
# allows keys it does not name, and a field whose alternatives include
# ``ABSENT`` may be left out.

ABSENT = object()
_TEXT = (str, ABSENT)
_SPAN = [int, int]
_DATE_TIME = fhir_assembly.is_date_time
_ENTRY = {"note_id": str, "patient_id": _TEXT, "timestamp": (_DATE_TIME, None, ABSENT)}
#: A ``manifest.json`` beside or above a notes directory.
MANIFEST = {"notes": ([_ENTRY], ABSENT)}
#: A corpus manifest, which names each note's patient.
_CORPUS_MANIFEST = {"notes": ([{**_ENTRY, "patient_id": str}], ABSENT)}
#: A ``.json`` note; its ids fall back to the file stem.
NOTE_FILE = {**_ENTRY, "note_id": _TEXT, "text": str}
_MENTION = {
    "start": int,
    "end": int,
    "etype": frozenset(t.value for t in EntityType),
    "system": (frozenset(CodeSystem.__members__), None, ABSENT),
    "code": (str, None, ABSENT),
}
_RTYPES = frozenset(t.value for t in RelationType)
_RELATION = {"rtype": _RTYPES, "head": _SPAN, "tail": _SPAN}
#: A corpus gold file, as ``gold_to_dict`` writes it.
GOLD = {
    "note_id": str,
    "mentions": ([_MENTION], ABSENT),
    "relations": ([_RELATION], ABSENT),
}
_CONCEPT = ({"coding": ([{"system": str, "code": str}], ABSENT), "text": _TEXT}, ABSENT)
_RESOURCE = {
    "resourceType": frozenset({*fhir_assembly.PROFILE, "Patient"}),
    "id": _TEXT,
    "identifier": ([{"value": _TEXT}], ABSENT),
    "subject": ({"reference": _TEXT}, ABSENT),
    "dosageInstruction": ([{"text": _TEXT}], ABSENT),
    **dict.fromkeys(("valueString", "effectiveDateTime", "authoredOn"), _TEXT),
    **dict.fromkeys(sorted(CODED_FIELDS), _CONCEPT),
}
#: A corpus reference bundle, down to every field the evaluator reads.
REFERENCE = {
    "resourceType": frozenset({"Bundle"}),
    "entry": ([{"resource": _RESOURCE}], ABSENT),
}
_KINDS = {str: "a string", int: "an integer", None: "null"}
_KINDS[_DATE_TIME] = "a string in R4 dateTime form"


def check(value, shape, where: str = "") -> None:
    """Raise ``ValueError`` naming the first place in ``value``, such as
    ``relations[0].head``, that does not have ``shape``."""
    alternatives = shape if isinstance(shape, tuple) else (shape,)
    for shape in alternatives:
        if isinstance(shape, dict) and isinstance(value, dict):
            for key, field in shape.items():
                check(value.get(key, ABSENT), field, f"{where}.{key}" if where else key)
            return
        is_list = isinstance(shape, list) and isinstance(value, list)
        if is_list and len(shape) in (1, len(value)):
            for index, item in enumerate(value):
                check(item, shape[index % len(shape)], f"{where}[{index}]")
            return
        if isinstance(shape, frozenset) and isinstance(value, str) and value in shape:
            return
        if callable(shape) and not isinstance(shape, type) and isinstance(value, str):
            if shape(value):
                return
        if value is shape or type(value) is shape:
            return
    expected = " or ".join(_describe(s) for s in alternatives if s is not ABSENT)
    reason = "missing" if value is ABSENT else f"not {expected}"
    raise ValueError(f"{where}: {reason}" if where else reason)


def _describe(shape) -> str:
    if isinstance(shape, frozenset):
        return "one of " + ", ".join(sorted(shape))
    if isinstance(shape, list):
        return "a list" if len(shape) == 1 else f"a list of {len(shape)}"
    return "a JSON object" if isinstance(shape, dict) else _KINDS[shape]


def _read_json(path: Path, shape):
    """Parse ``path``, with or without a leading byte-order mark, and
    ``check`` it; raises ``OSError`` or ``ValueError``."""
    body = json.loads(path.read_text(encoding="utf-8-sig"))
    check(body, shape)
    return body


# ---------------------------------------------------------------------------
# Note discovery
# ---------------------------------------------------------------------------


def _load_manifest(path: Path) -> dict[str, dict]:
    """The entries of a notes directory's manifest by note id."""
    entries = _read_json(path, MANIFEST).get("notes", [])
    return {entry["note_id"]: entry for entry in entries}


def _read_note(path: Path, meta: dict[str, dict]) -> ClinicalNote:
    """Read one ``.txt`` note, with its manifest entry, or ``.json`` note.

    Raises ``OSError`` when the file cannot be read, and ``ValueError``
    saying why it holds no usable note.
    """
    if path.suffix == ".txt":
        fields = {**meta.get(path.stem, {}), "text": _read_note_text(path)}
    else:
        fields = _read_json(path, NOTE_FILE)
    return ClinicalNote(
        note_id=fields.get("note_id", path.stem),
        patient_id=fields.get("patient_id", path.stem),
        timestamp=fields.get("timestamp"),
        text=fields["text"],
    )


def load_notes(directory: str | Path) -> tuple[list[ClinicalNote], list[str]]:
    """Read notes from a directory of ``.txt``/``.json`` files.

    Raises ``OSError`` naming ``directory`` when it cannot be listed.
    Returns the notes, sorted by id, and a warning for each input skipped:
    a manifest or note file that cannot be read or is not of its shape, or
    a note whose id an earlier file had (``.txt`` files come first, then
    ``.json``, each by name). A manifest beside or above the directory
    gives the ``.txt`` notes their patient ids and timestamps; otherwise
    both ids are the file stem and there is no timestamp.
    """
    directory = Path(directory)
    os.scandir(directory).close()
    skipped: list[str] = []

    def skip(path: Path, reason) -> None:
        skipped.append(f"skipping {path}: {reason}")
        logger.warning("%s", skipped[-1])

    meta: dict[str, dict] = {}
    notes_dir = directory
    for root in (directory, directory.parent):
        manifest_path = root / "manifest.json"
        if manifest_path.exists():
            if (root / "notes").is_dir():
                notes_dir = root / "notes"
            try:
                meta = _load_manifest(manifest_path)
            except (OSError, ValueError) as exc:
                skip(manifest_path, exc)
            break

    paths = sorted(notes_dir.glob("*.txt")) + sorted(
        path for path in notes_dir.glob("*.json") if path.name != "manifest.json"
    )
    loaded: dict[str, tuple[ClinicalNote, Path]] = {}
    for path in paths:
        try:
            note = _read_note(path, meta)
        except (OSError, ValueError) as exc:
            skip(path, exc)
            continue
        first = loaded.setdefault(note.note_id, (note, path))[1]
        if first != path:
            skip(path, f"note id {note.note_id} already read from {first}")
    return [loaded[note_id][0] for note_id in sorted(loaded)], skipped


# ---------------------------------------------------------------------------
# Annotation serialization
# ---------------------------------------------------------------------------


def annotation_to_dict(annotation: NoteAnnotation) -> dict:
    """The annotation file's body: the one place mention ids are made."""
    note_id = annotation.note.note_id

    def mention_id(span: tuple[int, int]) -> str:
        return f"{note_id}:{span[0]}-{span[1]}"

    return {
        "note_id": note_id,
        "patient_id": annotation.note.patient_id,
        "mentions": [
            {
                "mention_id": mention_id(a.mention.span),
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
                "head": mention_id(r.head_span),
                "tail": mention_id(r.tail_span),
                "head_span": list(r.head_span),
                "tail_span": list(r.tail_span),
            }
            for r in annotation.relations
        ],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synthesize(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, templates = setup
    try:
        records = load_records(args.tables)
    except (OSError, ValueError) as exc:
        return _setup_error(exc)

    cases = []
    skipped = 0
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
            skipped += 1
    train, val, test = split_corpus(cases, config.split_ratios, config.seed)

    split_of = {}
    for name, bucket in (("train", train), ("validation", val), ("test", test)):
        for case in bucket:
            split_of[case.note.note_id] = name

    out = config.out_dir
    for name in ("notes", "gold", "references"):
        (out / name).mkdir(parents=True, exist_ok=True)
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
    return 3 if skipped else 0


def cmd_extract(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, _ = setup
    try:
        notes, skipped = load_notes(args.notes)
    except OSError as exc:
        return _setup_error(exc)
    out = config.out_dir
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    failed = 0
    for note in notes:
        try:
            annotation = pipeline.annotate(note)
            _write_json(
                out / "annotations" / f"{note.note_id}.json",
                annotation_to_dict(annotation),
            )
        except Exception as exc:  # per-note failures never abort the run
            logger.error("note=%s stage=extract failed: %s", note.note_id, exc)
            failed += 1
            continue
        logger.info(
            "note=%s stage=extract mentions=%d relations=%d",
            note.note_id,
            len(annotation.annotated),
            len(annotation.relations),
        )
    return 3 if skipped or failed else 0


def cmd_twin(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, _ = setup
    try:
        notes, skipped = load_notes(args.notes)
    except OSError as exc:
        return _setup_error(exc)
    out = config.out_dir
    (out / "bundles").mkdir(parents=True, exist_ok=True)
    by_patient: dict[str, list[ClinicalNote]] = {}
    for note in notes:
        by_patient.setdefault(note.patient_id, []).append(note)
    failed = 0
    for patient_id in sorted(by_patient):
        try:
            twin, issues, _ = pipeline.twin(patient_id, by_patient[patient_id])
            _write_text(
                out / "bundles" / f"twin_{patient_id}.json",
                fhir_assembly.bundle_to_json(twin),
            )
            _write_text(
                out / "bundles" / f"twin_{patient_id}.issues.json",
                fhir_assembly.issues_to_json(issues),
            )
        except Exception as exc:  # per-patient failures never abort the run
            logger.error("patient=%s stage=twin failed: %s", patient_id, exc)
            failed += 1
            continue
        errors = sum(1 for i in issues if i.severity.value == "ERROR")
        logger.info(
            "patient=%s stage=twin resources=%d errors=%d warnings=%d",
            patient_id,
            len(twin.entries),
            errors,
            len(issues) - errors,
        )
    return 3 if skipped or failed else 0


class CorpusFileError(Exception):
    """A file of a synthesized corpus is missing or malformed."""


@contextmanager
def _corpus_file(path: Path) -> Iterator[None]:
    """Turn a failure to read or check ``path`` into a CorpusFileError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CorpusFileError(
            f"bad corpus file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _same(name: str, found: str, expected: str) -> None:
    if found != expected:
        raise ValueError(f"{name} {found!r} is not the manifest's {expected!r}")


def load_corpus(corpus_dir: str | Path) -> list[CorpusCase]:
    """Load a synthesized corpus (manifest, notes, gold, references).

    Raises EmptyCorpusError when there is no manifest or it lists no notes,
    and CorpusFileError naming the first file that is missing, is not of
    its shape, or whose gold ``note_id`` or reference Patient identifier is
    not the manifest's, and naming the manifest when it lists a note twice
    or an id that ``ner.check_id`` rejects.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / "manifest.json"
    if not manifest_path.exists():
        raise EmptyCorpusError(f"no manifest.json under {corpus_dir}")
    with _corpus_file(manifest_path):
        entries = _read_json(manifest_path, _CORPUS_MANIFEST).get("notes", [])
        listed: set[str] = set()
        for entry in entries:
            check_id("note_id", entry["note_id"])
            check_id("patient_id", entry["patient_id"])
            if entry["note_id"] in listed:
                raise ValueError(f"note {entry['note_id']!r} is listed twice")
            listed.add(entry["note_id"])
    cases: list[CorpusCase] = []
    for entry in entries:
        note_id, patient_id = entry["note_id"], entry["patient_id"]
        note_path = corpus_dir / "notes" / f"{note_id}.txt"
        with _corpus_file(note_path):
            note = ClinicalNote(
                note_id, patient_id, entry.get("timestamp"), _read_note_text(note_path)
            )
        gold_path = corpus_dir / "gold" / f"{note_id}.json"
        with _corpus_file(gold_path):
            gold = gold_from_dict(_read_json(gold_path, GOLD))
            _same("note_id", gold.note_id, note_id)
        ref_path = corpus_dir / "references" / f"twin_{patient_id}.json"
        with _corpus_file(ref_path):
            reference = fhir_assembly.bundle_from_dict(_read_json(ref_path, REFERENCE))
            _same("Patient", reference.patient_identifier(), patient_id)
        cases.append(CorpusCase(note=note, gold=gold, reference=reference))
    if not cases:
        raise EmptyCorpusError(f"manifest under {corpus_dir} lists no notes")
    return cases


def cmd_evaluate(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, _ = setup
    try:
        cases = load_corpus(args.corpus)
        report = evaluate_corpus(cases, pipeline)
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
        disable_normalization=True if args.no_normalize or args.naive else None,
        disable_relations=True if args.no_relations or args.naive else None,
        disable_validation=True if args.no_validate else None,
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
        help="the naive baseline: --no-normalize --no-relations",
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


def _setup_error(exc: Exception) -> int:
    """Print ``exc`` as one ``error: <file>: <reason>`` line; exit code 1."""
    reason = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) else exc
    print(f"error: {reason}", file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    args = build_parser().parse_args(argv)
    # The setup every command shares; each of its loaders names the file
    # in the errors it raises.
    try:
        config = _config_from_args(args)
        setup = (config, Pipeline(config), load_templates(config.templates))
    except (OSError, ValueError) as exc:
        return _setup_error(exc)
    return args.func(args, setup)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
