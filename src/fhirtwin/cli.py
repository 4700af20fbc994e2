"""Command-line entry points: synthesize, extract, twin, evaluate.

Machine-readable outputs go only to files under the output directory;
progress and per-note counters are logged to standard error. Every
command is idempotent over its output directory: re-running with the
same inputs, config and seed rewrites identical bytes.

Exit codes: 0 ok; 1 bad setup, an output directory under ``--out``
included; 2 a bad ``evaluate`` corpus; 3 a partial run of any command,
which skipped an input or failed on an item. Every output file is written
through ``_write_items`` and input JSON is read through ``_read_json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

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

#: The names of ``split_corpus``'s buckets, in its order.
_SPLITS = ("train", "validation", "test")
#: What every command reads first, in this order; see ``main``.
Setup = tuple[PipelineConfig, Pipeline, TemplateSet]
#: What an item of a command's outputs builds: its files' texts by path
#: under the output directory, and the counters its log line gives.
Built = tuple[dict[str, str], dict[str, object]]
#: One item of a command's outputs: its log label and how to build it.
Item = tuple[str, Callable[[], Built]]


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


def _write_items(
    out: Path, stage: str, dirs: Iterable[str], items: Iterable[Item], skipped: int = 0
) -> int:
    """Write a command's outputs and return its exit code.

    Makes ``out`` and its ``dirs`` first; failing that, nothing is written
    and the run is a setup error. Then, for each ``(label, build)`` item in
    order, writes the files ``build`` returns, by path under ``out``, and
    logs ``<label> stage=<stage>`` with the counters it returns. An item
    that raises is logged as failed, keeps the files it wrote, and the run
    goes on; the exit code is 3 when an item failed or an input was
    ``skipped``.
    """
    try:
        for name in ("", *dirs):
            (out / name).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        return _setup_error(exc)
    failed = 0
    for label, build in items:
        try:
            files, counters = build()
            for path, text in files.items():
                (out / path).write_text(text, encoding="utf-8")
        except Exception as exc:  # one item's failure never aborts the run
            logger.error("%s stage=%s failed: %s", label, stage, exc)
            failed += 1
            continue
        counts = " ".join(f"{name}={value}" for name, value in counters.items())
        logger.info("%s stage=%s %s", label, stage, counts)
    return 3 if skipped or failed else 0


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
    cases.sort(key=lambda c: c.note.note_id)
    splits = split_corpus(cases, config.split_ratios, config.seed)
    split_of = {c.note.note_id: name for name, cs in zip(_SPLITS, splits) for c in cs}

    def written(case: CorpusCase) -> Built:
        note_id, patient_id = case.note.note_id, case.note.patient_id
        return {
            f"notes/{note_id}.txt": case.note.text + "\n",
            f"gold/{note_id}.json": fhir_assembly.to_json(gold_to_dict(case.gold)),
            f"references/twin_{patient_id}.json": fhir_assembly.bundle_to_json(case.reference),
        }, {
            "mentions": len(case.gold.mentions),
            "relations": len(case.gold.relations),
            "split": split_of[note_id],
        }

    def manifest() -> Built:
        notes = [
            {
                "note_id": c.note.note_id,
                "patient_id": c.note.patient_id,
                "timestamp": c.note.timestamp,
                "split": split_of[c.note.note_id],
            }
            for c in cases
        ]
        body = {"seed": config.seed, "ratios": list(config.split_ratios), "notes": notes}
        counts = {"notes": len(cases), **dict(zip(_SPLITS, map(len, splits)))}
        return {"manifest.json": fhir_assembly.to_json(body)}, counts

    # The manifest comes last and lists every note, written or not.
    items = [(f"note={c.note.note_id}", partial(written, c)) for c in cases]
    items.append((f"corpus={config.out_dir}", manifest))
    dirs = ("notes", "gold", "references")
    return _write_items(config.out_dir, "synthesize", dirs, items, skipped)


def cmd_extract(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, _ = setup
    try:
        notes, skipped = load_notes(args.notes)
    except OSError as exc:
        return _setup_error(exc)

    def extracted(note: ClinicalNote) -> Built:
        annotation = pipeline.annotate(note)
        body = fhir_assembly.to_json(annotation_to_dict(annotation))
        return {f"annotations/{note.note_id}.json": body}, {
            "mentions": len(annotation.annotated),
            "relations": len(annotation.relations),
        }

    items = [(f"note={note.note_id}", partial(extracted, note)) for note in notes]
    return _write_items(config.out_dir, "extract", ("annotations",), items, len(skipped))


def cmd_twin(args: argparse.Namespace, setup: Setup) -> int:
    config, pipeline, _ = setup
    try:
        notes, skipped = load_notes(args.notes)
    except OSError as exc:
        return _setup_error(exc)
    by_patient: dict[str, list[ClinicalNote]] = {}
    for note in notes:
        by_patient.setdefault(note.patient_id, []).append(note)

    def twinned(patient_id: str) -> Built:
        twin, issues, _ = pipeline.twin(patient_id, by_patient[patient_id])
        errors = sum(1 for i in issues if i.severity.value == "ERROR")
        return {
            f"bundles/twin_{patient_id}.json": fhir_assembly.bundle_to_json(twin),
            f"bundles/twin_{patient_id}.issues.json": fhir_assembly.issues_to_json(issues),
        }, {"resources": len(twin.entries), "errors": errors, "warnings": len(issues) - errors}

    items = [(f"patient={p}", partial(twinned, p)) for p in sorted(by_patient)]
    return _write_items(config.out_dir, "twin", ("bundles",), items, len(skipped))


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

    def reported() -> Built:
        files = {
            "report.json": fhir_assembly.to_json(report.to_dict()),
            "summary.tsv": report.summary_row(),
        }
        return files, {
            "notes": len(cases),
            "ner_f1": f"{report.ner_f1:.3f}",
            "re_f1": "--" if report.re_f1 is None else f"{report.re_f1:.3f}",
            "completeness": f"{report.semantic_completeness:.3f}",
            "interop": f"{report.interoperability:.3f}",
        }

    return _write_items(config.out_dir, "evaluate", (), [(f"corpus={args.corpus}", reported)])


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
