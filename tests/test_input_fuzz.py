"""Property tests: one broken input file never ends a run in a traceback.

Each example breaks one JSON file in one of three ways: it gives one value
a JSON type it never has, drops a key the readers require, or truncates
the file. ``evaluate`` must then stop with exit code 2. ``extract`` and
``twin`` must skip the file, exit 3 and write exactly what a run without
that file writes.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin.cli import main

from conftest import FIG1_TEXT, TABLE3_TEXT, tree

#: Values of every JSON type but null, which some fields accept.
WRONG_VALUES = (5, True, 1.5, "x", [], {})
#: Keys no reader looks at, so any value of theirs is fine.
UNREAD_KEYS = frozenset({"seed", "ratios", "split", "type", "display"})
#: The keys a corpus file must have, with ``*`` for any list index.
CORPUS_KEYS = frozenset(
    {
        ("notes",),
        ("notes", "*", "note_id"),
        ("notes", "*", "patient_id"),
        ("note_id",),
        ("mentions", "*", "start"),
        ("mentions", "*", "end"),
        ("mentions", "*", "etype"),
        ("relations", "*", "rtype"),
        ("relations", "*", "head"),
        ("relations", "*", "tail"),
        ("resourceType",),
        ("entry",),
        ("entry", "*", "resource"),
        ("entry", "*", "resource", "resourceType"),
        ("entry", "*", "resource", "identifier"),
    }
)
#: The keys of a notes directory's manifest and ``.json`` notes.
NOTES_KEYS = frozenset({("notes", "*", "note_id"), ("text",)})
DROP = object()


def json_kind(value) -> str:
    return type(value).__name__


def positions(value, path=()):
    """Every (path, value) in a parsed JSON document, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from positions(item, path + (key,))


def pattern(path) -> tuple:
    return tuple("*" if isinstance(key, int) else key for key in path)


def retype_targets(body):
    return [
        (path, value)
        for path, value in positions(body)
        if value is not None and not UNREAD_KEYS & set(pattern(path))
    ]


def required_keys(body, required):
    """Paths of the keys in ``body`` that ``required`` names, and of the
    ``system`` and ``code`` of each coding."""
    return [
        path
        for path, _ in positions(body)
        if pattern(path) in required
        or pattern(path)[-3:] in {("coding", "*", "system"), ("coding", "*", "code")}
    ]


def set_at(body, path, value):
    if not path:
        return value
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return body


def break_file(path: Path, data, required) -> None:
    """Break the JSON file at ``path`` in one of the three ways."""
    text = path.read_text(encoding="utf-8")
    body = json.loads(text)
    how = data.draw(st.sampled_from(["retype", "drop", "truncate"]))
    keys = required_keys(body, required)
    if how == "drop" and keys:
        body = set_at(body, data.draw(st.sampled_from(keys)), DROP)
    elif how == "retype":
        where, old = data.draw(st.sampled_from(retype_targets(body)))
        new = data.draw(
            st.sampled_from([v for v in WRONG_VALUES if json_kind(v) != json_kind(old)])
        )
        body = set_at(body, where, new)
    else:
        cut = data.draw(st.integers(0, len(text.rstrip()) - 1))
        path.write_text(text[:cut], encoding="utf-8")
        return
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")


# ---------------------------------------------------------------------------
# evaluate on a corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_corpus(tables_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "corpus"
    assert main(["synthesize", str(tables_dir), "--out", str(out)]) == 0
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_exits_2_on_any_broken_corpus_file(clean_corpus, data):
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(scratch) / "corpus"
        shutil.copytree(clean_corpus, corpus)
        files = [corpus / "manifest.json"] + sorted(
            (corpus / "gold").glob("*.json")
        ) + sorted((corpus / "references").glob("*.json"))
        broken = data.draw(st.sampled_from(files))
        break_file(broken, data, CORPUS_KEYS)
        out = Path(scratch) / "eval"
        assert main(["evaluate", str(corpus), "--out", str(out)]) == 2
        assert not out.exists()


# ---------------------------------------------------------------------------
# extract and twin on a notes directory
# ---------------------------------------------------------------------------


def write_notes(root: Path) -> Path:
    """A manifest and four notes, two ``.txt`` and two ``.json``, of two
    patients; returns the notes directory."""
    notes = root / "notes"
    notes.mkdir(parents=True)
    (notes / "a1.txt").write_text(TABLE3_TEXT + "\n", encoding="utf-8")
    (notes / "a2.txt").write_text(FIG1_TEXT + "\n", encoding="utf-8")
    manifest = {
        "notes": [
            {"note_id": "a1", "patient_id": "pA", "timestamp": "2023-01-01T00:00:00Z"},
            {"note_id": "a2", "patient_id": "pA", "timestamp": None},
        ]
    }
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for name, patient_id, text in (("a3", "pA", FIG1_TEXT), ("b1", "pB", TABLE3_TEXT)):
        body = {
            "note_id": name,
            "patient_id": patient_id,
            "timestamp": "2023-02-01T00:00:00Z",
            "text": text,
        }
        (notes / f"{name}.json").write_text(json.dumps(body), encoding="utf-8")
    return notes


def run_both(notes: Path, out: Path) -> tuple[int, int]:
    return (
        main(["extract", str(notes), "--out", str(out)]),
        main(["twin", str(notes), "--out", str(out)]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extract_and_twin_skip_a_broken_file_and_keep_the_rest(data):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        notes = write_notes(scratch / "broken")
        files = [scratch / "broken" / "manifest.json", *sorted(notes.glob("*.json"))]
        broken = data.draw(st.sampled_from(files))
        clean_notes = write_notes(scratch / "clean")
        (clean_notes.parent / broken.relative_to(scratch / "broken")).unlink()
        break_file(broken, data, NOTES_KEYS)

        assert run_both(notes, scratch / "out_broken") == (3, 3)
        assert run_both(clean_notes, scratch / "out_clean") == (0, 0)
        assert tree(scratch / "out_broken") == tree(scratch / "out_clean")
