"""Property tests: one broken line in a setup file is one error line, exit 1.

Each example copies the bundled dictionary, synonyms, patterns, cues and
templates next to a ``--config`` file that names them, then breaks one line
of one of those six files: a wrong column count, an unknown code system or
entity type, an empty surface or code, a bad regex, a non-UTF-8 byte, a
synonym that points at itself or at another alias, a seed that is not a
number, or a ``max_ngram`` below 1. Every command must then return 1,
print exactly one ``error: <that file>...`` line, show no traceback and
create no output directory.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fhirtwin.cli import main
from fhirtwin.pipeline import default_data_dir

DATA_FILES = {
    "dictionary": "terminology.csv",
    "synonyms": "synonyms.csv",
    "patterns": "patterns.tsv",
    "cues": "cues.txt",
    "templates": "templates.tsv",
}
CONFIG = "fhirtwin.conf"
#: Which breaks each file can take, besides a non-UTF-8 byte.
BREAKS = {
    "terminology.csv": ("columns", "system", "etype", "surface", "code"),
    "synonyms.csv": ("columns", "self_loop", "chain"),
    "patterns.tsv": ("columns", "etype", "regex"),
    "cues.txt": (),
    "templates.tsv": ("columns",),
    CONFIG: ("columns", "seed", "max_ngram"),
}
COLUMNS = {
    "terminology.csv": (",", 5),
    "synonyms.csv": (",", 2),
    "patterns.tsv": ("\t", 3),
    "templates.tsv": ("\t", 2),
    CONFIG: ("=", 2),
}
BAD_SYSTEMS = ("NDC", "SNOMED-CT", "", "ICD9")
#: Patterns may find any entity type; dictionary rows only codeable ones.
BAD_ETYPES = ("DRUG", "", "CONDITIONS")
UNCODEABLE_ETYPES = ("DOSAGE", "TEMPORAL")
BAD_REGEXES = ("(", "[a-", "*x", "(?P<x", "a{2,1}", "\\")
BAD_SEEDS = ("x", "1.5", "", "thirteen", "0x1")
#: Below 1, n-gram matching would find no dictionary mention at all.
BAD_MAX_NGRAMS = ("0", "-1", "-3", "-100")


def write_setup(root: Path) -> Path:
    """The bundled setup files and a config naming them; returns the config."""
    data = default_data_dir()
    for name in DATA_FILES.values():
        (root / name).write_bytes((data / name).read_bytes())
    lines = [f"{key} = {name}" for key, name in DATA_FILES.items()]
    lines += ["seed = 13", "max_ngram = 6"]
    (root / CONFIG).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root / CONFIG


def data_line_numbers(lines: list[str]) -> list[int]:
    return [
        i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")
    ]


def broken_line(name: str, line: str, how: str, lines: list[str], data) -> str:
    """``line`` of file ``name`` broken in the way ``how``."""
    sep, count = COLUMNS[name]
    cells = line.split(sep)
    if how == "columns":
        # A config value may hold "=", so a config line breaks only by losing it.
        extra = name != CONFIG and data.draw(st.booleans())
        return sep.join(cells + ["extra"]) if extra else sep.join(cells[: count - 1])
    if how == "seed":
        return f"seed = {data.draw(st.sampled_from(BAD_SEEDS))}"
    if how == "max_ngram":
        return f"max_ngram = {data.draw(st.sampled_from(BAD_MAX_NGRAMS))}"
    if how == "system":
        cells[1] = data.draw(st.sampled_from(BAD_SYSTEMS))
    elif how == "etype" and name == "terminology.csv":
        cells[4] = data.draw(st.sampled_from(BAD_ETYPES + UNCODEABLE_ETYPES))
    elif how == "etype":
        cells[1] = data.draw(st.sampled_from(BAD_ETYPES))
    elif how == "surface":
        cells[0] = data.draw(st.sampled_from(["", "  "]))
    elif how == "code":
        cells[2] = data.draw(st.sampled_from(["", " "]))
    elif how == "regex":
        cells[2] = data.draw(st.sampled_from(BAD_REGEXES))
    elif how == "self_loop":
        cells[1] = cells[0]
    elif how == "chain":
        aliases = [lines[i].split(",")[0] for i in data_line_numbers(lines)]
        cells[1] = data.draw(st.sampled_from([a for a in aliases if a != cells[0]]))
    return sep.join(cells)


def break_one_line(root: Path, data) -> Path:
    """Break one line of one setup file under ``root``; returns that file."""
    name = data.draw(st.sampled_from(sorted(BREAKS)))
    path = root / name
    how = data.draw(st.sampled_from(BREAKS[name] + ("utf8",)))
    if how == "utf8":
        raw = path.read_bytes().split(b"\n")
        i = data.draw(st.integers(0, len(raw) - 1))
        cut = data.draw(st.integers(0, len(raw[i])))
        byte = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"]))
        raw[i] = raw[i][:cut] + byte + raw[i][cut:]
        path.write_bytes(b"\n".join(raw))
        return path
    lines = path.read_text(encoding="utf-8").split("\n")
    numbers = data_line_numbers(lines)
    if how in ("seed", "max_ngram"):
        numbers = [i for i in numbers if lines[i].startswith(how)]
    i = data.draw(st.sampled_from(numbers))
    lines[i] = broken_line(name, lines[i], how, lines, data)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_broken_setup_line_is_one_error_line_and_exit_1(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = write_setup(root)
        broken = break_one_line(root, data)
        inputs = root / "inputs"
        inputs.mkdir()
        out = root / "out"
        for command in ("synthesize", "extract", "twin", "evaluate"):
            argv = [command, str(inputs), "--out", str(out), "--config", str(config)]
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(argv)
            assert code == 1
            assert err.getvalue().startswith(f"error: {broken}:")
            assert err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()
            assert not out.exists()
