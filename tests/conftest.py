from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from fhirtwin.ner import ABBREVIATIONS
from fhirtwin.pipeline import Pipeline, build_config, default_data_dir

TABLE3_TEXT = (
    "65-year-old male with history of hypertension and type 2 diabetes. "
    "BP 145/92. Started Lisinopril 10mg daily."
)
FIG1_TEXT = "Patient has diabetes. Started Metformin 500mg twice daily."

#: Text for the sentence and token scanners: any character, mixed with
#: terminators, joiners, the underscore (a word character that
#: ``str.isalnum`` rejects), decimal digits (ASCII and Arabic-Indic), digits
#: that are not decimals (superscript, circled) and the abbreviations.
scanner_text = st.lists(
    st.one_of(
        st.sampled_from(
            list("./!?\n _09٣٥²①") + sorted(ABBREVIATIONS)
        ),
        st.characters(),
    ),
    max_size=40,
).map("".join)


@pytest.fixture(scope="session")
def config():
    return build_config()


@pytest.fixture(scope="session")
def pipeline(config):
    return Pipeline(config)


@pytest.fixture(scope="session")
def index(pipeline):
    return pipeline.index


@pytest.fixture(scope="session")
def patterns(pipeline):
    return pipeline.patterns


@pytest.fixture(scope="session")
def tables_dir():
    return default_data_dir() / "tables"


@pytest.fixture(scope="session")
def benchmark_cases(tmp_path_factory):
    """The seed-3 ``short_notes`` and ``long_notes`` passes of ``perfbench``,
    as lists of ``workloads.Case`` by workload name."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import harness

    return {
        name: harness.build_inputs(
            harness.WORKLOADS[name], 3, tmp_path_factory.mktemp(name)
        ).cases
        for name in ("short_notes", "long_notes")
    }


def tree(directory):
    """Every file under ``directory``, by relative path, with its bytes."""
    return {
        p.relative_to(directory): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def write_dictionary(tmp_path, rows, name="dict.csv"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
