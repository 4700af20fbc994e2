"""Tests of the benchmark's own input generation and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from layers import OPERATION, TARGETS, per_layer_metrics  # noqa: E402
from tracing import Target, Tracer, self_times  # noqa: E402

from fhirtwin import fhir_assembly  # noqa: E402
from fhirtwin._match import pymatch  # noqa: E402
from fhirtwin.pipeline import Pipeline, build_config  # noqa: E402
from fhirtwin.terminology import EntityType, normalize_surface  # noqa: E402


@pytest.fixture(scope="module")
def pools():
    config = build_config()
    return workloads.load_pools(Pipeline(config).index, config.default_timestamp)


def _inputs(seed, pools):
    short = workloads.short_cases(seed, pools, 40)
    long = workloads.long_cases(seed, pools, (4_000,))
    rows = workloads.dictionary_rows(
        seed, workloads.generated_surfaces(seed, pools, 2_000)
    )
    return short, long, rows


def test_inputs_are_byte_identical_for_one_seed(pools):
    first, second = _inputs(7, pools), _inputs(7, pools)
    assert first == second
    assert _inputs(8, pools) != first


def test_generated_surfaces_never_occur_in_generated_notes(pools):
    surfaces = workloads.generated_surfaces(3, pools, 5_000)
    assert len(set(surfaces)) == len(surfaces)
    assert not set(surfaces) & set(pools.index.entries)
    keys = frozenset(normalize_surface(s) for s in surfaces)
    cases = workloads.short_cases(3, pools, 200) + workloads.long_cases(3, pools, (6_000,))
    # Every n-gram of one note is also an n-gram of all notes joined, so
    # one scan over the joined text covers each note.
    text = "\n".join(note.text for case in cases for note in case.notes)
    assert pymatch.dictionary_spans(text, pymatch.token_spans(text), keys, 6) == []


def test_shifted_gold_slices_back_to_the_rendered_items(pools):
    (case,) = workloads.long_cases(5, pools, (8_000,))
    text = case.notes[0].text
    expected = {
        EntityType.CONDITION: {d.description for d in pools.diagnoses},
        EntityType.MEDICATION: {m.drug for m in pools.medications},
        EntityType.DOSAGE: {f"{m.dose} {m.frequency}".strip() for m in pools.medications},
        EntityType.OBSERVATION: {
            f"{lab.test} {lab.value} {lab.unit}".strip() for lab in pools.labs
        },
    }
    assert len(case.gold.mentions) > 100
    for mention in case.gold.mentions:
        assert text[mention.start : mention.end] in expected[mention.etype]
    spans = {(m.start, m.end): m.etype for m in case.gold.mentions}
    assert len(case.gold.relations) > 20
    for relation in case.gold.relations:
        assert spans[relation.head_span] == EntityType.MEDICATION
        assert spans[relation.tail_span] == EntityType.DOSAGE
        assert text[relation.head_span[1] : relation.tail_span[0]] == " "


def _attributes():
    found = {}
    for target in TARGETS:
        owner, attr = target.resolve()
        found[target.name] = (owner, attr, vars(owner)[attr])
    return found


def test_tracer_restores_every_wrapped_attribute(pools):
    before = _attributes()
    pipeline = Pipeline(build_config())
    case = workloads.short_cases(1, pools, 1)[0]
    tracer = Tracer(TARGETS)
    with tracer.installed():
        for owner, attr, original in before.values():
            assert vars(owner)[attr] is not original
        with tracer.span(OPERATION):
            twin, _, _ = pipeline.twin(case.patient_id, case.notes)
            bundle_json = fhir_assembly.bundle_to_json(twin)
    assert bundle_json == case.reference_json
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original
    assert tracer.absent == []

    metrics = per_layer_metrics(tracer.spans, tracer.absent, 1, case.chars)
    assert metrics["ner.segment_calls_per_note"][0] == 2
    assert metrics["terminology.match_keys_calls_per_note"][0] == 1
    shares = sum(metrics[f"{layer}.share"][0] for layer in
                 ("pipeline", "terminology", "match", "ner", "normalizer",
                  "relations", "fhir_assembly"))
    assert 0.5 < shares <= 1.0


def test_tracer_restores_on_error():
    before = _attributes()
    tracer = Tracer(TARGETS)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            Pipeline(build_config())
            raise RuntimeError("boom")
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original


def test_missing_targets_are_reported_absent(pools):
    gone = tuple(
        Target(t.name, t.path + "_gone") if t.name == "match.key_prefixes" else t
        for t in TARGETS
    ) + (Target("gone.module", "fhirtwin.no_such_module:f"),)
    case = workloads.short_cases(1, pools, 1)[0]
    tracer = Tracer(gone)
    with tracer.installed():
        Pipeline(build_config()).twin(case.patient_id, case.notes)
    assert tracer.absent == ["match.key_prefixes", "gone.module"]
    metrics = per_layer_metrics(tracer.spans, tracer.absent, 1, case.chars)
    assert metrics["match.key_prefixes_ms_per_note"][0] is None
    assert metrics["ner.segment_calls_per_note"][0] == 2


def test_self_time_subtracts_direct_children():
    tracer = Tracer(())
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    own = self_times(tracer.spans)
    children = (first.end_ns - first.start_ns) + (second.end_ns - second.start_ns)
    assert own[0] == outer.end_ns - outer.start_ns - children
    assert first.parent == second.parent == 0


def test_length_strata_spans_the_length_distribution(pools):
    cases = workloads.short_cases(5, pools, 300)
    picked = workloads.length_strata(cases, 12)
    lengths = sorted(case.utf8_bytes for case in cases)
    assert len({case.patient_id for case in picked}) == 12
    assert [case.utf8_bytes for case in picked] == [lengths[(2 * k + 1) * 300 // 24] for k in range(12)]


def test_long_note_reaches_its_target_length(pools):
    case = workloads.long_case(random.Random(2), pools, "p", 20_000)
    assert 19_000 <= case.chars <= 21_500
    assert case.notes[0].text.endswith(".")


def test_benchmark_json_names_what_the_runs_report():
    import harness
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert set(names) <= set(harness.WORKLOADS)

    measured = harness.Measurement(
        latencies_ns=[10**6], pass_p50_ns=[1e6], timed_notes=1, timed_bytes=100, attempted=1
    )
    reported = harness.end_to_end(harness.WORKLOADS["long_notes"], [0.1], measured)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in reported["metrics"].items()
    }

    traced = {name: unit for name, (_, unit) in per_layer_metrics([], [], 1, 1).items()}
    traced["trace.overhead_ratio"] = "ratio"
    traced.update({name: "exponent" for name in (
        "ner.length_exponent", "relations.length_exponent", "match.dict_size_exponent")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
