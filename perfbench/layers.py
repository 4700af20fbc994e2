"""Which functions the traced run wraps, and the per-layer metrics it reports.

A layer is a module of the pipeline. Each target is the attribute the
pipeline actually looks up at call time, so ``fhirtwin.ner:token_spans``
(the name ``ner`` imported) is the matcher as the extractor calls it, and
``fhirtwin.pipeline:normalize_all`` is the normalizer as the pipeline
calls it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable, Optional

from fhirtwin.terminology import CODEABLE_TYPES
from tracing import Span, Target, self_times

#: Request id of spans recorded while the pipeline is being built.
SETUP = "setup"

#: Name of the benchmark's own span around one timed operation.
OPERATION = "bench.operation"

LAYERS = (
    "pipeline",
    "terminology",
    "match",
    "ner",
    "normalizer",
    "relations",
    "fhir_assembly",
)


def _len_result(args, result) -> int:
    return len(result)


def _len_arg(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _normalized(args, result) -> tuple[int, int, int]:
    """(mentions, codeable mentions, mentions given a concept)."""
    codeable = sum(1 for a in result if a.mention.etype in CODEABLE_TYPES)
    coded = sum(1 for a in result if a.concept is not None)
    return len(result), codeable, coded


TARGETS = (
    Target("pipeline.twin", "fhirtwin.pipeline:Pipeline.twin"),
    Target("pipeline.annotate", "fhirtwin.pipeline:Pipeline.annotate"),
    Target("terminology.load_terminology", "fhirtwin.terminology:load_terminology"),
    Target("terminology.match_keys", "fhirtwin.terminology:TerminologyIndex.match_keys"),
    Target("terminology.lookup", "fhirtwin.terminology:TerminologyIndex.lookup"),
    Target("match.token_spans", "fhirtwin.ner:token_spans"),
    Target("match.dictionary_spans", "fhirtwin.ner:dictionary_spans", _len_result),
    Target("match.key_prefixes", "fhirtwin._match.pymatch:key_prefixes"),
    Target("ner.load_patterns", "fhirtwin.ner:load_patterns"),
    Target("ner.segment", "fhirtwin.ner:segment"),
    Target("ner.extract_entities", "fhirtwin.ner:extract_entities", _len_result),
    Target("normalizer.normalize_all", "fhirtwin.pipeline:normalize_all", _normalized),
    Target("relations.load_cues", "fhirtwin.relations:load_cues"),
    Target("relations.extract_relations", "fhirtwin.relations:extract_relations", _len_arg(0)),
    Target("fhir_assembly.build_patient", "fhirtwin.fhir_assembly:build_patient"),
    Target("fhir_assembly.assemble", "fhirtwin.fhir_assembly:assemble", _len_result),
    Target("fhir_assembly.validate", "fhirtwin.fhir_assembly:validate", _len_arg(0)),
    Target("fhir_assembly.bundle", "fhirtwin.fhir_assembly:bundle", _len_arg(1)),
    Target("fhir_assembly.bundle_to_json", "fhirtwin.fhir_assembly:bundle_to_json", _len_result),
    Target("fhir_assembly.issues_to_json", "fhirtwin.fhir_assembly:issues_to_json", _len_result),
)


class Totals:
    """Calls, self time and summed sizes per span name, and per layer."""

    def __init__(self, spans: list[Optional[Span]]):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, list] = defaultdict(list)
        self.setup_ns: dict[str, list[int]] = defaultdict(list)
        for span, own in zip(spans, self_times(spans)):
            if span is None:
                continue
            if span.request_id == SETUP:
                self.setup_ns[span.name].append(span.end_ns - span.start_ns)
                continue
            self.calls[span.name] += 1
            self.self_ns[span.name] += own
            self.total_ns[span.name] += span.end_ns - span.start_ns
            self.layer_self_ns[span.name.split(".")[0]] += own
            if span.size is not None:
                self.sizes[span.name].append(span.size)

    def size_sum(self, name: str, field: Optional[int] = None) -> int:
        values = self.sizes[name]
        return sum(v if field is None else v[field] for v in values)


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def per_layer_metrics(
    spans: list[Optional[Span]], absent: list[str], notes: int, chars: int
) -> dict[str, tuple[Optional[float], str]]:
    """Every per-layer metric as name -> (value, unit) over the traced ops.

    A metric is None when none of the targets it reads could be wrapped,
    because they no longer exist, or when its denominator is zero.
    """
    t = Totals(spans)
    kchars = chars / 1000
    operation_ns = t.total_ns[OPERATION]
    ms, us = 1e-6, 1e-3

    def per_note(ns: float, scale: float) -> Optional[float]:
        return ns * scale / notes

    table: list[tuple[str, str, tuple[str, ...], Callable[[], Optional[float]]]] = [
        ("terminology.load_s", "s", ("terminology.load_terminology",),
         lambda: statistics.median(t.setup_ns["terminology.load_terminology"]) * 1e-9
         if t.setup_ns["terminology.load_terminology"] else None),
        ("terminology.match_keys_calls_per_note", "calls/note", ("terminology.match_keys",),
         lambda: t.calls["terminology.match_keys"] / notes),
        ("terminology.match_keys_ms_per_note", "ms/note", ("terminology.match_keys",),
         lambda: per_note(t.self_ns["terminology.match_keys"], ms)),
        ("terminology.lookup_calls_per_note", "calls/note", ("terminology.lookup",),
         lambda: t.calls["terminology.lookup"] / notes),
        ("terminology.lookup_us_per_call", "us/call", ("terminology.lookup",),
         lambda: _ratio(t.self_ns["terminology.lookup"] * us, t.calls["terminology.lookup"])),
        ("match.key_prefixes_calls_per_note", "calls/note", ("match.key_prefixes",),
         lambda: t.calls["match.key_prefixes"] / notes),
        ("match.key_prefixes_ms_per_note", "ms/note", ("match.key_prefixes",),
         lambda: per_note(t.self_ns["match.key_prefixes"], ms)),
        ("match.token_spans_us_per_kchar", "us/kchar", ("match.token_spans",),
         lambda: t.self_ns["match.token_spans"] * us / kchars),
        ("match.dictionary_spans_self_us_per_kchar", "us/kchar", ("match.dictionary_spans",),
         lambda: t.self_ns["match.dictionary_spans"] * us / kchars),
        ("match.dictionary_hits_per_kchar", "hits/kchar", ("match.dictionary_spans",),
         lambda: t.size_sum("match.dictionary_spans") / kchars),
        ("ner.segment_calls_per_note", "calls/note", ("ner.segment",),
         lambda: t.calls["ner.segment"] / notes),
        ("ner.segment_us_per_kchar", "us/kchar", ("ner.segment",),
         lambda: t.self_ns["ner.segment"] * us / kchars),
        ("ner.extract_self_ms_per_note", "ms/note", ("ner.extract_entities",),
         lambda: per_note(t.self_ns["ner.extract_entities"], ms)),
        ("ner.mentions_per_kchar", "mentions/kchar", ("ner.extract_entities",),
         lambda: t.size_sum("ner.extract_entities") / kchars),
        ("normalizer.us_per_mention", "us/mention", ("normalizer.normalize_all",),
         lambda: _ratio(t.self_ns["normalizer.normalize_all"] * us,
                        t.size_sum("normalizer.normalize_all", 0))),
        ("normalizer.coded_ratio", "ratio", ("normalizer.normalize_all",),
         lambda: _ratio(t.size_sum("normalizer.normalize_all", 2),
                        t.size_sum("normalizer.normalize_all", 1))),
        ("relations.ms_per_note", "ms/note", ("relations.extract_relations",),
         lambda: per_note(t.layer_self_ns["relations"], ms)),
        ("relations.us_per_mention", "us/mention", ("relations.extract_relations",),
         lambda: _ratio(t.self_ns["relations.extract_relations"] * us,
                        t.size_sum("relations.extract_relations"))),
        ("fhir_assembly.assemble_us_per_resource", "us/resource", ("fhir_assembly.assemble",),
         lambda: _ratio(t.self_ns["fhir_assembly.assemble"] * us,
                        t.size_sum("fhir_assembly.assemble"))),
        ("fhir_assembly.validate_us_per_resource", "us/resource", ("fhir_assembly.validate",),
         lambda: _ratio(t.self_ns["fhir_assembly.validate"] * us,
                        t.size_sum("fhir_assembly.validate"))),
        ("fhir_assembly.bundle_us_per_resource", "us/resource", ("fhir_assembly.bundle",),
         lambda: _ratio(t.self_ns["fhir_assembly.bundle"] * us,
                        t.size_sum("fhir_assembly.bundle"))),
        ("fhir_assembly.serialize_us_per_kb", "us/KB",
         ("fhir_assembly.bundle_to_json", "fhir_assembly.issues_to_json"),
         lambda: _ratio(
             (t.self_ns["fhir_assembly.bundle_to_json"]
              + t.self_ns["fhir_assembly.issues_to_json"]) * us,
             (t.size_sum("fhir_assembly.bundle_to_json")
              + t.size_sum("fhir_assembly.issues_to_json")) / 1000)),
        ("fhir_assembly.bundle_bytes_per_note", "bytes/note", ("fhir_assembly.bundle_to_json",),
         lambda: t.size_sum("fhir_assembly.bundle_to_json") / notes),
        ("fhir_assembly.resources_per_note", "resources/note", ("fhir_assembly.assemble",),
         lambda: t.size_sum("fhir_assembly.assemble") / notes),
        ("pipeline.twin_self_us_per_note", "us/note", ("pipeline.twin",),
         lambda: per_note(t.layer_self_ns["pipeline"], us)),
    ]
    for layer in LAYERS:
        table.append(
            (f"{layer}.share", "ratio",
             tuple(x.name for x in TARGETS if x.name.startswith(layer + ".")),
             lambda layer=layer: _ratio(t.layer_self_ns[layer], operation_ns))
        )

    metrics: dict[str, tuple[Optional[float], str]] = {}
    for name, unit, needs, value in table:
        missing = all(n in absent for n in needs)
        metrics[name] = (None if missing else value(), unit)
    return metrics


def layer_self_per_note(spans: list[Optional[Span]], notes: int) -> dict[str, float]:
    """Self time in seconds per note of each layer, for the scaling probes."""
    t = Totals(spans)
    return {layer: t.layer_self_ns[layer] * 1e-9 / notes for layer in LAYERS}
