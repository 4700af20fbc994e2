"""Workloads, the timed loop, the correctness gate and the scaling probes.

Load is a closed loop in one process and one thread: one patient's notes
are twinned and serialized, the result is checked outside the timed
region, then the next patient starts. A pass runs every case of the
workload once; passes repeat until the run's time is up, and a run always
finishes the pass it is in, so every case weighs the same.

A shared 2-vCPU virtual machine slows down in spells of seconds to
minutes. Statistics that are linear in how much of the run fell in a
slow spell vary least from run to run, so throughput is the operations'
total work over their total time, and the median latency is taken per
pass and averaged over the passes. Set-up time is treated the same way:
builds are spread over the run, and their median per slice is averaged.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import re
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Optional

import fhirtwin
from fhirtwin import fhir_assembly
from fhirtwin.evaluation import (
    gold_mention_key,
    gold_relation_keys,
    mention_key,
    ner_f1,
    relation_f1,
    relation_keys,
)
from fhirtwin.fhir_assembly import Severity
from fhirtwin.pipeline import Pipeline, PipelineConfig, build_config
from fhirtwin.relations import RelationType

import workloads
from layers import OPERATION, SETUP, TARGETS, layer_self_per_note, per_layer_metrics
from tracing import Tracer
from workloads import Case, Pools


@dataclass(frozen=True)
class Workload:
    name: str
    #: Short notes per pass, one patient each.
    patients: int = 0
    #: Target length in characters of each long note of a pass.
    long_lengths: tuple[int, ...] = ()
    #: Generated surfaces loaded beside the bundled dictionary.
    dictionary: int = 0
    #: When set, this many short-note patients are drawn and the pass keeps
    #: ``patients`` of them, one per note-length quantile.
    draws: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# large_dictionary is left out of BENCHMARK.json: its per-note work builds
# sets of ~10^5 strings, which run 20-30% faster or slower from minute to
# minute on a shared machine, more than a regression bound can absorb.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("short_notes", patients=1000),
        # An odd number of notes puts the median latency inside one note's
        # samples instead of between two notes of different length.
        Workload("long_notes", long_lengths=(40_000, 47_500, 55_000, 62_500, 70_000)),
        # Each pass is rebuilt first; twelve notes keep the 1.7 s build to a
        # quarter of the pass, so most of the run times notes. Twelve notes
        # drawn at random differ in total length by ~10% from seed to seed,
        # which mb_per_s would show; one per length quantile differ by <1%.
        Workload("large_dictionary", patients=12, dictionary=100_000, draws=1200),
    )
}

#: Before each pass the pipeline is rebuilt until this much time has gone
#: into building it, and a run makes at least SETUP_REPEATS builds.
SETUP_SLICE_SECONDS = 0.02
SETUP_REPEATS = 5

#: note_ms_p99 is reported only when one pass alone holds this many
#: samples, so at least ten lie beyond it however fast the code runs.
TAIL_MIN_SAMPLES = 1000

PROBE_BASE_CHARS = 3000
PROBE_LENGTH_FACTORS = (1, 4, 16)
PROBE_DICTIONARY_SIZES = (1_000, 10_000, 100_000)
PROBE_DICTIONARY_NOTES = 3


@dataclass
class Measurement:
    """Operations attempted, and the time and work of those that passed."""

    latencies_ns: list[int] = field(default_factory=list)
    pass_p50_ns: list[float] = field(default_factory=list)
    timed_notes: int = 0
    timed_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    notes: int = 0
    chars: int = 0

    @property
    def notes_per_s(self) -> float:
        return self.timed_notes / (sum(self.latencies_ns) * 1e-9)

    @property
    def mb_per_s(self) -> float:
        return self.timed_bytes / 1e6 / (sum(self.latencies_ns) * 1e-9)


def timed_operation(pipeline: Pipeline, case: Case):
    """What ``fhirtwin twin`` does for one patient, minus the file writes."""
    twin, issues, annotations = pipeline.twin(case.patient_id, case.notes)
    bundle_json = fhir_assembly.bundle_to_json(twin)
    issues_json = fhir_assembly.issues_to_json(issues)
    return bundle_json, issues_json, issues, annotations


def check(case: Case, bundle_json: str, issues, annotations) -> bool:
    """The correctness gate for one timed operation.

    Short-note cases must reproduce the synthesizer's reference bundle byte
    for byte. A long note must score mention F1 and has-dosage relation F1
    of exactly 1.0 against its shifted gold and carry no ERROR issue.
    """
    if case.reference_json is not None:
        return bundle_json == case.reference_json
    if any(issue.severity == Severity.ERROR for issue in issues):
        return False
    (annotation,) = annotations
    note_id = annotation.note.note_id
    mentions = [a.mention for a in annotation.annotated]
    *_, mention_f1 = ner_f1(
        [mention_key(note_id, m) for m in mentions],
        [gold_mention_key(note_id, g) for g in case.gold.mentions],
    )
    dosage = RelationType.HAS_DOSAGE.value
    *_, dosage_f1 = relation_f1(
        [k for k in relation_keys(note_id, annotation.relations, mentions) if k[1] == dosage],
        [k for k in gold_relation_keys(note_id, case.gold) if k[1] == dosage],
    )
    return mention_f1 == 1.0 and dosage_f1 == 1.0


def run_pass(
    pipeline: Pipeline,
    cases: list[Case],
    result: Measurement,
    tracer: Optional[Tracer] = None,
) -> Measurement:
    """Run every case once, timing and then checking each operation."""
    clock = time.perf_counter_ns
    passed = len(result.latencies_ns)
    for case in cases:
        result.attempted += 1
        result.notes += len(case.notes)
        result.chars += case.chars
        try:
            if tracer is None:
                start = clock()
                output = timed_operation(pipeline, case)
                elapsed = clock() - start
            else:
                tracer.request_id = case.patient_id
                start = clock()
                with tracer.span(OPERATION):
                    output = timed_operation(pipeline, case)
                elapsed = clock() - start
        except Exception:
            if not result.failed:
                traceback.print_exc()
            result.failed += 1
            continue
        bundle_json, _, issues, annotations = output
        if not check(case, bundle_json, issues, annotations):
            if not result.failed:
                print(f"perfbench: wrong output for {case.patient_id}", file=sys.stderr)
            result.failed += 1
            continue
        result.latencies_ns.append(elapsed)
        result.timed_notes += len(case.notes)
        result.timed_bytes += case.utf8_bytes
    if len(result.latencies_ns) > passed:
        result.pass_p50_ns.append(statistics.median(result.latencies_ns[passed:]))
    return result


@dataclass
class Inputs:
    config: PipelineConfig
    cases: list[Case]
    pools: Pools


def build_inputs(workload: Workload, seed: int, scratch: Path) -> Inputs:
    """Generate the workload's cases, and its dictionary file if it has one."""
    base = build_config()
    pools = workloads.load_pools(Pipeline(base).index, base.default_timestamp)
    if workload.long_lengths:
        cases = workloads.long_cases(seed, pools, workload.long_lengths)
    elif workload.draws:
        drawn = workloads.short_cases(seed, pools, workload.draws)
        cases = workloads.length_strata(drawn, workload.patients)
    else:
        cases = workloads.short_cases(seed, pools, workload.patients)
    config = base
    if workload.dictionary:
        config = with_generated_dictionary(base, seed, pools, workload.dictionary, scratch)
    return Inputs(config, cases, pools)


def with_generated_dictionary(
    base: PipelineConfig, seed: int, pools: Pools, size: int, scratch: Path
) -> PipelineConfig:
    surfaces = workloads.generated_surfaces(seed, pools, size)
    path = workloads.write_dictionary(
        scratch / f"generated-{size}.csv", workloads.dictionary_rows(seed, surfaces)
    )
    return replace(base, dictionaries=base.dictionaries + (path,))


def measure_end_to_end(
    config: PipelineConfig, cases: list[Case], seconds: float
) -> tuple[Measurement, list[float]]:
    """Alternate pipeline builds and passes until ``seconds`` have gone by.

    Each pass runs on the pipeline built just before it, so builds are
    spread over the run like the passes and see the same spells of a busy
    machine. The regex cache is purged before every build, so each one
    compiles its patterns as a fresh ``fhirtwin`` process does. One
    untimed operation on the first build lets the interpreter specialize
    the hot code before the clock starts. Returns the median build time
    of each slice of builds made before a pass.
    """
    measured, slices = Measurement(), []
    builds = 0
    deadline = None
    while True:
        durations: list[float] = []
        while sum(durations) < SETUP_SLICE_SECONDS:
            pipeline = None
            re.purge()
            start = time.perf_counter()
            pipeline = Pipeline(config)
            durations.append(time.perf_counter() - start)
        slices.append(statistics.median(durations))
        builds += len(durations)
        if deadline is None:
            run_pass(pipeline, cases[:1], Measurement())
            deadline = time.perf_counter() + seconds
        run_pass(pipeline, cases, measured)
        if time.perf_counter() >= deadline and builds >= SETUP_REPEATS:
            return measured, slices


def loglog_slope(xs: list[float], ys: list[float]) -> Optional[float]:
    """Least-squares slope of log(y) against log(x)."""
    if any(y <= 0 for y in ys):
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def traced_layers(pipeline: Pipeline, cases: list[Case], repeats: int, result: Measurement):
    """Per-layer self seconds per note over ``repeats`` traced runs of ``cases``."""
    tracer = Tracer(TARGETS)
    with tracer.installed():
        for _ in range(repeats):
            run_pass(pipeline, cases, result, tracer)
    return layer_self_per_note(tracer.spans, repeats * len(cases))


def length_probe(pools: Pools, seed: int, result: Measurement) -> dict[str, Optional[float]]:
    """ner and relations self time per note at 1x, 4x and 16x note length."""
    pipeline = Pipeline(build_config())
    rng = Random(f"length_probe:{seed}")
    chars, ner, rel = [], [], []
    for factor in PROBE_LENGTH_FACTORS:
        case = workloads.long_case(rng, pools, f"probe{factor}", PROBE_BASE_CHARS * factor)
        per_note = traced_layers(pipeline, [case], max(PROBE_LENGTH_FACTORS) // factor, result)
        chars.append(case.chars)
        ner.append(per_note["ner"])
        rel.append(per_note["relations"])
    return {
        "ner.length_exponent": loglog_slope(chars, ner),
        "relations.length_exponent": loglog_slope(chars, rel),
    }


def dictionary_probe(
    pools: Pools, seed: int, scratch: Path, result: Measurement
) -> dict[str, Optional[float]]:
    """match self time per note at 10^3, 10^4 and 10^5 generated surfaces."""
    base = build_config()
    cases = workloads.short_cases(seed, pools, PROBE_DICTIONARY_NOTES)
    keys, match = [], []
    for size in PROBE_DICTIONARY_SIZES:
        pipeline = Pipeline(with_generated_dictionary(base, seed, pools, size, scratch))
        keys.append(len(pipeline.index.entries) + len(pipeline.index.synonym_map))
        match.append(traced_layers(pipeline, cases, 1, result)["match"])
    return {"match.dict_size_exponent": loglog_slope(keys, match)}


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "match_backend": getattr(fhirtwin, "MATCH_BACKEND", "python"),
    }


def end_to_end(workload: Workload, setup: list[float], m: Measurement) -> dict:
    metrics = {
        "notes_per_s": (m.notes_per_s, "notes/s"),
        "mb_per_s": (m.mb_per_s, "MB/s"),
        "note_ms_p50": (statistics.fmean(m.pass_p50_ns) * 1e-6, "ms"),
        "setup_s": (statistics.fmean(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"error_rate": (m.failed / m.attempted, "ratio")}
    if workload.patients >= TAIL_MIN_SAMPLES:
        p99 = statistics.quantiles(m.latencies_ns, n=100, method="inclusive")[98]
        extra["note_ms_p99"] = (p99 * 1e-6, "ms")
    return {"metrics": metrics, "extra": extra, "samples": len(m.latencies_ns)}


def run(args, out_dir: Path) -> tuple[dict, int, int]:
    """One benchmark run: its report, and the operations attempted and failed."""
    workload = WORKLOADS[args.workload]
    report: dict = {"environment": environment(args)}
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        inputs = build_inputs(workload, args.seed, Path(scratch))
        if not args.trace:
            measured, setup = measure_end_to_end(inputs.config, inputs.cases, args.seconds)
            if measured.latencies_ns:
                report.update(end_to_end(workload, setup, measured))
            return report, measured.attempted, measured.failed

        # Untraced and traced passes alternate, so both see the same spells
        # of a busy machine and their ratio is the tracer's own cost.
        tracer = Tracer(TARGETS)
        with tracer.installed():
            tracer.request_id = SETUP
            pipeline = Pipeline(inputs.config)
        gc.collect()
        untraced, traced = Measurement(), Measurement()
        deadline = time.perf_counter() + args.seconds
        while True:
            run_pass(pipeline, inputs.cases, untraced)
            with tracer.installed():
                run_pass(pipeline, inputs.cases, traced, tracer)
            if time.perf_counter() >= deadline:
                break
        probes = Measurement()
        probed = length_probe(inputs.pools, args.seed, probes)
        probed.update(dictionary_probe(inputs.pools, args.seed, Path(scratch), probes))
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    runs = (untraced, traced, probes)
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    if untraced.latencies_ns and traced.latencies_ns:
        metrics = per_layer_metrics(tracer.spans, tracer.absent, traced.notes, traced.chars)
        metrics["trace.overhead_ratio"] = (
            untraced.notes_per_s / traced.notes_per_s, "ratio"
        )
        metrics.update({name: (value, "exponent") for name, value in probed.items()})
        report["metrics"] = metrics
    report["absent_targets"] = tracer.absent
    report["spans"] = sum(1 for s in tracer.spans if s is not None)
    return report, attempted, failed
