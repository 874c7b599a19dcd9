"""Run one sitewatch command with per-layer spans and counters, from outside.

Usage (PYTHONPATH must point at the repository's ``src``):

    python3 bench/trace_boot.py OUT.json cli SITEWATCH-ARGS...
    python3 bench/trace_boot.py OUT.json parse STREAM.jsonl

``cli`` installs the wrappers below and then calls ``sitewatch.cli.main``
with the remaining arguments, so ``watch`` keeps its real stdin and stdout.
``parse`` times JSON decoding and full stream parsing in isolation on
lines read into memory beforehand.  Either way the summary goes to
OUT.json and nothing extra is printed.

The wrappers replace the names the program looks up at call time (module
globals such as ``sitewatch.pipeline.dedupe_frame`` and class attributes
such as ``IouTracker.update``); no source file changes.  Spans keep their
parent, so a layer's self time is its duration minus its direct children.
Spans live in a flat integer array, which the cyclic GC does not scan, so
the trace does not inflate the collections it measures.
"""

from __future__ import annotations

import array
import gc
import json
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # Four int64 per span: name id, start ns, end ns, parent span index.
        self.spans = array.array("q")
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.gc_ns += _clock() - self._gc_start
            self.gc_collections += 1

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``after(args, result)`` runs once the span has closed, to count
        work the call did; its cost lands in the parent span's self time.
        """
        fn = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[4 * idx + 1] = start
                spans[4 * idx + 2] = end
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that counts its calls."""
        fn = getattr(owner, attr)
        cell = self.counter(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        spans = self.spans
        n = len(spans) // 4
        child_ns = [0] * n
        for i in range(n):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[spans[4 * i]]
            dur = spans[4 * i + 2] - spans[4 * i + 1]
            rec = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            rec["count"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += dur - child_ns[i]
        return {
            "spans": out,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "gc": {"pause_ns": self.gc_ns, "collections": self.gc_collections},
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import sitewatch.activity as activity
    import sitewatch.cli as cli
    import sitewatch.metrics as metrics
    import sitewatch.pipeline as pipeline
    import sitewatch.safety as safety
    import sitewatch.simulator as simulator
    import sitewatch.streams as streams
    import sitewatch.tracking as tracking

    dets_in = tracer.counter("streams.dedupe_frame.dets_in")
    dets_out = tracer.counter("streams.dedupe_frame.dets_out")
    live_tracks = tracer.counter("tracking.live_tracks_sum")
    opened = tracer.counter("tracking.tracks_opened")
    alerts = tracer.counter("safety.alerts")
    pause_events = tracer.counter("safety.pause_events")
    sim_frames = tracer.counter("simulator.frames")

    def after_dedupe(args, result):
        dets_in[0] += len(args[0].detections)
        dets_out[0] += len(result.detections)

    def after_update(args, result):
        live_tracks[0] += len(args[0].tracks)
        if result:
            # Track ids count up from 1 and are never reused.
            opened[0] = max(opened[0], max(result.values()))

    def after_safety(args, result):
        alerts[0] += len(result)
        pause_events[0] = len(args[0].pause_events)

    def after_generate(args, result):
        sim_frames[0] += len(result.frames)

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "_analyze_one", "cli.analyze")
    tracer.span(cli, "analyze_file", "pipeline.analyze_file")
    tracer.span(cli, "detection_eval", "metrics.detection_eval")
    tracer.span(pipeline.StreamAnalyzer, "process_frame", "pipeline.process_frame")
    tracer.span(pipeline.StreamAnalyzer, "finish", "pipeline.finish")
    tracer.span(pipeline, "dedupe_frame", "streams.dedupe_frame", after_dedupe)
    tracer.span(tracking.IouTracker, "update", "tracking.update", after_update)
    tracer.span(activity.ActionClassifier, "step", "activity.step")
    tracer.span(safety.SafetyMonitor, "step", "safety.step", after_safety)
    tracer.span(pipeline, "build_timeline", "activity.build_timeline")
    tracer.span(pipeline, "build_report", "productivity.build_report")
    tracer.span(simulator, "generate", "simulator.generate", after_generate)
    tracer.span(simulator.Simulation, "write", "simulator.write")
    tracer.span(streams, "serialize_frame", "streams.serialize")
    tracer.count(streams, "bbox_iou", "streams.soft_nms.iou_calls")
    tracer.count(tracking, "bbox_iou", "tracking.iou_calls")
    tracer.count(metrics, "bbox_iou", "metrics.iou_calls")
    tracer.count(activity, "classify_location", "geometry.classify_location.activity_calls")
    tracer.count(safety, "classify_location", "geometry.classify_location.safety_calls")


def isolate_parse(path: str) -> dict:
    """Time json.loads alone and the full parser on pre-read lines.

    Each is run twice, alternating, and the faster pass is kept.
    """
    from sitewatch.streams import parse_stream

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    body = lines[1:]
    decode_ns = parse_ns = None
    frames = 0
    for _ in range(2):
        start = _clock()
        for line in body:
            json.loads(line)
        elapsed = _clock() - start
        decode_ns = elapsed if decode_ns is None else min(decode_ns, elapsed)
        frames = 0
        start = _clock()
        for _frame in parse_stream(lines):
            frames += 1
        elapsed = _clock() - start
        parse_ns = elapsed if parse_ns is None else min(parse_ns, elapsed)
    return {"frames": frames, "decode_ns": decode_ns, "parse_ns": parse_ns}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("cli", "parse"):
        print(__doc__, file=sys.stderr)
        return 2
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    if mode == "parse":
        summary = isolate_parse(rest[0])
        rc = 0
    else:
        tracer = Tracer()
        install(tracer)
        import sitewatch.cli as cli

        rc = cli.main(rest)
        gc.callbacks.remove(tracer._on_gc)
        summary = tracer.summary()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
