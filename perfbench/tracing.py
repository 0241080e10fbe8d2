"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the ``wishart_esf`` modules
(and ``numpy.linalg.det``, which only the Monte Carlo oracle calls) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the run ends.  A layer's
self time is its spans' durations minus the time covered by their direct
child spans.  Counts are kept at the same boundaries.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

IMPORT_REPEATS = 7

# (metric name, unit), in the order they are reported
PER_LAYER = (
    ("umbra.mul.calls", "count"),
    ("umbra.mul.term_pairs", "count"),
    ("umbra.mul.terms_kept", "count"),
    ("umbra.mul.kept_ratio", "ratio"),
    ("umbra.mul.self_ms", "ms"),
    ("umbra.evaluate.calls", "count"),
    ("umbra.evaluate.terms_in", "count"),
    ("umbra.evaluate.terms_out", "count"),
    ("umbra.evaluate.self_ms", "ms"),
    ("combinatorics.complete_bell.calls", "count"),
    ("combinatorics.complete_bell.partitions", "count"),
    ("combinatorics.complete_bell.self_ms", "ms"),
    ("matrix.matpow.calls", "count"),
    ("matrix.matpow.self_ms", "ms"),
    ("wishart.expected_esf_umbral.self_ms", "ms"),
    ("wishart.expected_esf_closed_form.self_ms", "ms"),
    ("linalg.det.calls", "count"),
    ("linalg.det.self_ms", "ms"),
    ("linalg.inverse.calls", "count"),
    ("linalg.inverse.self_ms", "ms"),
    ("linalg.principal_minor_sum.calls", "count"),
    ("linalg.principal_minor_sum.self_ms", "ms"),
    ("linalg.rational_eigenvalues.self_ms", "ms"),
    ("linalg.power_sums.self_ms", "ms"),
    ("linalg.singular_values.calls", "count"),
    ("linalg.singular_values.self_ms", "ms"),
    ("linalg.sym_inv_sqrt.calls", "count"),
    ("linalg.sym_inv_sqrt.self_ms", "ms"),
    ("oracles.mc_expected_esf.self_ms", "ms"),
    ("oracles.numpy_det.calls", "count"),
    ("oracles.numpy_det.ms", "ms"),
    ("oracles.mc.samples_per_s", "1/s"),
    ("oracles.mc.retained_bytes", "bytes"),
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _partition_count(i: int) -> int:
    """Number of integer partitions of ``i``: the terms of the complete Bell
    polynomial of order ``i``."""
    table = [1] + [0] * i
    for part in range(1, i + 1):
        for total in range(part, i + 1):
            table[total] += table[total - part]
    return table[i]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, targets: list[tuple], counter=None) -> None:
        """Replace ``getattr(owner, attr)`` for every ``(owner, attr)`` in
        ``targets`` (all bound to the same function) by one recording
        wrapper.  ``counter(counts, args, kwargs, result)`` adds counts.
        A target the program no longer has raises, so a renamed layer cannot
        read as 0 calls and 0 ms."""
        original = getattr(*targets[0])
        if any(getattr(owner, attr) is not original for owner, attr in targets):
            raise RuntimeError(f"{name}: targets are bound to different functions")
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        for owner, attr in targets:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the layers of the ``wishart_esf`` modules already imported."""
        mods = sys.modules
        umbra = mods["wishart_esf.umbra"]
        wishart = mods["wishart_esf.wishart"]
        linalg = mods["wishart_esf.linalg"]
        poly = umbra.UmbralPolynomial

        def count_mul(counts, args, kwargs, result):
            left, right = args[0], poly.coerce(args[1] if len(args) > 1 else kwargs["other"])
            counts["umbra.mul.term_pairs"] += len(left.terms()) * len(right.terms())
            counts["umbra.mul.terms_kept"] += len(result.terms())

        def count_evaluate(counts, args, kwargs, result):
            counts["umbra.evaluate.terms_in"] += len(poly.coerce(args[0]).terms())
            counts["umbra.evaluate.terms_out"] += len(result.terms())

        def count_bell(counts, args, kwargs, result):
            counts["combinatorics.complete_bell.partitions"] += _partition_count(len(args[0]))

        self.wrap("umbra.mul", [(poly, "mul")], count_mul)
        self.wrap("umbra.evaluate", [(umbra, "evaluate"), (wishart, "evaluate")], count_evaluate)
        self.wrap(
            "combinatorics.complete_bell",
            [(mods["wishart_esf.combinatorics"], "complete_bell"), (wishart, "complete_bell")],
            count_bell,
        )
        self.wrap("matrix.matpow", [(mods["wishart_esf.matrix"].UmbralMatrix, "matpow")])
        for fn in ("expected_esf_umbral", "expected_esf_closed_form"):
            self.wrap(f"wishart.{fn}", [(wishart, fn)])
        for fn in (
            "det",
            "inverse",
            "principal_minor_sum",
            "rational_eigenvalues",
            "power_sums",
            "singular_values",
            "sym_inv_sqrt",
        ):
            self.wrap(f"linalg.{fn}", [(linalg, fn)])

        def count_mc(counts, args, kwargs, result):
            samples = args[2] if len(args) > 2 else kwargs["samples"]
            counts["oracles.mc.samples"] += samples
            # the per-sample value array mc_expected_esf holds: 8 bytes a sample
            counts["oracles.mc.retained_bytes"] = max(counts["oracles.mc.retained_bytes"], 8 * samples)

        self.wrap("oracles.mc_expected_esf", [(mods["wishart_esf.oracles"], "mc_expected_esf")], count_mc)
        if "numpy" in mods:
            self.wrap("oracles.numpy_det", [(mods["numpy"].linalg, "det")])
        if "wishart_esf.cli" in mods:
            self.wrap("cli.main", [(mods["wishart_esf.cli"], "main")])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Calls, total ms and self ms per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) / 1e6
            own[name] += (end - start - child_ns[index]) / 1e6
        return calls, total, own

    def metrics(self, traced, plain, cli_import_ms: float) -> dict:
        """Per-layer metrics of the traced rounds; ``plain`` holds the same
        rounds run untraced, alternating with them."""
        calls, total, own = self.layer_times()
        values: dict[str, float] = dict(self.counts)
        for name, n in calls.items():
            values[f"{name}.calls"] = n
            values[f"{name}.self_ms"] = own[name]
        pairs = values.get("umbra.mul.term_pairs", 0)
        values["umbra.mul.kept_ratio"] = values.get("umbra.mul.terms_kept", 0) / pairs if pairs else 0.0
        values["oracles.numpy_det.ms"] = total.get("oracles.numpy_det", 0.0)
        mc_seconds = total.get("oracles.mc_expected_esf", 0.0) / 1e3
        values["oracles.mc.samples_per_s"] = values.get("oracles.mc.samples", 0) / mc_seconds if mc_seconds else 0.0
        values["cli.import_ms"] = cli_import_ms
        values["trace.overhead_pct"] = 100 * (traced.wall_seconds / plain.wall_seconds - 1)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: Path) -> None:
        spans = {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}
        path.write_text(json.dumps(spans, separators=(",", ":")))


def cli_import_ms(env: dict) -> float:
    """Median time of a fresh interpreter importing ``wishart_esf.cli`` minus
    the median time of a bare interpreter, interleaved."""
    bare, loaded = [], []
    for _ in range(IMPORT_REPEATS):
        for code, out in (("pass", bare), ("import wishart_esf.cli", loaded)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out.append(time.perf_counter() - t0)
    return 1000 * (statistics.median(loaded) - statistics.median(bare))
