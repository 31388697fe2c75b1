"""Span tracer for the traced benchmark run.

The tracer wraps module-level functions of ``gapsvt`` under the names their
callers look them up by (``verifier.draw_tape`` is the name the verifier
calls ``core.draw_tape`` through), so the package itself is never edited.
Each wrapped call records one span ``[name, layer, start_ns, end_ns, parent]``
in memory; ``drain`` turns the spans of one cycle into inclusive time, self
time (duration minus the time its child spans cover) and call counts, per
span name and per layer.  Hooks whose layer is ``None`` only count calls:
they sit on functions that are called so often and do so little that a span
would cost more than the work, and their time stays with the caller.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanSummary:
    """One traced cycle, reduced."""

    calls: Counter  # span name -> calls
    inclusive_ns: Counter  # span name -> summed duration
    self_ns: Counter  # span name -> summed self time
    layer_self_ns: Counter  # layer -> summed self time
    pair_calls: Counter  # (parent span name, child span name) -> calls
    counts: dict  # counters and sizes recorded by hooks


class Tracer:
    def __init__(self, hooks):
        """``hooks``: (module, attribute, span name, layer or None, on_return)."""
        self.hooks = hooks
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    @contextmanager
    def span(self, name, layer):
        """A span around the benchmark's own code."""
        rec = [name, layer, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, fn, name, layer, on_return):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter_ns, self.counts

        def traced(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Install every hook for the duration of the block, then restore the
        original functions."""
        saved = []
        try:
            for module, attr, name, layer, on_return in self.hooks:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                hook = self._count(fn, name) if layer is None else self._wrap(fn, name, layer, on_return)
                setattr(module, attr, hook)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def drain(self) -> SpanSummary:
        """Reduce and forget the spans and counts recorded so far."""
        if self.stack:
            raise RuntimeError("drain() called inside an open span")
        spans = self.spans
        durations = [rec[3] - rec[2] for rec in spans]
        self_ns = list(durations)
        for rec, dur in zip(spans, durations):
            if rec[4] >= 0:
                self_ns[rec[4]] -= dur
        calls, inclusive, own, layer_self, pairs = Counter(), Counter(), Counter(), Counter(), Counter()
        for rec, dur, s in zip(spans, durations, self_ns):
            name = rec[0]
            calls[name] += 1
            inclusive[name] += dur
            own[name] += s
            layer_self[rec[1]] += s
            parent = spans[rec[4]][0] if rec[4] >= 0 else None
            pairs[(parent, name)] += 1
        summary = SpanSummary(calls, inclusive, own, layer_self, pairs, dict(self.counts))
        spans.clear()
        self.counts.clear()
        return summary


def kernel_sizes(counts, args, result):
    """Rows and computed bytes of one array-kernel call, from its arrays."""
    eta0, per_query = args[4], args[5]
    status, gaps = result
    rows = status.shape[0]
    inputs = per_query if isinstance(per_query, tuple) else (per_query,)
    nbytes = sum(getattr(a, "nbytes", 8) for a in (eta0, *inputs, status, gaps))
    counts["vectorized.kernel_calls"] = counts.get("vectorized.kernel_calls", 0) + 1
    counts["vectorized.kernel_rows"] = counts.get("vectorized.kernel_rows", 0) + rows
    counts["vectorized.kernel_max_rows"] = max(counts.get("vectorized.kernel_max_rows", 0), rows)
    counts["vectorized.kernel_bytes_computed"] = counts.get("vectorized.kernel_bytes_computed", 0) + nbytes


def gapsvt_hooks():
    """Every layer boundary the four workloads cross, named by the layer that
    does the work.  Each function is hooked under the module attribute its
    caller resolves at call time."""
    from gapsvt import alignments, mechanisms, verifier

    V, M, A = verifier, mechanisms, alignments
    return [
        (V, "run_trial_suites", "verifier.run_trial_suites", "verifier", None),
        (V, "trial_rng", "verifier.trial_rng", "verifier", None),
        (V, "generate_workload", "verifier.generate_workload", "verifier", None),
        (V, "_structural_trial", "verifier.structural_trial", "verifier", None),
        (V, "check_dp_exact", "verifier.check_dp_exact", "verifier", None),
        (V, "enumerate_output_dist", "verifier.enumerate_output_dist", "verifier", None),
        (V, "max_privacy_loss", "verifier.max_privacy_loss", "verifier", None),
        (V, "mc_output_dist", "verifier.mc_output_dist", "verifier", None),
        (V, "_draw_block", "verifier.draw_block", "verifier", None),
        (V, "draw_tape", "core.draw_tape", "core", None),
        (V, "check_workload", "core.check_workload_calls", None, None),
        (M, "check_workload", "core.check_workload_calls", None, None),
        (V, "run_mechanism", "mechanisms.run", "mechanisms", None),
        (V, "svt_gap_run", "mechanisms.run", "mechanisms", None),
        (V, "svt_classic_run", "mechanisms.run", "mechanisms", None),
        (V, "align_svt_gap", "alignments.align", "alignments", None),
        (V, "align_adaptive", "alignments.align", "alignments", None),
        (V, "alignment_cost", "alignments.cost", "alignments", None),
        (V, "cost_closed_form", "alignments.closed_form", "alignments", None),
        (V, "shift_for_output", "alignments.shift", "alignments", None),
        (A, "shift_for_output", "alignments.shift", "alignments", None),
        (V, "index_sets", "alignments.index_sets", "alignments", None),
        (V, "run_status_gaps", "vectorized.kernel", "vectorized", kernel_sizes),
        (V, "encode_int_rows", "vectorized.encode", "vectorized", None),
        (V, "decode_row", "vectorized.decode_calls", None, None),
        (V, "canonical_rows", "vectorized.canonical_rows", "vectorized", None),
    ]

