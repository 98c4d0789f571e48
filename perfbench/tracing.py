"""Spans around calls into hdlrt's public functions, recorded from outside
the library.

hdlrt modules import each other's functions by name, so a call is traced
by replacing that name in the namespace of the calling module for the
duration of a ``Tracer.installed()`` block.  Each span keeps its name,
start, end and the index of the enclosing span; spans stay in memory and
are reduced to metrics after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

# (calling module, attribute, span name): the span name is the module that
# defines the function, so a function traced in several callers is one layer.
WRAPPED = (
    ("hdlrt.cli", "main", "cli.main"),
    ("hdlrt.cli", "parse_csv", "cli.parse_csv"),
    ("hdlrt.cli", "block_test", "blocktest.block_test"),
    ("hdlrt.cli", "block_constants", "blocktest.block_constants"),
    ("hdlrt.cli", "run_level", "montecarlo.run_level"),
    ("hdlrt.cli", "run_power_curve", "montecarlo.run_power_curve"),
    ("hdlrt.cli", "run_histogram", "montecarlo.run_histogram"),
    ("hdlrt.blocktest", "log_vn", "blocktest.log_vn"),
    ("hdlrt.blocktest", "block_constants", "blocktest.block_constants"),
    ("hdlrt.blocktest", "log_det_incremental", "linalg.log_det_incremental"),
    ("hdlrt.blocktest", "log_det_cholesky", "linalg.log_det_cholesky"),
    ("hdlrt.eqcov", "log_det_incremental", "linalg.log_det_incremental"),
    ("hdlrt.eqcov", "log_det_cholesky", "linalg.log_det_cholesky"),
    ("hdlrt.montecarlo", "run_power", "montecarlo.run_power"),
    ("hdlrt.montecarlo", "ks_distance_to_normal", "montecarlo.ks_distance_to_normal"),
    ("hdlrt.montecarlo", "block_constants", "blocktest.block_constants"),
    ("hdlrt.montecarlo", "correlation_constants", "blocktest.correlation_constants"),
    ("hdlrt.montecarlo", "eqcov_constants", "eqcov.eqcov_constants"),
    ("hdlrt.montecarlo", "log_vn", "blocktest.log_vn"),
    ("hdlrt.montecarlo", "log_det_correlation", "blocktest.log_det_correlation"),
    ("hdlrt.montecarlo", "log_lambda2", "eqcov.log_lambda2"),
    ("hdlrt.montecarlo", "GroupedSample", "eqcov.GroupedSample"),
    ("hdlrt.montecarlo", "compound_symmetry_sqrt", "linalg.compound_symmetry_sqrt"),
    ("hdlrt.montecarlo", "entry_generator", "sampling.entry_generator"),
    ("hdlrt.montecarlo", "draw_entries", "sampling.draw_entries"),
    ("hdlrt.montecarlo", "apply_root", "sampling.apply_root"),
)


class Tracer:
    """Collects the spans of one traced replay."""

    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1), filled on exit
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.errors: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name.split(".")[0]] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every name in WRAPPED by its traced version, and restore
        the originals on exit."""
        saved = []
        try:
            for module_name, attr, span in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reductions -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, names: set[str]) -> tuple[float, float]:
        """(total, self) seconds of the spans named in ``names``; self time
        is a span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = own = 0.0
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name in names:
                total += end - start
                own += end - start - child_time[idx]
        return total, own

    def replication_times(self, statistic: str) -> list[float]:
        """Seconds from each replication's ``entry_generator`` call to the end
        of its ``statistic`` call, both direct children of one run span."""
        open_at: dict[int, float] = {}
        reps = []
        for name, start, end, parent in self.spans:
            if name == "sampling.entry_generator":
                open_at[parent] = start
            elif name == statistic and parent in open_at:
                reps.append(end - open_at.pop(parent))
        return reps
