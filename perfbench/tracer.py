"""In-memory span tracer for the traced benchmark pass.

The tracer wraps public functions of the nhsbox modules from the outside:
the library itself carries no instrumentation.  Each wrapper records a
span (id, parent id, group, start, end) and adds its self time (duration
minus the time of wrapped children) to its group.  Spans stay in memory
and are written out once, when the repetition ends.

A wrapped name is rebound wherever it is bound: in the defining module
and in every module that imported it by name (``verifier`` binds
``uniformity_batch`` and ``boomerang_row`` at import, ``spectra`` binds
``nh_table``).  Methods and properties are patched on their class.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.groups = []  # group name per group id
        self._group_ids = {}
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.peak_bytes = {}
        self.task_ms = []
        self._stack = []  # [span id, time spent in wrapped children]
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_group = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _group(self, name):
        gid = self._group_ids.get(name)
        if gid is None:
            gid = self._group_ids[name] = len(self.groups)
            self.groups.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return gid

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, group, fn, *args, label=None, note=None, memory=False, **kwargs):
        """Run fn(*args, **kwargs) inside one span of ``group``."""
        if not self.active:
            return fn(*args, **kwargs)
        name = label(args) if label else group
        gid = self._group(name)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        own_malloc = memory and not tracemalloc.is_tracing()
        if own_malloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if own_malloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_group.append(gid)
            self.span_start.append(start)
            self.span_end.append(end)
        if note is not None:
            note(self, args, result, duration)
        return result

    def wrap(self, fn, group, **options):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(group, fn, *args, **options, **kwargs)

        return traced

    def install(self, targets):
        """Wrap each (owner, attribute, group, options) target.

        A module-level function is rebound in every loaded nhsbox module
        that holds the same object; a method or property is patched on its
        class.  Benchmark code calls through module attributes, so it sees
        the wrapped names too.
        """
        for owner, attr, group, options in targets:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                setattr(owner, attr, property(self.wrap(original.fget, group, **options)))
                continue
            wrapped = self.wrap(original, group, **options)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name == "nhsbox" or name.startswith("nhsbox."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def write(self, path):
        """Write every span recorded (in end order) as a compressed .npz."""
        np.savez_compressed(
            path,
            groups=np.array(self.groups),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            group=np.frombuffer(self.span_group, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# the wrapped boundaries
# ---------------------------------------------------------------------------

CLAIMS_TRACED = ("THM2_DELTA5", "SPEC_F21", "BOOM_F21", "LEMMA_SUITE")


def _note_u_count(tracer, args, result, duration):
    tracer.count("nh_family.uniformity_batch.u_count", len(args[2]))


def _note_task(tracer, args, rows, duration):
    tracer.task_ms.append(duration * 1000.0)
    tracer.count("verifier.tasks", 1)
    tracer.count("verifier.exception_rows", sum(r.status == "exception" for r in rows))


def targets():
    """Every wrapped boundary, grouped by the layer metric it feeds.

    The scalar Field.add/sub/mul/... are deliberately not wrapped: they run
    millions of times inside poly_divmod and CaseAnalysis, and their time
    shows as the self time of the caller.
    """
    from nhsbox import characters, cli, gf, nh_family, spectra, verifier

    out = [(gf, "build_field", "gf.build_field", {})]
    for name in ("add_vec", "sub_vec", "neg_vec", "mul_vec", "pow_vec", "eta_vec"):
        out.append((gf.Field, name, "gf.vec_ops", {}))
    out += [
        (gf.Field, "sqrt_table", "gf.lazy_tables", {}),
        (gf.Field, "cij_partition", "gf.lazy_tables", {}),
        (nh_family, "uniformity_batch", "nh_family.uniformity_batch", {"note": _note_u_count}),
    ]
    for name in ("derivative_row_parts", "derivative_row_counts", "nh_table"):
        out.append((nh_family, name, "nh_family.derivative_rows", {}))
    for name in ("__init__", "a_counts", "a_counts_all", "delta_row"):
        out.append((nh_family.CaseAnalysis, name, "nh_family.case_analysis", {}))
    for name in ("structural_lemmas_hold", "structural_lemma_checks", "aij_counts_closed"):
        out.append((nh_family, name, "nh_family.case_analysis", {}))
    out += [
        (nh_family, "aij_counts_brute", "nh_family.oracles", {}),
        (spectra, "differential_spectrum", "spectra.differential_spectrum", {}),
        (spectra, "boomerang_row", "spectra.boomerang_row", {"memory": True}),
    ]
    for name in ("closed_form_spectrum_F21", "cubic_character_sum", "boomerang_case_counts_F21"):
        out.append((spectra, name, "spectra.closed_forms", {}))
    out.append((characters, "quartic_has_factor", "characters.quartic_has_factor", {}))
    for name in (
        "weil_sum_brute",
        "weil_sum_quadratic_closed",
        "conic_count_closed",
        "conic_count_brute",
        "jacobsthal_sum",
        "quartic_criteria",
    ):
        out.append((characters, name, "characters.charsums", {}))
    out.append(
        (
            verifier,
            "verify_claim",
            "verifier.claim",
            {"label": lambda args: f"verifier.claim.{args[0]}", "note": _note_task},
        )
    )
    for name in ("to_csv", "to_json", "to_text"):
        out.append((verifier.SweepReport, name, "verifier.render", {}))
    out.append((cli, "main", "cli.main", {}))
    return out


def _task_percentiles(task_ms):
    """p50, and the tail: the highest percentile with ten tasks beyond it."""
    values = sorted(task_ms)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0
    p50 = float(np.percentile(values, 50))
    if n <= 10:
        return p50, values[-1], 100.0
    return p50, values[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer):
    """Per-layer aggregates of one traced repetition (all groups, zeros kept)."""
    self_s, calls = tracer.self_s, tracer.calls
    m = {}
    for group in (
        "gf.build_field",
        "gf.vec_ops",
        "spectra.differential_spectrum",
        "spectra.boomerang_row",
        "characters.quartic_has_factor",
    ):
        m[f"{group}.calls"] = calls.get(group, 0)
    for group in (
        "gf.build_field",
        "gf.vec_ops",
        "gf.lazy_tables",
        "nh_family.uniformity_batch",
        "nh_family.derivative_rows",
        "nh_family.case_analysis",
        "nh_family.oracles",
        "spectra.differential_spectrum",
        "spectra.boomerang_row",
        "spectra.closed_forms",
        "characters.quartic_has_factor",
        "characters.charsums",
        "verifier.render",
        "cli.main",
    ):
        m[f"{group}.self_s"] = self_s.get(group, 0.0)
    for claim in CLAIMS_TRACED:
        m[f"verifier.claim.{claim}.self_s"] = self_s.get(f"verifier.claim.{claim}", 0.0)
    m["spectra.boomerang_row.peak_mb"] = tracer.peak_bytes.get("spectra.boomerang_row", 0) / 2**20
    for name in (
        "nh_family.uniformity_batch.u_count",
        "verifier.tasks",
        "verifier.exception_rows",
    ):
        m[name] = tracer.counters.get(name, 0)
    p50, tail, tail_pct = _task_percentiles(tracer.task_ms)
    m["verifier.task_ms.p50"] = p50
    m["verifier.task_ms.tail"] = tail
    m["verifier.task_ms.tail_pct"] = tail_pct
    m["verifier.task_ms.count"] = len(tracer.task_ms)
    return m
