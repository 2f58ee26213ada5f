"""Span tracing of obliq's public functions, installed from outside the package.

`install` replaces every public function of every obliq module, in each
module namespace that bound it by name, with a wrapper that records a span
(id, name, start, end, parent id, thread id, tag).  Selected methods are
patched on their classes.  The parent stack is thread-local; the wrapper of
`analysis._parallel_map` carries the caller's span into its worker threads so
that restarts and scan cells keep their parent.  Spans stay in memory until
`write_jsonl` is called at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from array import array

MODULES = ("qmath", "encodings", "protocol", "povm", "hardening", "gf2", "analysis", "cli")

# methods patched on their classes; spans are named "<module>.<method>"
METHODS = {
    "encodings": {"EncodingFamily": ("factors", "encoder", "encode_column", "vec_times_encoder", "descriptor")},
    "protocol": {
        "MeasurementBasis": ("apply", "row"),
        "SessionTranscript": ("to_dict", "to_json"),
    },
    "analysis": {"BoundReport": ("to_dict", "to_json")},
}

# spans of these functions carry a small integer tag read from the call
TAGS = {
    "analysis.gain_from_params": lambda args, kwargs: args[1].n,
    "qmath.haar_unitaries": lambda args, kwargs: args[1],
}

_FIELDS = 7  # sid, name id, start, end, parent, thread id, tag


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._data = array("d")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        tag_of = TAGS.get(name)
        stack_of = self._stack
        next_id = self._ids.__next__
        extend = self._data.extend
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tag = tag_of(args, kwargs) if tag_of is not None else -1
                extend((sid, nid, t0, t1, parent, ident(), tag))

        return traced

    def carry_parent(self, parallel_map):
        """Wrap a map-over-threads so each worker starts under the caller's span."""
        stack_of = self._stack

        @functools.wraps(parallel_map)
        def carried(fn, items):
            caller = stack_of()
            parent = caller[-1] if caller else 0

            def run(item):
                stack = stack_of()
                seeded = not stack  # a fresh pool thread; inline calls keep their stack
                if seeded:
                    stack.append(parent)
                try:
                    return fn(item)
                finally:
                    if seeded:
                        stack.pop()

            return parallel_map(run, items)

        return carried

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Patch every public obliq function in every namespace that holds it.

        `uninstall` restores the originals.
        """
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = [package] + list(modules.values())
        replaced = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                replaced[obj] = self.wrap(obj, f"{mod_name}.{attr}")
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._set(ns, attr, replaced[obj])
        for mod_name, classes in METHODS.items():
            mod = modules[mod_name]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(vars(cls)[meth], f"{mod_name}.{meth}"))
        analysis = modules["analysis"]
        self._set(analysis, "_parallel_map", self.carry_parent(analysis._parallel_map))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------

    def spans(self):
        """Every recorded span, as a tuple, in the order the spans ended."""
        d = self._data
        out = []
        for base in range(0, len(d), _FIELDS):
            sid, nid, t0, t1, parent, tid, tag = d[base : base + _FIELDS]
            out.append((int(sid), self.names[int(nid)], t0, t1, int(parent), int(tid), int(tag)))
        return out

    def write_jsonl(self, path: str, spans) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, tid, tag in spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "thread": tid}
                if tag >= 0:
                    rec["tag"] = tag
                fh.write(json.dumps(rec))
                fh.write("\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """Per-name calls, busy_s (summed inclusive time) and self_s.

    self_s is busy_s minus the part of each span's interval covered by its
    child spans, with concurrent children on worker threads counted once.
    """
    children = {}
    for sid, name, t0, t1, parent, tid, tag in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    stats = {}
    for sid, name, t0, t1, parent, tid, tag in spans:
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = t1 - t0
        kids = children.get(sid)
        covered = 0.0
        if kids:
            covered = union_length((max(lo, t0), min(hi, t1)) for lo, hi in kids if hi > t0 and lo < t1)
        s["calls"] += 1
        s["busy_s"] += dur
        s["self_s"] += dur - covered
    return stats


# ---------------------------------------------------------------------------
# per-layer metrics: name -> unit; values are per traced pass

_PER_PASS = (
    ("qmath.haar_unitaries", ("busy_s",)),
    ("qmath.random_states", ("busy_s",)),
    ("qmath.entropy_rows", ("calls", "busy_s")),
    ("qmath.kron_apply", ("busy_s",)),
    ("qmath.vec_kron_apply", ("busy_s",)),
    ("qmath.rotation_index_map", ("calls", "busy_s")),
    ("encodings.build_family", ("calls", "busy_s")),
    ("encodings.encoder", ("calls", "busy_s")),
    ("encodings.encode_column", ("busy_s",)),
    ("encodings.vec_times_encoder", ("busy_s",)),
    ("protocol.run_session", ("calls", "busy_s", "self_s")),
    ("protocol.outcome_distribution", ("busy_s",)),
    ("protocol.posterior", ("busy_s",)),
    ("protocol.honest_leakage", ("busy_s",)),
    ("povm.random_povm", ("busy_s",)),
    ("povm.validate_povm", ("busy_s",)),
    ("povm.povm_posterior", ("calls", "busy_s")),
    ("hardening.masked_session", ("busy_s",)),
    ("hardening.xor_split", ("busy_s",)),
    ("hardening.xor_guess_attack", ("busy_s",)),
    ("gf2.mul", ("calls", "busy_s")),
    ("gf2.inverse", ("calls",)),
    ("analysis.max_leakage", ("calls", "busy_s")),
    ("analysis.gain_from_params", ("calls", "busy_s")),
    ("analysis.unitary_from_params", ("busy_s",)),
    ("analysis.verify_theorem1", ("busy_s",)),
    ("analysis.concentration_experiment", ("busy_s",)),
    ("analysis.projective_gain_audit", ("busy_s",)),
    ("analysis.povm_gain_audit", ("busy_s",)),
    ("analysis.explore_condition_2prime", ("busy_s",)),
    ("cli.main", ("calls", "self_s")),
)
GAIN_DIMS = (4, 8, 16, 64, 256)

PER_LAYER = {f"{name}.{field}": ("count" if field == "calls" else "s") for name, fields in _PER_PASS for field in fields}
PER_LAYER["qmath.haar_unitaries.matrices"] = "count"
PER_LAYER.update({f"analysis.gain_from_params.ms_per_call.n{n}": "ms" for n in GAIN_DIMS})
PER_LAYER["analysis.gain_evals_per_s"] = "1/s"
PER_LAYER["analysis.thread_concurrency"] = "ratio"
PER_LAYER["analysis.leak_bits"] = "bits"
PER_LAYER["process.cpu_s"] = "s"
PER_LAYER["process.cpu_per_wall"] = "ratio"


def layer_metrics(spans, passes: int, cpu_s: float, wall_s: float, leak_bits: float) -> dict:
    """Every per-layer metric from the spans of `passes` traced passes.

    Counts and times are means per pass; a layer the workload never enters
    reads 0.
    """
    stats = aggregate(spans)
    values = {}
    for name, fields in _PER_PASS:
        s = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in fields:
            values[f"{name}.{field}"] = s[field] / passes
    values["qmath.haar_unitaries.matrices"] = (
        sum(tag for _, name, _, _, _, _, tag in spans if name == "qmath.haar_unitaries") / passes
    )
    by_dim = {}
    for _, name, t0, t1, _, _, tag in spans:
        if name == "analysis.gain_from_params":
            by_dim.setdefault(tag, []).append(t1 - t0)
    for n in GAIN_DIMS:
        durations = by_dim.get(n, [])
        values[f"analysis.gain_from_params.ms_per_call.n{n}"] = 1e3 * sum(durations) / len(durations) if durations else 0.0
    search_wall = union_length((t0, t1) for _, name, t0, t1, _, _, _ in spans if name == "analysis.max_leakage")
    gain = stats.get("analysis.gain_from_params", {"calls": 0, "busy_s": 0.0})
    values["analysis.gain_evals_per_s"] = gain["calls"] / search_wall if search_wall else 0.0
    values["analysis.thread_concurrency"] = gain["busy_s"] / search_wall if search_wall else 0.0
    values["analysis.leak_bits"] = leak_bits
    values["process.cpu_s"] = cpu_s / passes
    values["process.cpu_per_wall"] = cpu_s / wall_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def root_coverage(spans, main_thread: int) -> float:
    """Summed duration of the main thread's root spans (the calls a pass times)."""
    return sum(t1 - t0 for _, _, t0, t1, parent, tid, _ in spans if parent == 0 and tid == main_thread)
