"""Spans around the calls into each layer's public functions.

The tracer wraps the functions listed in ``TRACED`` from outside the
program: it rebinds each name in every module of the package that holds
it, since the modules import one another's functions by name (for
example ``cone_from_generators`` is bound in ``cones``, ``monoids``,
``eigen`` and ``cli``).  A span records its name, start, end, parent span
and job; spans stay in memory until the run writes them out.  The program
itself is not changed, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

PACKAGE = "idempotoric"

TRACED = {
    "lattices": ("hermite_normal_form", "smith_normal_form", "rank", "saturate",
                 "kernel_lattice"),
    "cones": ("cone_from_generators", "enumerate_faces", "is_face", "solve_affine"),
    "monoids": ("idempotents", "toric_envelope"),
    "eigen": ("factor", "primitive_relations", "check_relation_criterion",
              "smallest_idempotent_indices", "power_invariance"),
    "finite": ("validate_table", "greens_classes", "index_period",
               "check_smallest_criterion"),
    "cli": ("main",),
}

# Calls whose input is keyed, to count recomputation within a job.
REPEAT_KEYED = {"eigen.factor", "cones.enumerate_faces", "cones.cone_from_generators"}

# Sizes read off a call's result and summed per span name.
SIZES = {
    "eigen.primitive_relations": (("relations",), lambda out: (len(out),)),
    "cones.enumerate_faces": (("faces", "hasse_edges"),
                              lambda out: (len(out.faces), len(out.hasse_edges))),
    "cones.cone_from_generators": (("facets",), lambda out: (len(out.facets),)),
    "cones.is_face": (("hits",), lambda out: (int(out is not None),)),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, job, name, start_ns, end_ns)
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.calls = Counter()
        self.sizes = defaultdict(Counter)
        self.repeats = Counter()
        self.job = None
        self._stack = []  # [span id, ns covered by child spans]
        self._seen = defaultdict(set)
        self._next_id = 0
        self._bound = []  # (module, attribute, original)

    def begin_job(self, job_id) -> None:
        self.job = job_id
        self._seen.clear()

    def _wrap(self, name, fn):
        keyed = name in REPEAT_KEYED
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                key = repr((args, kwargs))
                if key in self._seen[name]:
                    self.repeats[name] += 1
                else:
                    self._seen[name].add(key)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[1]
                self.spans.append((span_id, parent, self.job, name, start, end))
            if sizes is not None:
                keys, measure = sizes
                for key, value in zip(keys, measure(out)):
                    self.sizes[name][key] += value
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    if mod.__dict__.get(fname) is original:
                        self._bound.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._bound):
            setattr(mod, fname, original)
        self._bound.clear()

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-job figures for every traced name: calls, self and total ms,
        repeat and hit ratios, summed result sizes."""
        out = {}
        for short, names in TRACED.items():
            for fname in names:
                name = f"{short}.{fname}"
                calls = self.calls[name]
                out[f"{name}.calls"] = calls / jobs
                out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / jobs
                out[f"{name}.total_ms"] = self.total_ns[name] / 1e6 / jobs
                if name in REPEAT_KEYED:
                    out[f"{name}.repeat_ratio"] = self.repeats[name] / calls if calls else 0.0
        hits = self.sizes["cones.is_face"]["hits"]
        tried = self.calls["cones.is_face"]
        out["cones.is_face.hit_ratio"] = hits / tried if tried else 0.0
        for name, (keys, _) in SIZES.items():
            for key in keys:
                out[f"{name}.{key}"] = self.sizes[name][key] / jobs
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")

