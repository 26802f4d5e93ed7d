"""Call spans for the traced run, and the per-layer metrics built from them.

``Tracer.install`` wraps the public functions of the seven knotlab
modules (their ``__all__`` plus what the package root re-exports from
them) and a few methods that carry per-layer counts.  A wrapper replaces
the original in every namespace that bound it: ``family`` binds ``jones``
from ``diagram`` at import, and the wrapper must sit there too.  Each
call records one span (name, parent span, start and end in
``perf_counter_ns``).  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import re
import statistics
import sys
import time
from array import array

import knotlab
from knotlab import cli, diagram, family, laurent, morse, seifert, sequiv

LAYERS = {"laurent": laurent, "seifert": seifert, "sequiv": sequiv,
          "diagram": diagram, "morse": morse, "family": family, "cli": cli}

# methods that carry a per-layer count: (class, attribute, span name)
METHODS = [
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (seifert.SeifertMatrix, "__post_init__", "seifert.matrix_build"),
] + [(morse.MorseBuilder, name, f"morse.{name}")
     for name in ("cap", "cup", "crossing", "finish", "to_pd", "linking_number")]

# spans whose arguments or result size the call: name -> tag(args, result)
TAGS = {
    "diagram.kauffman_bracket": lambda args, result: len(args[0].crossings),
    "sequiv.brute_force_congruence":
        lambda args, result: (args[0].size, args[2], result is not None),
    "seifert.alexander": lambda args, result: args[0].genus,
}


def public_functions():
    """(span name, function) for every public function of the layers."""
    exported = set(knotlab.__all__)
    for short, mod in LAYERS.items():
        names = set(getattr(mod, "__all__", ()))
        names |= {n for n in exported if getattr(getattr(knotlab, n), "__module__", None) == mod.__name__}
        for name in sorted(names):
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{short}.{name}", obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tags: dict[int, object] = {}
        self.max_terms = 0
        self.max_coeff_bits = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tag = TAGS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, tags, clock = self._stack, self.tags, time.perf_counter_ns
        probe = self._probe_poly if name != "laurent.mul" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, result)
            if probe is not None and isinstance(result, laurent.LaurentPoly):
                probe(result)
            return result

        return traced

    def _probe_poly(self, poly) -> None:
        coeffs = [c for _, c in poly.items()]
        self.max_terms = max(self.max_terms, len(coeffs))
        if coeffs:
            self.max_coeff_bits = max(self.max_coeff_bits, max(abs(c) for c in coeffs).bit_length())

    def install(self) -> None:
        """Wrap every public function in every knotlab namespace that binds
        it, and the METHODS."""
        wrapped = {fn: self._wrap(name, fn) for name, fn in public_functions()}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "knotlab" or n.startswith("knotlab.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._undo.append((ns, attr, val))
                    setattr(ns, attr, wrapped[val])
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-pass summaries --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; call before a traced pass."""
        self.max_terms = self.max_coeff_bits = 0
        return len(self.start)

    def layer_metrics(self, lo: int) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since ``mark()``."""
        hi = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        spans: dict[str, list[int]] = {}
        for i in range(lo, hi):
            name = self.names[self.name_of[i]]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur[i - lo] - child[i - lo]
            # a call that raised has no tag
            if i in self.tags or name == "family.paper_report":
                spans.setdefault(name, []).append(i)

        def n(*names):
            return sum(calls.get(x, 0) for x in names)

        def ms(*names):
            return sum(self_ns.get(x, 0) for x in names) / 1e6

        def dur_ms(i):
            return dur[i - lo] / 1e6

        bracket = spans.get("diagram.kauffman_bracket", [])
        crossings = sum(self.tags[i] for i in bracket)
        oracle = spans.get("sequiv.brute_force_congruence", [])
        oracle_2x2 = [dur_ms(i) for i in oracle if self.tags[i][0] == 2]
        alexander_g7 = [dur_ms(i) for i in spans.get("seifert.alexander", []) if self.tags[i] == 7]
        morse_names = [x for x in calls if x.startswith("morse.")]
        return {
            "diagram.bracket_calls": len(bracket),
            "diagram.bracket_self_ms": ms("diagram.kauffman_bracket"),
            "diagram.bracket_crossings": crossings,
            "diagram.bracket_us_per_crossing":
                ms("diagram.kauffman_bracket") * 1000 / crossings if crossings else 0.0,
            "diagram.bracket_max_ms": max((dur_ms(i) for i in bracket), default=0.0),
            "diagram.validate_calls": n("diagram.validate"),
            "diagram.validate_self_ms": ms("diagram.validate"),
            "diagram.jones_self_ms": ms("diagram.jones", "diagram.jones_q"),
            "sequiv.oracle_calls": len(oracle),
            "sequiv.oracle_self_ms": ms("sequiv.brute_force_congruence"),
            "sequiv.oracle_2x2_p50_ms": statistics.median(oracle_2x2) if oracle_2x2 else 0.0,
            "sequiv.oracle_4x4_ms": sum(dur_ms(i) for i in oracle if self.tags[i][0] == 4),
            "sequiv.oracle_candidates": sum((2 * self.tags[i][1] + 1) ** (self.tags[i][0] ** 2)
                                            for i in oracle),
            "sequiv.oracle_witness_ratio":
                sum(1 for i in oracle if self.tags[i][2]) / len(oracle) if oracle else 0.0,
            "sequiv.decide_calls": n("sequiv.decide_first_sequiv"),
            "sequiv.decide_self_ms": ms("sequiv.decide_first_sequiv"),
            "sequiv.verify_calls": n("sequiv.verify_certificate"),
            "sequiv.verify_self_ms": ms("sequiv.verify_certificate"),
            "seifert.alexander_calls": n("seifert.alexander"),
            "seifert.alexander_self_ms": ms("seifert.alexander"),
            "seifert.alexander_g7_ms": statistics.median(alexander_g7) if alexander_g7 else 0.0,
            "seifert.int_det_calls": n("seifert.int_det"),
            "seifert.int_det_self_ms": ms("seifert.int_det"),
            "seifert.matrix_builds": n("seifert.matrix_build"),
            "seifert.signature_self_ms": ms("seifert.signature"),
            "laurent.mul_calls": n("laurent.mul"),
            "laurent.mul_self_ms": ms("laurent.mul"),
            "laurent.max_terms": self.max_terms,
            "laurent.max_coeff_bits": self.max_coeff_bits,
            "morse.tiles": n("morse.cap", "morse.cup", "morse.crossing"),
            "morse.self_ms": ms(*morse_names),
            "morse.linking_self_ms": ms("morse.linking_number"),
            "family.lambda_diagram_self_ms": ms("family.lambda_diagram"),
            "family.seifert_by_linking_self_ms": ms("family.seifert_by_linking"),
            "family.paper_report_ms": sum((dur_ms(i) for i in spans.get("family.paper_report", [])), 0.0),
            "cli.main_calls": n("cli.main"),
            "cli.main_self_ms": ms("cli.main"),
        }


LAYER_UNITS = {
    "calls": "count", "crossings": "count", "candidates": "count", "builds": "count",
    "tiles": "count", "terms": "count", "bits": "bits", "ratio": "ratio",
    "crossing": "us", "pct": "%",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off the last word of its name."""
    return LAYER_UNITS.get(re.split(r"[._]", metric)[-1], "ms")
