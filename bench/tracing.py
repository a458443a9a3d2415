"""Spans around public calls into amplecones, recorded from outside.

The tracer swaps module attributes (and ``PolyhedralCone.__init__``) for
timing wrappers while it is installed and restores them afterwards; the
library's source is never touched.  Spans are kept in memory as
(name, start_ns, end_ns, parent index, op id, value) and written out when
the run ends; self time is derived from them.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

KINDS = ("R", "C", "H")
HERMITIAN_FNS = ("is_positive_definite", "ldl_witness", "negative_certificate", "act", "trace_inner_product")
MODEL_FNS = ("endo_real_decomposition", "picard_number", "ample_cone", "bauer_rational_polyhedral")
CLI_COMMANDS = ("decompose", "picard", "amplecone", "bauer", "surface", "reduce", "funddomain", "verify", "render")


class Tracer:
    def __init__(self, ac) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.patches = []
        self.installed = False
        self._plan(ac)

    # --- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id, None)

    def _wrapper(self, fn, namer, valuer):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                value = valuer(args, result) if valuer and result is not None else None
                spans[index] = (name, start, end, parent, self.op_id, value)

        return traced

    # --- what to wrap ----------------------------------------------------------

    def _plan(self, ac) -> None:
        mods = {
            "ac": ac,
            "hermitian": ac.hermitian,
            "polyhedral": ac.polyhedral,
            "reduction": ac.reduction,
            "abelian": ac.abelian,
        }

        def add(attr, owners, namer, valuer=None):
            fn = getattr(mods[owners[0]], attr)
            wrapper = self._wrapper(fn, namer, valuer)
            for owner in owners:
                self.patches.append((mods[owner], attr, getattr(mods[owner], attr), wrapper))

        def fixed(name):
            return lambda args, kwargs: name

        add("fundamental_unit", ["ac", "abelian"], fixed("scalars.fundamental_unit"),
            lambda args, unit: int(unit.value.a).bit_length())
        for fn in HERMITIAN_FNS:
            add(fn, ["ac", "hermitian"],
                lambda args, kwargs, fn=fn: f"hermitian.{fn}.{args[0].kind.value}{args[0].size}")

        def member_name(args, kwargs):
            interior = kwargs.get("interior", args[2] if len(args) > 2 else False)
            return f"polyhedral.poly_member.{'interior' if interior else 'closed'}.d{args[0].dim}"

        add("poly_member", ["ac", "polyhedral"], member_name, lambda args, result: args[0])
        add("cone_intersection", ["ac", "polyhedral", "reduction"],
            lambda args, kwargs: f"polyhedral.cone_intersection.d{args[0].dim}",
            lambda args, cone: len(cone.rays))
        add("translate_locate", ["ac", "reduction"], fixed("reduction.translate_locate"),
            lambda args, k: k)
        add("verify_fundamental_domain", ["ac", "reduction"], fixed("reduction.verify_fundamental_domain"))
        add("minkowski_reduce", ["ac", "reduction"], fixed("reduction.minkowski_reduce"))
        add("surface_nef_data", ["ac", "abelian"], fixed("abelian.surface_nef_data"))
        add("real_mult_fundamental_domain", ["ac", "abelian"], fixed("abelian.real_mult_fundamental_domain"))
        for fn in MODEL_FNS:
            add(fn, ["ac", "abelian"], fixed("abelian.model_query"))

        cone_cls = ac.PolyhedralCone

        def cone_name(args, kwargs):
            dim = args[1] if len(args) > 1 else kwargs["dim"]
            return f"polyhedral.PolyhedralCone.d{dim}" if dim in (3, 4) else None

        original_init = cone_cls.__init__
        self.patches.append((cone_cls, "__init__", original_init, self._wrapper(original_init, cone_name, None)))

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _, wrapper in self.patches:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _ in self.patches:
                setattr(owner, attr, original)
            self.installed = False

    # --- analysis ------------------------------------------------------------

    def outermost(self) -> dict:
        """Durations and values per span name, skipping spans nested inside a
        span of the same name (recursive and delegating calls)."""
        spans = self.spans
        by_name = defaultdict(list)
        for name, start, end, parent, _, value in spans:
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                by_name[name].append((end - start, value))
        return by_name

    def self_times(self) -> dict:
        """Per name: calls, inclusive and self milliseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _, _), children in zip(self.spans, child_ns):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e6
            row[2] += (end - start - children) / 1e6
        return {k: {"calls": v[0], "total_ms": v[1], "self_ms": v[2]} for k, v in sorted(out.items())}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index\top\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent, op, _) in enumerate(self.spans):
                handle.write(f"{index}\t{op}\t{name}\t{start}\t{end}\t{parent}\n")

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: value}."""
        spans = self.outermost()

        def mean_of(names, scale):
            durations = [ns for n in names for ns, _ in spans.get(n, [])]
            return sum(durations) / len(durations) / scale if durations else None

        us, ms = 1e3, 1e6
        m = {}
        m["scalars.fundamental_unit.us"] = mean_of(["scalars.fundamental_unit"], us)
        bits = [v for _, v in spans.get("scalars.fundamental_unit", [])]
        m["scalars.unit_bits"] = statistics.fmean(bits) if bits else None
        matrix_ops = sum(len(v) for n, v in spans.items() if n.startswith("op.matrix-cones."))
        for fn in HERMITIAN_FNS:
            for kind in KINDS:
                m[f"hermitian.{fn}.{kind}.us"] = mean_of([f"hermitian.{fn}.{kind}{n}" for n in range(1, 5)], us)
            calls = sum(len(v) for n, v in spans.items() if n.startswith(f"hermitian.{fn}."))
            m[f"hermitian.{fn}.calls"] = calls / matrix_ops if matrix_ops else None
        for kind in KINDS:
            for n in range(1, 5):
                m[f"hermitian.is_positive_definite.{kind}{n}.us"] = mean_of([f"hermitian.is_positive_definite.{kind}{n}"], us)
        for dim in (3, 4):
            m[f"polyhedral.PolyhedralCone.d{dim}.us"] = mean_of([f"polyhedral.PolyhedralCone.d{dim}"], us)
            for mode in ("closed", "interior"):
                m[f"polyhedral.poly_member.{mode}.d{dim}.us"] = mean_of([f"polyhedral.poly_member.{mode}.d{dim}"], us)
        for dim in (2, 3, 4):
            m[f"polyhedral.cone_intersection.d{dim}.us"] = mean_of([f"polyhedral.cone_intersection.d{dim}"], us)
        rays = [v or 0 for d in (3, 4) for _, v in spans.get(f"polyhedral.cone_intersection.d{d}", [])]
        m["polyhedral.cone_intersection.rays_out"] = statistics.fmean(rays) if rays else None
        queried = [v for n, vals in spans.items() if n.startswith("polyhedral.poly_member.") for _, v in vals]
        m["polyhedral.queries_per_cone"] = len(queried) / len({id(c) for c in queried}) if queried else None
        m["reduction.verify_fundamental_domain.ms"] = mean_of(["reduction.verify_fundamental_domain"], ms)
        m["reduction.translate_locate.us"] = mean_of(["reduction.translate_locate"], us)
        m["reduction.disjointness.ms"] = mean_of(["reduction.disjointness"], ms)
        located = [v for _, v in spans.get("reduction.translate_locate", []) if v is not None]
        m["reduction.located_k.abs_max"] = max(map(abs, located)) if located else None
        m["reduction.located_k.share_k0"] = located.count(0) / len(located) if located else None
        m["reduction.minkowski_reduce.us"] = mean_of(["reduction.minkowski_reduce"], us)
        m["abelian.surface_nef_data.us"] = mean_of(["abelian.surface_nef_data"], us)
        m["abelian.model_query.us"] = mean_of(["abelian.model_query"], us)
        m["abelian.real_mult_fundamental_domain.ms"] = mean_of(["abelian.real_mult_fundamental_domain"], ms)
        for command in CLI_COMMANDS + ("malformed",):
            main = mean_of([f"op.cli-queries.{command}"], ms)
            m[f"cli.main.{command}.ms"] = main
            if command != "malformed":
                direct = mean_of([f"cli.direct.{command}"], ms)
                m[f"cli.overhead.{command}.ms"] = None if main is None or direct is None else main - direct
        m["trace.overhead_ratio"] = overhead_ratio
        return m
