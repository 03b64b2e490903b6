"""Spans and counters around the public functions of each layer.

The tracer wraps functions from outside the package: it rebinds each
traced name in every ``toric_deform`` module namespace that holds it, so a
caller that imported the function by name (``from .kernels import
matrix_rank``) reaches the wrapper too. ``uninstall`` restores the
originals. Spans (name, start, end, parent) are kept in memory and written
out at the end; a span's self time is its duration minus that of its
child spans, which nest because the benchmark runs on one thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, attribute, span name); several functions may share a span name
TRACED = (
    ("cli", "parse_fan", "cli.parse_fan"),
    ("fan", "validate", "fan.validate"),
    ("fan", "cox_data", "fan.cox_data"),
    ("triples", "enumerate_triples", "triples.enumerate_triples"),
    ("triples", "degree_box", "triples.degree_box"),
    ("triples", "marker_graph", "triples.marker_graph"),
    ("cohomology", "span_check", "cohomology.span_check"),
    ("kernels", "matrix_rank", "kernels.matrix_rank"),
    ("intlin", "rational_polyhedron_nonempty", "intlin.fm"),
    ("intlin", "polyhedron_lattice_points", "intlin.fm"),
    ("intlin", "solve_int", "intlin.solve_int"),
    ("intlin", "solve_nonneg_line", "intlin.solve_nonneg_line"),
    ("intlin", "smith_normal_form", "intlin.smith_normal_form"),
    ("intlin", "cokernel_map", "intlin.cokernel_map"),
    ("deform", "build_deformation", "deform.build_deformation"),
    ("deform", "verify_central_fiber", "deform.verify_central_fiber"),
    ("deform", "ambient_fan", "deform.ambient_fan"),
    ("hypersurf", "riemann_roch_points", "hypersurf.riemann_roch_points"),
    ("hypersurf", "lift_polynomial", "hypersurf.lift_polynomial"),
    ("scrolls", "path_to_rigid", "scrolls.path_to_rigid"),
)
# GradedCechComplex builds are traced through a subclass bound in its place
CECH = "cohomology.cech"
SPAN_NAMES = ("cli.main", CECH) + tuple(dict.fromkeys(name for _, _, name in TRACED))

# counters kept next to the spans; run.per_layer turns them into metrics
COUNTERS = (
    "triples.degree_box.degrees",
    "triples.useful_degrees",
    "cohomology.cech.max_c1_dim",
    "cohomology.h1_positive",
    "kernels.matrix_rank.entries",
    "kernels.matrix_rank.max_entries",
    "hypersurf.riemann_roch_points.points",
    "hypersurf.lift_polynomial.monomials",
    "hypersurf.lift_polynomial.liftable",
    "scrolls.path_to_rigid.moves",
)


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "toric_deform" or name.startswith("toric_deform."))
    ]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []
        # per-command state for triples.useful_degrees
        self._scanned = False
        self._useful: set = set()

    # ------------------------------------------------------------- spans

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call_main(self, main, argv):
        """Run one CLI command under a ``cli.main`` span."""
        self._scanned = False
        self._useful = set()
        idx = self._open(0)
        try:
            return main(argv)
        finally:
            self._close(idx)
            if self._scanned:
                self.counters["triples.useful_degrees"] += len(self._useful)

    # ---------------------------------------------------------- counters

    def _observe_degree_box(self, args, result):
        self._scanned = True
        self.counters["triples.degree_box.degrees"] += len(result)

    def _observe_marker_graph(self, args, result):
        if len(result.components) >= 2:
            self._useful.add(tuple(int(x) for x in args[1]))

    def _observe_matrix_rank(self, args, result):
        mat = args[0]
        rows = len(mat)
        entries = rows * len(mat[0]) if rows and hasattr(mat[0], "__len__") else 0
        c = self.counters
        c["kernels.matrix_rank.entries"] += entries
        c["kernels.matrix_rank.max_entries"] = max(c["kernels.matrix_rank.max_entries"], entries)

    def _observe_rr(self, args, result):
        self.counters["hypersurf.riemann_roch_points.points"] += len(result)

    def _observe_lift(self, args, result):
        self.counters["hypersurf.lift_polynomial.monomials"] += len(result.monomials)
        self.counters["hypersurf.lift_polynomial.liftable"] += sum(
            1 for m in result.monomials if m.liftable
        )

    def _observe_path(self, args, result):
        self.counters["scrolls.path_to_rigid.moves"] += len(result)

    # ------------------------------------------------------ install/undo

    def _rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        from toric_deform import cohomology

        observers = {
            "triples.degree_box": self._observe_degree_box,
            "triples.marker_graph": self._observe_marker_graph,
            "kernels.matrix_rank": self._observe_matrix_rank,
            "hypersurf.riemann_roch_points": self._observe_rr,
            "hypersurf.lift_polynomial": self._observe_lift,
            "scrolls.path_to_rigid": self._observe_path,
        }
        for module, attr, name in TRACED:
            original = getattr(sys.modules[f"toric_deform.{module}"], attr)
            self._rebind(original, self.wrap(name, original, observers.get(name)))

        tracer = self
        base = cohomology.GradedCechComplex
        cech_id = self.names.index(CECH)

        class TracedCech(base):
            def __init__(self, fan, m):
                idx = tracer._open(cech_id)
                try:
                    super().__init__(fan, m)
                finally:
                    tracer._close(idx)
                c = tracer.counters
                c["cohomology.cech.max_c1_dim"] = max(c["cohomology.cech.max_c1_dim"], self.dim1)
                self._h1_seen = False

            def h1(self):
                value = super().h1()
                if not self._h1_seen:
                    self._h1_seen = True
                    tracer.counters["cohomology.h1_positive"] += value > 0
                return value

        self._rebind(base, TracedCech)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # ----------------------------------------------------------- results

    def per_name(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """CSV of every span: id, parent, name, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
