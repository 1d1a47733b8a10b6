"""Per-layer tracing of spinaltri from outside the library.

A Tracer wraps the public functions of each module of the `spinaltri`
package, one layer per module, and records for every wrapped function its
call count and its self time: the span's wall time minus the time spent in
nested wrapped spans.  A few counters measure work and waste where it
happens (LP rows, pulling cells, validation rejections, ...).

Modules bind each other's functions with `from .x import y`, so replacing
`spinaltri.lp.lp_feasible` alone would miss the calls made from `polytope`
and `triangulation`.  `Tracer.installed()` therefore replaces every attribute
of every loaded `spinaltri.*` module (the package's re-exports included) that
*is* one of the original functions, patches the two traced `Polytope` methods
on the class, and restores all of it on exit.  Code that calls into the
library should look names up through a module (`spinaltri.make_polytope`,
`cli.main`) at call time so that the patch reaches it too.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# Layer (module of src/spinaltri) -> traced public functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("det", "rank", "inverse", "kernel_basis", "gram_sq_volume"),
    "lp": ("lp_feasible",),
    "polytope": ("make_polytope", "extreme_points", "facets", "contains", "frame_coords"),
    "spine": ("spine", "is_spine", "enumerate_spines"),
    "triangulation": (
        "pulling_triangulation",
        "star_triangulation",
        "spinal_triangulation",
        "shadow",
        "shadow_polytope",
        "fold",
        "lift",
        "validate_detailed",
    ),
    "volume": ("polytope_volume", "polytope_relative_volume", "lifting_relation_report"),
    "everest": (
        "everest_polytope",
        "everest_volume",
        "vertex_families",
        "simplotope_with_spine",
        "se_square_matrices",
    ),
    "birkhoff": ("birkhoff_context", "projected_birkhoff", "determinant_identities"),
    "io": ("load_polytope", "polytope_from_doc"),
    "cli": ("main",),
}

# Traced functions that are methods of polytope.Polytope rather than
# module-level functions.
METHODS = {"facets", "contains"}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _vertex_set(polytope) -> frozenset:
    return frozenset(v.entries for v in polytope.vertices)


class Tracer:
    """Call counts, self times and work counters for one traced section."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = {label: 0.0 for label in self.labels()}
        self.counts: Counter[str] = Counter()
        self._facet_sets: set[frozenset] = set()
        self._child_time: list[float] = []

    @staticmethod
    def labels() -> list[str]:
        return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

    def _observe(self, label: str, args: tuple, result) -> None:
        """Work counters, taken at the boundary where the work happens."""
        if label == "lp.lp_feasible":
            self.counts["lp.rows"] += len(args[0])
            self.counts["lp.feasible"] += bool(result)
        elif label == "polytope.facets":
            self._facet_sets.add(_vertex_set(args[0]))
        elif label == "triangulation.pulling_triangulation":
            self.counts["pulling.cells"] += len(result.simplices)
        elif label == "triangulation.validate_detailed":
            self.counts["validate.cells"] += len(args[0].simplices)
            self.counts["validate.rejects"] += not result[0]
        elif label == "spine.is_spine":
            self.counts["is_spine.accepts"] += bool(result)

    def wrap(self, label: str, fn):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        observe = self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                nested = child_time.pop()
                self_s[label] += span - nested
                calls[label] += 1
                if child_time:
                    child_time[-1] += span
            observe(label, args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding site of the traced functions; restore on exit."""
        import spinaltri.cli  # noqa: F401  (load every traced module)
        import spinaltri.io  # noqa: F401

        polytope_cls = sys.modules["spinaltri.polytope"].Polytope
        wrappers: dict[int, tuple[object, object]] = {}
        restore: list[tuple[object, str, object]] = []
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"spinaltri.{mod_name}"]
            for fn_name in fns:
                label = f"{mod_name}.{fn_name}"
                if mod_name == "polytope" and fn_name in METHODS:
                    orig = polytope_cls.__dict__[fn_name]
                    restore.append((polytope_cls, fn_name, orig))
                    setattr(polytope_cls, fn_name, self.wrap(label, orig))
                    continue
                orig = getattr(module, fn_name)
                wrappers[id(orig)] = (orig, self.wrap(label, orig))
        try:
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "spinaltri" or name.startswith("spinaltri.")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        restore.append((module, attr, value))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of this section: calls, self time and counters."""
        out: dict[str, float] = {}
        for label in self.labels():
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_s[label]
        c = self.counts
        lp_calls = self.calls["lp.lp_feasible"]
        validations = self.calls["triangulation.validate_detailed"]
        out["lp.lp_feasible.rows"] = c["lp.rows"]
        out["lp.lp_feasible.feasible_ratio"] = _ratio(c["lp.feasible"], lp_calls)
        out["polytope.facets.distinct_ratio"] = _ratio(
            len(self._facet_sets), self.calls["polytope.facets"]
        )
        out["triangulation.pulling_triangulation.cells"] = c["pulling.cells"]
        out["triangulation.validate_detailed.cells"] = c["validate.cells"]
        out["triangulation.validate_detailed.reject_ratio"] = _ratio(
            c["validate.rejects"], validations
        )
        out["spine.is_spine.accept_ratio"] = _ratio(
            c["is_spine.accepts"], self.calls["spine.is_spine"]
        )
        return out

    def deterministic(self) -> dict[str, float]:
        """The metrics that must repeat exactly for the same inputs."""
        return {k: v for k, v in self.per_layer().items() if not k.endswith(".self_s")}

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
