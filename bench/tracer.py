"""Span tracer that wraps conegeo's public functions from outside the library.

Each listed function is replaced by a wrapper that records one span: name,
start, end, parent span and item id.  Spans are kept in flat in-memory
arrays and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

import array
import functools
import sys
import time

import numpy as np

# traced functions per layer; a layer is a conegeo module (errors does no work)
TRACED = {
    "cli": ("build_config", "curve_csv_text", "development_csv_text", "report_json_text"),
    "curves": ("read_curve_csv", "SpaceCurve.from_samples", "SpaceCurve.evaluate",
               "SpaceCurve.derivative", "SpaceCurve.jet", "sample_grid",
               "frenet_apparatus", "reparametrize_arclength"),
    "jets": ("fd_derivative", "series_derivative", "jet_product", "jet_compose",
             "jet_reparametrize"),
    "cones": ("read_base_csv", "base_from_samples", "cone_from_descriptor", "chart_curve",
              "chart_coordinates", "Cone.chart_t", "SphericalBaseCurve.evaluate",
              "SphericalBaseCurve.jet", "surface_normal", "develop", "line_fit",
              "curve_from_chart"),
    "classify": ("classify_rectifying_or_spherical", "fit_slant_axis",
                 "classification_identity_residual"),
    "geodesics": ("generate_rectifying", "integrate_geodesic", "verify_geodesic",
                  "cross_check_circular_cone"),
}

NAMES = [f"{layer}.{qual}" for layer, quals in TRACED.items() for qual in quals]


class Tracer:
    """Records spans while ``item`` is set; calls pass straight through otherwise."""

    def __init__(self):
        self.item = None
        self._stack = [-1]
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")

    def _wrap(self, fn, nid):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.item_id.append(self.item)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every listed function, including each alias in conegeo modules.

        cli, classify and geodesics import functions by name, so the module
        attribute alone would leave their call sites on the original.
        """
        import conegeo.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "conegeo" or name.startswith("conegeo.")]
        for nid, name in enumerate(NAMES):
            layer, qual = name.split(".", 1)
            home = sys.modules[f"conegeo.{layer}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(raw.__func__, nid)))
                else:
                    setattr(cls, attr, self._wrap(raw, nid))
                continue
            fn = getattr(home, qual)
            wrapped = self._wrap(fn, nid)
            for module in modules:
                for alias in [k for k, v in vars(module).items() if v is fn]:
                    setattr(module, alias, wrapped)

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item_id": np.frombuffer(self.item_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def summary(self, n_items, item_seconds):
        """Per-item calls and self time per function, layer totals and ratios.

        item_seconds is the summed wall time of the traced items' commands;
        untraced_s is the part of it that no span covers.
        """
        a = self.arrays()
        ids, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(ids, minlength=len(NAMES))
        self_by_name = np.bincount(ids, weights=self_time, minlength=len(NAMES))

        out = {}
        for nid, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[nid] / n_items
            out[f"{name}.self_s"] = self_by_name[nid] / n_items
        for layer in TRACED:
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{q}.self_s"] for q in TRACED[layer])
        out["trace.item_s"] = item_seconds / n_items
        out["untraced_s"] = (item_seconds - float(self_time.sum())) / n_items

        chart_t = NAMES.index("cones.Cone.chart_t")
        base_jet = NAMES.index("cones.SphericalBaseCurve.jet")
        under_chart = (ids == base_jet) & has_parent
        under_chart[under_chart] = ids[parent[under_chart]] == chart_t
        out["cones.base_jets_per_chart_point"] = (
            float(under_chart.sum()) / calls[chart_t] if calls[chart_t] else 0.0)
        out["spans"] = int(ids.size)
        return out
