"""Per-layer tracing of thinspec from outside the package.

Tracer.install replaces named functions with wrappers in every thinspec
module namespace that holds them, so internal calls resolve to the wrapper
and the source stays untouched. Span wrappers record (name, start, end,
parent); count wrappers only count calls, for hot scalar functions. Each
module's `splu` is replaced by a proxy that counts factorizations and
SuperLU.solve calls under that module's name. A named function that no
longer exists is skipped and reads as 0 calls.
"""

import sys
import time
from collections import defaultdict

from scipy.sparse import linalg as _spla

# (home module, function) -> span name
SPANS = {
    ("mesh", "generate_mesh"): "mesh.generate",
    ("fem", "assemble"): "fem.assemble",
    ("fem", "dirichlet_eigs"): "fem.eigs",
    ("fem", "solve_constrained_source"): "fem.source_solve",
    ("fem", "boundary_flux"): "fem.flux",
    ("asymptotics", "compute_coefficients"): "asymptotics.coefficients",
    ("asymptotics", "compute_lambda0"): "asymptotics.lambda0",
    ("asymptotics", "compute_lambda1"): "asymptotics.lambda1",
    ("asymptotics", "compute_v1"): "asymptotics.v1",
    ("asymptotics", "compute_lambda2"): "asymptotics.lambda2",
    ("transmission", "first_te"): "transmission.first_te",
    ("transmission", "sigma_min_scan"): "transmission.scan",
    ("transmission", "assemble_pencil"): "transmission.pencil",
    ("transmission", "eroded_dirichlet"): "transmission.eroded",
    ("bessel", "disk_first_te"): "bessel.first_te",
    ("bessel", "disk_asymptotic_coeffs"): "bessel.coeffs",
    ("report", "run_sweep"): "report.sweep",
}

# (home module, function) -> counter name
COUNTS = {
    ("bessel", "transmission_determinant"): "bessel.det_evals",
    ("bessel", "bessel_j"): "bessel.j_calls",
    ("bessel", "bessel_y"): "bessel.y_calls",
    ("bessel", "bessel_j_series"): "bessel.series_calls",
    ("bessel", "_y01_series"): "bessel.series_calls",
}

PACKAGE = "thinspec"


class _CountingLU:
    """SuperLU proxy that counts solve calls."""

    def __init__(self, lu, counts, key):
        self._lu, self._counts, self._key = lu, counts, key

    def solve(self, *args, **kwargs):
        self._counts[self._key] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, spans=SPANS, counts=COUNTS, package=PACKAGE):
        self.span_targets, self.count_targets, self.package = spans, counts, package
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _splu(self, layer):
        counts = self.counts

        def splu(*args, **kwargs):
            counts[f"{layer}.factorizations"] += 1
            return _CountingLU(_spla.splu(*args, **kwargs), counts, f"{layer}.lu_solves")
        return splu

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def _replace(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        for targets, make in ((self.span_targets, self._span), (self.count_targets, self._count)):
            for (home, func), name in targets.items():
                original = getattr(sys.modules.get(f"{self.package}.{home}"), func, None)
                if callable(original):
                    self._replace(original, make(name, original))
        for mod in self._modules():
            if getattr(mod, "splu", None) is _spla.splu:
                self._undo.append((mod, "splu", _spla.splu))
                mod.splu = self._splu(mod.__name__.rsplit(".", 1)[-1])

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}}; self time is the
        span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - covered
        return dict(out)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """The benchmark's per-layer metrics as {name: (value, unit)}."""
    s = tracer.summary()
    c = tracer.counts

    def stat(name, key="self_s"):
        return s[name][key] if name in s else 0

    return {
        "transmission.scan_s": (stat("transmission.scan"), "s"),
        "transmission.factorizations": (c["transmission.factorizations"], "count"),
        "transmission.lu_solves": (c["transmission.lu_solves"], "count"),
        "transmission.factorizations_per_solve": (
            _ratio(c["transmission.factorizations"], stat("transmission.first_te", "calls")), "ratio"),
        "transmission.first_te_s": (stat("transmission.first_te", "total_s"), "s"),
        "transmission.first_te_self_s": (stat("transmission.first_te"), "s"),
        "transmission.pencil_s": (stat("transmission.pencil"), "s"),
        "transmission.eroded_s": (stat("transmission.eroded"), "s"),
        "fem.eigs_s": (stat("fem.eigs"), "s"),
        "fem.eigs_calls": (stat("fem.eigs", "calls"), "count"),
        "fem.factorizations": (c["fem.factorizations"], "count"),
        "fem.lu_solves": (c["fem.lu_solves"], "count"),
        "fem.source_solve_s": (stat("fem.source_solve"), "s"),
        "fem.flux_s": (stat("fem.flux"), "s"),
        "fem.assemble_s": (stat("fem.assemble"), "s"),
        "fem.assemble_calls": (stat("fem.assemble", "calls"), "count"),
        "mesh.generate_s": (stat("mesh.generate"), "s"),
        "mesh.calls": (stat("mesh.generate", "calls"), "count"),
        "asymptotics.coefficients_s": (stat("asymptotics.coefficients", "total_s"), "s"),
        "asymptotics.self_s": (sum(stat(n) for n in s if n.startswith("asymptotics.")), "s"),
        "bessel.first_te_s": (stat("bessel.first_te"), "s"),
        "bessel.det_evals": (c["bessel.det_evals"], "count"),
        "bessel.det_evals_per_solve": (
            _ratio(c["bessel.det_evals"], stat("bessel.first_te", "calls")), "ratio"),
        "bessel.j_calls": (c["bessel.j_calls"], "count"),
        "bessel.y_calls": (c["bessel.y_calls"], "count"),
        "bessel.series_calls": (c["bessel.series_calls"], "count"),
        "bessel.coeffs_s": (stat("bessel.coeffs"), "s"),
        "report.self_s": (stat("report.sweep"), "s"),
    }
