"""Spans and counts at the boundary of each layer of the program.

Only a run with --trace 1 installs these wrappers.  Every public function
listed in Tracer._targets is replaced, in each spiralcurv module that binds
it (curves.eval_jet as well as surfaces.eval_jet), by a wrapper that keeps a
span in memory: name, start, end, parent span, operation id and the
exception it raised, if any.  The numdiff routines are counted, not spanned:
they run tens of times per sample.  Spans are written out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import importlib
import json
import sys
import time

from inputs import FIGURES

PERF = time.perf_counter

SHORT_MODE = {"analytic": "analytic", "finite_difference": "fd"}


def _mode(args, kwargs, index, default="analytic"):
    """The jet mode a call was given, or `default` when it was given none."""
    mode = kwargs.get("mode", args[index] if len(args) > index else None)
    return default if mode is None else SHORT_MODE.get(mode, str(mode))


def _picked(patch) -> str:
    """The mode the program picks when given none: analytic if the patch has jets."""
    return "analytic" if patch.jet is not None else "fd"


def _surface(patch) -> str:
    return patch.name.split("(")[0]


class Tracer:
    def __init__(self) -> None:
        self.spans = []            # [name, start, end, parent, op, error]
        self.stack = []
        self.counts = collections.Counter()
        self.op = 0
        self.enabled = False
        self.sample_depth = 0
        self.verify_mode = "analytic"
        self._installed = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = PERF()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = PERF()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def wrap(self, fn, namer, observe=None, sample=False):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(namer if isinstance(namer, str) else namer(args, kwargs))
            tracer.sample_depth += sample
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
                tracer.sample_depth -= sample
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name: str):
        tracer = self
        in_sample = name + "@sample"

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
                if tracer.sample_depth:
                    tracer.counts[in_sample] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace each layer function in every spiralcurv module binding it."""
        targets = self._targets()
        for module_name, _, _ in targets:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spiralcurv" or n.startswith("spiralcurv.")]
        for module_name, fn_name, make in targets:
            original = getattr(sys.modules[module_name], fn_name)
            wrapped = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _targets(self):
        cf, cv, sf = "spiralcurv.closed_form", "spiralcurv.curves", "spiralcurv.surfaces"
        pl, lv, vf, sv = ("spiralcurv.polar", "spiralcurv.liouville",
                          "spiralcurv.verify", "spiralcurv.svg")
        nd = "spiralcurv.numdiff"
        w = self.wrap

        def on_profile(prof):
            self.count("closed_form.points", len(prof.samples))
            self.count("closed_form.series_tags", prof.sample_methods.count("series"))
            self.count("closed_form.tags", len(prof.sample_methods))

        def on_method(result):
            self.count("closed_form.series_tags", result[1] == "series")
            self.count("closed_form.tags", 1)

        def on_reports(reports):
            self.count("verify.runs", 1)
            self.count("verify.checks", len(reports))
            self.count("verify.observations", sum(len(r.observations) for r in reports))
            self.count("verify.failed_checks", sum(not r.passed for r in reports))

        def run_suites(fn):
            def set_mode(args, kwargs):
                self.verify_mode = _mode(args, kwargs, 1)
                return "verify.run_suites"
            return w(fn, set_mode, observe=on_reports)

        def suite(name, mode_index):
            def namer(args, kwargs):
                if mode_index is None:  # suite_analysis takes no jet mode
                    return f"verify.{name}.{self.verify_mode}"
                return f"verify.{name}.{_mode(args, kwargs, mode_index)}"
            return lambda fn: w(fn, namer)

        targets = [
            (cf, "profile", lambda fn: w(fn, "closed_form.profile", observe=on_profile)),
            (cf, "spiral_curvature_with_method",
             lambda fn: w(fn, "closed_form.spiral_curvature_with_method", observe=on_method)),
        ]
        for name in ("spiral_curvature", "spiral_curvature_dK", "spiral_curvature_series",
                     "spiral_curvature_abs_dK", "geodesic_circle_curvature",
                     "geodesic_circle_curvature_dK"):
            targets.append((cf, name, lambda fn, n=name: w(fn, f"closed_form.{n}")))
        for fn_name, family in (("plane_log_spiral", "plane"), ("sphere_loxodrome", "sphere"),
                                ("pseudosphere_loxodrome", "pseudosphere")):
            targets.append((cv, fn_name, lambda fn, f=family: w(fn, f"curves.build.{f}")))
        targets += [
            (cv, "geodesic_curvature_numeric", lambda fn: w(fn, lambda a, k: (
                f"curves.k_numeric.{_surface(a[0].patch)}.{_mode(a, k, 2, _picked(a[0].patch))}"))),
            (cv, "angle_to_parallel",
             lambda fn: w(fn, lambda a, k: f"curves.angle.{_mode(a, k, 2, _picked(a[0].patch))}")),
            (cv, "arc_length", lambda fn: w(fn, "curves.arc_length")),
            (cv, "sample", lambda fn: w(fn, "curves.sample", sample=True)),
            (sf, "eval_jet", lambda fn: w(fn, lambda a, k: f"surfaces.eval_jet.{_mode(a, k, 3)}")),
            (sf, "gaussian_curvature", lambda fn: w(fn, lambda a, k: (
                f"surfaces.gaussian_curvature.{_mode(a, k, 3, _picked(a[0]))}"))),
            (pl, "spiral_chart_trace", lambda fn: w(fn, "polar.spiral_chart_trace")),
            (pl, "embed_polar_trace", lambda fn: w(fn, "polar.embed_polar_trace")),
            (pl, "circle_curvature", lambda fn: w(fn, "polar.circle_curvature")),
            (lv, "liouville_breakdown", lambda fn: w(fn, "liouville.breakdown")),
            (vf, "run_suites", run_suites),
            (vf, "suite_forms", suite("forms", 0)),
            (vf, "suite_curves", suite("curves", 0)),
            (vf, "suite_liouville", suite("liouville", 0)),
            (vf, "suite_analysis", suite("analysis", None)),
            (sv, "render_figure",
             lambda fn: w(fn, lambda a, k: f"svg.render_figure.{k.get('name', a[0] if a else '')}")),
        ]
        for name in ("central_first", "central_second", "richardson_first"):
            targets.append((nd, name, lambda fn, n=name: self.counter(fn, f"numdiff.{n}")))
        return targets

    # -- exact counts on the benchmark's own curves ---------------------------

    def counting_curve(self, curve):
        """The same curve with its chart trace and its patch's position map
        wrapped in counters, built with dataclasses.replace."""
        def counted(fn, name):
            def wrapper(*args):
                if self.enabled and self.sample_depth:
                    self.counts[name] += 1
                return fn(*args)
            return wrapper

        patch = dataclasses.replace(curve.patch, eval=counted(curve.patch.eval, "curves.position_evals"))
        return dataclasses.replace(curve, patch=patch,
                                   trace=counted(curve.trace, "curves.trace_evals"))

    # -- output ----------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """Every span, one JSON array per line, with its self time appended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "error",
                                            "self"], "counts": dict(self.counts)}) + "\n")
            for rec, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps(rec + [own]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

SURFACES = ("plane", "sphere", "pseudosphere")
MODES = ("analytic", "fd")
SUITES = ("forms", "curves", "liouville", "analysis")
CLI_COMMANDS = ("curvature", "profile", "trace", "figure")
SCALAR = tuple(f"closed_form.{n}" for n in (
    "spiral_curvature", "spiral_curvature_with_method", "spiral_curvature_dK",
    "spiral_curvature_series", "spiral_curvature_abs_dK", "geodesic_circle_curvature",
    "geodesic_circle_curvature_dK"))


def per_layer_names() -> list:
    """Every per-layer metric with its unit, in the order they are printed."""
    m = [("import.total_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"),
         ("import.spiralcurv_self_s", "s")]
    m += [(f"cli.{c}.busy_ms", "ms") for c in CLI_COMMANDS] + [("cli.exit_nonzero", "count")]
    m += [("closed_form.profile.calls", "count"), ("closed_form.profile.points", "count"),
          ("closed_form.profile.busy_s", "s"), ("closed_form.profile.ns_per_point", "ns"),
          ("closed_form.scalar.calls", "count"), ("closed_form.scalar.busy_s", "s"),
          ("closed_form.series_share", "1"), ("closed_form.domain_errors", "count")]
    m += [(f"curves.build.{s}.busy_ms", "ms") for s in SURFACES]
    m += [(f"curves.k_numeric.{s}.{mode}.busy_us", "us") for s in SURFACES for mode in MODES]
    m += [(f"curves.angle.{mode}.busy_us", "us") for mode in MODES]
    m += [("curves.arc_length.busy_ms", "ms"), ("curves.breakdown_ratio", "1"),
          ("curves.position_evals_per_sample", "count"),
          ("curves.trace_evals_per_sample", "count")]
    for mode in MODES:
        m += [(f"surfaces.eval_jet.{mode}.calls", "count"),
              (f"surfaces.eval_jet.{mode}.busy_s", "s")]
    m += [(f"surfaces.gaussian_curvature.{mode}.busy_us", "us") for mode in MODES]
    m += [(f"numdiff.{n}.calls_per_sample", "count")
          for n in ("central_first", "central_second", "richardson_first")]
    m += [("polar.spiral_chart_trace.calls", "count"), ("polar.spiral_chart_trace.busy_us", "us"),
          ("polar.embed_polar_trace.busy_ms", "ms"), ("polar.circle_curvature.busy_us", "us")]
    m += [("liouville.breakdown.busy_us", "us"),
          ("liouville.k_numeric_calls_per_breakdown", "count")]
    m += [(f"verify.{s}.{mode}.busy_s", "s") for s in SUITES for mode in MODES]
    m += [("verify.checks", "count"), ("verify.observations", "count"),
          ("verify.failed_checks", "count")]
    m += [(f"svg.render_figure.{f}.busy_ms", "ms") for f in FIGURES]
    m += [("trace.overhead_ratio", "1")]
    return m


def _ratio(num: float, den: float) -> float:
    """A ratio whose base was never seen reads 0; the base is printed too."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, imports: dict, overhead_ratio: float) -> dict:
    calls = collections.Counter()
    busy = collections.Counter()
    errors = collections.Counter()
    spans = tracer.spans
    names = [rec[0] for rec in spans]
    scalar_calls = 0
    scalar_busy = 0.0
    domain_errors = 0
    k_in_breakdown = 0
    for rec in spans:
        name, dur = rec[0], rec[2] - rec[1]
        calls[name] += 1
        busy[name] += dur
        if rec[5] is not None:
            errors[(name, rec[5])] += 1
        outer_cf = name.startswith("closed_form.") and not (
            rec[3] >= 0 and names[rec[3]].startswith("closed_form."))
        if outer_cf and name in SCALAR:
            scalar_calls += 1
            scalar_busy += dur
        if outer_cf and rec[5] == "DomainError":
            domain_errors += 1
        if name.startswith("curves.k_numeric."):
            p = rec[3]
            while p >= 0 and names[p] != "liouville.breakdown":
                p = spans[p][3]
            k_in_breakdown += p >= 0

    def mean(name, scale):
        return _ratio(busy[name], calls[name]) * scale

    c = tracer.counts
    samples = calls["curves.sample"]
    k_numeric = [n for n in calls if n.startswith("curves.k_numeric.")]
    out = {
        "import.total_s": imports["total_s"], "import.scipy_s": imports["scipy_s"],
        "import.numpy_s": imports["numpy_s"],
        "import.spiralcurv_self_s": imports["spiralcurv_self_s"],
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.busy_ms"] = mean(f"cli.{cmd}", 1e3)
    out["cli.exit_nonzero"] = c["cli.exit_nonzero"]
    out["closed_form.profile.calls"] = calls["closed_form.profile"]
    out["closed_form.profile.points"] = c["closed_form.points"]
    out["closed_form.profile.busy_s"] = busy["closed_form.profile"]
    out["closed_form.profile.ns_per_point"] = _ratio(busy["closed_form.profile"],
                                                     c["closed_form.points"]) * 1e9
    out["closed_form.scalar.calls"] = scalar_calls
    out["closed_form.scalar.busy_s"] = scalar_busy
    out["closed_form.series_share"] = _ratio(c["closed_form.series_tags"], c["closed_form.tags"])
    out["closed_form.domain_errors"] = domain_errors
    for s in SURFACES:
        out[f"curves.build.{s}.busy_ms"] = mean(f"curves.build.{s}", 1e3)
    for s in SURFACES:
        for mode in MODES:
            out[f"curves.k_numeric.{s}.{mode}.busy_us"] = mean(f"curves.k_numeric.{s}.{mode}", 1e6)
    for mode in MODES:
        out[f"curves.angle.{mode}.busy_us"] = mean(f"curves.angle.{mode}", 1e6)
    out["curves.arc_length.busy_ms"] = mean("curves.arc_length", 1e3)
    out["curves.breakdown_ratio"] = _ratio(
        sum(errors[(n, "NumericalBreakdown")] for n in k_numeric),
        sum(calls[n] for n in k_numeric))
    out["curves.position_evals_per_sample"] = _ratio(c["curves.position_evals"], samples)
    out["curves.trace_evals_per_sample"] = _ratio(c["curves.trace_evals"], samples)
    for mode in MODES:
        out[f"surfaces.eval_jet.{mode}.calls"] = calls[f"surfaces.eval_jet.{mode}"]
        out[f"surfaces.eval_jet.{mode}.busy_s"] = busy[f"surfaces.eval_jet.{mode}"]
    for mode in MODES:
        out[f"surfaces.gaussian_curvature.{mode}.busy_us"] = mean(
            f"surfaces.gaussian_curvature.{mode}", 1e6)
    for n in ("central_first", "central_second", "richardson_first"):
        out[f"numdiff.{n}.calls_per_sample"] = _ratio(c[f"numdiff.{n}@sample"], samples)
    out["polar.spiral_chart_trace.calls"] = calls["polar.spiral_chart_trace"]
    out["polar.spiral_chart_trace.busy_us"] = mean("polar.spiral_chart_trace", 1e6)
    out["polar.embed_polar_trace.busy_ms"] = mean("polar.embed_polar_trace", 1e3)
    out["polar.circle_curvature.busy_us"] = mean("polar.circle_curvature", 1e6)
    out["liouville.breakdown.busy_us"] = mean("liouville.breakdown", 1e6)
    out["liouville.k_numeric_calls_per_breakdown"] = _ratio(k_in_breakdown,
                                                            calls["liouville.breakdown"])
    for s in SUITES:
        for mode in MODES:
            out[f"verify.{s}.{mode}.busy_s"] = mean(f"verify.{s}.{mode}", 1.0)
    out["verify.checks"] = _ratio(c["verify.checks"], c["verify.runs"])
    out["verify.observations"] = _ratio(c["verify.observations"], c["verify.runs"])
    out["verify.failed_checks"] = c["verify.failed_checks"]
    for f in FIGURES:
        out[f"svg.render_figure.{f}.busy_ms"] = mean(f"svg.render_figure.{f}", 1e3)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


# ---------------------------------------------------------------------------
# import layer


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing spiralcurv, from `python -X importtime`.

    total_s is the cumulative time of the package; the other three sum the
    self time of every module in the scipy, numpy and spiralcurv trees."""
    self_us = collections.Counter()
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2].strip()
        top = name.split(".")[0]
        self_us[top] += own
        if name == "spiralcurv":
            total_us = cumulative
    return {"total_s": total_us * 1e-6, "scipy_s": self_us["scipy"] * 1e-6,
            "numpy_s": self_us["numpy"] * 1e-6,
            "spiralcurv_self_s": self_us["spiralcurv"] * 1e-6}
