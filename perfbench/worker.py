"""One workload in a fresh interpreter, started by run.py.

The worker imports the program, generates the seeded inputs, prints
"ready" (run.py times set-up up to that line), then runs the workload as a
closed loop with one client and prints one JSON result line.  With
--setup-only it stops after "ready".  With --trace 1 it runs the workload's
first rounds untraced, runs the same rounds again traced, and reports the
per-layer metrics and the tracing overhead.

The cold-cli client imports nothing of the program until its timed loop
has ended: it only starts `python -m spiralcurv` children, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import Tally  # noqa: E402

PERF = time.perf_counter
CLI_TIMEOUT_S = 60.0

# The speed of a shared machine can drift by 1.5x over minutes, and a whole
# run can sit in a slow phase.  So after every round the worker also times
# a fixed piece of reference work that runs no program code, and each
# operation's time is multiplied by (reference time on a nominal machine) /
# (reference time measured), the latter being the median over the nine
# rounds around it: what the operation would have taken on the nominal
# machine.  The JSON metrics use these scaled times; the raw wall times are
# printed beside them.  In process the reference is a pure-Python chunk
# that takes CAL_REF_S nominally; for CLI calls it is a fresh interpreter
# importing the program's dependencies (REFERENCE_IMPORT), nominally
# REFERENCE_IMPORT_S, because the chunk in the client tracks the speed of
# child processes poorly.  Over 40 alternated calls on a shared 2-vCPU Xeon,
# medians of five CLI calls spread by 0.16 raw and by 0.02 scaled by the
# reference import.
CAL_REF_S = 1e-3
CAL_WINDOW = 4
REFERENCE_IMPORT = "import numpy, scipy.integrate, scipy.interpolate"
REFERENCE_IMPORT_S = 1.0


def calibration_chunk() -> float:
    """Median of three timings of a fixed loop of float arithmetic and libm
    calls, the kind of work the program does between numpy calls."""
    times = []
    for _ in range(3):
        t0 = PERF()
        acc = 0.0
        for i in range(5000):
            acc += math.sin(i * 0.001) * (i % 7)
        times.append(PERF() - t0)
    return statistics.median(times)


class Clock:
    """Per-operation timings of one run, raw and scaled to reference speed."""

    def __init__(self, reference=calibration_chunk, nominal_s: float = CAL_REF_S) -> None:
        self.reference = reference
        self.nominal_s = nominal_s
        self.ops = []          # (round, kind, seconds, units)
        self.chunk_s = []      # reference time after each round
        self.round_s = []      # raw time in timed operations, per round
        self._spent = 0.0

    def add(self, kind: str, seconds: float, units: int = 1) -> None:
        self.ops.append((len(self.chunk_s), kind, seconds, units))
        self._spent += seconds

    def close_round(self) -> None:
        self.round_s.append(self._spent)
        self._spent = 0.0
        self.chunk_s.append(self.reference())

    def speed(self) -> list:
        """Nominal over measured reference time, the median of the rounds around each round."""
        c, w = self.chunk_s, CAL_WINDOW
        return [self.nominal_s / statistics.median(c[max(0, i - w):i + w + 1])
                for i in range(len(c))]

    def _col(self, kinds, scaled):
        speed = self.speed() if scaled else None
        return [(s * speed[r] if scaled else s, u) for r, k, s, u in self.ops if k in kinds]

    def rate(self, kinds, scaled=True) -> float:
        """Units of work per second of time spent in the given operations."""
        col = self._col(kinds, scaled)
        return sum(u for _, u in col) / sum(s for s, _ in col)

    def median(self, kinds, scaled=True) -> float:
        return statistics.median(s for s, _ in self._col(kinds, scaled))

    def quantile(self, kinds, q: float, scaled=True) -> float:
        col = sorted(s for s, _ in self._col(kinds, scaled))
        return col[int(q * (len(col) - 1))]

    def count(self, kinds) -> int:
        return sum(k in kinds for _, k, _, _ in self.ops)


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def rounds_loop(workload, step, seconds: float, count: int = None) -> int:
    """Run rounds 0, 1, ... for about `seconds`, or exactly `count` of them.

    Rounds come in blocks of workload.round_multiple, and a run ends only
    at a block boundary: the first one after which less than half a block's
    time is left.  So the mix of work in a block is always complete, and a
    run's length does not flip between n and n + 1 blocks on small delays."""
    start = PERF()
    m = workload.round_multiple
    i = 0
    while True:
        if count is None:
            elapsed = PERF() - start
            if i and i % m == 0 and elapsed + 0.5 * elapsed * m / i > seconds:
                return i
        elif i >= count:
            return i
        step(i)
        workload.clock.close_round()
        i += 1


class Paused:
    """Context manager that stops span recording while checks run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.was = False

    def __enter__(self):
        if self.tracer:
            self.was, self.tracer.enabled = self.tracer.enabled, False

    def __exit__(self, *exc):
        if self.tracer:
            self.tracer.enabled = self.was


# ---------------------------------------------------------------------------
# sweep: closed_form only


class Sweep:
    round_multiple = 1
    SCALARS = ("spiral_curvature", "spiral_curvature_with_method", "spiral_curvature_dK")

    def __init__(self, seed: int):
        from spiralcurv import closed_form

        self.cf = closed_form
        self.rounds = inputs.sweep_inputs(seed)
        self.clock = Clock()

    def round(self, i: int, tally: Tally, tracer, oracle) -> None:
        from spiralcurv.errors import GeometryError

        cf = self.cf
        rd = self.rounds[i % len(self.rounds)]
        for spec, rows in zip(rd["profiles"], rd["checked_rows"]):
            if tracer:
                tracer.op += 1
            t0 = PERF()
            try:
                prof = cf.profile(spec["axis"], spec["fixed"], spec["min"], spec["max"],
                                  spec["steps"], spec["theta"])
            except GeometryError as exc:
                tally.op(False, f"profile {spec}: {exc!r}")
                continue
            dt = PERF() - t0
            n = spec["steps"]
            self.clock.add("profile_rung" if n == inputs.P50_RUNG else "profile", dt, n)
            with Paused(tracer):
                tally.op(self.check_profile(prof, spec, rows, tally, oracle), f"profile {spec}")
        points = rd["points"]
        values = {}
        for name in self.SCALARS:
            fn = getattr(cf, name)
            out = []
            for b in range(0, len(points), 100):
                batch = points[b:b + 100]
                if tracer:
                    tracer.op += 1
                t0 = PERF()
                try:
                    res = [fn(K, r, th) for K, r, th in batch]
                except GeometryError as exc:
                    res = [exc] * len(batch)
                self.clock.add("scalar", PERF() - t0, len(batch))
                out.extend(res)
            values[name] = out
        with Paused(tracer):
            self.check_scalars(rd, values, tally, oracle)

    def check_profile(self, prof, spec, rows, tally, oracle) -> bool:
        """Every row equals spiral_curvature bit for bit; some rows match the oracle."""
        n = spec["steps"]
        if len(prof.samples) != n or len(prof.sample_methods) != n:
            return False
        if prof.samples[0][0] != spec["min"] or prof.samples[-1][0] != spec["max"]:
            return False
        theta = spec["theta"]
        with_method = self.cf.spiral_curvature_with_method
        for (x, k), tag in zip(prof.samples, prof.sample_methods):
            K, r = inputs.profile_point(spec, x)
            value, method = with_method(K, r, theta)
            if not checks.same_bits(value, k) or method != tag:
                return False
        ok = True
        for i in rows:
            x, k = prof.samples[i]
            K, r = inputs.profile_point(spec, x)
            ok &= tally.error(checks.k_error(oracle, K, r, theta, k),
                              checks.K_BOUNDS[inputs.region(K, r)])
        return ok

    def check_scalars(self, rd, values, tally, oracle) -> None:
        """spiral_curvature equals the value of spiral_curvature_with_method
        bit for bit; the seeded subset matches the oracle, k and dk/dK."""
        checked = set(rd["checked_points"])
        rows = zip(rd["points"], *(values[name] for name in self.SCALARS))
        for j, ((K, r, th), k, km, dk) in enumerate(rows):
            what = f"scalar K={K!r} r={r!r} theta={th!r}"
            if any(isinstance(v, Exception) for v in (k, km, dk)):
                for v in (k, km, dk):
                    tally.op(not isinstance(v, Exception), f"{what}: {v!r}")
                continue
            ok = checks.same_bits(k, km[0])
            ok_dk = True
            if j in checked:
                reg = inputs.region(K, r)
                ok &= tally.error(checks.k_error(oracle, K, r, th, k), checks.K_BOUNDS[reg])
                ok_dk = tally.error(checks.dk_error(oracle, K, r, th, dk), checks.DK_BOUNDS[reg])
            tally.op(ok, what + " (k)")
            tally.op(ok, what + " (k, method)")
            tally.op(ok_dk, what + " (dK)")

    def summary(self, scaled: bool) -> dict:
        c = self.clock
        return {
            "main_per_s": c.rate(("profile", "profile_rung"), scaled),
            "alt_per_s": c.rate(("scalar",), scaled),
            "p50_ms": c.median(("profile_rung",), scaled) * 1e3,
        }

    def details(self) -> dict:
        raw = self.summary(scaled=False)
        return {"k_points_per_s": (raw["main_per_s"], "1/s"),
                "scalar_calls_per_s": (raw["alt_per_s"], "1/s"),
                f"profile_{inputs.P50_RUNG}_p50_ms": (raw["p50_ms"], "ms")}


# ---------------------------------------------------------------------------
# geometry: curves, surfaces, numdiff, polar


class Geometry:
    round_multiple = 1

    def __init__(self, seed: int):
        from spiralcurv import curves, polar, surfaces

        self.cv, self.pl, self.sf = curves, polar, surfaces
        self.rounds = inputs.geometry_inputs(seed)
        self.modes = (("analytic", surfaces.JET_MODE_ANALYTIC, 1.0),
                      ("fd", surfaces.JET_MODE_FD, checks.FD_TOL_SCALE))
        self.clock = Clock()

    def build(self, spec):
        cv, pl, sf = self.cv, self.pl, self.sf
        family = spec["family"]
        if family == "plane":
            return cv.plane_log_spiral(spec["a"])
        if family == "sphere":
            return cv.sphere_loxodrome(spec["R"], spec["a"])
        if family == "pseudosphere":
            return cv.pseudosphere_loxodrome(spec["R"], spec["theta"])
        K, theta = spec["K"], spec["theta"]
        lo = min(spec["r0"], spec["r1"])
        pts = [pl.spiral_chart_trace(K, theta, lo, 0.0, r)
               for r in inputs.polar_grid(K, spec["r0"], spec["r1"])]
        patch = sf.plane_patch() if K == 0.0 else sf.sphere_patch(1.0 / math.sqrt(K))
        return pl.embed_polar_trace(patch, pts)

    def round(self, i: int, tally: Tally, tracer, oracle) -> None:
        from spiralcurv.errors import GeometryError

        for spec in self.rounds[i % len(self.rounds)]:
            if tracer:
                tracer.op += 1
            t0 = PERF()
            try:
                curve = self.build(spec)
            except GeometryError as exc:
                tally.op(False, f"build {spec['family']}: {exc!r}")
                continue
            self.clock.add("build", PERF() - t0)
            tally.op(True)
            if tracer:
                curve = tracer.counting_curve(curve)
            for t, k_ref in zip(spec["ts"], spec["k_ref"]):
                for key, mode, scale in self.modes:
                    if tracer:
                        tracer.op += 1
                    t0 = PERF()
                    try:
                        s = self.cv.sample(curve, t, mode)
                    except GeometryError as exc:
                        tally.op(False, f"sample {spec['family']} t={t!r} {key}: {exc!r}")
                        continue
                    self.clock.add(key, PERF() - t0)
                    ok = tally.error(checks.rel_error(s.k, k_ref), checks.GEOMETRY_K_REL * scale)
                    ok &= abs(s.theta - spec["theta"]) <= checks.GEOMETRY_THETA_ABS * scale
                    tally.op(ok, f"sample {spec['family']} t={t!r} {key}: k={s.k!r} "
                                 f"ref={k_ref!r} theta={s.theta!r}")

    def summary(self, scaled: bool) -> dict:
        c = self.clock
        return {
            "main_per_s": c.rate(("analytic",), scaled),
            "alt_per_s": c.rate(("fd",), scaled),
            "p50_ms": c.median(("analytic", "fd"), scaled) * 1e3,
        }

    def details(self) -> dict:
        c = self.clock
        both = ("analytic", "fd")
        return {"samples_per_s": (c.rate(("analytic",), False), "1/s"),
                "fd_samples_per_s": (c.rate(("fd",), False), "1/s"),
                "sample_p50_us": (c.median(both, False) * 1e6, "us"),
                "sample_p99_us": (c.quantile(both, 0.99, False) * 1e6, "us"),
                "samples": (c.count(both), "count"),
                "build_p50_ms": (c.median(("build",), False) * 1e3, "ms")}


# ---------------------------------------------------------------------------
# verify: the end-to-end battery in both jet modes


class Verify:
    """run_suites("all") alternately with analytic jets and with FD jets at
    tol scale 100, as `spiralcurv verify --jets fd` applies it.  The
    battery's inputs are fixed inside the program: the seed has no effect."""

    round_multiple = 2

    def __init__(self, seed: int):
        from spiralcurv import surfaces, verify

        self.vf = verify
        self.modes = (("analytic", surfaces.JET_MODE_ANALYTIC, 1.0),
                      ("fd", surfaces.JET_MODE_FD, checks.FD_TOL_SCALE))
        self.clock = Clock()

    def round(self, i: int, tally: Tally, tracer, oracle) -> None:
        key, mode, scale = self.modes[i % 2]
        if tracer:
            tracer.op += 1
        t0 = PERF()
        try:
            reports = self.vf.run_suites("all", mode, scale)
        except Exception:  # noqa: BLE001 - any exception fails the battery
            tally.op(False, f"run_suites all {key}: {traceback.format_exc(limit=3)}")
            return
        self.clock.add(key, PERF() - t0)
        for rep in reports:
            tally.op(rep.passed, f"{key} {rep.check_name}")

    def summary(self, scaled: bool) -> dict:
        c = self.clock
        return {
            "main_per_s": c.rate(("analytic",), scaled),
            "alt_per_s": c.rate(("fd",), scaled),
            "p50_ms": c.median(("analytic",), scaled) * 1e3,
        }

    def details(self) -> dict:
        c = self.clock
        return {"verify_s": (c.median(("analytic",), False), "s"),
                "verify_fd_s": (c.median(("fd",), False), "s"),
                "battery_runs": (c.count(("analytic", "fd")), "count")}


# ---------------------------------------------------------------------------
# cold-cli: fresh `python -m spiralcurv` processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                            if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _read_and_remove(path):
    if path is None or not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


LIGHT = ("curvature", "profile")       # import plus closed form
HEAVY = ("trace", "figure")            # import plus curves, surfaces, polar, svg
DEFECTS = inputs.DEFECT_KINDS


class ColdCli:
    """Each round is one call; cycles of ten calls keep the command mix, and
    so the known-defect share, exact."""

    round_multiple = 10

    def __init__(self, seed: int, in_process: bool = False):
        self.calls = [call for cycle in inputs.cli_inputs(seed) for call in cycle]
        self.in_process = in_process
        self.figure_path = OUT / f"figure-{os.getpid()}.svg"
        self.env = child_env()
        self.records = []
        # in process only the raw times are used, for the tracing overhead
        self.clock = Clock() if in_process else Clock(self.reference_import, REFERENCE_IMPORT_S)
        if in_process:
            from spiralcurv import cli

            self.cli = cli

    def reference_import(self) -> float:
        t0 = PERF()
        subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], cwd=ROOT, env=self.env,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        return PERF() - t0

    def _argv(self, call: dict):
        if call["kind"] != "figure":
            return call["argv"], None
        OUT.mkdir(exist_ok=True)
        return [*call["argv"], "--out", str(self.figure_path)], self.figure_path

    def round(self, i: int, tally: Tally, tracer, oracle) -> None:
        call = self.calls[i % len(self.calls)]
        argv, figure_path = self._argv(call)
        if self.in_process:
            code, out, err, dt = self._in_process(argv, tracer)
        else:
            t0 = PERF()
            proc = subprocess.run([sys.executable, "-m", "spiralcurv", *argv], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            dt = PERF() - t0
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        kind = call["kind"]
        self.clock.add("light" if kind in LIGHT else "heavy" if kind in HEAVY else "defect", dt)
        self.records.append((call, code, out, err, _read_and_remove(figure_path)))
        if oracle is not None:  # in process the program is loaded: check now
            self.check(tally, oracle, tracer)

    def _in_process(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op += 1
        t0 = PERF()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
                    code = self.cli.main(argv)
            except Exception:  # noqa: BLE001 - uncaught, it would print a traceback
                traceback.print_exc()
                code = 1
        dt = PERF() - t0
        if tracer and code != 0:
            tracer.count("cli.exit_nonzero")
        return code, out.getvalue(), err.getvalue(), dt

    def check(self, tally: Tally, oracle, tracer=None) -> None:
        from spiralcurv import closed_form

        with Paused(tracer):
            for call, code, out, err, figure in self.records:
                check_cli(call, code, out, err, figure, closed_form, oracle, tally)
        self.records = []

    def summary(self, scaled: bool) -> dict:
        c = self.clock
        return {
            "main_per_s": 1.0 / c.median(("light",), scaled),
            "alt_per_s": 1.0 / c.median(("heavy",), scaled),
            "p50_ms": c.median(("light", "heavy", "defect"), scaled) * 1e3,
        }

    def details(self) -> dict:
        c = self.clock
        every = ("light", "heavy", "defect")
        return {"cli_p50_s": (c.median(every, False), "s"),
                "cli_light_p50_s": (c.median(("light",), False), "s"),
                "cli_heavy_p50_s": (c.median(("heavy",), False), "s"),
                "cli_calls": (c.count(every), "count")}


def check_cli(call: dict, code: int, out: str, err: str, figure, cf, oracle, tally: Tally) -> None:
    """Score one CLI call against its documented contract."""
    kind = call["kind"]
    known = kind in DEFECTS
    what = f"{' '.join(call['argv'])} -> exit {code}: {err.strip()[-300:]}"
    if checks.TRACEBACK in err:
        tally.op(False, what, known_defect=known)
        return
    if call.get("expect_exit") == 1:
        ok = code == 1 and any(line.startswith("domain error:") for line in err.splitlines())
        tally.op(ok, what, known_defect=known)
        return
    if code != 0:
        tally.op(False, what, known_defect=known)
        return
    try:
        ok = _check_cli_output(call, out, figure, cf, oracle, tally)
    except (ValueError, IndexError, KeyError) as exc:
        ok = False
        what += f" unparsable output: {exc!r}"
    tally.op(ok, what, known_defect=known)


def _check_cli_output(call, out, figure, cf, oracle, tally) -> bool:
    kind = call["kind"]
    if kind in ("curvature", "defect_negative_flag"):
        K, r, theta = call["K"], call["r"], call["theta"]
        err = checks.k_error(oracle, K, r, theta, float(out.strip()))
        return tally.error(err, checks.K_BOUNDS[inputs.region(K, r)])
    if kind == "figure":
        return figure is not None and checks.figure_ok(call["name"], figure)
    lines = out.strip().splitlines()
    if kind == "profile":
        spec = call["spec"]
        if lines[0] != "x,k,method" or len(lines) != spec["steps"] + 1:
            return False
        for line in lines[1:]:
            x, k, method = line.split(",")
            K, r = inputs.profile_point(spec, float(x))
            value, tag = cf.spiral_curvature_with_method(K, r, spec["theta"])
            if not checks.same_bits(value, float(k)) or tag != method:
                return False
        return True
    # trace: measured k against cos(theta) c(K, r), measured angle against theta
    if lines[0] != "t,x,y,z,u,v,k,theta_meas" or len(lines) != call["samples"] + 1:
        return False
    surface, theta, R = call["surface"], call["theta"], call["R"]
    ok = True
    for line in lines[1:]:
        t, *_, k, theta_meas = (float(f) for f in line.split(","))
        if surface == "plane":
            k_ref = math.cos(theta) / math.exp(-math.tan(theta) * t)
        elif surface == "sphere":
            k_ref = math.cos(theta) * inputs.circle_ref(1.0 / (R * R), R * (math.pi - 2.0 * t))
        elif surface == "pseudosphere":
            k_ref = -math.cos(theta) / R
        else:
            k_ref = math.cos(theta) * inputs.circle_ref(call["K"], t)
        ok &= tally.error(checks.rel_error(k, k_ref), checks.GEOMETRY_K_REL)
        ok &= abs(theta_meas - theta) <= checks.GEOMETRY_THETA_ABS
    return ok


# ---------------------------------------------------------------------------
# traced runs


def import_layer(count: int = 3) -> dict:
    """Per-field median over `count` runs of `python -X importtime`."""
    from tracing import parse_importtime

    runs = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spiralcurv"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import spiralcurv failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def traced(workload, args, oracle) -> dict:
    """Untraced rounds for a third of the run, then the same rounds traced;
    the ratio of their raw times is the tracing overhead.  Then the probe
    fills the per-layer times of layers the workload never called."""
    from probe import run_probe
    from tracing import Tracer, layer_metrics, per_layer_names

    imports = import_layer()
    tally = Tally()
    n = rounds_loop(workload, lambda i: workload.round(i, tally, None, oracle),
                    args.seconds / 3.0)
    plain = sum(workload.clock.round_s)
    workload.clock = Clock()
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        rounds_loop(workload, lambda i: workload.round(i, tally, tracer, oracle), 0.0, count=n)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    overhead = sum(workload.clock.round_s) / plain
    per_layer = layer_metrics(tracer, imports, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.jsonl")  # the latest traced run only

    probe = Tracer()
    probe.install()
    try:
        run_probe(probe, OUT)
    finally:
        probe.uninstall()
    probe.write(OUT / f"spans-{args.workload}-probe.jsonl")
    probed = layer_metrics(probe, imports, overhead)
    for name, unit in per_layer_names():
        if per_layer[name] == 0 and unit in ("s", "ms", "us", "ns"):
            per_layer[name] = probed[name]
    return {"tally": tally, "per_layer": per_layer,
            "details": {"traced_rounds": (n, "count"), "trace_overhead_ratio": (overhead, "1")}}


# ---------------------------------------------------------------------------


WORKLOADS = {"cold-cli": ColdCli, "sweep": Sweep, "geometry": Geometry, "verify": Verify}


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measured(workload, args) -> dict:
    """The untraced run: rounds for `seconds`, checked, then summarized."""
    tally = Tally()
    oracle = None if args.workload == "cold-cli" else checks.load_oracle(ROOT)
    rounds_loop(workload, lambda i: workload.round(i, tally, None, oracle), args.seconds)
    rss = peak_rss_mb()
    if oracle is None:  # cold-cli: the client loads the program only now
        workload.check(tally, checks.load_oracle(ROOT))
    speed = workload.clock.speed()
    details = {**workload.details(),
               "speed_scale_p50": (statistics.median(speed), "1"),
               "speed_scale_min": (min(speed), "1"), "speed_scale_max": (max(speed), "1")}
    return {"tally": tally, "peak_rss_mb": rss, **workload.summary(scaled=True),
            "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "cold-cli":
        workload = ColdCli(args.seed, in_process=bool(args.trace))
    else:
        workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(workload, args, checks.load_oracle(ROOT))
    else:
        result = measured(workload, args)
    tally = result.pop("tally")
    result.update(
        attempted=tally.attempted, failed=tally.failed, correct=tally.correct,
        known_defects_failed=tally.known_defects_failed, unexpected=tally.unexpected,
        max_rel_err=tally.max_rel_err, versions=versions(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
