"""spiralcurv benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cold-cli,sweep,geometry,verify}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src, so
nothing needs building.  The workload runs in a child interpreter
(perfbench/worker.py), a closed loop with one client.  --trace 0 prints the
end-to-end metrics listed in BENCHMARK.json; --trace 1 prints the per-layer
metrics of a separate traced run.  Human-readable lines come first (run
metadata, then every metric by name and unit); the last line is the JSON
result.  A copy of everything, with the metadata, is written under
.perfbench_out/.  See perfbench/README.md for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import per_layer_names  # noqa: E402
from worker import child_env  # noqa: E402

PERF = time.perf_counter
WORKLOADS = ("cold-cli", "sweep", "geometry", "verify")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_per_s", "1/s"),
    ("alt_per_s", "1/s"),
    ("p50_ms", "ms"),
)


class BenchError(Exception):
    pass


def calibration_s() -> float:
    """Median wall time of a fixed pure-Python loop: a machine-speed yardstick."""
    def loop():
        t0 = PERF()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        return PERF() - t0
    return statistics.median(loop() for _ in range(3))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> dict:
    """The git commit when there is one, and always a digest of src/."""
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            head = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": head, "src_sha256": digest.hexdigest()}


def metadata() -> dict:
    load = os.getloadavg()
    return {
        **commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "loadavg_at_start": load,
        "calibration_loop_s": calibration_s(),
    }


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - PERF()))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


class Worker:
    """A worker process; `ready_s` is the wall time from its start to its
    "ready" line, that is interpreter start, import and input generation."""

    def __init__(self, args, deadline: float, extra=()):
        OUT.mkdir(exist_ok=True)
        self.err_path = OUT / f"worker-{args.workload}-{os.getpid()}.err"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *extra]
        with open(self.err_path, "w", encoding="utf-8") as err:
            t0 = PERF()
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                         stdout=subprocess.PIPE, stderr=err, text=True)
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           max(1.0, deadline - PERF()))
            line = self.proc.stdout.readline() if readable else ""
            self.ready_s = PERF() - t0
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"worker did not get ready: {line!r}\n{self.error_text()}")

    def error_text(self) -> str:
        return self.err_path.read_text(encoding="utf-8")[-3000:]

    def finish(self, deadline: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, deadline - PERF()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}:\n{self.error_text()}")
        self.err_path.unlink()
        return out


def setup_samples(args, deadline: float) -> list:
    """Set-up wall times of fresh interpreters (the measured worker adds one
    more for the in-process workloads)."""
    if args.workload == "cold-cli":
        times = []
        for _ in range(SETUP_SAMPLES):
            t0 = PERF()
            run_child([sys.executable, "-c", "import spiralcurv"], deadline)
            times.append(PERF() - t0)
        return times
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(args, deadline, ["--setup-only"])
        w.finish(deadline)
        times.append(w.ready_s)
    return times


def measure(args) -> tuple:
    start = PERF()
    deadline = start + DEADLINE_S
    meta = metadata()
    # Fill the bytecode and file caches once, unmeasured: a user pays that
    # only on the first run after installing.
    run_child([sys.executable, "-c", "import spiralcurv"], deadline)
    setup = [] if args.trace else setup_samples(args, deadline)
    worker = Worker(args, deadline)
    if args.workload != "cold-cli" and not args.trace:
        setup.append(worker.ready_s)
    result = json.loads(worker.finish(deadline).strip().splitlines()[-1])
    meta.update(result.pop("versions"))
    meta["setup_samples_s"] = setup
    meta["wall_s"] = PERF() - start
    if args.trace:
        units = dict(per_layer_names())
        metrics = {name: {"value": result["per_layer"][name], "unit": units[name]}
                   for name, _ in per_layer_names()}
    else:
        result["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    details = {
        "setup_s": (statistics.median(setup), "s") if setup else None,
        "peak_rss_mb": (result["peak_rss_mb"], "MB") if "peak_rss_mb" in result else None,
        "fail_ratio": (result["failed"] / result["attempted"], "1"),
        "max_rel_err": (result["max_rel_err"], "1"),
        **{k: tuple(v) for k, v in result["details"].items()},
    }
    details = {k: v for k, v in details.items() if v is not None}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    return meta, details, result, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spiralcurv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in ("src/spiralcurv/__init__.py", "tools/oracle.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: nothing to measure, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    try:
        meta, details, result, line = measure(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("meta " + json.dumps(meta))
    for name, (value, unit) in details.items():
        print(f"detail {name} {value:.6g} {unit}")
    for name, m in line["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    if result["unexpected"]:
        print("unexpected failures: " + json.dumps(result["unexpected"]))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta,
              "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
              "known_defects_failed": result["known_defects_failed"],
              "unexpected": result["unexpected"], **line}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
