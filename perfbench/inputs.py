"""Seeded inputs for every workload.

Pure Python on purpose: nothing here imports the program, so the cold-cli
client can build its command lines before any spiralcurv import, and the
reference values the checks use come from independent formulas.  The same
seed always yields the same inputs.
"""

from __future__ import annotations

import math
import random

# |K| r^2 below this, the program evaluates its series branch.
SERIES_WINDOW = 1e-4

# Profile sizes of one sweep round: per-call overhead shows at the small end
# (P50_RUNG, timed alone for the p50), per-point cost at the large end.  The
# ladder, and the rotation of sweep kinds over it, are fixed so that every
# run does the same mix of work; only the parameters are seeded.
PROFILE_LADDER = (10, 10, 10, 100, 1000, 10000, 100000)
P50_RUNG = 10
SCALAR_POINTS = 1000          # points per round, each sent to 3 functions
ORACLE_ROWS = 5               # profile rows per call compared with the oracle
ORACLE_SCALARS = 20           # scalar points per round compared with the oracle

GEOMETRY_T_PER_CURVE = 6
POLAR_GRID = 600              # interpolation points of an embedded polar trace

# Pool sizes: more rounds than a 60-second run consumes; runs wrap around.
SWEEP_ROUNDS = 256
GEOMETRY_ROUNDS = 1024
CLI_CYCLES = 16

FIGURES = ("spiral", "pseudosphere", "sphere-loxodrome", "pseudosphere-loxodrome", "k-surface")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _below_conjugate(K: float, r: float) -> bool:
    """The program's own admissibility test for K > 0, evaluated identically."""
    return K <= 0.0 or r * math.sqrt(K) < math.pi


def _near_conjugate_a(rng: random.Random) -> float:
    return math.pi * (1.0 - _logu(rng, 1e-6, 1e-2))


def region(K: float, r: float) -> str:
    """Which branch of c(K, r) a point exercises; each has its own error bound."""
    y = K * r * r
    if abs(y) < SERIES_WINDOW:
        return "series"
    if K < 0.0:
        return "coth"
    if r * math.sqrt(K) >= 0.9 * math.pi:
        return "near_conjugate"
    return "cot"


def circle_ref(K: float, r: float) -> float:
    """c(K, r) from the defining cot/coth expressions (double precision)."""
    if K > 0.0:
        return math.sqrt(K) / math.tan(r * math.sqrt(K))
    if K < 0.0:
        return math.sqrt(-K) / math.tanh(r * math.sqrt(-K))
    return 1.0 / r


# ---------------------------------------------------------------------------
# sweep


def scalar_point(rng: random.Random) -> tuple:
    """One admissible (K, r, theta), drawn from the four branch regions."""
    theta = rng.uniform(0.05, math.pi - 0.05)
    while True:
        r = _logu(rng, 0.05, 10.0)
        u = rng.random()
        if u < 0.2:
            K = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.99) * SERIES_WINDOW / (r * r)
        elif u < 0.5:
            K = -_logu(rng, 1.02 * SERIES_WINDOW, 100.0) / (r * r)
        elif u < 0.85:
            K = (rng.uniform(0.0102, 0.9 * math.pi) / r) ** 2
        else:
            K = (_near_conjugate_a(rng) / r) ** 2
        if _below_conjugate(K, r):
            return (K, r, theta)


PROFILE_KINDS = ("r_tiny_K", "r_positive_K", "r_negative_K", "K_seam", "K_wide")


def profile_spec(rng: random.Random, steps: int, kind: str) -> dict:
    """A sweep along r at fixed K, or along K at fixed r, of one kind."""
    theta = rng.uniform(0.05, math.pi - 0.05)
    if kind.startswith("r_"):
        if kind == "r_tiny_K":  # the seam ring |K| r^2 = 1e-4 falls inside the sweep
            K = rng.choice((-1.0, 1.0)) * _logu(rng, 1e-8, 1e-5)
            lo, hi = _logu(rng, 1e-3, 0.1), rng.uniform(1.0, 5.0)
        elif kind == "r_positive_K":
            K = _logu(rng, 0.01, 10.0)
            s = math.sqrt(K)
            a_hi = _near_conjugate_a(rng) if rng.random() < 0.4 else rng.uniform(1.0, 0.9 * math.pi)
            lo, hi = rng.uniform(0.001, 0.3) / s, a_hi / s
        else:
            K = -_logu(rng, 0.01, 10.0)
            lo, hi = _logu(rng, 1e-3, 0.3), rng.uniform(1.0, 20.0)
        if not _below_conjugate(K, hi):
            return profile_spec(rng, steps, kind)
        return {"axis": "r", "fixed": K, "min": lo, "max": hi, "steps": steps, "theta": theta}
    r = _logu(rng, 0.1, 5.0)
    if kind == "K_seam":  # a narrow band around K = 0: mostly series rows
        lo = -rng.uniform(0.3, 3.0) * SERIES_WINDOW / (r * r)
        hi = rng.uniform(0.3, 3.0) * SERIES_WINDOW / (r * r)
    else:
        lo = -rng.uniform(0.5, 20.0) / (r * r)
        a_hi = _near_conjugate_a(rng) if rng.random() < 0.4 else rng.uniform(0.3, 0.9 * math.pi)
        hi = (a_hi / r) ** 2
    if not _below_conjugate(hi, r):
        return profile_spec(rng, steps, kind)
    return {"axis": "K", "fixed": r, "min": lo, "max": hi, "steps": steps, "theta": theta}


def profile_point(spec: dict, x: float) -> tuple:
    """(K, r) of one profile row."""
    return (spec["fixed"], x) if spec["axis"] == "r" else (x, spec["fixed"])


def sweep_inputs(seed: int) -> list:
    rng = rng_for("sweep", seed)
    rounds = []
    for _ in range(SWEEP_ROUNDS):
        profiles = [profile_spec(rng, n, PROFILE_KINDS[(len(rounds) + j) % len(PROFILE_KINDS)])
                    for j, n in enumerate(PROFILE_LADDER)]
        checked_rows = [
            sorted({0, n - 1, *(rng.randrange(n) for _ in range(ORACLE_ROWS - 2))})
            for n in PROFILE_LADDER
        ]
        points = [scalar_point(rng) for _ in range(SCALAR_POINTS)]
        checked_points = sorted(rng.sample(range(SCALAR_POINTS), ORACLE_SCALARS))
        rounds.append(
            {
                "profiles": profiles,
                "checked_rows": checked_rows,
                "points": points,
                "checked_points": checked_points,
            }
        )
    return rounds


# ---------------------------------------------------------------------------
# geometry


def _angle_off_right(rng: random.Random) -> float:
    """An angle in (0, pi) with |cos| >= 0.36, so that k stays well away
    from its zero and a relative comparison is meaningful."""
    th = rng.uniform(0.35, 1.2)
    return th if rng.random() < 0.5 else math.pi - th


def polar_grid(K: float, r0: float, r1: float) -> list:
    """Radii of the interpolation grid, padded past [r0, r1] exactly as the
    CLI pads its polar traces."""
    lo, hi = sorted((r0, r1))
    pad = min(0.02 * (hi - lo), 0.5 * lo)
    if K > 0.0:
        pad = min(pad, 0.5 * (math.pi / math.sqrt(K) - hi))
    pad = max(pad, 0.0)
    n = POLAR_GRID
    return [lo - pad + (hi - lo + 2.0 * pad) * i / (n - 1) for i in range(n)]


def curve_spec(rng: random.Random, family: str) -> dict:
    n = GEOMETRY_T_PER_CURVE
    if family == "plane":
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        theta = math.atan(a)
        ts = [rng.uniform(-0.5, 1.5) / abs(a) for _ in range(n)]
        rs = [math.exp(-a * t) for t in ts]
        k_ref = [math.cos(theta) / r for r in rs]
        return {"family": family, "a": a, "theta": theta, "ts": ts, "k_ref": k_ref}
    if family == "sphere":
        R = rng.uniform(0.5, 2.0)
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        theta = math.atan2(1.0, a)
        vs = [rng.uniform(0.4, 1.2) for _ in range(n)]
        ts = [(math.pi - v) / 2.0 for v in vs]
        k_ref = [math.cos(theta) * circle_ref(1.0 / (R * R), R * (math.pi - 2.0 * t)) for t in ts]
        return {"family": family, "R": R, "a": a, "theta": theta, "ts": ts, "k_ref": k_ref}
    if family == "pseudosphere":
        R = rng.uniform(0.5, 2.0)
        theta = _angle_off_right(rng)
        ts = [rng.uniform(0.35, 1.35) for _ in range(n)]
        # the loxodromes cross horocycles: the reference is the r -> oo limit
        k_ref = [-math.cos(theta) / R] * n
        return {"family": family, "R": R, "theta": theta, "ts": ts, "k_ref": k_ref}
    theta = _angle_off_right(rng)
    if family == "polar_plane":
        K = 0.0
        r0 = rng.uniform(0.4, 0.8)
        r1 = r0 + rng.uniform(0.8, 1.4)
    else:
        K = rng.uniform(0.25, 4.0)
        s = math.sqrt(K)
        r0, r1 = rng.uniform(0.35, 0.6) / s, rng.uniform(1.0, 1.35) / s
    span = r1 - r0
    ts = [rng.uniform(r0 + 0.05 * span, r1 - 0.05 * span) for _ in range(n)]
    k_ref = [math.cos(theta) * circle_ref(K, t) for t in ts]
    return {
        "family": family, "K": K, "theta": theta, "r0": r0, "r1": r1,
        "ts": ts, "k_ref": k_ref,
    }


GEOMETRY_FAMILIES = ("plane", "sphere", "pseudosphere", "polar_plane", "polar_sphere")


def geometry_inputs(seed: int) -> list:
    rng = rng_for("geometry", seed)
    return [[curve_spec(rng, f) for f in GEOMETRY_FAMILIES] for _ in range(GEOMETRY_ROUNDS)]


# ---------------------------------------------------------------------------
# cold-cli


def _num(x: float) -> str:
    return repr(float(x))


def _curvature_call(kind: str, K: float, r: float, theta: float) -> dict:
    return {
        "kind": kind,
        "argv": ["curvature", f"--K={_num(K)}", "--r", _num(r), "--theta", _num(theta)],
        "K": K, "r": r, "theta": theta,
    }


def _trace_call(rng: random.Random, surface: str) -> dict:
    samples = rng.randint(10, 50)
    theta = _angle_off_right(rng)
    R, K = 1.0, None
    if surface == "plane":
        theta = rng.uniform(0.35, 1.2)
        r0, r1 = rng.uniform(0.2, 1.0), rng.uniform(1.5, 3.0)
    elif surface == "sphere":
        R = rng.uniform(0.5, 2.0)
        r0, r1 = R * rng.uniform(0.4, 0.7), R * rng.uniform(0.9, 1.2)
    elif surface == "pseudosphere":
        R = rng.uniform(0.5, 2.0)
        r0, r1 = rng.uniform(0.35, 0.7), rng.uniform(1.0, 1.35)
    else:
        K = 0.0 if rng.random() < 0.5 else rng.uniform(0.25, 4.0)
        s = math.sqrt(K) if K > 0.0 else 1.0
        r0, r1 = rng.uniform(0.4, 0.6) / s, rng.uniform(1.0, 1.35) / s
    if rng.random() < 0.5:
        r0, r1 = r1, r0
    argv = ["trace", "--surface", surface]
    if K is not None:
        argv += [f"--K={_num(K)}"]
    argv += ["--R", _num(R), "--theta", _num(theta), "--r0", _num(r0), "--r1", _num(r1),
             "--samples", str(samples)]
    return {"kind": "trace", "argv": argv, "surface": surface, "K": K, "R": R,
            "theta": theta, "r0": r0, "r1": r1, "samples": samples}


def _defect_call(rng: random.Random, which: int) -> dict:
    """Inputs reproduced as defects on the seed, scored against their
    documented contract: exit 1 with a 'domain error:' line, or exit 0 with
    the right value for the valid K = -1e-6."""
    theta = rng.uniform(0.35, 1.2)
    r = rng.uniform(0.5, 2.0)
    if which == 0:
        return {"kind": "defect_nan", "argv": ["curvature", "--K", "nan", "--r", _num(r),
                                               "--theta", _num(theta)], "expect_exit": 1}
    if which == 1:
        # negative scientific notation written with a space, as a user types it
        return {"kind": "defect_negative_flag", "expect_exit": 0, "K": -1e-6, "r": r,
                "theta": theta,
                "argv": ["curvature", "--K", "-1e-6", "--r", _num(r), "--theta", _num(theta)]}
    r1 = rng.uniform(3.16, 3.3)
    return {"kind": "defect_antipode", "expect_exit": 1,
            "argv": ["trace", "--surface", "sphere", "--theta", _num(theta), "--r0", "0.5",
                     "--r1", _num(r1), "--samples", "10"]}


DEFECT_KINDS = ("defect_nan", "defect_negative_flag", "defect_antipode")


def cli_inputs(seed: int) -> list:
    """Cycles of ten CLI calls.  Every cycle has the same command mix (three
    curvature points, one profile, one trace per surface, one figure, one
    known-defect input), so each cycle costs about the same; the parameters,
    the figure and the defect are seeded."""
    rng = rng_for("cold-cli", seed)
    cycles = []
    for c in range(CLI_CYCLES):
        calls = []
        K, r, theta = scalar_point(rng)
        while region(K, r) == "series":
            K, r, theta = scalar_point(rng)
        calls.append(_curvature_call("curvature", K, r, theta))
        r = _logu(rng, 0.2, 5.0)
        K = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95) * SERIES_WINDOW / (r * r)
        calls.append(_curvature_call("curvature", K, r, rng.uniform(0.05, math.pi - 0.05)))
        r = _logu(rng, 0.2, 5.0)
        K = (_near_conjugate_a(rng) / r) ** 2
        if not _below_conjugate(K, r):
            K = (3.1 / r) ** 2
        calls.append(_curvature_call("curvature", K, r, rng.uniform(0.05, math.pi - 0.05)))
        spec = profile_spec(rng, rng.randint(2, 1000), rng.choice(PROFILE_KINDS))
        calls.append(
            {
                "kind": "profile", "spec": spec,
                "argv": ["profile", "--axis", spec["axis"], f"--fixed={_num(spec['fixed'])}",
                         f"--min={_num(spec['min'])}", f"--max={_num(spec['max'])}",
                         "--steps", str(spec["steps"]), "--theta", _num(spec["theta"])],
            }
        )
        for surface in ("plane", "sphere", "pseudosphere", "polar"):
            calls.append(_trace_call(rng, surface))
        name = FIGURES[rng.randrange(len(FIGURES))]
        calls.append({"kind": "figure", "name": name, "argv": ["figure", "--name", name]})
        calls.append(_defect_call(rng, (seed + c) % len(DEFECT_KINDS)))
        cycles.append(calls)
    return cycles
