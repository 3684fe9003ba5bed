"""Output checks behind `correct`, `failed` and `max_rel_err`.

Every comparison runs outside the timed region.  References come from the
250-bit formulas of tools/oracle.py, from the independent double-precision
formulas in inputs.py, or from the byte digests of the figures as the seed
commit wrote them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
from pathlib import Path

from inputs import SERIES_WINDOW, region

# sha256 of `spiralcurv figure --name <name>` output at the seed commit.
FIGURE_SHA256 = {
    "spiral": "8e7b1eda9ad346f3b6d83008de78deb195b0b9f33182b0f68faf68f94a892597",
    "pseudosphere": "6098e873eaa60abeb2ef5a63234e3df9a590442cdf28e86e0d1df0fc2cf52861",
    "sphere-loxodrome": "ff2694cd8db410de953bd8fa474c7794f6783edca5df7cf39fe7b745610187b7",
    "pseudosphere-loxodrome": "42016caa8bd9be5c74fd2329a9630e0183b3efdf898d69d4d42daccb8115eaa2",
    "k-surface": "bc7777725143c87d96bdc3c5053119f93d1b06540816448e4f166a5c38128259",
}

# Bounds on the error of the closed form against the 250-bit oracle, one per
# branch region (inputs.region).  The error is relative, divided by the
# conditioning the inputs themselves impose (see k_error and dk_error); the
# worst seen over 33k seeded points was 1.0e-15 (k) and 1.9e-15 (dK).
K_BOUNDS = {"series": 2e-15, "coth": 2e-15, "cot": 8e-15, "near_conjugate": 2e-15}
DK_BOUNDS = {"series": 2e-15, "coth": 4e-15, "cot": 8e-15, "near_conjugate": 2e-15}

# The verify battery's tolerances for the same checks: 1e-5 relative on the
# curvature (curves.numeric_vs_closed_form) and 1e-7 absolute on the angle
# (curves.constant_angle), both times 100 with finite-difference jets.
GEOMETRY_K_REL = 1e-5
GEOMETRY_THETA_ABS = 1e-7
FD_TOL_SCALE = 100.0

TRACEBACK = "Traceback (most recent call last)"


def load_oracle(root: Path):
    path = root / "tools" / "oracle.py"
    spec = importlib.util.spec_from_file_location("spiralcurv_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def _conjugate_factor(K: float, r: float) -> float:
    """Condition number of cot near its pole: pi / (pi - r sqrt K)."""
    if region(K, r) != "near_conjugate":
        return 1.0
    return math.pi / (math.pi - r * math.sqrt(K))


def k_error(oracle, K: float, r: float, theta: float, value: float) -> float:
    """Error of k(K, r, theta) against cos(theta) * circle_curv(K, r).

    Relative to max(|ref|, |cos theta| sqrt|K|), so the zero of cot at
    r sqrt K = pi/2 does not turn rounding into a large ratio, and divided
    by the condition number of cot near the conjugate radius."""
    mp = oracle.mp
    c = mp.cos(mp.mpf(theta))
    ref = c * oracle.circle_curv(K, r)
    scale = max(abs(ref), abs(c) * mp.sqrt(abs(K)))
    return float(abs(mp.mpf(value) - ref) / scale) / _conjugate_factor(K, r)


def dk_error(oracle, K: float, r: float, theta: float, value: float) -> float:
    """Relative error of dk/dK against cos(theta) * circle_curv_dK(K, r),
    divided by the cancellation 1/(|K| r^2) the closed form suffers just
    outside the series window and by the conjugate-radius conditioning."""
    mp = oracle.mp
    ref = mp.cos(mp.mpf(theta)) * oracle.circle_curv_dK(K, r)
    y = abs(K) * r * r
    cancel = 1.0 / y if SERIES_WINDOW <= y < 1.0 else 1.0
    return float(abs(mp.mpf(value) - ref) / abs(ref)) / (cancel * _conjugate_factor(K, r))


def rel_error(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def figure_ok(name: str, data: bytes) -> bool:
    return hashlib.sha256(data).hexdigest() == FIGURE_SHA256[name]


class Tally:
    """Operations attempted and failed, and the worst checked error.

    A failure on an input listed as a known defect counts in `failed` but
    does not make the run incorrect; any other failure does."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_defects_failed = 0
        self.unexpected = []
        self.max_rel_err = 0.0

    def op(self, ok: bool, what: str = "", known_defect: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known_defect:
                self.known_defects_failed += 1
            elif len(self.unexpected) < 20:
                self.unexpected.append(what)
        return ok

    def error(self, err: float, bound: float) -> bool:
        """Record a checked error; True when it is within its bound (NaN is not)."""
        if math.isfinite(err):
            self.max_rel_err = max(self.max_rel_err, err)
        return err <= bound

    @property
    def correct(self) -> bool:
        return self.failed == self.known_defects_failed
