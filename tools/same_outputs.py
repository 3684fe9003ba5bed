#!/usr/bin/env python3
"""Compare what two checkouts of spiralcurv print and write.

    python3 tools/same_outputs.py PARENT CHANGE

Runs a fixed list of CLI commands, each as `python -m spiralcurv ...` in a
fresh interpreter with its own random hash seed, whose PYTHONPATH is the
checkout's src/ and whose working directory is a new empty folder, once
per checkout.  Given one checkout twice, it checks that each command's
output does not depend on the hash seed or on anything else of the run.
Prints every difference in exit code, stdout, stderr and written file,
and exits 1 if there is any.  The list: verify in text and JSON with
both jet modes and each suite alone, the forms suite alone also in JSON
and with FD jets, the five figures, every curvature, profile and trace
command of .github/workflows/tests.yml, its error commands included,
traces that read back their angle on every surface, a far-out plane
trace and a tiny-sphere trace, each in both jet modes, the tractroid
traces that the curve's parameter gate refuses below the floor and past
the rim, in both jet modes, with the gate's message, the traces that
reach each raise of the measurement kernel (the tractroid's rim and
sphere loxodromes whose k overflows to inf and to nan), in both jet
modes, the commands of the import checks, negative flag values with digit underscores, and
profiles and scalars across the seam ring and up to the conjugate
radius, and FD traces whose revolution angle u runs far from 0: the
polar spiral at theta = 1e-3 with K = 4 and K = 0, the plane's spiral
at theta = 3.136196698714557 from r0 = 1.952639558262677e-08, the
polar spiral at theta = 1e-5 in both jet modes, and a sphere trace whose
r1 = 1e-17 rounds t onto the end of the parameter range, in both jet
modes.  Against a checkout whose refusal of that trace names t, not r,
these two sphere commands are the only expected differences; every other
output is the same.
"""

import difflib
import os
import subprocess
import sys
import tempfile

SURFACES = ("plane", "sphere", "pseudosphere", "polar")
FIGURES = ("spiral", "pseudosphere", "sphere-loxodrome", "pseudosphere-loxodrome", "k-surface")

COMMANDS = [
    *(f"verify --suite all --jets {jets}{fmt}"
      for jets in ("analytic", "fd") for fmt in ("", " --format report-json")),
    *(f"verify --suite {suite}" for suite in ("forms", "curves", "liouville", "analysis")),
    # the forms suite alone in both jet modes and in JSON, where its grids read K
    "verify --suite forms --jets fd",
    "verify --suite forms --format report-json",
    "verify --suite forms --jets fd --format report-json",
    *(f"figure --name {name} --out {name}.svg" for name in FIGURES),
    # the runs without numpy
    "curvature --K -1e-6 --r 2 --theta-deg 60",
    "trace --surface sphere --theta 1 --r0 0.5 --r1 1.2 --samples 20",
    "trace --surface pseudosphere --jets fd --theta 1 --r0 0.5 --r1 1.2 --samples 3",
    # every surface reads back its angle in both jet modes, and the polar
    # trace by the conjugate radius
    *(f"trace --surface {surface} --theta {theta} --r0 0.5 --r1 1.2 --samples 5{jets}"
      for surface in SURFACES for theta in (1, 2) for jets in ("", " --jets fd")),
    *(f"trace --surface polar --K 3 --theta 1 --r0 0.5 --r1 {r1} --samples 3"
      for r1 in ("1.81379936", "1.8137993640528378")),
    # next to the sphere pole, far out on the plane, a tiny sphere, the tractroid floor
    "trace --surface sphere --theta 0.6 --r0 0.05 --r1 1 --samples 3",
    "trace --surface sphere --R 2.5 --theta 0.6 --r0 0.05 --r1 6 --samples 40",
    "trace --surface sphere --R 2.5 --theta 0.6 --r0 0.05 --r1 6 --samples 40 --jets fd",
    *(f"trace --surface plane --theta 1 --r0 1e103 --r1 2e103 --samples 2{jets}"
      for jets in ("", " --jets fd")),
    "trace --surface pseudosphere --theta 1 --r0 0.001 --r1 0.5 --samples 3",
    *(f"trace --surface sphere --R 1e-7 --theta 1 --r0 5e-8 --r1 1e-7 --samples 2{jets}"
      for jets in ("", " --jets fd")),
    "trace --surface pseudosphere --theta 1 --r0 1.326570320789366 --r1 0.001 --samples 2",
    # FD traces far out in u, where a step in u would be wrong on a map
    # 2 pi-periodic in u, and a polar theta below the old 1e-3 clamp
    "trace --surface polar --K 4 --theta 0.001 --r0 0.3 --r1 1.4 --samples 2 --jets fd",
    "trace --surface polar --K 0 --theta 0.001 --r0 0.5 --r1 1.2 --samples 3 --jets fd",
    "trace --surface plane --theta 3.136196698714557 --r0 1.952639558262677e-08 --r1 1"
    " --samples 2 --jets fd",
    *(f"trace --surface polar --theta 1e-5 --r0 0.3 --r1 1.2 --samples 2{jets}"
      for jets in ("", " --jets fd")),
    # a zero-length trace
    "trace --surface plane --theta 1 --r0 1 --r1 1 --samples 3",
    # curvature's removed --series flag, which exits 3
    "curvature --K 1e-6 --series",
    # the import checks
    "profile --axis r --fixed 1 --min 0.1 --max 2 --steps 1000 --theta 0.7",
    "profile --axis K --fixed 1 --min -1 --max 1 --steps 9",
    # profiles across the seam ring |K| r^2 = 1e-4, far out on the coth
    # branch, and up to r sqrt(K) = 0.9995 pi
    *(f"profile --axis r --fixed {K} --min 1 --max 20 --steps 50 --theta 0.7"
      for K in ("1e-6", "-1e-6")),
    "profile --axis r --fixed -4 --min 0.001 --max 20 --steps 50 --theta 0.7",
    "profile --axis K --fixed 1 --min -1 --max 9.859734796688269 --steps 50 --theta 0.7",
    "figure --name k-surface --out k-surface-imports.svg",
    # an unwritable --out exits 3
    "profile --axis r --fixed 1 --min 0.1 --max 2 --steps 5 --theta 0.7 --out missing-dir/out.txt",
    "figure --name spiral --out missing-dir/out.txt",
    "trace --surface sphere --theta 1 --r0 0.5 --r1 1.2 --samples 5 --format svg"
    " --out missing-dir/out.txt",
    "verify --suite analysis --out missing-dir/out.txt",
    # malformed flags exit 3
    "curvature --theta 1 --theta-deg 30",
    "trace --surface plane --r0 1 --r1 2 --samples 3",
    "profile --axis r --fixed 0 --min 0.5 --max 1 --steps 1",
    "trace --surface plane --theta 1 --r0 1 --r1 2 --samples 1",
    "curvature --series --terms 7",
    "curvature --theta-deg abc",
    # inadmissible input exits 1
    "curvature --K nan",
    "curvature --K -inf --r 1 --theta 1",
    "curvature --K -nan --r 1 --theta 1",
    "profile --axis K --fixed 1 --min -inf --max 0 --steps 3 --theta 1",
    "profile --axis r --fixed 4 --min 0.5 --max 3 --steps 9",
    "curvature --K 4 --r 2",
    "trace --surface sphere --theta 1 --r0 0.5 --r1 3.2 --samples 5",
    "trace --surface polar --K 1 --theta 1 --r0 0.5 --r1 4 --samples 5",
    "trace --surface polar --K 1e-320 --theta 1 --r0 0.5 --r1 1 --samples 2",
    "trace --surface sphere --R 1e-300 --theta 1 --r0 1e-301 --r1 2e-301 --samples 2",
    "trace --surface sphere --R 1e100 --theta 1 --r0 5e99 --r1 1e100 --samples 2",
    "trace --surface pseudosphere --jets fd --theta 1 --r0 0.001 --r1 0.5 --samples 3",
    # a sphere r so small that t = (pi - r)/2 rounds onto the end pi/2
    *(f"trace --surface sphere --theta 1 --r0 1 --r1 1e-17 --samples 2{jets}"
      for jets in ("", " --jets fd")),
    # the curve's parameter gate, below the tractroid's floor and past its rim
    *(f"trace --surface pseudosphere --theta 1 --r0 {r0} --r1 {r1} --samples 2{jets}"
      for r0, r1 in (("0.0005", "0.5"), ("0.5", "1.6")) for jets in ("", " --jets fd")),
    # each raise of the measurement kernel: on the tractroid's rim the
    # normal degenerates (FD: no stencil fits), and loxodromes so steep that
    # k overflows to inf and to nan
    *(f"trace --surface {surface} --theta {theta} --r0 {r0} --r1 {r1} --samples 2{jets}"
      for surface, theta, r0, r1 in (("pseudosphere", "1", "1.5", "1.5707963267948966"),
                                     ("sphere", "1e-130", "0.5", "1.2"),
                                     ("sphere", "1e-300", "0.5", "1.2"))
      for jets in ("", " --jets fd")),
    *(f"trace --surface polar --K {K} --theta 1 --r0 0.5 --r1 1.2 --samples 3"
      for K in ("nan", "inf")),
    "curvature --theta-deg -30",
    "profile --axis r --fixed 1 --min 0.5 --max 1 --steps 3 --theta-deg 200",
    "trace --surface plane --theta-deg 0 --r0 1 --r1 2 --samples 2",
    # a negative value with digit underscores, and a word float() does not read
    "curvature --K -1_000 --r 0.01",
    "profile --axis r --fixed -1_0 --min 0.1 --max 1 --steps 2",
    "curvature --K -1__0 --r 0.01",
    # the scalar on either side of the seam ring at either sign of K, at the
    # float below the conjugate radius, far out on the coth branch and at a
    # subnormal r; a refused (K, r) is named before a refused theta
    *(f"curvature --K {K} --r 1" for K in ("9.9e-5", "-9.9e-5", "1.01e-4", "-1.01e-4")),
    "curvature --K 1 --r 3.1415926535897927",
    "curvature --K -1e6 --r 1",
    "curvature --r 5e-324",
    "curvature --K 1 --r 4 --theta 5",
    "curvature --K nan --theta -1",
]


def run(checkout: str, command: str) -> dict:
    """Exit code, stdout, stderr and the files written, of one command."""
    src = os.path.join(os.path.abspath(checkout), "src")  # the runs have their own cwd
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONHASHSEED", None)  # each run draws its own seed
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "spiralcurv", *command.split()],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        )
        files = {}
        for folder, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, cwd)] = fh.read()
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, **files}


def show(name: str, old, new) -> None:
    if old is None or new is None:
        print(f"  {name}: written only by the {'parent' if new is None else 'change'}")
    elif isinstance(old, bytes):
        lines = difflib.unified_diff(
            old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines(),
            "parent", "change", lineterm="", n=0,
        )
        print(f"  {name}:")
        for line in list(lines)[2:22]:
            print(f"    {line}")
    else:
        print(f"  {name}: {old!r} -> {new!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = argv
    differ = 0
    for command in COMMANDS:
        old, new = run(parent, command), run(change, command)
        if old == new:
            continue
        differ += 1
        print(f"spiralcurv {command}")
        for name in sorted(set(old) | set(new), key=str):
            if old.get(name) != new.get(name):
                show(name, old.get(name), new.get(name))
    print(f"{len(COMMANDS)} commands, {differ} with a difference")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
