#!/usr/bin/env python3
"""Compare what two checkouts of spiralcurv print and write.

    python3 tools/same_outputs.py PARENT CHANGE

Runs a fixed list of CLI commands, each as `python -m spiralcurv ...` in a
fresh interpreter whose PYTHONPATH is the checkout's src/ and whose working
directory is a new empty folder, once per checkout.  Prints every
difference in exit code, stdout, stderr and written file, and exits 1 if
there is any.  The list: verify in text and JSON with both jet modes and
each suite alone, the five figures, and every curvature, profile and trace
command of .github/workflows/tests.yml, its error commands included.
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
    *(f"figure --name {name} --out {name}.svg" for name in FIGURES),
    # the runs without numpy
    "curvature --K -1e-6 --r 2 --theta-deg 60",
    "trace --surface sphere --theta 1 --r0 0.5 --r1 1.2 --samples 20",
    "trace --surface pseudosphere --jets fd --theta 1 --r0 0.5 --r1 1.2 --samples 3",
    # every surface reads back its angle, and the polar trace by the conjugate radius
    *(f"trace --surface {surface} --theta {theta} --r0 0.5 --r1 1.2 --samples 5"
      for surface in SURFACES for theta in (1, 2)),
    *(f"trace --surface polar --K 3 --theta 1 --r0 0.5 --r1 {r1} --samples 3"
      for r1 in ("1.81379936", "1.8137993640528378")),
    # next to the sphere pole, far out on the plane, a tiny sphere, the tractroid floor
    "trace --surface sphere --theta 0.6 --r0 0.05 --r1 1 --samples 3",
    "trace --surface sphere --R 2.5 --theta 0.6 --r0 0.05 --r1 6 --samples 40",
    "trace --surface sphere --R 2.5 --theta 0.6 --r0 0.05 --r1 6 --samples 40 --jets fd",
    "trace --surface plane --theta 1 --r0 1e103 --r1 2e103 --samples 2",
    "trace --surface pseudosphere --theta 1 --r0 0.001 --r1 0.5 --samples 3",
    "trace --surface sphere --R 1e-7 --theta 1 --r0 5e-8 --r1 1e-7 --samples 2",
    "trace --surface pseudosphere --theta 1 --r0 1.326570320789366 --r1 0.001 --samples 2",
    # the import checks
    "curvature --K 1e-6 --series",
    "profile --axis r --fixed 1 --min 0.1 --max 2 --steps 1000 --theta 0.7",
    "profile --axis K --fixed 1 --min -1 --max 1 --steps 9",
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
    "curvature --K 4 --r 2",
    "trace --surface sphere --theta 1 --r0 0.5 --r1 3.2 --samples 5",
    "trace --surface polar --K 1 --theta 1 --r0 0.5 --r1 4 --samples 5",
    "trace --surface sphere --R 1e-300 --theta 1 --r0 1e-301 --r1 2e-301 --samples 2",
    "trace --surface sphere --R 1e100 --theta 1 --r0 5e99 --r1 1e100 --samples 2",
    "trace --surface pseudosphere --jets fd --theta 1 --r0 0.001 --r1 0.5 --samples 3",
    *(f"trace --surface polar --K {K} --theta 1 --r0 0.5 --r1 1.2 --samples 3"
      for K in ("nan", "inf")),
]


def run(checkout: str, command: str) -> dict:
    """Exit code, stdout, stderr and the files written, of one command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
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
