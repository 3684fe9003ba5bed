"""Command-line front end.

Subcommands: curvature (point evaluation), profile (1-D sweep to CSV),
trace (sample a constant-angle curve to CSV/SVG), verify (numerical
battery), figure (regenerate a named SVG).

Exit codes: 0 success, 1 inadmissible input ("domain error: ..." on
stderr), 2 verification failure, 3 malformed flags or an unwritable
--out path.  argparse owns every flag rule: --theta and --theta-deg are
one exclusive group (required by trace, pi/4 elsewhere), and --steps
and --samples are ints of at least 2; each command reads only the
parsed values.  All output is deterministic; floats are written in
shortest round-trip form (17 significant digits suffice to re-read them
exactly).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import DomainError, GeometryError

# Each subcommand imports the modules it uses when it runs, so that a call
# loads only what it computes with (the package needs neither numpy nor
# scipy).  For the same reason the parser spells out the jet modes
# (surfaces.JET_MODE_*) and the suite names (verify.SUITES).
_JETS = {"analytic": "analytic", "fd": "finite_difference"}
_SUITES = ("forms", "curves", "liouville", "analysis", "all")

# argparse takes a word that starts with "-" for a flag unless it looks
# like a negative number; this pattern takes exactly the words that float()
# reads after "-" ("-1e-6", "-1_000", "-Infinity", "-nan"), where D is a run
# of digits with single underscores between them, so "-1__0" is a flag
_D = r"(\d(_?\d)*)"
_NEGATIVE_NUMBER = re.compile(rf"^-(({_D}(\.{_D}?)?|\.{_D})(e[-+]?{_D})?|inf(inity)?|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 3.

    Subparsers are built by the same class, so every subcommand reads
    each negative number that float() reads as a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"spiralcurv: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(3) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="spiralcurv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse names a type in its message for a value it cannot read:
    # "invalid count value: 'x'"
    def count(text: str) -> int:
        if (n := int(text)) < 2:
            raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
        return n

    # closed_form's angle gate, in a domain error that names the degrees
    def degrees(text: str) -> float:
        from .closed_form import _require_angle

        theta = math.radians(float(text))
        try:
            _require_angle(theta)
        except DomainError:
            raise DomainError(f"theta-deg={text} outside (0, 180)") from None
        return theta

    def add_theta(p, default=None):
        theta = p.add_mutually_exclusive_group(required=default is None)
        theta.add_argument("--theta", type=float, default=default, help="angle in radians")
        theta.add_argument("--theta-deg", dest="theta", type=degrees, metavar="THETA_DEG",
                           help="angle in degrees")

    p = sub.add_parser("curvature", help="evaluate the spiral curvature at one point")
    p.add_argument("--K", type=float, default=0.0, help="ambient Gaussian curvature")
    p.add_argument("--r", type=float, default=1.0, help="geodesic radius")
    add_theta(p, default=math.pi / 4.0)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("profile", help="sweep curvature along r or K to CSV")
    p.add_argument("--axis", choices=("r", "K"), required=True)
    p.add_argument("--fixed", type=float, required=True, help="value of the non-swept variable")
    p.add_argument("--min", dest="x_min", type=float, required=True)
    p.add_argument("--max", dest="x_max", type=float, required=True)
    p.add_argument("--steps", type=count, required=True)
    add_theta(p, default=math.pi / 4.0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("trace", help="sample a constant-angle curve")
    p.add_argument(
        "--surface", choices=("plane", "sphere", "pseudosphere", "polar"), required=True
    )
    p.add_argument("--K", type=float, default=0.0, help="curvature for --surface polar")
    p.add_argument("--R", type=float, default=1.0, help="radius scale of the surface")
    add_theta(p)
    radius = "geodesic distance from the pole (tractroid colatitude v for pseudosphere)"
    p.add_argument("--r0", type=float, required=True, help=f"first sample: {radius}")
    p.add_argument("--r1", type=float, required=True, help=f"last sample: {radius}")
    p.add_argument("--samples", type=count, required=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--jets", choices=tuple(_JETS), default="analytic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--jets", choices=tuple(_JETS), default="analytic")
    p.add_argument("--format", choices=("report-text", "report-json"), default="report-text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="regenerate a named SVG figure")
    p.add_argument(
        "--name",
        choices=(
            "spiral",
            "pseudosphere",
            "sphere-loxodrome",
            "pseudosphere-loxodrome",
            "k-surface",
        ),
        required=True,
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def cmd_curvature(args) -> int:
    from . import closed_form as cf

    k = cf.spiral_curvature(args.K, args.r, args.theta)
    print(f"{k:.17g}")
    return 0


def cmd_profile(args) -> int:
    from . import closed_form as cf

    prof = cf.profile(args.axis, args.fixed, args.x_min, args.x_max, args.steps, args.theta)
    lines = ["x,k,method"]
    for (x, k), method in zip(prof.samples, prof.sample_methods):
        lines.append(f"{_fmt(x)},{_fmt(k)},{method}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _build_trace_curve(args):
    if args.surface == "polar":
        from .polar import _embedded_spiral
        return _embedded_spiral(args.K, args.theta, args.r0, args.r1), args.r0, args.r1
    from .curves import _spiral_on
    curve, t_at = _spiral_on(args.surface, args.R, args.theta)
    return curve, t_at(args.r0), t_at(args.r1)


def cmd_trace(args) -> int:
    from . import curves as cv
    from .closed_form import _linspace

    mode = _JETS[args.jets]
    curve, t0, t1 = _build_trace_curve(args)

    rows = []
    positions = []
    for t in _linspace(t0, t1, args.samples):
        s = cv.sample(curve, t, mode)
        u, v = curve.trace(t)
        p = s.position
        positions.append((p.x, p.y, p.z))
        rows.append(
            ",".join(_fmt(val) for val in (t, p.x, p.y, p.z, u, v, s.k, s.theta))
        )

    if args.format == "svg":
        from . import svg
        _write_text(args.out, svg.trace_svg(positions))
    else:
        _write_text(args.out, "\n".join(["t,x,y,z,u,v,k,theta_meas"] + rows) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import verify as vf

    reports = vf.run_suites(args.suite, _JETS[args.jets])
    if args.format == "report-json":
        _write_text(args.out, vf.reports_to_json(reports) + "\n")
    else:
        _write_text(args.out, vf.reports_to_text(reports) + "\n")
    return 0 if all(r.passed for r in reports) else 2


def cmd_figure(args) -> int:
    from . import svg

    _write_text(args.out, svg.render_figure(args.name))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except GeometryError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
