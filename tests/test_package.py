import importlib
import os
import subprocess
import sys

import pytest

import spiralcurv

SUBMODULES = (
    "cli", "closed_form", "curves", "errors", "liouville", "numdiff", "polar", "surfaces",
    "svg", "vec", "verify",
)


def run_fresh(code: str, *flags: str) -> str:
    """Run `code` in a new interpreter, started with `flags`, that imports
    this checkout's package."""
    src = os.path.dirname(os.path.dirname(spiralcurv.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    ).stdout


def test_import_loads_no_submodule():
    out = run_fresh(
        "import sys, spiralcurv\n"
        "print(sorted(m for m in sys.modules if m.startswith('spiralcurv.')))"
    )
    assert out.strip() == "[]"


def test_submodule_attributes_resolve_on_first_access():
    out = run_fresh(
        "import spiralcurv, sys\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(spiralcurv, name) is sys.modules['spiralcurv.' + name], name\n"
        "print('ok')"
    )
    assert out.strip() == "ok"


def test_every_public_name_resolves_to_its_definition():
    assert len(spiralcurv.__all__) == len(set(spiralcurv.__all__)) == 64
    for name in spiralcurv.__all__:
        module = importlib.import_module(f"spiralcurv.{spiralcurv._ORIGIN[name]}")
        assert getattr(spiralcurv, name) is getattr(module, name), name
    assert spiralcurv.__version__ == "0.1.0"


def test_star_import_and_dir():
    out = run_fresh(
        "ns = {}\n"
        "exec('from spiralcurv import *', ns)\n"
        "import spiralcurv\n"
        "assert sorted(n for n in ns if n != '__builtins__') == sorted(spiralcurv.__all__)\n"
        "assert ns['spiral_curvature'] is spiralcurv.closed_form.spiral_curvature\n"
        "print('ok')"
    )
    assert out.strip() == "ok"
    listed = dir(spiralcurv)
    assert set(spiralcurv.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spiralcurv.no_such_name


def test_every_subcommand_runs_with_numpy_and_scipy_blocked(tmp_path):
    # a meta-path finder, installed before the package is imported, that
    # records every numpy or scipy lookup and fails it: the package has no
    # runtime dependencies, and no subcommand even tries either import
    figure = str(tmp_path / "figure.svg")
    argvs = [
        ["curvature", "--K", "-1", "--r", "1", "--theta-deg", "60"],
        ["curvature", "--K", "1e-6", "--series"],
        ["profile", "--axis", "K", "--fixed", "1", "--min", "-1", "--max", "1", "--steps", "9"],
        ["trace", "--surface", "sphere", "--theta", "1", "--r0", "0.5", "--r1", "1",
         "--samples", "5", "--format", "svg", "--out", figure],
    ]
    for jets in ("analytic", "fd"):
        argvs.append(["verify", "--suite", "all", "--jets", jets])
        for surface, extra in (("plane", []), ("sphere", []), ("pseudosphere", []),
                               ("polar", ["--K", "1"])):
            r0, r1 = ("0.4", "1.3") if surface == "pseudosphere" else ("0.5", "1.2")
            argvs.append(["trace", "--surface", surface, *extra, "--theta", "1", "--r0", r0,
                          "--r1", r1, "--samples", "5", "--jets", jets])
    for name in ("spiral", "pseudosphere", "sphere-loxodrome", "pseudosphere-loxodrome",
                 "k-surface"):
        argvs.append(["figure", "--name", name, "--out", figure])
    out = run_fresh(
        "import contextlib, io, sys\n"
        "looked_up = []\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
        "            looked_up.append(name)\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "from spiralcurv.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(looked_up)"
    )
    assert out.strip() == "[]"


def modules_after_main(argv, *flags: str) -> set:
    """The modules a fresh interpreter holds after cli.main(argv) returns 0."""
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from spiralcurv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(sys.modules))",
        *flags,
    )
    return set(out.split())


@pytest.mark.parametrize("argv", [
    ["curvature", "--K", "-1", "--r", "1", "--theta-deg", "60"],
    ["curvature", "--K", "1e-6", "--series"],
    ["profile", "--axis", "r", "--fixed", "1", "--min", "0.1", "--max", "2", "--steps", "5"],
    ["profile", "--axis", "K", "--fixed", "1", "--min", "-1", "--max", "1", "--steps", "9"],
])
def test_light_subcommands_load_no_dataclasses_inspect_or_typing(argv):
    # -S skips site, which can load typing through a .pth file before main runs
    loaded = modules_after_main(argv, "-S")
    assert {"spiralcurv.cli", "spiralcurv.closed_form"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}
    assert not {m for m in loaded if m.startswith("spiralcurv.")} - {
        "spiralcurv.cli", "spiralcurv.closed_form", "spiralcurv.errors"
    }


@pytest.mark.parametrize("surface", ["plane", "sphere", "pseudosphere"])
def test_csv_trace_off_the_polar_surface_loads_neither_svg_nor_polar(surface):
    loaded = modules_after_main(
        ["trace", "--surface", surface, "--theta", "1", "--r0", "0.5", "--r1", "1.2",
         "--samples", "3"]
    )
    assert "spiralcurv.curves" in loaded
    assert not loaded & {"spiralcurv.svg", "spiralcurv.polar"}
