#!/usr/bin/env python3
"""Census of the llglab functions that no command-line path calls.

    python3 scripts/reach.py

Runs, in a temporary directory and under ``sys.setprofile``, each path a
user takes through ``llglab.cli``:

* ``run`` on a tiny config that declares all ten checks;
* ``verify-semigroup``, without and with ``--gradient``;
* ``llg run``, writing snapshots;
* ``cgl solve``, on a gauge datum written before the census starts.

It then prints, one per line as ``module.qualname``, every function
defined in this checkout's ``src/llglab`` whose code never ran: module
functions, methods, properties and nested functions (not lambdas or
comprehensions).  The import of the package runs under the census too, so
a function called at import counts as reached.  Nothing is written inside
the repository, bytecode included.  The exit code is that of the first
path that failed, else 0.

Standard library only (plus llglab's own dependencies).
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CONFIG = """\
[grid]
dim = 2
n = 16
length = 6.283185307179586

[initial_data]
kind = equatorial_wave
amplitude = 0.1
m_infinity = 0 0 1

[llg]
lambda = 1.0
t_end = 0.05
dt_fraction = 1.0
outputs = 5

[cgl]
lambda = 1.0
t_end = 0.05
time_steps = 4
duhamel_substeps = 2
picard_tol = 1e-10
smallness = 1.0

[experiments]
checks = energy identities semigroup_decay exponent_window picard mollify cross_solver uniqueness solution_decay stability

[output]
seed = 7
"""


def defined_functions() -> dict:
    """{(file, first line, qualname): "module.qualname"} for every named
    function whose source is under ``src/llglab``."""
    found = {}

    def walk(code, module):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                if not const.co_name.startswith("<"):
                    qualname = getattr(const, "co_qualname", const.co_name)
                    found[(const.co_filename, const.co_firstlineno, qualname)] = \
                        f"{module}.{qualname}"
                walk(const, module)

    for path in sorted((SRC / "llglab").glob("*.py")):
        module = path.stem if path.stem != "__init__" else "llglab"
        walk(compile(path.read_text(), str(path), "exec"), module)
    return found


def paths(tmp: Path):
    """(name, argv) of each command-line path, and a set-up to run untraced
    before them."""
    cfg = tmp / "all_checks.cfg"
    v0 = tmp / "v0.llgf"

    def setup():
        from llglab.experiments import mild_initial_data
        from llglab.fields import make_grid, save_snapshot
        from llglab.initial_data import InitialDataSpec, generate_initial_data

        cfg.write_text(CONFIG)
        grid = make_grid(2, 16, 6.283185307179586)
        u = mild_initial_data(grid, generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.1), grid))
        save_snapshot(v0, grid, u)

    runs = [
        ("run", ["run", "--config", str(cfg), "--out", str(tmp / "run")]),
        ("verify-semigroup", ["verify-semigroup", "--out", str(tmp / "semigroup")]),
        ("verify-semigroup --gradient",
         ["verify-semigroup", "--gradient", "--out", str(tmp / "semigroup")]),
        ("llg run", ["llg", "run", "--n", "16", "--T", "0.05", "--outputs", "5",
                     "--snapshot-every", "2", "--out-dir", str(tmp / "llg")]),
        ("cgl solve", ["cgl", "solve", "--v0", str(v0), "--T", "0.05", "--steps", "4",
                       "--substeps", "2", "--out", str(tmp / "cgl")]),
    ]
    return setup, runs


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno,
                      getattr(code, "co_qualname", code.co_name)))

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        from llglab import cli
        sys.setprofile(None)
        setup, runs = paths(Path(tmp))
        setup()
        for name, argv in runs:
            out = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(argv)
            finally:
                sys.setprofile(None)
            if code:
                print(f"{name}: exit code {code}\n{out.getvalue()}", file=sys.stderr)
                status = status or code
    never = sorted(name for key, name in defined_functions().items() if key not in seen)
    for name in never:
        print(name)
    return status


if __name__ == "__main__":
    sys.exit(main())
