"""The benchmark workloads: seeded inputs, the timed operation, the gates.

Each workload has three steps.  ``setup`` builds every input from the seed
(this is the set-up time), ``run`` is the timed region, and ``check`` applies
the acceptance tolerances outside the timed region and digests the result.
The seed only translates the datum by whole grid cells (an exact permutation
of its samples) or, for ``smoke``, sets the config seed, so every seed asks
for the same amount of work.

Why these three:

* ``smoke`` is the ``llglab run`` pipeline users run, on the bundled config,
  and the output tree that must stay byte-identical; ball norms
  (``morrey_norm``) dominate it.
* ``cross_solver`` is the c08 acceptance datum without its refinement half;
  the direct integrator (``llg_rhs`` and its Laplacian) dominates it.
* ``picard_large`` is the c06 quadrature-pair bump at ball norm 3.0, near the
  contraction threshold; the mild solver's Duhamel loop dominates it, and it
  calls ``morrey_norm`` rarely, on stride-2 N=64 lattices.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import llglab as L

TWO_PI = 2.0 * np.pi

# Full size is the benchmark; reduced size keeps the same code paths for the
# self-tests.  The reduced smoke pipeline keeps N=32 (the identity residuals
# miss their 1e-8 gate at N=16) and drops semigroup_decay, which always runs
# on its own 64^2 grid.
SIZES = {
    "full": {"smoke_reduced": False, "n": 64},
    "reduced": {"smoke_reduced": True, "n": 16},
}

CROSS_GATE = 1e-3  # c08: sup relative discrepancy of |grad m|
PICARD_NORM = 3.0  # ball norm of the picard_large datum
PICARD_CFG = dict(lam=1.0, p=3.2, t_end=0.5, time_steps=16, duhamel_substeps=8,
                  picard_tol=1e-12, picard_max_iter=40, smallness=np.inf)


@dataclass
class Gate:
    """Outcome of one operation's correctness gates."""

    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    digest: str = ""
    detail: str = ""


def _shift(seed: int, grid) -> tuple:
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(0, grid.n, size=grid.dim))


def _translate(values: np.ndarray, shift: tuple) -> np.ndarray:
    return np.roll(values, shift, axis=tuple(range(-len(shift), 0)))


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the relative path and bytes of every matching file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# smoke: the config-driven pipeline


def smoke_setup(seed: int, workdir: Path, source_config: Path, size: str = "full") -> dict:
    parser = configparser.ConfigParser()
    parser.read(source_config)
    parser["output"]["seed"] = str(seed)
    parser["output"]["dir"] = str(workdir / "smoke_out")
    if SIZES[size]["smoke_reduced"]:
        checks = parser["experiments"]["checks"].split()
        parser["experiments"]["checks"] = " ".join(c for c in checks
                                                    if c != "semigroup_decay")
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "smoke.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return {"cfg": L.parse_config(path), "out": workdir / "smoke_out"}


def smoke_run(state: dict):
    outcomes, _ = L.run_config(state["cfg"], out_dir=state["out"], jobs=1)
    return outcomes


def smoke_check(state: dict, outcomes) -> Gate:
    bad = [f"{o.name}={o.status}" for o in outcomes if o.status != "PASS"]
    files = sorted(p.name for p in state["out"].iterdir())
    return Gate(attempted=len(state["cfg"].checks), failed=len(bad),
                counters={"checks": len(outcomes), "files": len(files)},
                digest=tree_digest(state["out"]), detail=" ".join(bad))


# ---------------------------------------------------------------------------
# cross_solver: direct integrator against the mild solver (c08 datum)


def cross_setup(seed: int, workdir: Path, source_config: Path, size: str = "full") -> dict:
    grid = L.make_grid(2, SIZES[size]["n"], TWO_PI)
    m0 = L.generate_initial_data(
        L.InitialDataSpec(kind="equatorial_wave", amplitude=0.01), grid)
    shift = _shift(seed, grid)
    return {"grid": grid, "shift": shift,
            "m0": L.SpinField(grid, _translate(m0.values, shift))}


def cross_run(state: dict):
    return L.cross_validate(state["grid"], state["m0"], lam=1.0, t_end=0.5,
                            time_steps=16, duhamel_substeps=8, picard_tol=1e-12)


def cross_check(state: dict, rep) -> Gate:
    ok = rep.sup_discrepancy <= CROSS_GATE
    return Gate(attempted=1, failed=0 if ok else 1,
                counters={"direct_steps": rep.direct_steps,
                          "mild_iterations": rep.mild_iterations},
                digest=_sha256(rep.times, rep.discrepancies),
                detail=f"sup_discrepancy={rep.sup_discrepancy!r}")


# ---------------------------------------------------------------------------
# picard_large: the mild solver near its contraction threshold (c06 datum)


def picard_setup(seed: int, workdir: Path, source_config: Path, size: str = "full") -> dict:
    grid = L.make_grid(2, SIZES[size]["n"], TWO_PI)
    x = grid.coordinates()[0]
    bump = L.spectral_bump(grid, width=0.25)
    v0 = np.zeros((2,) + grid.shape, dtype=complex)
    v0[0] = bump * np.exp(1j * x)
    v0[1] = 0.5j * bump * np.exp(1j * x)
    v0 *= PICARD_NORM / L.morrey_norm(grid, v0, 2.0, 2.0).value
    shift = _shift(seed, grid)
    return {"grid": grid, "shift": shift, "v0": _translate(v0, shift),
            "cfg": L.CglConfig(**PICARD_CFG)}


def picard_run(state: dict):
    return L.picard_iterate(state["grid"], state["v0"], state["cfg"])


def picard_check(state: dict, result) -> Gate:
    cfg = state["cfg"]
    residual = L.fixed_point_residual(state["grid"], result, state["v0"], cfg)
    ok = result.converged and residual <= 10.0 * cfg.picard_tol
    xpt = result.xpt
    return Gate(attempted=1, failed=0 if ok else 1,
                counters={"iterations": result.iterations},
                digest=_sha256(np.asarray(result.increments),
                               np.array([xpt.r1, xpt.r2, xpt.r3]),
                               *result.trajectory.fields),
                detail=(f"converged={result.converged} residual={residual!r} "
                        f"final_increment={result.increments[-1]!r}"))


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "smoke": Workload(smoke_setup, smoke_run, smoke_check),
    "cross_solver": Workload(cross_setup, cross_run, cross_check),
    "picard_large": Workload(picard_setup, picard_run, picard_check),
}
