"""Command line entry points.

    llglab run --config CFG [--out DIR]
    llglab verify-semigroup --p 2 --p-tilde 4 --q 2 [--gradient] ...
    llglab cgl solve --p 3.2 --lambda 1.0 --T 0.5 --steps 16 --tol 1e-8
                     --v0 SNAPSHOT [--substeps 8] [--out DIR]
    llglab llg run --lambda 1.0 --T 0.5 --dt 1e-4 --scheme projected-rk2
                   --out-dir DIR --snapshot-every 4 ...

All CSV output goes through runner's writers: '.' decimals, ',' separators, a
header row, and LF line endings; snapshots use the LLGF binary format (see
fields.save_snapshot).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cgl import CglConfig, NonContraction, picard_iterate
from .config import ConfigError
from .fields import as_complex_components, float_repr, load_snapshot, make_grid, save_snapshot
from .initial_data import KINDS, InitialDataSpec, generate_initial_data
from .llg import SCHEMES, LlgConfig, solve, stability_cap
from .runner import (_write_csv, _write_decay_series, _write_ledger, _write_picard_log,
                     run_experiment)
from .semigroup import DECAY_C_MAX, DECAY_GRID, DECAY_NUM_T, decay_datum, verify_decay


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float, default=2.0 * np.pi)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="equatorial_wave", choices=KINDS)
    p.add_argument("--amplitude", type=float, default=InitialDataSpec.amplitude)
    p.add_argument("--wavenumber", type=int, default=InitialDataSpec.wavenumber)
    p.add_argument("--width", type=float, default=InitialDataSpec.width)
    p.add_argument("--mollification-k", type=float, default=InitialDataSpec.mollification_k)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llglab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config-declared experiment pipeline")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)

    ver_p = sub.add_parser("verify-semigroup",
                           help="one-sided decay checks, one CSV per case")
    _add_grid_args(ver_p)
    ver_p.set_defaults(**dict(zip(("dim", "n", "length"), DECAY_GRID)))
    ver_p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ver_p.add_argument("--p", type=float, default=2.0)
    ver_p.add_argument("--p-tilde", type=float, default=4.0)
    ver_p.add_argument("--q", type=float, default=2.0)
    ver_p.add_argument("--gradient", action="store_true")
    ver_p.add_argument("--num-t", type=int, default=DECAY_NUM_T)
    ver_p.add_argument("--c-max", type=float, default=DECAY_C_MAX)
    ver_p.add_argument("--out", default="semigroup_out")

    cgl_p = sub.add_parser("cgl", help="mild-solver commands")
    cgl_sub = cgl_p.add_subparsers(dest="cgl_command", required=True)
    solve_p = cgl_sub.add_parser("solve", help="run the Picard iteration")
    solve_p.add_argument("--p", type=float, default=CglConfig.p)
    solve_p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    solve_p.add_argument("--T", dest="t_end", type=float, default=CglConfig.t_end)
    solve_p.add_argument("--steps", type=int, default=CglConfig.time_steps)
    solve_p.add_argument("--tol", type=float, default=CglConfig.picard_tol)
    solve_p.add_argument("--substeps", type=int, default=CglConfig.duhamel_substeps)
    solve_p.add_argument("--v0", required=True,
                         help="LLGF snapshot with 2*dim components (re/im pairs)")
    solve_p.add_argument("--out", default="cgl_out")

    llg_p = sub.add_parser("llg", help="direct-integrator commands")
    llg_sub = llg_p.add_subparsers(dest="llg_command", required=True)
    run_llg = llg_sub.add_parser("run", help="integrate and write the energy ledger")
    _add_grid_args(run_llg)
    _add_data_args(run_llg)
    run_llg.add_argument("--lambda", dest="lam", type=float, default=1.0)
    run_llg.add_argument("--T", dest="t_end", type=float, default=0.5)
    run_llg.add_argument("--dt", type=float, default=None)
    run_llg.add_argument("--dt-fraction", type=float, default=None,
                         help="step over the stability cap (default 0.5); not with --dt")
    run_llg.add_argument("--scheme", default=LlgConfig.scheme, choices=SCHEMES)
    run_llg.add_argument("--outputs", type=int, default=17)
    run_llg.add_argument("--snapshot-every", type=int, default=0,
                         help="write every k-th output snapshot (0 = none)")
    run_llg.add_argument("--out-dir", default="llg_out")
    return parser


def _cmd_verify_semigroup(args) -> int:
    try:
        grid = make_grid(args.dim, args.n, args.length)
        params, bump, times = decay_datum(args.lam, grid, num=args.num_t)
        rep = verify_decay(bump, args.p, args.p_tilde, args.q, times, params,
                           gradient_norm=args.gradient, c_max=args.c_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"p{args.p:g}_pt{args.p_tilde:g}_q{args.q:g}" + ("_grad" if args.gradient else "")
    path = Path(args.out) / f"decay_{tag}.csv"
    _write_decay_series(path, rep)
    print(f"[{'PASS' if rep.passed else 'FAIL'}] max_ratio={rep.max_ratio:.4g} -> {path}")
    return 0 if rep.passed else 1


def _cmd_cgl_solve(args) -> int:
    try:
        grid, comps = load_snapshot(args.v0)
        if comps.shape[0] != 2 * grid.dim:
            raise ValueError(f"snapshot holds {comps.shape[0]} components, expected "
                             f"{2 * grid.dim} (re/im pairs for {grid.dim} complex fields)")
        v0 = as_complex_components(comps)
        config = CglConfig(lam=args.lam, p=args.p, t_end=args.t_end,
                           time_steps=args.steps, picard_tol=args.tol,
                           duhamel_substeps=args.substeps)
        result = picard_iterate(grid, v0, config, track_xpt=True)
    except NonContraction as exc:
        print(f"non-contraction: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    _write_picard_log(out / "iterations.csv", result)
    _write_csv(out / "times.csv", "index,t", enumerate(result.trajectory.times))
    for i, u in enumerate(result.trajectory.fields):
        save_snapshot(out / f"u_{i:04d}.llgf", grid, u)
    print(f"converged={result.converged} iterations={result.iterations} "
          f"xpt_total={result.xpt.total!r}")
    return 0 if result.converged else 1


def _cmd_llg_run(args) -> int:
    try:
        grid = make_grid(args.dim, args.n, args.length)
        if args.dt is not None and args.dt_fraction is not None:
            raise ValueError("--dt and --dt-fraction are both set; keep one")
        if args.dt is None:
            frac = 0.5 if args.dt_fraction is None else args.dt_fraction
            dt = frac * stability_cap(grid, args.lam)
        else:
            dt = args.dt
        config = LlgConfig(grid=grid, lam=args.lam, t_end=args.t_end, dt=dt,
                           scheme=args.scheme)
        spec = InitialDataSpec(kind=args.kind, amplitude=args.amplitude,
                               wavenumber=args.wavenumber, width=args.width,
                               mollification_k=args.mollification_k)
        m0 = generate_initial_data(spec, grid, args.seed)
        result = solve(m0, config, n_outputs=args.outputs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out_dir)
    _write_ledger(out / "ledger.csv", result.ledger)
    if args.snapshot_every > 0:
        for i, mv in enumerate(result.trajectory.fields):
            if i % args.snapshot_every == 0:
                save_snapshot(out / f"m_{i:04d}.llgf", grid, mv)
    print(f"steps={result.meta['steps']} final_energy={float_repr(result.ledger.energy[-1])}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            return run_experiment(args.config, out_dir=args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.command == "verify-semigroup":
        return _cmd_verify_semigroup(args)
    if args.command == "cgl":
        return _cmd_cgl_solve(args)
    if args.command == "llg":
        return _cmd_llg_run(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
