"""INI-style lab configuration with a strict, documented schema.

Sections and keys (unknown ones are errors):

[grid]          dim, n, length
[initial_data]  kind, amplitude, wavenumber, width, mollification_k,
                m_infinity (three floats), roughness_modes
[llg]           lambda, t_end, dt | dt_fraction, scheme, outputs (>= 2)
[cgl]           lambda, p, t_end, time_steps, duhamel_substeps, picard_tol,
                picard_max_iter, smallness
[experiments]   checks (whitespace/comma separated list)
[output]        dir, seed

Checks needing a block fail validation when the block is missing.  The
semigroup_decay check always runs on the fixed (dim 2, N 64, L 2*pi) grid,
whatever [grid] says, and reads only lambda (from [llg], else [cgl], else 1)
from the config.  The LLGLAB_SEED environment variable overrides the
configured seed at run time.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .cgl import CglConfig
from .fields import Grid, make_grid
from .initial_data import InitialDataSpec
from .llg import MIN_OUTPUTS, LlgConfig, stability_cap

__all__ = ["ConfigError", "LabConfig", "parse_config", "KNOWN_CHECKS"]

KNOWN_CHECKS = (
    "energy",
    "identities",
    "semigroup_decay",
    "exponent_window",
    "picard",
    "mollify",
    "cross_solver",
    "uniqueness",
    "solution_decay",
    "stability",
)

_LLG_CHECKS = {"energy", "uniqueness", "cross_solver", "solution_decay"}
_CGL_CHECKS = {"picard", "cross_solver", "stability"}


class ConfigError(ValueError):
    """Configuration problem, annotated with section/key context."""


_SCHEMA = {
    "grid": {"dim", "n", "length"},
    "initial_data": {"kind", "amplitude", "wavenumber", "width",
                     "mollification_k", "m_infinity", "roughness_modes"},
    "llg": {"lambda", "t_end", "dt", "dt_fraction", "scheme", "outputs"},
    "cgl": {"lambda", "p", "t_end", "time_steps", "duhamel_substeps",
            "picard_tol", "picard_max_iter", "smallness"},
    "experiments": {"checks"},
    "output": {"dir", "seed"},
}


@dataclass
class LabConfig:
    grid: Grid
    initial_data: InitialDataSpec
    checks: tuple
    out_dir: str
    seed: int
    llg: LlgConfig | None = None
    cgl: CglConfig | None = None
    llg_outputs: int = 9

    @property
    def lam(self) -> float:
        """Damping for checks that need no solver block: [llg], else [cgl], else 1."""
        return self.llg.lam if self.llg else (self.cgl.lam if self.cgl else 1.0)

    @property
    def effective_seed(self) -> int:
        """The configured seed, unless the LLGLAB_SEED environment variable is set."""
        env = os.environ.get("LLGLAB_SEED")
        if not env:
            return self.seed
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"LLGLAB_SEED = {env!r} is not an integer") from None


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    try:
        raw = parser.get(section, key)
    except configparser.Error as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _construct(section, factory, *args, **kwargs):
    """Call a validating constructor; its ValueError becomes a ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def parse_config(path) -> LabConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    for required_section in ("grid", "experiments", "output"):
        if not parser.has_section(required_section):
            raise ConfigError(f"missing required section [{required_section}]")

    grid = _construct(
        "grid", make_grid,
        _get(parser, "grid", "dim", int, required=True),
        _get(parser, "grid", "n", int, required=True),
        _get(parser, "grid", "length", float, required=True),
    )

    if parser.has_section("initial_data"):
        def parse_minf(raw):
            vals = tuple(float(v) for v in raw.split())
            if len(vals) != 3:
                raise ValueError("m_infinity needs exactly three components")
            return vals

        spec = _construct(
            "initial_data", InitialDataSpec,
            kind=_get(parser, "initial_data", "kind", str, required=True),
            amplitude=_get(parser, "initial_data", "amplitude", float, 0.1),
            wavenumber=_get(parser, "initial_data", "wavenumber", int, 1),
            width=_get(parser, "initial_data", "width", float, 0.5),
            mollification_k=_get(parser, "initial_data", "mollification_k", float, 4.0),
            m_infinity=_get(parser, "initial_data", "m_infinity", parse_minf,
                            (0.0, 0.0, 1.0)),
            roughness_modes=_get(parser, "initial_data", "roughness_modes", int, None),
        )
    else:
        spec = InitialDataSpec(kind="constant")

    checks_raw = _get(parser, "experiments", "checks", str, "")
    checks = tuple(c for c in checks_raw.replace(",", " ").split() if c)
    for check in checks:
        if check not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check '{check}' (known: {', '.join(KNOWN_CHECKS)})")

    llg_cfg = None
    llg_outputs = 9
    if parser.has_section("llg"):
        lam = _get(parser, "llg", "lambda", float, required=True)
        t_end = _get(parser, "llg", "t_end", float, required=True)
        dt = _get(parser, "llg", "dt", float, None)
        frac = _get(parser, "llg", "dt_fraction", float, None)
        if dt is None and frac is None:
            raise ConfigError("[llg] needs dt or dt_fraction")
        if dt is None:
            dt = frac * _construct("llg", stability_cap, grid, lam)
        llg_cfg = _construct(
            "llg", LlgConfig, grid=grid, lam=lam, t_end=t_end, dt=dt,
            scheme=_get(parser, "llg", "scheme", str, "projected-rk2"),
        )
        llg_outputs = _get(parser, "llg", "outputs", int, 9)
        if llg_outputs < MIN_OUTPUTS:
            raise ConfigError(f"[llg] outputs = {llg_outputs}: need at least {MIN_OUTPUTS}")

    cgl_cfg = None
    if parser.has_section("cgl"):
        cgl_cfg = _construct(
            "cgl", CglConfig,
            lam=_get(parser, "cgl", "lambda", float, required=True),
            p=_get(parser, "cgl", "p", float, 3.2),
            t_end=_get(parser, "cgl", "t_end", float, required=True),
            time_steps=_get(parser, "cgl", "time_steps", int, 16),
            duhamel_substeps=_get(parser, "cgl", "duhamel_substeps", int, 8),
            picard_tol=_get(parser, "cgl", "picard_tol", float, 1e-8),
            picard_max_iter=_get(parser, "cgl", "picard_max_iter", int, 40),
            smallness=_get(parser, "cgl", "smallness", float, 0.05),
        )

    for check in checks:
        if check in _LLG_CHECKS and llg_cfg is None:
            raise ConfigError(f"check '{check}' needs an [llg] section")
        if check in _CGL_CHECKS and cgl_cfg is None:
            raise ConfigError(f"check '{check}' needs a [cgl] section")

    return LabConfig(
        grid=grid,
        initial_data=spec,
        checks=checks,
        out_dir=_get(parser, "output", "dir", str, "llglab_out"),
        seed=_get(parser, "output", "seed", int, 0),
        llg=llg_cfg,
        cgl=cgl_cfg,
        llg_outputs=llg_outputs,
    )
