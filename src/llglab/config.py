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

The parser only converts text and renames keys (lambda -> lam, dir ->
out_dir, outputs -> llg_outputs): a key the file omits takes the default of
its dataclass field (InitialDataSpec, LlgConfig, CglConfig, LabConfig), and
those dataclasses validate the values.  The keys in _REQUIRED must be set,
and [llg] sets exactly one of dt and dt_fraction.  Checks needing a block
fail validation when the block is missing, and the cross_solver check needs
equal [llg] and [cgl] lambda.  The semigroup_decay check always
runs on the fixed (dim 2, N 64, L 2*pi) grid, whatever [grid] says, and
reads only lambda (from [llg], else [cgl], else 1) from the config.  The
LLGLAB_SEED environment variable overrides the configured seed at run time.
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

# check -> the solver blocks it needs
_CHECK_BLOCKS = {
    "energy": ("llg",),
    "identities": (),
    "semigroup_decay": (),
    "exponent_window": (),
    "picard": ("cgl",),
    "mollify": (),
    "cross_solver": ("llg", "cgl"),
    "uniqueness": ("llg",),
    "solution_decay": ("llg",),
    "stability": ("cgl",),
}
KNOWN_CHECKS = tuple(_CHECK_BLOCKS)


class ConfigError(ValueError):
    """Configuration problem, annotated with section/key context."""


def _three_floats(raw: str) -> tuple:
    vals = tuple(float(v) for v in raw.split())
    if len(vals) != 3:
        raise ValueError("m_infinity needs exactly three components")
    return vals


def _check_list(raw: str) -> tuple:
    checks = tuple(c for c in raw.replace(",", " ").split() if c)
    for check in checks:
        if check not in _CHECK_BLOCKS:
            raise ConfigError(f"unknown check '{check}' (known: {', '.join(KNOWN_CHECKS)})")
    return checks


# section -> key -> converter from text
_SCHEMA = {
    "grid": {"dim": int, "n": int, "length": float},
    "initial_data": {"kind": str, "amplitude": float, "wavenumber": int, "width": float,
                     "mollification_k": float, "m_infinity": _three_floats,
                     "roughness_modes": int},
    "llg": {"lambda": float, "t_end": float, "dt": float, "dt_fraction": float,
            "scheme": str, "outputs": int},
    "cgl": {"lambda": float, "p": float, "t_end": float, "time_steps": int,
            "duhamel_substeps": int, "picard_tol": float, "picard_max_iter": int,
            "smallness": float},
    "experiments": {"checks": _check_list},
    "output": {"dir": str, "seed": int},
}
_REQUIRED = {
    "grid": ("dim", "n", "length"),
    "initial_data": ("kind",),
    "llg": ("lambda", "t_end"),
    "cgl": ("lambda", "t_end"),
}
# config key -> dataclass field, where the two differ
_FIELD_NAMES = {"lambda": "lam", "dir": "out_dir", "outputs": "llg_outputs"}


@dataclass
class LabConfig:
    grid: Grid
    initial_data: InitialDataSpec = InitialDataSpec(kind="constant")
    checks: tuple = ()
    out_dir: str = "llglab_out"
    seed: int = 0
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


def _read_section(parser, section) -> dict:
    """The keys one section sets, converted and named as dataclass fields."""
    values = {}
    for key, conv in _SCHEMA[section].items():
        if not parser.has_option(section, key):
            if key in _REQUIRED.get(section, ()):
                raise ConfigError(f"[{section}] is missing required key '{key}'")
            continue
        try:
            raw = parser.get(section, key)
        except configparser.Error as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        try:
            values[_FIELD_NAMES.get(key, key)] = conv(raw)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


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

    grid = _construct("grid", make_grid, **_read_section(parser, "grid"))
    lab = {"grid": grid}
    if parser.has_section("initial_data"):
        lab["initial_data"] = _construct("initial_data", InitialDataSpec,
                                         **_read_section(parser, "initial_data"))
    lab.update(_read_section(parser, "experiments"))

    if parser.has_section("llg"):
        llg = _read_section(parser, "llg")
        frac = llg.pop("dt_fraction", None)
        if "dt" in llg and frac is not None:
            raise ConfigError("[llg] sets both dt and dt_fraction; keep one")
        if "dt" not in llg and frac is None:
            raise ConfigError("[llg] needs dt or dt_fraction")
        if frac is not None:
            llg["dt"] = frac * _construct("llg", stability_cap, grid, llg["lam"])
        outputs = llg.pop("llg_outputs", None)
        lab["llg"] = _construct("llg", LlgConfig, grid=grid, **llg)
        if outputs is not None:
            if outputs < MIN_OUTPUTS:
                raise ConfigError(f"[llg] outputs = {outputs}: need at least {MIN_OUTPUTS}")
            lab["llg_outputs"] = outputs

    if parser.has_section("cgl"):
        lab["cgl"] = _construct("cgl", CglConfig, **_read_section(parser, "cgl"))

    for check in lab.get("checks", ()):
        for block in _CHECK_BLOCKS[check]:
            if block not in lab:
                article = "an" if block == "llg" else "a"
                raise ConfigError(f"check '{check}' needs {article} [{block}] section")
    if "cross_solver" in lab.get("checks", ()) and lab["llg"].lam != lab["cgl"].lam:
        raise ConfigError(f"check 'cross_solver' needs equal [llg] and [cgl] lambda, "
                          f"got {lab['llg'].lam!r} and {lab['cgl'].lam!r}")

    lab.update(_read_section(parser, "output"))
    return LabConfig(**lab)
