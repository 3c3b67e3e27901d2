"""Tests of the INI parser: whatever the file holds, only ConfigError escapes (property
tests), and a key the file omits takes its dataclass default."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llglab.cgl import CglConfig
from llglab.config import _SCHEMA, ConfigError, LabConfig, parse_config
from llglab.fields import make_grid
from llglab.initial_data import InitialDataSpec
from llglab.llg import LlgConfig

SECTIONS = sorted(_SCHEMA) + ["DEFAULT", "bogus"]
KEYS = sorted(set().union(*_SCHEMA.values())) + ["bogus"]
VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "2", "-1", "8", "16", "0.5", "1e-3", "1e308", "nan",
                     "inf", "-inf", "0 0 1", "1 0", "equatorial_wave", "constant",
                     "projected-rk4", "energy picard", "cross_solver,stability", "%",
                     "%(dim)s", "\\x00", "9" * 5000]),
    st.text(max_size=20),
)


@st.composite
def ini_text(draw):
    """Schema-shaped files (so values reach their converters) or junk, half each."""
    schema_shaped = draw(st.booleans())
    if schema_shaped:
        sections = ["grid", "experiments", "output"] + draw(
            st.lists(st.sampled_from(["initial_data", "llg", "cgl"]), unique=True))
    else:
        sections = draw(st.lists(st.one_of(st.sampled_from(SECTIONS), st.text(max_size=8)),
                                 max_size=4))
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        known = st.sampled_from(sorted(_SCHEMA.get(section, KEYS)))
        keys = known if schema_shaped else st.one_of(known, st.sampled_from(KEYS),
                                                     st.text(max_size=8))
        lines.extend(f"{key} = {draw(VALUES)}"
                     for key in draw(st.lists(keys, max_size=8, unique=True)))
        if not schema_shaped:
            lines.extend(draw(st.lists(st.text(max_size=12), max_size=2)))
    return "\n".join(lines) + "\n"


def _parse_or_config_error(path):
    try:
        assert isinstance(parse_config(path), LabConfig)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


@settings(max_examples=250)
@given(text=ini_text())
def test_random_ini_text_raises_only_config_error(cfg_path, text):
    cfg_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    _parse_or_config_error(cfg_path)


@settings(max_examples=200)
@given(data=st.binary(max_size=200), valid_prefix=st.booleans())
def test_random_bytes_raise_only_config_error(cfg_path, data, valid_prefix):
    prefix = b"[grid]\ndim = 1\nn = 8\nlength = 1.0\n" if valid_prefix else b""
    cfg_path.write_bytes(prefix + data)
    _parse_or_config_error(cfg_path)


@pytest.mark.parametrize("raw", [b"\xff\xfe", b"[grid]\ndim = \xe9\n"], ids=["bom", "latin1"])
def test_non_utf8_file_is_config_error(tmp_path, raw):
    path = tmp_path / "bad.cfg"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config(path)


REQUIRED_ONLY = """[grid]
dim = 1
n = 16
length = 1.0
[initial_data]
kind = bump_chart
[llg]
lambda = 0.5
t_end = 0.01
dt = 1e-5
[cgl]
lambda = 0.5
t_end = 0.2
[experiments]
[output]
"""


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text(REQUIRED_ONLY)
    grid = make_grid(1, 16, 1.0)
    assert parse_config(path) == LabConfig(
        grid=grid, initial_data=InitialDataSpec(kind="bump_chart"),
        llg=LlgConfig(grid=grid, lam=0.5, t_end=0.01, dt=1e-5),
        cgl=CglConfig(lam=0.5, t_end=0.2))


def test_omitted_sections_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n[experiments]\n[output]\n")
    assert parse_config(path) == LabConfig(grid=make_grid(1, 16, 1.0))


@pytest.mark.parametrize("section,line", [("grid", "length = 1.0"),
                                          ("initial_data", "kind = bump_chart"),
                                          ("llg", "t_end = 0.01"), ("cgl", "t_end = 0.2")])
def test_required_key_missing(tmp_path, section, line):
    path = tmp_path / "missing.cfg"
    path.write_text(REQUIRED_ONLY.replace(line + "\n", ""))
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=rf"\[{section}\] is missing required key '{key}'"):
        parse_config(path)


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_nan_or_negative_smallness_is_config_error(tmp_path, value):
    path = tmp_path / "bad.cfg"
    path.write_text(REQUIRED_ONLY.replace("t_end = 0.2\n", f"t_end = 0.2\nsmallness = {value}\n"))
    with pytest.raises(ConfigError, match=r"\[cgl\] smallness must be >= 0"):
        parse_config(path)


def test_interpolation_error_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\ndim = 2\nn = 16\nlength = 1.0\n[experiments]\n"
                    "[output]\ndir = 50%\n")
    with pytest.raises(ConfigError, match=r"\[output\] dir"):
        parse_config(path)
