"""The README's config-key and scenario tables against the code's schema.

``RunConfig`` declares the config keys and their defaults, and the harness's
scenario table declares each scenario's parameters and defaults; the README
tables are the only other copies.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from brinkflow import ConfigError, RunConfig, build_scenario
from brinkflow.harness import _SCENARIOS

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header):
    """Body rows (lists of stripped cells) of the Markdown table with ``header``."""
    lines = README.read_text().splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_readme_config_keys_match_run_config():
    documented = {}
    for cell, default, _ in _table("| key | default | meaning |"):
        for key in _ticked(cell):
            if key != "scenario.<name>":
                documented[key] = None if default == "—" else float(default)
    fields = [f for f in dataclasses.fields(RunConfig) if f.name != "scenario_params"]
    assert set(documented) == {f.name for f in fields}
    for f in fields:
        default = None if f.default is dataclasses.MISSING else f.default
        assert documented[f.name] == default, f.name


def test_readme_scenarios_match_scenario_table():
    rows = _table("| id | dims | parameters (defaults) | description |")
    documented = {}
    for cell, dims, params, _ in rows:
        (name,) = _ticked(cell)
        defaults = {k: float(v) for k, v in re.findall(r"`(\w+)` \(([^)]+)\)", params)}
        documented[name] = ([int(d) for d in dims.split(",")], defaults)
    assert set(documented) == set(_SCENARIOS)
    for name, (dims, defaults) in documented.items():
        assert defaults == _SCENARIOS[name][1], name
        for dim in (1, 2):
            cfg = RunConfig(dim=dim, n=8, t_end=0.1, epsilon=1e-2, gamma=2.0,
                            beta=3.0, scenario=name)
            if dim in dims:
                build_scenario(cfg, cfg.make_grid())
            else:
                with pytest.raises(ConfigError):
                    build_scenario(cfg, cfg.make_grid())
