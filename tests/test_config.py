"""The config key table: every key it accepts, the configs shipped in
configs/ and the inputs the benchmark writes."""

import importlib.util
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from critex import config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))

PROFILE = ("file", "kind", "center", "scale_length2", "amplitude_value", "factor_value")
ACCEPTED = {
    "params": {"N", "p", "sigma"},
    "grid": {"L_length", "n"},
    "data": {f"{prefix}_{key}" for prefix in ("u0", "w") for key in PROFILE},
    "solve": {"Tend_time", "dt0_time", "dt_min_time", "dt_max_time", "Umax_value",
              "tol_step", "snapshot_every", "record_times_time"},
    "picard": {"Tcap_time", "rungs", "q", "delta_value", "max_iter", "tol"},
    "certificate": {"T_ladder_time", "R_length", "cutoffs"},
    "sweep": {"N", "p_values", "sigma_values", "data_scales", "Tend_time",
              "Tend_max_time", "Umax_value", "tol_step", "dt0_time", "budget_cstar"},
}


def test_key_table_is_the_accepted_keys():
    assert {sec: set(keys) for sec, keys in config.KEYS.items()} == ACCEPTED
    assert sum(len(keys) for keys in ACCEPTED.values()) == 44
    cert_data = set(config.COMMANDS["certificate"]["data"])
    assert cert_data == {f"w_{key}" for key in PROFILE}


def _read_all(cfg, command):
    values = config.read(cfg, command)
    # every key of the file is typed into exactly one value
    n_keys = sum(len(items) for items in config.strip_meta(cfg).values())
    assert sum(len(v) for v in values.values()) == n_keys
    return values


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_read(path):
    command = path.stem.split("_")[0]  # simulate_blowup.ini -> simulate
    _read_all(config.load_config(path), command)


def test_values_are_typed_and_manifest_sections_skipped():
    cfg = config.parse_config(
        "[run]\ncommand = simulate\n[params]\nN = 2\np = 5/3\nsigma = -1/2\n"
        "[grid]\nL_length = 8\nn = 64\n"
        "[data]\nw_center = 1/2, 0\nu0_kind = none\n"
        "[solve]\nTend_time = 1\nrecord_times_time = 1/4, 0.5\nsnapshot_every = 3\n"
        "[fingerprints]\nu0 = abc\n")
    values = config.read(cfg, "simulate")
    assert values["params"] == {"N": 2, "p": Fraction(5, 3), "sigma": Fraction(-1, 2)}
    assert values["grid"] == {"L": 8.0, "n": 64}
    assert values["data"] == {("w", "center"): (0.5, 0.0), ("u0", "kind"): "none"}
    assert values["solve"] == {"Tend": 1.0, "record_times": (0.25, 0.5), "snapshot_every": 3}
    assert set(values) == {"params", "grid", "data", "solve"}


@pytest.mark.parametrize("grid", ["L_length = 8\nn = 6.5", "L_length = abc\nn = 64",
                                  "L_length = 1/0\nn = 64"])
def test_unparsable_value_names_its_key(grid):
    cfg = config.parse_config(
        f"[sweep]\nN = 2\np_values = 2\nsigma_values = -1/2\n[grid]\n{grid}\n")
    with pytest.raises(config.ConfigError, match="'n'" if "6.5" in grid else "'L_length'"):
        config.read(cfg, "sweep")


@lru_cache(maxsize=None)
def _workloads():
    """perfbench/workloads.py, loaded without writing its bytecode cache."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["sweep_column", "picard_ladder", "certificate_scan"])
def test_benchmark_inputs_read(workload):
    wl = _workloads()
    assert workload in wl.WORKLOADS
    for seed in (1, 2, 3):
        for op in wl.generate(workload, seed):
            _read_all(config.parse_config(op.ini), op.command)


def test_csv_text_cells_and_notes():
    x = 0.1 + 0.2
    text = config.csv_text(("a", "b", "c"), [(x, None, "ok"), (math.inf, math.nan, 7)],
                           [("mass", 1.5), ("slope", "I1", -2.0)])
    assert text == ("a,b,c\n0.30000000000000004,,ok\ninf,nan,7\n"
                    "# mass,1.5\n# slope,I1,-2\n")
    cells = text.splitlines()[1].split(",")
    assert float(cells[0]) == x  # 17 significant digits read back exactly
    assert config.csv_text(("t",), []) == "t\n"
