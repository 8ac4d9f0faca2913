"""The text formats critex writes: flat INI configs and CSV tables.

A config has one section per module and units in key names.  A parsed
config is a plain dict of sections, each a dict of string values.
Serialization is canonical (sections and keys in file order, `key = value`
lines), so parse -> serialize -> parse is the identity on the records.
Manifests reuse the same format: a config plus [run] and [fingerprints]
sections, which readers ignore, so a manifest can be re-run directly.

`read` checks a parsed config against the key table of one command and
types its values.  Absent keys are left out, so the code that takes a value
as a keyword argument also owns its default.

`csv_text` writes every CSV table: header, rows, and `# ` note lines, with
floats at 17 significant digits so that they read back exactly.
"""

from __future__ import annotations

import configparser
from fractions import Fraction

_META_SECTIONS = ("run", "fingerprints")


class ConfigError(ValueError):
    pass


def parse_config(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (N vs n, L_length, ...)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def load_config(path):
    with open(path, "r") as fh:
        return parse_config(fh.read())


def dump_config(sections):
    return "\n".join(f"[{sec}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())
                     for sec, items in sections.items())


def write_config(sections, path):
    with open(path, "w") as fh:
        fh.write(dump_config(sections))


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return str(x)
    return f"{x:.17g}"


def csv_text(header, rows, notes=()):
    """A CSV table: the header line, one line per row, then `# a,b,...` per note.

    Floats take 17 significant digits (inf and nan as such), None an empty
    cell; strings and ints are written verbatim.
    """
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    lines += ["# " + ",".join(map(_cell, note)) for note in notes]
    return "\n".join(lines) + "\n"


def strip_meta(sections):
    return {k: dict(v) for k, v in sections.items() if k not in _META_SECTIONS}


def _number(raw):
    return float(Fraction(raw))


def _numbers(raw):
    return tuple(_number(tok.strip()) for tok in raw.split(",") if tok.strip())


def _profile_keys(prefix):
    """The [data] keys of one profile; argument names are (prefix, keyword)."""
    return {f"{prefix}_{key}": ((prefix, arg), parse, False) for key, arg, parse in (
        ("file", "path", str), ("kind", "kind", str), ("center", "center", _numbers),
        ("scale_length2", "scale", _number), ("amplitude_value", "amplitude", _number),
        ("factor_value", "factor", _number))}


# section -> key -> (argument name, parser, required).  The argument names
# are keywords of the code that takes the values and owns their defaults:
# Params, Grid, field.profile_slabs, evolve.SolveConfig, picard's
# geometric_ladder, SolutionMap and iterate_to_fixed_point,
# certificate.blowup_certificate and sweep.SweepPlan ([grid] and [sweep]).
KEYS = {
    "params": {"N": ("N", int, True), "p": ("p", Fraction, True),
               "sigma": ("sigma", Fraction, True)},
    "grid": {"L_length": ("L", _number, True), "n": ("n", int, True)},
    "data": {**_profile_keys("u0"), **_profile_keys("w")},
    "solve": {
        "Tend_time": ("Tend", _number, True), "dt0_time": ("dt0", _number, False),
        "dt_min_time": ("dt_min", _number, False), "dt_max_time": ("dt_max", _number, False),
        "Umax_value": ("Umax", _number, False), "tol_step": ("tol_step", _number, False),
        "snapshot_every": ("snapshot_every", int, False),
        "record_times_time": ("record_times", _numbers, False),
    },
    "picard": {
        "Tcap_time": ("tcap", _number, False), "rungs": ("rungs", int, False),
        "q": ("q", _number, False), "delta_value": ("delta", _number, False),
        "max_iter": ("max_iter", int, False), "tol": ("tol", _number, False),
    },
    "certificate": {"T_ladder_time": ("T_ladder", _numbers, True),
                    "R_length": ("R", _number, False), "cutoffs": ("cutoffs", str, False)},
    "sweep": {
        "N": ("N", int, True), "p_values": ("p_values", _numbers, True),
        "sigma_values": ("sigma_values", _numbers, True),
        "data_scales": ("data_scales", _numbers, False),
        "Tend_time": ("tend", _number, False), "Tend_max_time": ("tend_max", _number, False),
        "Umax_value": ("umax", _number, False), "tol_step": ("tol_step", _number, False),
        "dt0_time": ("dt0", _number, False), "budget_cstar": ("budget_cstar", _number, False),
    },
}

# command -> section -> key table; certificate builds no initial data, so
# its [data] takes only the w keys
COMMANDS = {
    "simulate": {s: KEYS[s] for s in ("params", "grid", "data", "solve")},
    "picard": {s: KEYS[s] for s in ("params", "grid", "data", "picard")},
    "certificate": {**{s: KEYS[s] for s in ("params", "grid", "certificate")},
                    "data": _profile_keys("w")},
    "sweep": {s: KEYS[s] for s in ("grid", "sweep")},
}


def read(cfg, command):
    """Typed values of a parsed config for one command: {section: {argument: value}}.

    Every section the command reads is in the result, empty when absent.
    [run] and [fingerprints] are skipped.  A section the command does not
    read, a key that its section does not have, a missing required key or
    an unparsable value raises ConfigError naming it.
    """
    tables = COMMANDS[command]
    values = {section: {} for section in tables}
    for section, items in strip_meta(cfg).items():
        if section not in tables:
            raise ConfigError(f"{command} does not read a [{section}] section; "
                              f"it reads {', '.join(f'[{s}]' for s in tables)}")
        for key, raw in items.items():
            if key not in tables[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}] for {command}")
            arg, parse, _ = tables[section][key]
            try:
                values[section][arg] = parse(raw)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad value {raw!r} for {key!r} in [{section}]") from None
    for section, table in tables.items():
        for key, (_, _, required) in table.items():
            if required and key not in cfg.get(section, {}):
                raise ConfigError(f"missing key {key!r} in [{section}]")
    return values
