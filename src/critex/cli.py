"""Command-line entry point: exponents, simulate, picard, certificate, sweep.

Every file-writing command records a manifest (the resolved config plus run
metadata and data fingerprints) in its output directory; re-running the
manifest as a config file reproduces the CSV outputs byte for byte.  Exit
codes: 0 success / horizon, 2 usage or config error, 3 blow-up, 4 stalled,
5 non-converged fixed point.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from . import certificate as cert_mod
from . import config as config_mod
from . import evolve, picard, sweep as sweep_mod
from .exponents import (
    Params,
    classify_regime,
    derive,
    q_window_discriminant,
    verify_scaling_identities,
)
from .field import (
    Field,
    Grid,
    data_profile,
    field_fingerprint,
    profile_slabs,
    write_snapshot,
)


def _fmt(x):
    if x is None:
        return "none"
    return f"{float(x):.17g}"


def _print_err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _ensure_out(ns):
    if ns.out is None:
        return None
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


def _write_manifest(ns, command, sections, fingerprints):
    out = _ensure_out(ns)
    if out is None:
        return
    manifest = {"run": {
        "command": command,
        "version": __version__,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }}
    manifest.update(config_mod.strip_meta(sections))
    if fingerprints:
        manifest["fingerprints"] = fingerprints
    config_mod.write_config(manifest, os.path.join(out, "manifest.ini"))


def _write_text(ns, name, text):
    out = _ensure_out(ns)
    if out is None:
        return
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------- exponents


def cmd_exponents(ns):
    try:
        params = Params(N=ns.N, p=Fraction(ns.p), sigma=Fraction(ns.sigma))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        _print_err(str(exc))
        return 2
    der = derive(params)
    try:
        regime = classify_regime(params).value
    except ValueError:
        regime = "outside-classification-scope (sigma = 0)"
    rows = [
        ("N", str(params.N)),
        ("p", _fmt(params.p)),
        ("sigma", _fmt(params.sigma)),
        ("p_F", _fmt(der.fujita)),
        ("p_star", _fmt(der.critical)),
        ("regime", regime),
        ("d", _fmt(der.data_index)),
        ("k", _fmt(der.forcing_index)),
        ("q_window", "empty" if der.q_window is None else
         f"({_fmt(der.q_window[0])}, {_fmt(der.q_window[1])})"),
        ("q_default", _fmt(der.q_default) if der.q_default is not None else "none"),
        ("beta", _fmt(der.beta) if der.beta is not None else "none"),
        ("window_discriminant", _fmt(q_window_discriminant(params))),
    ]
    if not params.in_classification_scope:
        rows.append(("scope", "outside classification scope (baseline/diagnostic)"))
    width = max(len(k) for k, _ in rows)
    table = "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    print(table, end="")
    _write_text(ns, "exponents.txt", table)
    _write_manifest(ns, "exponents", {"params": {
        "N": str(params.N), "p": str(params.p), "sigma": str(params.sigma)}}, {})

    if ns.check:
        failures = []
        if der.q_window is not None:
            rep = verify_scaling_identities(params, der.q_default)
            if not rep.ok:
                failures.append("scaling identities failed at q_default")
            if not (der.q_default > der.data_index > der.forcing_index >= 1):
                failures.append("q > d > k >= 1 ordering failed")
        if (der.forcing_index == 1) != (der.critical is not math.inf
                                        and params.p == der.critical):
            failures.append("k = 1 does not align with p = p_star")
        for msg in failures:
            _print_err(msg)
        return 1 if failures else 0
    return 0


# ----------------------------------------------------------------- simulate


def _read(ns, command):
    """The parsed config file and its typed values for this command."""
    cfg = config_mod.load_config(ns.config)
    return cfg, config_mod.read(cfg, command)


def _params_grid(values):
    params = Params(**values["params"])
    return params, Grid(N=params.N, **values["grid"])


def _profile(values, prefix, grid, path=None, build=None):
    """The [data] profile `<prefix>_*` as a Field, or as build(grid, **args) makes it.

    A path (--seed-profile) replaces its file or bump.
    """
    args = {arg: v for (pre, arg), v in values["data"].items() if pre == prefix}
    if path:
        args["path"] = path
    try:
        return (build or data_profile)(grid, **args)
    except ValueError as exc:
        raise config_mod.ConfigError(f"invalid {prefix} profile: {exc}") from None


def _run_inputs(ns, values):
    """(params, u0, w) of a simulate or picard config; u0 = none is zero data."""
    params, grid = _params_grid(values)
    u0 = _profile(values, "u0", grid, ns.seed_profile)
    if u0 is None:
        u0 = Field(grid, np.zeros(grid.shape))
    return params, u0, _profile(values, "w", grid)


def cmd_simulate(ns):
    try:
        cfg, values = _read(ns, "simulate")
        params, u0, w = _run_inputs(ns, values)
        run_cfg = evolve.SolveConfig(params=params, **values["solve"])
    except (config_mod.ConfigError, OSError, ValueError) as exc:
        _print_err(str(exc))
        return 2

    traj = evolve.run(u0, w, run_cfg)
    fingerprints = {"u0": field_fingerprint(u0)}
    if w is not None:
        fingerprints["w"] = field_fingerprint(w)
    _write_manifest(ns, "simulate", cfg, fingerprints)
    _write_text(ns, "norms.csv", traj.norms_csv())
    out = _ensure_out(ns)
    if out is not None:
        write_snapshot(u0, os.path.join(out, "u0.field"))
        if w is not None:
            write_snapshot(w, os.path.join(out, "w.field"))
        for i, (t, f) in enumerate(traj.snapshots):
            write_snapshot(f, os.path.join(out, f"snap_{i:04d}.field"))

    tstar = _fmt(traj.t_star) if traj.t_star is not None else "-"
    print(f"verdict: {traj.verdict.value}  t_star: {tstar}  "
          f"boundary_flagged: {traj.boundary_flagged}")
    if traj.verdict is evolve.Verdict.BLEW_UP:
        return 3
    if traj.verdict is evolve.Verdict.STALLED:
        return 4
    return 0


# ------------------------------------------------------------------- picard


def _pick(sec, *names):
    """The values of sec among names; absent ones take the callee's default."""
    return {name: sec[name] for name in names if name in sec}


def cmd_picard(ns):
    try:
        cfg, values = _read(ns, "picard")
        params, u0, w = _run_inputs(ns, values)
    except (config_mod.ConfigError, OSError, ValueError) as exc:
        _print_err(str(exc))
        return 2

    sec = values["picard"]
    try:
        times = picard.geometric_ladder(**_pick(sec, "tcap", "rungs"))
        op = picard.SolutionMap(u0, w, params, sec.get("q"), times)
        sol, diag = picard.iterate_to_fixed_point(op, **_pick(sec, "delta", "max_iter", "tol"))
        audit = picard.audit_estimates(sol, op)
    except ValueError as exc:
        _print_err(str(exc))
        return 2

    fingerprints = {"u0": field_fingerprint(u0)}
    if w is not None:
        fingerprints["w"] = field_fingerprint(w)
    _write_manifest(ns, "picard", cfg, fingerprints)
    _write_text(ns, "picard_distances.csv", diag.csv())
    _write_text(ns, "picard_audit.csv", audit.csv())
    out = _ensure_out(ns)
    if out is not None:
        for j, f in enumerate(sol.fields):
            write_snapshot(f, os.path.join(out, f"ladder_{j:04d}.field"))
    print(f"converged: {diag.converged}  iterations: {diag.iterates}  "
          f"ratio: {_fmt(diag.ratio_estimate)}  in_ball: {diag.stayed_in_ball}  "
          f"outside_guarantee: {diag.outside_guarantee}")
    print(f"margins_nonnegative: {audit.all_margins_nonnegative}  "
          f"cstar_hat: {_fmt(audit.cstar_hat)}")
    free, nonlinear, forcing = map(_fmt, audit.probe_lift)
    print(f"probe_lift free: {free}  nonlinear: {nonlinear}  forcing: {forcing}")
    return 0 if diag.converged else 5


# -------------------------------------------------------------- certificate


def cmd_certificate(ns):
    try:
        cfg, values = _read(ns, "certificate")
        params, grid = _params_grid(values)
        w_slabs = _profile(values, "w", grid, build=profile_slabs)
        if w_slabs is None:
            raise config_mod.ConfigError("certificate needs a forcing profile")
        sec = dict(values["certificate"])
        label = sec.pop("cutoffs", "default")
        makers = {"default": cert_mod.default_cutoffs, "steep": cert_mod.steep_cutoffs}
        if label not in makers:
            raise config_mod.ConfigError(
                f"unknown cutoffs {label!r}; valid: {', '.join(makers)}")
        cutoffs = makers[label]()
        # the forcing is read once, slab by slab, and never held whole
        shells = cert_mod.Shells.of(grid)
        w_shells, mass, w_fingerprint = cert_mod.stream_forcing(shells, w_slabs)
    except (config_mod.ConfigError, OSError, ValueError) as exc:
        _print_err(str(exc))
        return 2

    try:
        report = cert_mod.blowup_certificate(shells, w_shells, mass, params, cutoffs, **sec)
    except ValueError as exc:
        _print_err(str(exc))
        return 2
    _write_manifest(ns, "certificate", cfg, {"w": w_fingerprint})
    _write_text(ns, "certificate.csv", report.csv())
    print(f"verdict: {report.verdict}  bound_slope: {_fmt(report.slopes['bound'])}  "
          f"expected: {_fmt(report.expected_slopes['bound'])}")
    return 0


# -------------------------------------------------------------------- sweep


def cmd_sweep(ns):
    try:
        if ns.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {ns.workers}")
        cfg, values = _read(ns, "sweep")
        plan = sweep_mod.SweepPlan(**values["grid"], **values["sweep"])
    except (config_mod.ConfigError, ValueError, OSError) as exc:
        _print_err(str(exc))
        return 2

    points = sweep_mod.execute(plan, workers=ns.workers)
    _write_manifest(ns, "sweep", cfg, {})
    _write_text(ns, "phase.csv", sweep_mod.phase_csv(points))
    _write_text(ns, "phase.svg", sweep_mod.phase_svg(points, plan.N))
    _write_text(ns, "boundaries.csv", sweep_mod.boundaries_csv(points, plan.N))
    for pt in points:
        tstar = _fmt(pt.t_star) if pt.t_star is not None else "-"
        print(f"p={pt.p:g} sigma={pt.sigma:g} scale={pt.scale:g} "
              f"-> {pt.verdict} (t*={tstar}) [{pt.theory}]")
    return 0


# --------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="critex",
        description="numerical laboratory for the forced semilinear heat equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is registered only on the commands that read it
    sp = sub.add_parser("exponents", help="print the derived exponent table")
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("-p", "--p", required=True,
                    help="nonlinearity power; fractions like 5/3 are exact")
    sp.add_argument("--sigma", required=True,
                    help="forcing time power; use --sigma=-1/2 for fractions")
    sp.add_argument("--check", action="store_true",
                    help="verify identities; nonzero exit on failure")
    sp.add_argument("--out", default=None, help="output directory")
    sp.set_defaults(func=cmd_exponents)

    for name, func in (
        ("simulate", cmd_simulate),
        ("picard", cmd_picard),
        ("certificate", cmd_certificate),
        ("sweep", cmd_sweep),
    ):
        sp = sub.add_parser(name, help=f"run the {name} module from a config file")
        sp.add_argument("config", help="INI config file (a manifest also works)")
        sp.add_argument("--out", default=None, help="output directory")
        if name in ("simulate", "picard"):
            sp.add_argument("--seed-profile", default=None,
                            help="field snapshot overriding the u0 profile")
        if name == "sweep":
            sp.add_argument("--workers", type=int, default=1)
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
