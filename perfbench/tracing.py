"""Spans around calls into critex's modules, installed from outside the package.

Each wrapper replaces a function at the name its caller looks it up by
(a module attribute or a class method), records one span (name, start, end,
parent) per call in flat arrays, and is removed again after the traced pass.
Per-layer metrics are derived from the spans once the pass has ended:

* `<layer>.<what>_s` is busy time, the summed duration of that span kind;
* `<layer>.self_s` is the layer's self time, the duration of its spans minus
  the time covered by their direct child spans, so the self times of all
  layers add up to the time spent inside `cli.main`;
* counts are exact and repeat for a given seed.
"""

from __future__ import annotations

import gzip
import math
import os
from array import array
from time import perf_counter

import numpy as np
from critex import (certificate, cli, config, evolve, exponents, field, kernels,
                    picard, semigroup, sweep)

LAYERS = ("cli", "config", "sweep", "evolve", "kernels", "semigroup", "field",
          "picard", "certificate", "exponents")

# Per-layer metrics in report order: name -> (unit, better).
METRICS = {
    "semigroup.apply_calls": ("count", "lower"),
    "semigroup.apply_s": ("s", "lower"),
    "semigroup.apply_us": ("us", "lower"),
    "semigroup.laplacian_calls": ("count", "lower"),
    "semigroup.laplacian_s": ("s", "lower"),
    "kernels.reaction_calls": ("count", "lower"),
    "kernels.reaction_s": ("s", "lower"),
    "evolve.runs": ("count", "lower"),
    "evolve.run_s": ("s", "lower"),
    "evolve.trials": ("count", "lower"),
    "evolve.accepted_steps": ("count", "lower"),
    "evolve.accept_ratio": ("ratio", "higher"),
    "evolve.applies_per_accepted": ("count/step", "lower"),
    "evolve.step_s": ("s", "lower"),
    "sweep.jobs": ("count", "lower"),
    "sweep.superseded_runs": ("count", "lower"),
    "sweep.superseded_steps_frac": ("ratio", "lower"),
    "sweep.superseded_s": ("s", "lower"),
    "sweep.classify_s": ("s", "lower"),
    "field.boundary_calls": ("count", "lower"),
    "field.boundary_s": ("s", "lower"),
    "field.lr_norm_calls": ("count", "lower"),
    "field.lr_norm_s": ("s", "lower"),
    "field.snapshot_bytes": ("B", "lower"),
    "field.snapshot_s": ("s", "lower"),
    "picard.iterations": ("count", "lower"),
    "picard.map_builds": ("count", "lower"),
    "picard.map_build_s": ("s", "lower"),
    "picard.nonlinear_calls": ("count", "lower"),
    "picard.nonlinear_s": ("s", "lower"),
    "picard.applies_per_iteration": ("count/iter", "lower"),
    "picard.distance_s": ("s", "lower"),
    "picard.cstar_s": ("s", "lower"),
    "picard.smoothing_s": ("s", "lower"),
    "picard.audit_s": ("s", "lower"),
    "certificate.certs": ("count", "lower"),
    "certificate.time_factor_s": ("s", "lower"),
    "certificate.build_phi_s": ("s", "lower"),
    "exponents.derive_calls": ("count", "lower"),
    "exponents.derive_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Exact work counters that must repeat between runs of one seed.
COUNTERS = ("evolve.accepted_steps", "evolve.trials", "semigroup.apply_calls",
            "picard.iterations", "picard.map_builds", "sweep.superseded_runs")


def _accepted_steps(args, kwargs, traj):
    """Accepted steps of one evolve.run call, from its recorded times.

    Every accepted step records one time.  The only other records are t = 0
    and a record time reached by a jump shorter than dt_min.
    """
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    targets = {float(t) for t in cfg.record_times if 0.0 < t <= cfg.Tend}
    times = traj.times
    jumps = sum(1 for i in range(1, len(times))
                if times[i] in targets and times[i] - times[i - 1] <= cfg.dt_min)
    return len(times) - 1 - jumps


def _job_note(args, kwargs, point):
    return (tuple(args[1]), point.reason)


def _snapshot_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _targets():
    """(owner, attribute, span name, note) for every traced call site."""
    sites = [
        (cli, "main", "cli.main", None),
        (config, "load_config", "config.load", None),
        (sweep, "execute", "sweep.execute", None),
        (sweep, "_run_job", "sweep.job", _job_note),
        (sweep, "classify_run", "sweep.classify", None),
        (sweep, "run", "evolve.run", _accepted_steps),
        (evolve, "run", "evolve.run", _accepted_steps),
        (evolve.Stepper, "step_values", "evolve.step", None),
        (semigroup.Propagator, "apply_values", "semigroup.apply", None),
        (semigroup.Propagator, "laplacian_values", "semigroup.laplacian", None),
        (evolve, "boundary_shell_fraction", "field.boundary", None),
        (field, "boundary_shell_fraction", "field.boundary", None),
        (cli, "write_snapshot", "field.snapshot", _snapshot_bytes),
        (field, "write_snapshot", "field.snapshot", _snapshot_bytes),
        (picard, "iterate_to_fixed_point", "picard.solve", None),
        (picard.SolutionMap, "__init__", "picard.map_build", None),
        (picard.SolutionMap, "apply", "picard.iteration", None),
        (picard.SolutionMap, "nonlinear_term", "picard.nonlinear", None),
        (picard, "ladder_distance", "picard.distance", None),
        (picard, "measure_cstar", "picard.cstar", None),
        (picard, "sup_smoothing_ratio", "picard.smoothing", None),
        (picard, "audit_estimates", "picard.audit", None),
        (certificate, "blowup_certificate", "certificate.cert", None),
        (certificate, "build_phi", "certificate.build_phi", None),
        (certificate, "build_mu_fixed", "certificate.build_mu", None),
    ]
    for name in ("time_factor_forcing", "time_factor_plain", "time_factor_dissipation"):
        sites.append((certificate, name, "certificate.time_factor", None))
    for name in ("reaction_rk4_plain", "reaction_rk4_forced", "reaction_rk4_tau"):
        sites.append((kernels, name, "kernels.reaction", None))
    for mod in (field, picard, sweep, semigroup):
        sites.append((mod, "lr_norm", "field.lr_norm", None))
    for mod in (exponents, cli, evolve, sweep, picard):
        sites.append((mod, "derive", "exponents.derive", None))
    return sites


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.raised = array("b")
        self.notes = {}
        self._stack = []
        self._installed = []

    def _wrap(self, fn, name, note):
        kind = self._ids.setdefault(name, len(self._ids))
        if kind == len(self.names):
            self.names.append(name)
        stack, kinds, starts, ends = self._stack, self.kind, self.start, self.end
        parents, raised, notes = self.parent, self.raised, self.notes

        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            raised.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        sites = _targets()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in sites]
        for (owner, attr, name, note), (_, _, fn) in zip(sites, originals):
            setattr(owner, attr, self._wrap(fn, name, note))
        self._installed = originals

    def remove(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def write(self, path):
        """Write every span as name,start_s,end_s,parent (gzip CSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            names = self.names
            for i, (k, s, e, p) in enumerate(zip(self.kind, self.start, self.end, self.parent)):
                fh.write(f"{i},{names[k]},{s:.9f},{e:.9f},{p}\n")


def _nearest(kind, parent, target):
    """For each span, the index of its nearest ancestor-or-self of kind target."""
    out = np.full(kind.size, -1, dtype=np.int64)
    for i in range(kind.size):
        if kind[i] == target:
            out[i] = i
        elif parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def metrics(tracer, untraced_wall):
    """Every per-layer metric of one traced pass (zeros where a layer idled)."""
    kind = np.frombuffer(tracer.kind, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=kind.size)
    self_time = dur - covered
    ids = {name: k for k, name in enumerate(tracer.names)}
    nk = len(tracer.names)
    count_by = np.bincount(kind, minlength=nk)
    busy_by = np.bincount(kind, weights=dur, minlength=nk)
    self_by = np.bincount(kind, weights=self_time, minlength=nk)

    def count(name):
        return int(count_by[ids[name]]) if name in ids else 0

    def busy(name):
        return float(busy_by[ids[name]]) if name in ids else 0.0

    def under(name):
        return _nearest(kind, parent, ids[name]) if name in ids else np.full(kind.size, -1)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    applies = count("semigroup.apply")
    m["semigroup.apply_calls"] = applies
    m["semigroup.apply_s"] = busy("semigroup.apply")
    m["semigroup.apply_us"] = 1e6 * ratio(busy("semigroup.apply"), applies)
    m["semigroup.laplacian_calls"] = count("semigroup.laplacian")
    m["semigroup.laplacian_s"] = busy("semigroup.laplacian")
    m["kernels.reaction_calls"] = count("kernels.reaction")
    m["kernels.reaction_s"] = busy("kernels.reaction")

    # evolve: accepted steps from each run's trajectory; trials from the
    # step_values calls, three per step-doubling trial (full, half, half),
    # where an overflow raised by the full or first half step ends the trial.
    is_apply = kind == ids.get("semigroup.apply", -1)
    run_kind = ids.get("evolve.run", -1)
    runs = np.flatnonzero(kind == run_kind)
    accepted = {int(i): int(tracer.notes.get(int(i)) or 0) for i in runs}
    in_run = under("evolve.run")
    trials = 0
    stage = {}
    for i in np.flatnonzero(kind == ids.get("evolve.step", -1)):
        run = int(in_run[i])
        s = stage.get(run, 0)
        if s == 0:
            trials += 1
        stage[run] = 0 if tracer.raised[i] or s == 2 else s + 1
    total_accepted = sum(accepted.values())
    m["evolve.runs"] = int(runs.size)
    m["evolve.run_s"] = busy("evolve.run")
    m["evolve.trials"] = trials
    m["evolve.accepted_steps"] = total_accepted
    m["evolve.accept_ratio"] = ratio(total_accepted, trials)
    m["evolve.applies_per_accepted"] = ratio(int(np.count_nonzero(is_apply & (in_run >= 0))),
                                             total_accepted)
    m["evolve.step_s"] = busy("evolve.step")

    # sweep: within one execute call the last _run_job of a job key gives the
    # result and the last evolve.run inside it is kept; every other run was
    # thrown away by escalation or by the monotonicity repair.
    jobs = np.flatnonzero(kind == ids.get("sweep.job", -1))
    in_job = under("sweep.job")
    in_exec = under("sweep.execute")
    runs_of_job = {}
    for r in runs:
        runs_of_job.setdefault(int(in_job[r]), []).append(int(r))
    last_call = {}
    for j in jobs:
        last_call[(int(in_exec[j]), tracer.notes[int(j)][0])] = int(j)
    kept = {runs_of_job[j][-1] for j in last_call.values() if runs_of_job.get(j)}
    superseded = [int(r) for r in runs if int(in_job[r]) >= 0 and int(r) not in kept]
    sweep_steps = sum(accepted[int(r)] for r in runs if in_job[r] >= 0)
    m["sweep.jobs"] = len(last_call)
    m["sweep.superseded_runs"] = len(superseded)
    m["sweep.superseded_steps_frac"] = ratio(sum(accepted[r] for r in superseded), sweep_steps)
    m["sweep.superseded_s"] = float(sum(dur[r] for r in superseded))
    m["sweep.classify_s"] = busy("sweep.classify")

    m["field.boundary_calls"] = count("field.boundary")
    m["field.boundary_s"] = busy("field.boundary")
    m["field.lr_norm_calls"] = count("field.lr_norm")
    m["field.lr_norm_s"] = busy("field.lr_norm")
    snaps = np.flatnonzero(kind == ids.get("field.snapshot", -1))
    m["field.snapshot_bytes"] = int(sum(tracer.notes.get(int(i), 0) for i in snaps))
    m["field.snapshot_s"] = busy("field.snapshot")

    iterations = count("picard.iteration")
    m["picard.iterations"] = iterations
    m["picard.map_builds"] = count("picard.map_build")
    m["picard.map_build_s"] = busy("picard.map_build")
    m["picard.nonlinear_calls"] = count("picard.nonlinear")
    m["picard.nonlinear_s"] = busy("picard.nonlinear")
    in_iter = under("picard.iteration")
    m["picard.applies_per_iteration"] = ratio(
        int(np.count_nonzero(is_apply & (in_iter >= 0))), iterations)
    m["picard.distance_s"] = busy("picard.distance")
    m["picard.cstar_s"] = busy("picard.cstar")
    m["picard.smoothing_s"] = busy("picard.smoothing")
    m["picard.audit_s"] = busy("picard.audit")

    m["certificate.certs"] = count("certificate.cert")
    m["certificate.time_factor_s"] = busy("certificate.time_factor")
    m["certificate.build_phi_s"] = busy("certificate.build_phi")
    m["exponents.derive_calls"] = count("exponents.derive")
    m["exponents.derive_s"] = busy("exponents.derive")
    m["config.load_s"] = busy("config.load")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, k in ids.items():
        layer_self[name.split(".", 1)[0]] += float(self_by[k])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    wall = busy("cli.main")
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.self_sum_s"] = float(sum(layer_self.values()))
    m["trace.spans"] = int(kind.size)
    return m


def sweep_jobs(tracer):
    """(job, reason, number of evolve.run calls) for every traced sweep job."""
    ids = {name: k for k, name in enumerate(tracer.names)}
    if "sweep.job" not in ids:
        return []
    kind = np.frombuffer(tracer.kind, dtype=np.int32).astype(np.int64)
    in_job = _nearest(kind, np.frombuffer(tracer.parent, dtype=np.int64), ids["sweep.job"])
    is_run = kind == ids.get("evolve.run", -1)
    return [(*tracer.notes[int(j)], int(np.count_nonzero(is_run & (in_job == j))))
            for j in np.flatnonzero(kind == ids["sweep.job"])]
