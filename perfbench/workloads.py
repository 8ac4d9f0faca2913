"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is a fixed list of operations.  An operation is one call of
the public CLI entry point on one generated INI file.  The seed only jitters
bump widths and amplitudes inside a narrow band that keeps every expected
verdict, so all seeds run the same amount of work to within a few percent.

Nothing here imports critex: the inputs and the expected verdicts come from
closed forms, so the parent and a changed program see identical inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
from dataclasses import dataclass

WORKLOADS = ("sweep_column", "picard_ladder", "certificate_scan")

SWEEP_TEND = 100.0

# Data budget picard_smallness(params, q = 6, cstar) for N = 2, p = 4,
# sigma = -1/2 on the L = 8, n = 64 grid, with cstar = 0.65836026 as
# measure_cstar finds it at Tcap = 10.  Fixed here so that the inputs do not
# depend on the program under test; the property check reads the program's
# own "outside_guarantee" flag to confirm the data stay inside.
PICARD_BUDGET = 0.6929073880611827
PICARD_FRACTIONS = (0.25, 0.50, 0.90)


@dataclass
class Op:
    """One CLI invocation and what its outputs must show."""

    name: str
    command: str
    ini: str
    verdict: str = ""  # expected verdict, for sweep and certificate operations

    def argv(self, ini_path, out_dir):
        extra = ["--workers", "1"] if self.command == "sweep" else []
        return [self.command, ini_path, "--out", out_dir, *extra]


def _jitter(rng, value, rel):
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _num(x):
    return f"{float(x):.17g}"


def _gaussian_amplitude(norm, scale, r, N):
    """Amplitude A with ||A exp(-|x|^2/(4 scale))||_r = norm on R^N."""
    return norm / (4.0 * math.pi * scale / r) ** (N / (2.0 * r))


def critical_power(N, sigma):
    """(N - 2 sigma)/(N - 2 - 2 sigma) for sigma <= 0 when finite, else inf."""
    denom = N - 2.0 - 2.0 * sigma
    if sigma > 0 or denom <= 0:
        return math.inf
    return (N - 2.0 * sigma) / denom


def _sweep_column(rng):
    """Two sweep jobs at sigma = -0.4, one each side of p_star = 3.5.

    p = 2.8 reaches Tend = 100 undecided, is rerun to Tend = 1000 and blows
    up near t = 160; p = 4.6 is a global candidate on its first run.  Each
    job is its own `critex sweep` call so that one operation is one job
    with its reruns.
    """
    scale = _jitter(rng, 0.15, 0.005)
    ops = []
    for p in (2.8, 4.6):
        ini = (
            "[grid]\nL_length = 8.0\nn = 64\n\n"
            f"[sweep]\nN = 2\np_values = {p}\nsigma_values = -0.4\n"
            f"data_scales = {_num(scale)}\nTend_time = {SWEEP_TEND}\n"
        )
        blowup = p < critical_power(2, -0.4)
        ops.append(Op(f"sweep_p{p}", "sweep", ini,
                      "BlowUp" if blowup else "GlobalCandidate"))
    return ops


def _picard_ladder(rng):
    """Gaussian data at 25%, 50% and 90% of the smallness budget.

    The budget is split evenly between ||u0||_d (d = 3) and ||w||_k
    (k = 6/5); 128 rungs up to Tcap = 10.
    """
    ops = []
    for frac in PICARD_FRACTIONS:
        size = _jitter(rng, frac, 0.005) * PICARD_BUDGET
        a_u = _jitter(rng, 0.25, 0.01)
        a_w = _jitter(rng, 0.25, 0.01)
        amp_u = _gaussian_amplitude(0.5 * size, a_u, 3.0, 2)
        amp_w = _gaussian_amplitude(0.5 * size, a_w, 1.2, 2)
        ini = (
            "[params]\nN = 2\np = 4\nsigma = -1/2\n\n"
            "[grid]\nL_length = 8.0\nn = 64\n\n"
            "[data]\nu0_kind = gaussian\n"
            f"u0_scale_length2 = {_num(a_u)}\nu0_amplitude_value = {_num(amp_u)}\n"
            "w_kind = gaussian\n"
            f"w_scale_length2 = {_num(a_w)}\nw_amplitude_value = {_num(amp_w)}\n\n"
            "[picard]\nTcap_time = 10.0\nrungs = 128\n"
        )
        ops.append(Op(f"picard_{int(round(100 * frac))}pct", "picard", ini))
    return ops


CERT_PS = (1.5, 1.75, 2.25, 2.5)
CERT_SIGMAS = (-0.5, 0.5)
CERT_LADDER = tuple(32.0 * 2.0 ** (k / 2.0) for k in range(5))  # 32 ... 128


def certificate_expected(N, p, sigma):
    pp = p / (p - 1.0)
    return "CONTRADICTION" if sigma > 0 or N / 2.0 - sigma - pp < 0 else "NO_CONTRADICTION"


def _certificate_scan(rng):
    """Sixteen certificates for N = 3 on a 128^3 grid (2.1 M points).

    Both cutoff pairs, sigma = -1/2 (p_star = 2) and sigma = +1/2
    (p_star = inf), and p at least 0.25 away from 2 on either side.
    """
    ops = []
    ladder = ", ".join(_num(T) for T in CERT_LADDER)
    for sigma in CERT_SIGMAS:
        for p in CERT_PS:
            for cutoffs in ("default", "steep"):
                a = _jitter(rng, 0.25, 0.05)
                amp = _jitter(rng, 1.0, 0.05) * (4.0 * math.pi * a) ** -1.5
                ini = (
                    f"[params]\nN = 3\np = {p}\nsigma = {sigma}\n\n"
                    "[grid]\nL_length = 16.0\nn = 128\n\n"
                    "[data]\nw_kind = gaussian\n"
                    f"w_scale_length2 = {_num(a)}\nw_amplitude_value = {_num(amp)}\n\n"
                    f"[certificate]\nT_ladder_time = {ladder}\ncutoffs = {cutoffs}\n"
                )
                ops.append(Op(f"cert_s{sigma:+g}_p{p}_{cutoffs}", "certificate", ini,
                              certificate_expected(3, p, sigma)))
    return ops


def generate(workload, seed):
    """The workload's operations for this seed; same seed, same inputs."""
    builders = {
        "sweep_column": _sweep_column,
        "picard_ladder": _picard_ladder,
        "certificate_scan": _certificate_scan,
    }
    rng = random.Random(f"{workload}:{seed}")
    return builders[workload](rng)


def write_inputs(ops, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in ops:
        path = os.path.join(directory, f"{op.name}.ini")
        with open(path, "w") as fh:
            fh.write(op.ini)
        paths.append(path)
    return paths


# ------------------------------------------------------------------ checks


def csv_digest(out_dir):
    """SHA-256 over the names and bytes of every CSV an operation wrote."""
    hsh = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            hsh.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                hsh.update(fh.read())
    return hsh.hexdigest()


def _read_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def check(op, rc, stdout, out_dir):
    """(problems, facts) for one finished operation; no problems means correct."""
    problems, facts = [], {}
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        if op.command == "sweep":
            _check_sweep(op, out_dir, problems, facts)
        elif op.command == "picard":
            _check_picard(stdout, out_dir, problems, facts)
        else:
            _check_certificate(op, out_dir, problems, facts)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, facts


def _check_sweep(op, out_dir, problems, facts):
    rows = _read_rows(os.path.join(out_dir, "phase.csv"))
    if len(rows) != 1:
        problems.append(f"expected one phase point, got {len(rows)}")
        return
    verdict = rows[0]["verdict"]
    tstar = float(rows[0]["tstar"]) if rows[0]["tstar"] else None
    facts.update(verdict=verdict, tstar=tstar)
    if verdict != op.verdict:
        problems.append(f"verdict {verdict}, expected {op.verdict}")
    if verdict == "BlowUp" and (tstar is None or not math.isfinite(tstar)):
        problems.append("blow-up without a finite t*")


def _check_picard(stdout, out_dir, problems, facts):
    m = re.search(r"converged: (\w+)\s+iterations: (\d+).*outside_guarantee: (\w+)", stdout)
    if m is None:
        problems.append("no convergence line on stdout")
        return
    facts.update(converged=m.group(1) == "True", iterations=int(m.group(2)),
                 outside_guarantee=m.group(3) == "True")
    if not facts["converged"]:
        problems.append("fixed point did not converge")
    rows = _read_rows(os.path.join(out_dir, "picard_audit.csv"))
    worst = min(float(r[k]) for r in rows for k in r if k.endswith("_margin"))
    facts["min_margin"] = worst
    if not worst >= 0.0:
        problems.append(f"negative audit margin {worst!r}")


def _check_certificate(op, out_dir, problems, facts):
    with open(os.path.join(out_dir, "certificate.csv")) as fh:
        m = re.search(r"^# verdict,(\w+)$", fh.read(), re.M)
    verdict = m.group(1) if m else None
    facts["verdict"] = verdict
    if verdict != op.verdict:
        problems.append(f"verdict {verdict}, expected {op.verdict}")


def property_problems(workload, facts):
    """What is missing from the workload's defining property, given op facts."""
    if workload == "sweep_column":
        late = [n for n, f in facts.items()
                if f.get("tstar") is not None and f["tstar"] > SWEEP_TEND]
        if len(late) != 1:
            return [f"expected exactly one job to escalate past Tend = {SWEEP_TEND:g} "
                    f"(blow-up after it), got {late}"]
    elif workload == "picard_ladder":
        iters = [f.get("iterations") for f in facts.values()]
        if len(set(iters)) != len(iters):
            return [f"data sizes do not give distinct iteration counts: {iters}"]
        if any(f.get("outside_guarantee") for f in facts.values()):
            return ["some data lie outside the smallness budget"]
    else:
        verdicts = {f.get("verdict") for f in facts.values()}
        if verdicts != {"CONTRADICTION", "NO_CONTRADICTION"}:
            return [f"certificate verdicts not on both sides: {sorted(map(str, verdicts))}"]
    return []
