import re
import subprocess
import sys
import threading

import pytest

from critex import cli
from critex.cli import main
from critex.config import dump_config, parse_config, strip_meta
from critex.field import Grid, data_profile, field_fingerprint

SIMPLE_SIM = """\
[params]
N = 1
p = 2
sigma = -0.5

[grid]
L_length = 1.0
n = 16

[data]
u0_kind = gaussian
u0_scale_length2 = 1e8
u0_amplitude_value = 1.0
w_kind = none

[solve]
Tend_time = 2.0
"""

GLOBAL_SIM = """\
[params]
N = 2
p = 3
sigma = -0.5

[grid]
L_length = 8.0
n = 64

[data]
u0_kind = gaussian
u0_scale_length2 = 0.25
u0_amplitude_value = 1e-3
w_kind = none

[solve]
Tend_time = 5.0
"""

SWEEP_CFG = """\
[grid]
L_length = 8.0
n = 64

[sweep]
N = 2
p_values = 1.5
sigma_values = -0.5
data_scales = 1.0
Tend_time = 100.0
"""

CERT_CFG = """\
[params]
N = 2
p = 2
sigma = -0.5

[grid]
L_length = 16.0
n = 128

[data]
w_kind = gaussian
w_scale_length2 = 0.25
w_amplitude_value = 0.3183098861837906715377675267450287240689192914809128974953346881
[certificate]
T_ladder_time = 8,16,32,64
"""


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "critex", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_exponents_table_and_check():
    res = run_cli(["exponents", "-N", "3", "-p", "3", "--sigma", "-0.5"])
    assert res.returncode == 0
    lines = dict(
        ln.split(None, 1) for ln in res.stdout.splitlines() if " " in ln
    )
    assert lines["p_star"] == "2"
    assert lines["d"] == "3"
    assert lines["k"] == "1.5"
    res = run_cli(["exponents", "-N", "3", "-p", "3", "--sigma", "-0.5", "--check"])
    assert res.returncode == 0
    res = run_cli(["exponents", "-N", "2", "-p", "2", "--sigma", "0.5"])
    assert res.returncode == 0
    assert "inf" in res.stdout and "ForcedBlowUp" in res.stdout


def test_exponents_usage_errors():
    res = run_cli(["exponents", "-N", "3"])
    assert res.returncode == 2
    res = run_cli(["exponents", "-N", "3", "-p", "0.5", "--sigma", "-0.5"])
    assert res.returncode == 2
    res = run_cli(["nonsense"])
    assert res.returncode == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "sweep.ini", "--check"],
    ["certificate", "cert.ini", "--seed-profile", "seed.field"],
    ["exponents", "-N", "3", "-p", "3", "--sigma", "-0.5", "--seed-profile", "seed.field"],
])
def test_flags_only_on_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_constant_blowup(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SIMPLE_SIM)
    out = tmp_path / "out"
    res = run_cli(["simulate", str(cfg), "--out", str(out)])
    assert res.returncode == 3, res.stderr
    assert "BlewUpAt" in res.stdout
    norms = (out / "norms.csv").read_text()
    assert norms.splitlines()[0] == "t,Linf,Lq,Ld,weighted"
    # blow-up time close to 1 is visible in the last row
    last_t = float(norms.splitlines()[-1].split(",")[0])
    assert abs(last_t - 1.0) < 0.02
    assert (out / "manifest.ini").exists()
    assert (out / "u0.field").exists()


def test_simulate_global_exit_zero(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(GLOBAL_SIM)
    res = run_cli(["simulate", str(cfg)])
    assert res.returncode == 0, res.stderr
    assert "ReachedHorizon" in res.stdout


def test_simulate_malformed_config(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[params\nN = 2\n")
    res = run_cli(["simulate", str(cfg)])
    assert res.returncode == 2
    assert "error" in res.stderr.lower()
    cfg2 = tmp_path / "bad2.ini"
    cfg2.write_text("[params]\nN = 2\np = 2\nsigma = -0.5\n")
    res = run_cli(["simulate", str(cfg2)])
    assert res.returncode == 2  # missing [grid]


def test_manifest_rerun_reproduces_csv(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SIMPLE_SIM)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run_cli(["simulate", str(cfg), "--out", str(out1)]).returncode == 3
    # the manifest itself is a runnable config
    assert run_cli(["simulate", str(out1 / "manifest.ini"), "--out", str(out2)]
                   ).returncode == 3
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    manifests = [p for p in out1.iterdir() if p.name == "manifest.ini"]
    assert len(manifests) == 1


def test_config_roundtrip():
    sections = parse_config(SIMPLE_SIM)
    assert parse_config(dump_config(sections)) == sections
    assert strip_meta({"run": {"a": "1"}, "params": {"N": "2"}}) == {
        "params": {"N": "2"}
    }


def test_sweep_cli_workers_identical(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    r1 = run_cli(["sweep", str(cfg), "--out", str(out1), "--workers", "1"])
    r2 = run_cli(["sweep", str(cfg), "--out", str(out2), "--workers", "2"])
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()
    assert (out1 / "phase.svg").exists()
    boundaries = (out1 / "boundaries.csv").read_text().splitlines()
    assert boundaries[-1] == "# limit_from_below,inf"  # N = 2
    assert "BlowUp" in (out1 / "phase.csv").read_text()


def test_certificate_cli(tmp_path):
    cfg = tmp_path / "cert.ini"
    cfg.write_text(CERT_CFG)
    out = tmp_path / "cert-out"
    res = run_cli(["certificate", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert "CONTRADICTION" in res.stdout
    text = (out / "certificate.csv").read_text()
    assert text.splitlines()[0] == "T,forcing,I1,I2,bound,verdict"


PICARD_CFG = """\
[params]
N = 2
p = 4
sigma = -0.5

[grid]
L_length = 8.0
n = 64

[data]
u0_kind = gaussian
u0_scale_length2 = 0.25
u0_amplitude_value = 0.002
w_kind = gaussian
w_scale_length2 = 0.25
w_amplitude_value = 0.002

[picard]
Tcap_time = 5.0
rungs = 32
"""


def test_picard_cli(tmp_path):
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG)
    out = tmp_path / "out"
    res = run_cli(["picard", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert "converged: True" in res.stdout
    assert "margins_nonnegative: True" in res.stdout
    assert (out / "picard_distances.csv").exists()
    audit = (out / "picard_audit.csv").read_text()
    assert audit.splitlines()[0].startswith("t,free,free_bound")
    ladders = sorted(out.glob("ladder_*.field"))
    assert len(ladders) == 32


def test_picard_cli_prints_probe_lift(tmp_path):
    # c1/C - 1 per constant: Gaussian data of width 0.25 stay under the sharp
    # constants; a forcing of width 2 reaches 5.1% above the forcing one by
    # Tcap = 10, where the heat kernel wraps around the box
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG.replace("w_scale_length2 = 0.25", "w_scale_length2 = 2.0")
                   .replace("Tcap_time = 5.0", "Tcap_time = 10.0"))
    res = run_cli(["picard", str(cfg)])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 3, res.stdout
    m = re.fullmatch(r"probe_lift free: (\S+)  nonlinear: (\S+)  forcing: (\S+)", lines[2])
    assert m is not None, lines[2]
    free, nonlinear, forcing = map(float, m.groups())
    assert free == 0.0 and nonlinear == 0.0
    assert 0.04 < forcing < 0.06


@pytest.mark.parametrize("line, message", [("q = 0", "window"),
                                           ("delta_value = 0", "delta")])
def test_picard_explicit_zero_rejected(tmp_path, line, message):
    # a present key is validated as given, never read as unset
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG + line + "\n")
    res = run_cli(["picard", str(cfg)])
    assert res.returncode == 2, res.stdout
    assert message in res.stderr


def test_picard_forcing_index_below_one_exits_2(tmp_path, capsys):
    # N = 2, p = 4, sigma = -1/10: the q-window is nonempty, but k = 30/37
    # because p lies below p* = 11, and w in L^k gives no smoothing estimate
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG.replace("sigma = -0.5", "sigma = -1/10"))
    assert main(["picard", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "forcing index k = 0.810811 < 1" in err, err
    assert "p* = 11" in err, err


def test_picard_unforced_needs_no_forcing_index(tmp_path, capsys):
    # the same parameters without w: an unforced map has no forcing term,
    # so it needs no L^k estimate, and its forcing constant and lift are 0
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG.replace("sigma = -0.5", "sigma = -1/10").replace(
        "w_kind = gaussian\nw_scale_length2 = 0.25\nw_amplitude_value = 0.002\n",
        "w_kind = none\n"))
    assert main(["picard", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out and "margins_nonnegative: True" in out, out
    assert out.splitlines()[2].endswith("forcing: 0"), out


@pytest.mark.parametrize("line, message", [
    ("Tcap_time = -1", "tcap"), ("Tcap_time = 0", "tcap"),
    ("max_iter = 0", "max_iter"), ("tol = 0", "tol"), ("tol = -1", "tol"),
])
def test_picard_unusable_values_rejected(tmp_path, line, message):
    # a ladder that cannot exist or an iteration that cannot converge is a
    # config error, not a traceback or a non-converged run
    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG.replace("Tcap_time = 5.0\n", "") + line + "\n")
    res = run_cli(["picard", str(cfg)])
    assert res.returncode == 2, res.stdout + res.stderr
    assert message in res.stderr, res.stderr
    assert "Traceback" not in res.stderr


def test_picard_cli_peak_memory_below_two_and_a_half_ladders(tmp_path):
    # the map keeps no ladder of fields: u and the next iterate (or the
    # nonlinear spectra) are the only grid-sized arrays per rung
    import tracemalloc

    cfg = tmp_path / "picard.ini"
    cfg.write_text(PICARD_CFG.replace("rungs = 32", "rungs = 128"))
    argv = ["picard", str(cfg)]
    assert main(argv) == 0  # warm-up: imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ladder_bytes = 128 * 64**2 * 8
    assert peak < 2.5 * ladder_bytes, peak / ladder_bytes


@pytest.mark.parametrize("command, base, line, message", [
    ("simulate", SIMPLE_SIM, "dt_max_time = 0", "dt_max"),
    ("certificate", CERT_CFG, "R_length = 0", "R must be positive"),
], ids=["simulate-dt_max", "certificate-R"])
def test_explicit_zero_rejected(tmp_path, command, base, line, message):
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(base + line + "\n")
    res = run_cli([command, str(cfg)])
    assert res.returncode == 2, res.stdout
    assert message in res.stderr


@pytest.mark.parametrize("old, new, message", [
    ("p_values = 1.5", "p_values = 1, 0.5", "p must be > 1, got 1"),
    ("N = 2", "N = 5", "N must be 1, 2 or 3, got 5"),
    ("Tend_time = 100.0", "Tend_time = 0", "Tend must be positive, got 0"),
    ("Tend_time = 100.0", "Tend_time = 100.0\ntol_step = -1", "tol_step must be positive, got -1"),
    ("Tend_time = 100.0", "Tend_time = 100.0\nUmax_value = 0", "Umax must be positive, got 0"),
], ids=["p", "N", "Tend", "tol_step", "Umax"])
def test_sweep_bad_input_exits_2(tmp_path, capsys, old, new, message):
    # every job would fail on it: the plan rejects it before any job runs,
    # instead of reporting each point Undetermined
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG.replace(old, new))
    assert main(["sweep", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_workers_below_one_exits_2(tmp_path, capsys, monkeypatch, workers):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG)
    monkeypatch.setattr(cli.sweep_mod, "execute", lambda *a, **k: pytest.fail("sweep ran"))
    assert main(["sweep", str(cfg), "--workers", str(workers)]) == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


@pytest.mark.parametrize("sigma, line, message", [
    ("-0.5", "R_length = 3", "R_length"),
    ("0.5", "R_length = 50", "R = 50.0"),
], ids=["unused-when-rescaled", "box-too-small"])
def test_certificate_bad_fixed_scale_rejected(tmp_path, sigma, line, message):
    # sigma <= 0 rescales the cutoff with T and has no use for R_length
    cfg = tmp_path / "cert.ini"
    cfg.write_text(CERT_CFG.replace("sigma = -0.5", f"sigma = {sigma}") + line + "\n")
    res = run_cli(["certificate", str(cfg)])
    assert res.returncode == 2, res.stdout
    assert message in res.stderr


def test_certificate_unknown_cutoffs_rejected(tmp_path):
    cfg = tmp_path / "cert.ini"
    cfg.write_text(CERT_CFG + "cutoffs = foo\n")
    res = run_cli(["certificate", str(cfg)])
    assert res.returncode == 2, res.stdout
    assert "'foo'" in res.stderr
    assert "default" in res.stderr and "steep" in res.stderr


@pytest.mark.parametrize("ladder, message", [("16", "two distinct"),
                                             ("16, 16", "two distinct"),
                                             ("0, 16", "must be positive")])
def test_certificate_degenerate_ladder_rejected(tmp_path, ladder, message):
    # one distinct T leaves no slope to fit, so no verdict can be made
    cfg = tmp_path / "cert.ini"
    cfg.write_text(CERT_CFG.replace("T_ladder_time = 8,16,32,64", f"T_ladder_time = {ladder}"))
    res = run_cli(["certificate", str(cfg)])
    assert res.returncode == 2, res.stdout
    assert message in res.stderr


def test_certificate_builds_only_the_forcing(tmp_path, monkeypatch, capsys):
    # an absent u0 would default to a full-grid Gaussian the certificate never
    # reads, and w is streamed: no Field is built at all
    streamed = []

    def recording(grid, **args):
        streamed.append(args)
        return real(grid, **args)

    def refuse(grid, **args):
        raise AssertionError(f"certificate built a whole profile: {args}")

    real = cli.profile_slabs
    monkeypatch.setattr(cli, "profile_slabs", recording)
    monkeypatch.setattr(cli, "data_profile", refuse)
    cfg = tmp_path / "cert.ini"
    cfg.write_text(CERT_CFG)
    assert main(["certificate", str(cfg)]) == 0
    assert streamed == [{"kind": "gaussian", "scale": 0.25,
                         "amplitude": 0.3183098861837907}]


SNAPSHOT_CERT_CFG = """\
[params]
N = 1
p = 2
sigma = -0.5

[grid]
L_length = 16.0
n = 64

[data]
w_file = {path}

[certificate]
T_ladder_time = 8, 16, 32
"""


def _snapshot_bytes(header, values):
    import numpy as np

    return header.encode("ascii") + np.asarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("payload, message", [
    (_snapshot_bytes("CRITEX-FIELD v1 N=1 n=64\n", [0.0] * 64), "lacks L"),
    (_snapshot_bytes("CRITEX-FIELD v1 N=1 L=16 n=64\n", [0.0] * 65), "8 bytes beyond"),
    (_snapshot_bytes("CRITEX-FIELD v1 N=1 L=16 n=64\n", [0.0] * 63), "truncated"),
    (_snapshot_bytes("CRITEX-FIELD v1 N=1 L=16 n=64\n", [1.0] * 40 + [float("nan")] * 24),
     "finite"),
], ids=["missing-key", "trailing-bytes", "short-payload", "nan-payload"])
def test_certificate_bad_snapshot_exits_2(tmp_path, capsys, payload, message):
    # a snapshot is checked as it is streamed: header, length and values;
    # a failure mid-stream still joins the thread that hashes the slabs
    path = tmp_path / "w.field"
    path.write_bytes(payload)
    cfg = tmp_path / "cert.ini"
    cfg.write_text(SNAPSHOT_CERT_CFG.format(path=path))
    threads = threading.active_count()
    assert main(["certificate", str(cfg)]) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert message in err, err
    if message != "finite":
        assert str(path) in err


def test_certificate_manifest_fingerprints_the_streamed_forcing(tmp_path):
    # the [fingerprints] w line is the hash of the whole field the [data]
    # section describes, though the command only ever holds its slabs
    data = dict(kind="gaussian", scale=0.3, amplitude=0.7, center=(0.5, -1.25, 0.25))
    cfg = tmp_path / "cert.ini"
    cfg.write_text(
        "[params]\nN = 3\np = 2\nsigma = -1/2\n\n"
        "[grid]\nL_length = 16.0\nn = 128\n\n"
        "[data]\nw_kind = gaussian\nw_scale_length2 = 0.3\nw_amplitude_value = 0.7\n"
        "w_center = 0.5, -1.25, 0.25\n\n"
        "[certificate]\nT_ladder_time = 32, 64, 128\n")
    out = tmp_path / "out"
    assert main(["certificate", str(cfg), "--out", str(out)]) == 0
    manifest = parse_config((out / "manifest.ini").read_text())
    want = field_fingerprint(data_profile(Grid(3, 16.0, 128), **data))
    assert manifest["fingerprints"]["w"] == want


@pytest.mark.parametrize("sigma", ["-1/2", "1/2"])
def test_certificate_cli_peak_memory_below_a_quarter_of_the_field(tmp_path, sigma):
    # the 128^3 forcing (16.8 MB) is streamed; the whole command, manifest
    # and CSV included, stays under a quarter of it
    import tracemalloc

    cfg = tmp_path / "cert.ini"
    cfg.write_text(
        f"[params]\nN = 3\np = 2\nsigma = {sigma}\n\n"
        "[grid]\nL_length = 16.0\nn = 128\n\n"
        "[data]\nw_kind = gaussian\nw_scale_length2 = 0.25\n"
        f"w_amplitude_value = {(4.0 * 3.141592653589793 * 0.25) ** -1.5!r}\n\n"
        "[certificate]\nT_ladder_time = 32, 64, 128\n")
    argv = ["certificate", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # warm-up: imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = 8 * 128**3
    assert peak < 0.25 * field_bytes, peak / field_bytes


def test_seed_profile_override(tmp_path):
    import numpy as np
    from critex.field import Field, Grid, write_snapshot

    g = Grid(1, 1.0, 16)
    seed = Field(g, np.full(16, 0.5))
    seed_path = tmp_path / "seed.field"
    write_snapshot(seed, seed_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text(SIMPLE_SIM)
    res = run_cli(["simulate", str(cfg), "--seed-profile", str(seed_path)])
    # u0 = 0.5 constant, p = 2: blow-up at t = 2 > Tend... exactly at horizon
    assert res.returncode in (0, 3)
    assert "verdict" in res.stdout


@pytest.mark.parametrize("command, text, named", [
    ("simulate", SIMPLE_SIM + "tol_stp = 1e-7\n", "'tol_stp'"),
    ("picard", PICARD_CFG.replace("w_amplitude_value", "w_amplitude_vlaue"),
     "'w_amplitude_vlaue'"),
    ("sweep", SWEEP_CFG + "\n[data]\nu0_kind = gaussian\n", "[data]"),
    ("certificate", CERT_CFG.replace("[certificate]", "u0_kind = gaussian\n[certificate]"),
     "'u0_kind'"),
    ("simulate", SIMPLE_SIM + "\n[sweep]\nN = 1\n", "[sweep]"),
    ("simulate", SIMPLE_SIM.replace("Tend_time = 2.0\n", ""), "'Tend_time'"),
], ids=["solve-typo", "data-typo", "sweep-data-section", "certificate-u0-key",
        "simulate-sweep-section", "missing-Tend"])
def test_config_mistakes_exit_2(tmp_path, capsys, command, text, named):
    # a typo must not run the experiment on a silent default
    cfg = tmp_path / "mistake.ini"
    cfg.write_text(text)
    assert main([command, str(cfg)]) == 2
    assert named in capsys.readouterr().err
