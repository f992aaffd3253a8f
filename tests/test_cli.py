import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmmsim import cli, config, simkit
from dmmsim.cli import main, parse_grid
from dmmsim.config import ConfigError
from test_ldpc import ALIST_CONTRADICTIONS

CONFIG = {
    "inner_code": {"n": 96, "row_degree": 6, "col_degree": 3, "seed": 5},
    "outer_code": {"base": {"n": 24, "row_degree": 6, "col_degree": 4, "seed": 8}, "rep_factor": 4},
    "esn0_grid_db": [-1.0, 2.0],
    "max_iter": 30,
    "stop": {"min_frame_errors": 5, "max_frames": 32},
    "seed": 11,
    "batch_frames": 8,
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CONFIG))
    return p


def test_parse_grid_range_and_list():
    g = parse_grid("-2:10:0.5")
    assert len(g) == 25
    assert g[0] == -2.0 and g[-1] == 10.0
    assert parse_grid("-1.5, 0,2.25") == (-1.5, 0.0, 2.25)
    assert parse_grid("3") == (3.0,)
    # accepted at 4 decimal places
    assert parse_grid("0.00004")[0] == 0.0
    with pytest.raises(ConfigError):
        parse_grid("")
    with pytest.raises(ConfigError):
        parse_grid("1:2:0")
    with pytest.raises(ConfigError):
        parse_grid("5:1:1")
    with pytest.raises(ConfigError):
        parse_grid("a,b")
    with pytest.raises(ConfigError):
        parse_grid("1:2:3:4")
    # ranges too long to build are rejected before any point is made,
    # and comma lists are held to the same cap
    for text in ("0:1e9:1e-9", "0:inf:1", ",".join(["0.5"] * (config.MAX_GRID_POINTS + 1))):
        with pytest.raises(ConfigError, match="points"):
            parse_grid(text)
    assert len(parse_grid(",".join(["0.5"] * config.MAX_GRID_POINTS))) == config.MAX_GRID_POINTS
    for text in ("nan", "-inf,0"):
        with pytest.raises(ConfigError, match="NaN"):
            parse_grid(text)
    assert parse_grid("inf") == (math.inf,)  # noiseless
    # an empty list entry is malformed, not skipped
    for text in ("1,,2", "1,", " ,3"):
        with pytest.raises(ConfigError, match="empty entry"):
            parse_grid(text)


def test_capacity_subcommand(tmp_path, capsys):
    rc = main(["capacity", "--grid=-2:10:0.5", "--half-bit", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mi = 0.5 bit at Es/N0 = -2.8232 dB, Eb/N0 = 0.1871 dB" in out
    csv = (tmp_path / "capacity_bpsk.csv").read_text().splitlines()
    assert csv[0] == "esn0_db,mi_bits,ebn0_db"
    assert len(csv) == 26
    mi = [float(r.split(",")[1]) for r in csv[1:]]
    assert mi == sorted(mi)
    # qpsk tail approaches 2 bits
    rc = main(["capacity", "--modulation", "qpsk", "--grid", "14", "--out-dir", str(tmp_path)])
    assert rc == 0
    row = (tmp_path / "capacity_qpsk.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) > 1.99


@pytest.mark.parametrize("modulation, bits", [("bpsk", 1), ("qpsk", 2)])
def test_capacity_noiseless_grid_point(tmp_path, modulation, bits):
    assert main(["capacity", "--grid", "inf", "--modulation", modulation, "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / f"capacity_{modulation}.csv").read_text().splitlines()
    assert rows[1:] == [f"inf,{bits:.9f},inf"]


ROOT = Path(__file__).resolve().parent.parent


def run_child(argv):
    """Run a Python child process that imports dmmsim from this tree."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_capacity_high_snr_bpsk_is_quiet(tmp_path):
    # in a child process, so a warning would reach its stderr
    proc = run_child(["-m", "dmmsim.cli", "capacity", "--grid=300", "--out-dir", str(tmp_path)])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = (tmp_path / "capacity_bpsk.csv").read_text().splitlines()
    assert rows[1:] == ["300.0000,1.000000000,300.0000"]


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_capacity_far_below_float_range_reads_zero_bits(tmp_path, modulation):
    # below about -3000 dB MI is under the 1e-300-bit floor and reads 0
    argv = ["capacity", "--grid=-3081,-4000", "--modulation", modulation, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / f"capacity_{modulation}.csv").read_text().splitlines()
    assert rows[1:] == ["-3081.0000,0.000000000,inf", "-4000.0000,0.000000000,inf"]


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_capacity_deep_noise_reads_low_snr_limit(tmp_path, modulation):
    # MI of 1.4e-100 bits at -1000 dB, whose Eb/N0 is the limit 10 log10(ln 2)
    argv = ["capacity", "--grid=-1000", "--modulation", modulation, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / f"capacity_{modulation}.csv").read_text().splitlines()
    assert rows[1:] == ["-1000.0000,0.000000000,-1.5917"]


NO_SCIPY_CHILD = """
import json, math, sys
from pathlib import Path
import numpy as np
import dmmsim
from dmmsim import cli, simkit

root, out = Path(sys.argv[1]), Path(sys.argv[2])
desk = simkit.load_config(root / "configs" / "desk_scale.json")
simkit.run_frame(desk, 0, esn0_db=-1.0)
cfg = json.loads((root / "configs" / "desk_scale.json").read_text())
cfg["stop"] = {"min_frame_errors": 1, "max_frames": 16}
(out / "cfg.json").write_text(json.dumps(cfg))
rc = cli.main(["ber-sweep", str(out / "cfg.json"), "--grid=-1.0,0.5", "--workers", "1",
               "--out-dir", str(out / "run")])
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = scipy_loaded()
grids = {m: [p.mi_bits for p in dmmsim.mi_grid([-2.0, 0.0, 2.0], m)] for m in ("bpsk", "qpsk")}
loaded_by_mi = scipy_loaded()

# BPSK mutual information at 0 dB by a plain trapezoid over +-14 sigma
s2 = 0.5
y = np.linspace(-1 - 14 * math.sqrt(s2), 1 + 14 * math.sqrt(s2), 400001)
f = 0.5 * (np.exp(-(y - 1) ** 2 / (2 * s2)) + np.exp(-(y + 1) ** 2 / (2 * s2))) / math.sqrt(2 * math.pi * s2)
hy = float(np.sum(-f * np.log2(f)) * (y[1] - y[0]))
want = hy - 0.5 * math.log2(2 * math.pi * math.e * s2)
root = dmmsim.esn0_at_mi(0.5)
loaded_by_root = scipy_loaded()
cli_rcs = [cli.main(["capacity", "--grid=-1:1:1", "--half-bit", "--out-dir", str(out / "cap")]),
           cli.main(["rate-bound", "0.5", "--r2", "0.1"])]
print(json.dumps({"rc": rc, "loaded": loaded, "loaded_by_mi": loaded_by_mi, "grids": grids,
                  "loaded_by_root": loaded_by_root, "mi": dmmsim.mi_bpsk(0.0).mi_bits,
                  "want": want, "root": root, "cli_rcs": cli_rcs, "loaded_by_cli": scipy_loaded()}))
"""


def test_runs_do_not_load_scipy(tmp_path):
    # scipy.integrate and scipy.optimize cost about 50 MiB of resident
    # memory in every process that loads them. Frames, MI grids of both
    # modulations, the half-bit root and the capacity and rate-bound
    # commands load no scipy module at all
    proc = run_child(["-c", NO_SCIPY_CHILD, str(ROOT), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    assert (tmp_path / "run" / "dmm_sweep.csv").exists()
    assert got["loaded"] == []
    assert got["loaded_by_mi"] == []
    assert abs(got["grids"]["bpsk"][1] - got["want"]) < 1e-9  # the 0 dB entry
    assert all(0.0 < b < q < 2.0 for b, q in zip(got["grids"]["bpsk"], got["grids"]["qpsk"]))
    assert got["loaded_by_root"] == []
    assert abs(got["mi"] - got["want"]) < 1e-9
    assert abs(got["root"] - -2.823239579262132) < 1e-6  # the frozen half-bit root
    assert got["cli_rcs"] == [0, 0]
    assert (tmp_path / "cap" / "capacity_bpsk.csv").exists()
    assert got["loaded_by_cli"] == []


def test_capacity_bad_grid_exits_nonzero(tmp_path, capsys):
    rc = main(["capacity", "--grid", "oops", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_ber_sweep_writes_csv_and_manifest(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["ber-sweep", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    csv1 = (out / "dmm_sweep.csv").read_bytes()
    man = json.loads((out / "dmm_sweep_manifest.json").read_text())
    assert man["eta"] == pytest.approx(7 / 12)
    assert man["seed"] == 11
    assert man["command"].startswith("dmmsim ber-sweep")
    assert man["config"]["inner_code"] == CONFIG["inner_code"]
    assert man["code_fingerprints"]["inner"]
    # re-run reproduces byte-identical CSV
    rc = main(["ber-sweep", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "dmm_sweep.csv").read_bytes() == csv1
    lines = csv1.decode().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "-1.0000"


def test_grid_with_empty_entry_exits_2(tmp_path, capsys):
    assert main(["capacity", "--grid", "1,,2", "--out-dir", str(tmp_path)]) == 2
    assert "empty entry" in capsys.readouterr().err
    assert not (tmp_path / "capacity_bpsk.csv").exists()


@pytest.mark.parametrize("command, stem", [("ber-sweep", "dmm_sweep"), ("genie-compare", "genie_compare")])
def test_manifest_lists_why_each_point_stopped(cfg_path, tmp_path, command, stem):
    manifests = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main([command, str(cfg_path), "--workers", workers, "--out-dir", str(out)]) == 0
        manifests.append(json.loads((out / f"{stem}_manifest.json").read_text()))
        header, *rows = (out / f"{stem}.csv").read_text().splitlines()
        frames = header.split(",").index("frames")
        assert [p["frames"] for p in manifests[-1]["points"]] == [int(r.split(",")[frames]) for r in rows]
    assert manifests[0]["points"] == manifests[1]["points"] == [
        {"esn0_db": -1.0, "frames": 16, "frame_errors": 8, "stop": "min_frame_errors"},
        {"esn0_db": 2.0, "frames": 32, "frame_errors": 0, "stop": "max_frames"},
    ]


def test_ber_sweep_worker_invariance(cfg_path, tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["ber-sweep", str(cfg_path), "--out-dir", str(out1)]) == 0
    assert main(["ber-sweep", str(cfg_path), "--workers", "2", "--out-dir", str(out2)]) == 0
    assert (out1 / "dmm_sweep.csv").read_bytes() == (out2 / "dmm_sweep.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1", "5"])
@pytest.mark.parametrize("command", ["ber-sweep", "genie-compare"])
def test_workers_outside_core_count_rejected(cfg_path, tmp_path, capsys, monkeypatch, command, workers):
    def no_call(*args, **kwargs):
        raise AssertionError("called after a rejected --workers")

    cfg = simkit.load_config(cfg_path)
    monkeypatch.setattr(config.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(simkit, "ProcessPoolExecutor", no_call)
    monkeypatch.setattr(cli, "load_config", no_call)
    out = tmp_path / "out"
    assert main([command, str(cfg_path), "--workers", workers, "--out-dir", str(out)]) == 2
    assert "workers must be an integer in [1, 4]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="workers"):
        simkit.run_sweep(cfg, workers=int(workers))


@pytest.mark.parametrize("source", ["--grid", "config"])
def test_grid_above_cap_rejected_before_any_frame(cfg_path, tmp_path, capsys, monkeypatch, source):
    def no_call(*args, **kwargs):
        raise AssertionError("a frame ran on a rejected grid")

    monkeypatch.setattr(simkit, "_run_point", no_call)
    grid = [0.5] * (config.MAX_GRID_POINTS + 1)
    argv = ["ber-sweep", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    if source == "--grid":
        argv.append("--grid=" + ",".join(map(str, grid)))
    else:
        cfg_path.write_text(json.dumps({**CONFIG, "esn0_grid_db": grid}))
    assert main(argv) == 2
    assert f"points, more than {config.MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dmm_sweep.csv").exists()


@pytest.mark.parametrize(
    "flag, needle",
    [("--grid=abc", "non-numeric"), ("--grid=1:0:1", "stop must be >= start"), ("--seed=-1", "seed must be")],
    ids=["grid-abc", "grid-reversed", "seed-below-0"],
)
@pytest.mark.parametrize("command", ["ber-sweep", "genie-compare"])
def test_bad_flag_refused_before_any_code_is_built(cfg_path, tmp_path, capsys, no_code_construction, command, flag, needle):
    assert main([command, str(cfg_path), flag, "--out-dir", str(tmp_path / "out")]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ber_sweep_baseline_mode(cfg_path, tmp_path):
    out = tmp_path / "base"
    rc = main(["ber-sweep", str(cfg_path), "--baseline", "bpsk", "--out-dir", str(out)])
    assert rc == 0
    man = json.loads((out / "bpsk_baseline_manifest.json").read_text())
    assert man["eta"] == pytest.approx(0.5)
    lines = (out / "bpsk_baseline.csv").read_text().splitlines()
    assert len(lines) == 3


def test_ber_sweep_genie_flag_is_rejected(cfg_path, tmp_path, capsys):
    # the paired genie sweep is the genie-compare subcommand alone
    out = tmp_path / "genie"
    with pytest.raises(SystemExit) as exc:
        main(["ber-sweep", str(cfg_path), "--genie", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "--genie" in capsys.readouterr().err
    assert not out.exists()


def test_genie_compare_subcommand(cfg_path, tmp_path):
    out = tmp_path / "gc"
    rc = main(["genie-compare", str(cfg_path), "--grid", "2", "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "genie_compare.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "ber_inner_affected"
    assert len(lines) == 2
    man = json.loads((out / "genie_compare_manifest.json").read_text())
    assert man["config"]["esn0_grid_db"] == [2.0]


def test_overrides_recorded_in_manifest(cfg_path, tmp_path):
    out = tmp_path / "ov"
    rc = main(["ber-sweep", str(cfg_path), "--grid", "1.5", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    man = json.loads((out / "dmm_sweep_manifest.json").read_text())
    assert man["config"]["esn0_grid_db"] == [1.5]
    assert man["seed"] == 3
    assert "--seed 3" in man["command"]


def test_config_errors_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG, "bogus": 1}))
    rc = main(["ber-sweep", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
    rc = main(["ber-sweep", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        ("ber-sweep", None, ["--grid=-3100"]),
        ("genie-compare", {**CONFIG, "esn0_grid_db": [-3100.0]}, []),
    ],
)
def test_infinite_noise_power_exits_2(tmp_path, capsys, command, doc, extra):
    # a finite Es/N0 below the frame floor is refused before any frame runs
    cfg = ROOT / "configs" / "desk_scale.json"
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, str(cfg), *extra, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: esn0_grid_db") and "Traceback" not in captured.err
    assert "below the frame floor" in captured.err
    assert not out.exists()


REMOVED_OPTIONS = {"genie_beta": False, "outer_rebuild": "reencode", "es": 1.0}


def _unreadable_input(tmp_path, case):
    """Config path and the text stderr must name for one unreadable input."""
    cfg = tmp_path / "cfg.json"
    if case == "deep":
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        return cfg, [str(cfg), "nests too deeply"]
    if case == "config-dir":
        return tmp_path, [str(tmp_path), "cannot be read"]
    if case == "config-not-utf8":
        cfg.write_bytes(b'{"seed": "\xff"}')
        return cfg, [str(cfg), "cannot be read"]
    if case == "alist-dir":
        (tmp_path / "codes").mkdir()
        doc = {**CONFIG, "inner_code": {"alist": "codes"}}
        needles = ["inner_code.alist", "cannot read alist"]
    elif case == "alist-not-utf8":
        (tmp_path / "latin1.alist").write_bytes(b"7 3\n\xe9\n")
        doc = {**CONFIG, "outer_code": {"base": {"alist": "latin1.alist"}, "rep_factor": 4}}
        needles = ["outer_code.base.alist", "cannot read alist"]
    else:  # a config option that was removed, at a value it once took
        doc = {**CONFIG, case: REMOVED_OPTIONS[case]}
        needles = ["unknown config fields", case]
    cfg.write_text(json.dumps(doc))
    return cfg, needles


@pytest.mark.parametrize(
    "case",
    ["deep", "config-dir", "config-not-utf8", "alist-dir", "alist-not-utf8", *REMOVED_OPTIONS],
)
def test_unreadable_config_or_alist_exits_2(tmp_path, capsys, case):
    cfg, needles = _unreadable_input(tmp_path, case)
    rc = main(["ber-sweep", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("case", ALIST_CONTRADICTIONS)
def test_contradictory_alist_exits_2(tmp_path, capsys, case):
    text, message = ALIST_CONTRADICTIONS[case]
    (tmp_path / "bad.alist").write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "inner_code": {"alist": "bad.alist"}}))
    with pytest.raises(ConfigError, match=message):
        config.load_config(cfg)
    assert main(["ber-sweep", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inner_code.alist: ") and message in err


def test_high_ber_is_not_an_error(cfg_path, tmp_path):
    # deep in the noise every frame errors; exit status must still be 0
    out = tmp_path / "noisy"
    rc = main(["ber-sweep", str(cfg_path), "--grid=-10", "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "dmm_sweep.csv").read_text().splitlines()
    assert float(lines[1].split(",")[4]) > 0.1  # ber_combined


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["ber-sweep"], "dmm_sweep.csv"),
        (["ber-sweep", "--baseline", "bpsk"], "bpsk_baseline.csv"),
        (["genie-compare"], "genie_compare.csv"),
    ],
    ids=["ber-sweep", "bpsk-baseline", "genie-compare"],
)
def test_frames_far_above_the_noiseless_threshold_exit_0(cfg_path, tmp_path, capsys, argv, csv):
    # a subnormal noise variance is noiseless, so +3100 dB counts what +inf does
    rc = main([argv[0], str(cfg_path), *argv[1:], "--grid=3100,inf", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "error" not in capsys.readouterr().err
    _header, at_3100, at_inf = (tmp_path / csv).read_text().splitlines()
    assert at_3100.split(",")[2:] == at_inf.split(",")[2:]


def test_rate_bound_output(capsys):
    assert main(["rate-bound", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "R2 < R1/4 = 0.125000" in out
    assert "1/8" in out

    assert main(["rate-bound", "0.5", "--r2", "0.0833333"]) == 0
    assert "satisfied" in capsys.readouterr().out

    assert main(["rate-bound", "0.5", "--r2", "0.2"]) == 0
    assert "violated" in capsys.readouterr().out


def test_rate_bound_range_errors(capsys):
    for r1 in ("0.0", "1.0", "1.2"):
        assert main(["rate-bound", r1]) == 2
        assert "r1" in capsys.readouterr().err
    assert main(["rate-bound", "0.5", "--r2", "1.5"]) == 2
    assert "r2" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
