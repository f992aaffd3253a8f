"""Golden CSV digests for the three sweep modes and the capacity
command of the CLI.

Each sweep case runs `dmmsim.cli.main` on a copy of the desk-scale
configuration with a short stopping rule and two grid points (one in
the waterfall, one error-free), and compares the SHA-256 of the CSV it
writes with a frozen digest. Every refactor of the frame pipeline must
reproduce these bytes for any worker count.

Each capacity case runs `dmmsim capacity --grid=-6:6:0.1 --half-bit`
for one modulation and compares the CSV digest and the half-bit line;
every rewrite of the MI quadrature must reproduce both. The high-SNR
cases pin the CSV of `dmmsim capacity --grid=10:150:10`, where the
Gaussians are narrow and the BPSK integrand is two spikes. The QPSK
digest was re-recorded once, when the quadrature moved to noise units:
its only changed row is 90 dB, which read 0 bits under the former
360-panel cap and now reads the 2-bit limit
(`90.0000,2.000000000,86.9897`).
"""

import hashlib
import json
from pathlib import Path

import pytest

from dmmsim.cli import main

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"
GRID = "--grid=-1.2,0.5"

# (extra CLI arguments, CSV file written, SHA-256 of its bytes)
GOLDEN = {
    "ber-sweep": (
        ["ber-sweep"],
        "dmm_sweep.csv",
        "fc55aa11dffa67e28798f23de323fe1190a0bc6360e95db8b81c6314e338970e",
    ),
    "bpsk-baseline": (
        ["ber-sweep", "--baseline", "bpsk"],
        "bpsk_baseline.csv",
        "f7db2b82b003a5a390796ad1c1aa6024498ead4f6ac2eedb3f6f4e0604e2e86b",
    ),
    "genie-compare": (
        ["genie-compare"],
        "genie_compare.csv",
        "c3ce826a6561a18e1ea186b5f2511ff01e12dd52d423fef00b217de585ad2fa9",
    ),
}


@pytest.fixture(scope="module")
def short_config(tmp_path_factory):
    data = json.loads(DESK_CONFIG.read_text())
    data["stop"] = {"min_frame_errors": 6, "max_frames": 32}
    path = tmp_path_factory.mktemp("golden") / "desk_short.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_csv_digest(mode, workers, short_config, tmp_path):
    args, csv_name, digest = GOLDEN[mode]
    out = tmp_path / "out"
    argv = [args[0], str(short_config), *args[1:], GRID, "--workers", str(workers), "--out-dir", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / csv_name).read_bytes()).hexdigest() == digest


CAPACITY_GRID = "--grid=-6:6:0.1"

# modulation -> (SHA-256 of capacity_<modulation>.csv, half-bit stdout line)
CAPACITY_GOLDEN = {
    "bpsk": (
        "ac349896f065b752391fec7f29c3a9ead668b2d91c1e4c408a15ed3a040a03c2",
        "mi = 0.5 bit at Es/N0 = -2.8232 dB, Eb/N0 = 0.1871 dB",
    ),
    "qpsk": (
        "72fd60f056b65f9f120e37d341c6329f93b82b81aa6af08a012cebb8f744f479",
        "mi = 0.5 bit at Es/N0 = -3.8044 dB, Eb/N0 = -0.7941 dB",
    ),
}


@pytest.mark.parametrize("modulation", sorted(CAPACITY_GOLDEN))
def test_capacity_digest(modulation, tmp_path, capsys):
    digest, half_bit_line = CAPACITY_GOLDEN[modulation]
    argv = ["capacity", "--modulation", modulation, CAPACITY_GRID, "--half-bit", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    csv_bytes = (tmp_path / f"capacity_{modulation}.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == digest
    assert capsys.readouterr().out.splitlines()[-1] == half_bit_line


HIGH_SNR_GRID = "--grid=10:150:10"

# modulation -> SHA-256 of capacity_<modulation>.csv on HIGH_SNR_GRID
HIGH_SNR_GOLDEN = {
    "bpsk": "7ecde5228a194ae2145fb157a3ec6683e8753e8d8c7e1d990f698ada25d96f48",
    "qpsk": "2c0af3a84756f366bc9b557ddbb6333f9edc61a969002137f166b457da8c4f72",
}


@pytest.mark.parametrize("modulation", sorted(HIGH_SNR_GOLDEN))
def test_capacity_high_snr_digest(modulation, tmp_path):
    argv = ["capacity", "--modulation", modulation, HIGH_SNR_GRID, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    csv_bytes = (tmp_path / f"capacity_{modulation}.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == HIGH_SNR_GOLDEN[modulation]
