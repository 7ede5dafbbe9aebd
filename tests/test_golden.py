"""Golden SHA-256 hashes of CSV bodies at fixed configurations and seed.

The body is every line after the ``#`` preamble.  A hash that moves marks a
byte change in the output; a deliberate one is a golden update, recorded in
CHANGES.md together with the test that shows the distribution is unchanged.
The hashes hold for the numpy and scipy versions the suite was written
against, whose random streams and special functions they depend on.
"""

import hashlib

import numpy as np
import pytest

from mixlab import OUProcess, SubspaceProjector, check_dispersion_balance, check_generator_bound
from mixlab.bounds import _frame
from mixlab.cli import format_number, main

GOLDEN = {
    "cutoff": (
        "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\nn = 5000\n",
        "5afd9d33fc7d902662b25e4b1560fd5083dca280759b2779150015d22142b0ca",
    ),
    "lowerbound": (
        "process = tempered\nprofile_a = 0.6\nprofile_p = 1\nell = 0.4\n"
        "d = 8\nR = 400\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\n"
        "n = 5000\nrk_n = 20000\n",
        "f65c140ae16bba9daae45b147436ba3b18c6184d24e4f63f1928cd75d24049c5",
    ),
    "quantile-table": (
        "p_list = 1.8,1.2\nd_list = 3,30\n",
        "28a7d5b8105afc2702e7f73a020fa009f9039a22c457ec6a0e85d1648cde59f0",
    ),
    "ks-sweep": (
        "d = 64\nR = 50\nreps = 3\n",
        "828373c5237a7169403f868d8f8a61cbdcb12e49456e9bd9d5d276ab109e4b7c",
    ),
    "validate": (
        "process = ou\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
        "b_rho = 0.5\nn_points = 2000\nbeta = 0.5\n",
        "41dbbecf8b780f3310ace1efab90701dc31841b90a51fb8af6870676f5563429",
    ),
}


def body_hash(tmp_path, subcommand: str, text: str) -> str:
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(text)
    code = main([subcommand, "--config", str(cfg), "--seed", "1111", "--out", str(tmp_path)])
    assert code in (0, 3)
    lines = (tmp_path / f"{subcommand}.csv").read_text().splitlines()
    body = "".join(line + "\n" for line in lines if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("subcommand", sorted(GOLDEN))
def test_csv_body_hash(tmp_path, subcommand):
    text, expected = GOLDEN[subcommand]
    assert body_hash(tmp_path, subcommand, text) == expected


def test_stationary_ks_sweep_body_hash(tmp_path):
    # R = 0 draws each repetition's start as one N(0, I/mu) draw on (seed, 7, rep, 0);
    # tests/test_experiments.py::TestKSSweepRun::test_stationary_start_law checks its law
    text = "d = 16\nR = 0\nreps = 3\ntimes = 0,1\n"
    expected = "856a011e35953cdcf05722c2461e042d98449817a3d3be48f87e5d971e0b64a6"
    assert body_hash(tmp_path, "ks-sweep", text) == expected


def test_validate_bytes_move_only_with_the_shared_sample():
    # validate's process probes once read one envelope sample, 50 N(0, I_8) on
    # (1111, 9), when substreams ran on Philox; read through the frame
    # (|x|, |G|), the grid probes print that golden body's values on it, so
    # only the points the probes read moved
    ou = OUProcess(1.0, 8)
    proj = SubspaceProjector.containing_direction(np.eye(8)[0], 3)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1111, spawn_key=(9,))))
    r, g = _frame(proj, 50.0 * rng.standard_normal((2000, 8)))
    assert format_number(check_dispersion_balance(ou, 3, r, g).value) == "-1.00794799e-05"
    assert format_number(check_generator_bound(ou, 3, 1.0, r, g).value) == "-9.05152745e-08"
