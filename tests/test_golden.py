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
from mixlab.cli import format_number, main
from mixlab.rng import substream

GOLDEN = {
    "cutoff": (
        "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\nn = 5000\n",
        "a22f5e91fe99f6d30db5f8087930287e610a114c510bbbb5c5db9fec1798fd16",
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
        "41c7246950e553d888a28915d8774a811c327b0521a98a35d5969b705b8ddf84",
    ),
    "validate": (
        "process = ou\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
        "b_rho = 0.5\nn_points = 2000\nbeta = 0.5\n",
        "b62b4d8608521f35f299573a278ed882c38bdf45a6b86d8b2e7c2132c6d19fc5",
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
    # R = 0 draws each repetition's start from the invariant measure on (seed, 7, rep, 0)
    text = "d = 16\nR = 0\nreps = 3\ntimes = 0,1\n"
    expected = "d9be4a1a051c41d3c03d796d3c61d291e9895d11abfbe7c082fc5f504cfe8841"
    assert body_hash(tmp_path, "ks-sweep", text) == expected


def test_validate_bytes_move_only_with_the_shared_sample():
    # validate's dispersion-balance and generator-bound rows once read their own
    # draws, 50 N(0, I_8) on (1111, 10) and (1111, 11); on those points the probes
    # still print the values of that golden body, so only the sample moved
    ou = OUProcess(1.0, 8)
    proj = SubspaceProjector.containing_direction(np.eye(8)[0], 3)
    x10, x11 = (50.0 * substream((1111, j)).standard_normal((2000, 8)) for j in (10, 11))
    assert format_number(check_dispersion_balance(ou, proj, x10).value) == "-1.12011917e-05"
    assert format_number(check_generator_bound(ou, proj, 1.0, x11).value) == "-1.04205663e-07"
