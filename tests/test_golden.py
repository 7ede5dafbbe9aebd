"""Golden SHA-256 hashes of CSV bodies at fixed configurations and seed.

The body is every line after the ``#`` preamble.  A hash that moves marks a
byte change in the output; a deliberate one is a golden update, recorded in
CHANGES.md together with the test that shows the distribution is unchanged.
The hashes hold for the numpy and scipy versions the suite was written
against, whose random streams and special functions they depend on.
"""

import hashlib

import pytest

from mixlab.cli import main

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
        "ed1a78609da94ca2091be524dd6a8b5800777b74b84e415ca4e61d037836fc1b",
    ),
}


@pytest.mark.parametrize("subcommand", sorted(GOLDEN))
def test_csv_body_hash(tmp_path, subcommand):
    text, expected = GOLDEN[subcommand]
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(text)
    code = main([subcommand, "--config", str(cfg), "--seed", "1111", "--out", str(tmp_path)])
    assert code in (0, 3)
    lines = (tmp_path / f"{subcommand}.csv").read_text().splitlines()
    body = "".join(line + "\n" for line in lines if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == expected
