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
        "23e6ec0a38a7f88b326f7752d12f1dd00b3a4a080207abb624110c9450b6f93a",
    ),
    "quantile-table": (
        "p_list = 1.8,1.2\nd_list = 3,30\nn = 20000\n",
        "785cb98dd8046578c4cc7eb613fcb6c2fcbacb35935229a0262a4a347813ba68",
    ),
    "ks-sweep": (
        "d = 64\nR = 50\nreps = 3\n",
        "41c7246950e553d888a28915d8774a811c327b0521a98a35d5969b705b8ddf84",
    ),
    "validate": (
        "process = ou\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
        "b_rho = 0.5\nn_points = 2000\nbeta = 0.5\n",
        "9fb0bbbef18b25ea14ebc08e6a840063b360b36f578b32013ec0a6f1fb7bb14f",
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
