import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest

from mixlab import ConfigError, DivergenceError, experiments
from mixlab.cli import (
    SCHEMAS,
    format_number,
    main,
    parse_config_file,
    resolve_config,
)
from mixlab.experiments import run_quantile_table


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(argv, warnings_as_errors=False):
    """Run ``python -m mixlab.cli`` in a fresh interpreter; return (exit code, stdout + stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    flags = ["-W", "error"] if warnings_as_errors else []
    proc = subprocess.run([sys.executable, *flags, "-m", "mixlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


CUTOFF_CFG = """
# desk-scale cut-off
d = 16
R = 50
delta = 0.02
eps = 0.05
b_rho = 0.5
n = 20000
times = 0, 3.01685506, 6.94697599
"""


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "# c\n\nd = 4  # trailing\n R = 50 \n")
        raw = parse_config_file(p)
        assert raw == {"d": "4", "R": "50"}

    def test_duplicate_key(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "d = 4\nd = 5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_garbage_line(self, tmp_path):
        p = write_cfg(tmp_path / "a.cfg", "just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(p)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key 'nope'"):
            resolve_config("cutoff", {"nope": "1"})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            resolve_config("cutoff", {"d": "4"})

    def test_range_and_choices(self):
        with pytest.raises(ConfigError, match="below minimum"):
            resolve_config("cutoff", {"d": "0", "R": "50", "delta": "0.1", "eps": "0.1"})
        with pytest.raises(ConfigError, match="not one of"):
            resolve_config("lowerbound", {
                "process": "bogus", "d": "4", "R": "50", "delta": "0.1", "eps": "0.1"})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            resolve_config("cutoff", {"d": "four", "R": "50", "delta": "0.1", "eps": "0.1"})

    @pytest.mark.parametrize("key,text", [
        ("R", "inf"), ("R", "nan"), ("eps", "-inf"), ("times", "0, nan, 2"), ("times", "inf"),
    ])
    def test_non_finite_rejected(self, key, text):
        raw = {"d": "4", "R": "50", "delta": "0.1", "eps": "0.1", key: text}
        with pytest.raises(ConfigError, match=f"key '{key}'.*not a finite number"):
            resolve_config("cutoff", raw)

    def test_defaults_applied(self):
        cfg = resolve_config("quantile-table", {})
        assert cfg["eps"] == 0.1 and "n" not in cfg
        assert cfg["p_list"] == (1.0, 1.2, 1.4, 1.6, 1.8)


class TestFormatting:
    def test_nine_significant_digits(self):
        assert format_number(3.016855064965699) == "3.01685506"
        assert format_number(0.5) == "0.5"
        assert format_number(-0.0) == "0"
        assert format_number(None) == ""
        assert format_number(12) == "12"


class TestExitCodes:
    def test_constraint_refusal_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CUTOFF_CFG.replace("R = 50", "R = 2.1"))
        code = main(["cutoff", "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_key_exit(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CUTOFF_CFG + "bogus = 1\n")
        assert main(["cutoff", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["cutoff", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_validate_failure_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path / "v.cfg", """
process = ou
d = 8
R = 50
delta = 0.02
eps = 0.05
b_rho = 0.1
n_points = 1000
""")
        assert main(["validate", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 3

    def test_validate_pass_exits_0(self, tmp_path):
        cfg = write_cfg(tmp_path / "v.cfg", """
process = ou
d = 8
R = 50
delta = 0.02
eps = 0.05
b_rho = 0.5
n_points = 1000
""")
        assert main(["validate", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0

    def test_divergence_maps_to_4(self, tmp_path, monkeypatch):
        import mixlab.cli as cli_mod

        def boom(cfg, seed, threads):
            raise DivergenceError("path diverged at step 3", 3, 0.3, float("nan"))

        monkeypatch.setitem(cli_mod.RUNNERS, "classify", boom)
        cfg = write_cfg(tmp_path / "c.cfg", "p = 1\n")
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 4

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "d = 16\nR = inf\ndelta = 0.02\neps = 0.05\n")
        assert main(["cutoff", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "key 'R'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "abc"])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        cfg = write_cfg(tmp_path / "c.cfg", "p = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg, "--seed", seed, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "d = 16\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            "n = 2000\ntimes = 0\n")
        code = main(["cutoff", "--config", cfg, "--seed", str(2 ** 64 - 1),
                     "--out", str(tmp_path)])
        assert code in (0, 3)
        assert (tmp_path / "cutoff.csv").exists()

    def test_nan_path_maps_to_4(self, tmp_path, monkeypatch):
        import mixlab.cli as cli_mod
        from mixlab import IntegratorConfig, RadialProfile
        from tests.test_forward import NaNDriftLangevin

        def integrate(cfg, seed, threads):
            tl = NaNDriftLangevin(RadialProfile.power_tail(1.0, 1.0), 0.25, 2)
            tl.sample_endpoints(np.ones(2), 1.0, 4, seed, IntegratorConfig(0.1))

        monkeypatch.setitem(cli_mod.RUNNERS, "classify", integrate)
        cfg = write_cfg(tmp_path / "c.cfg", "p = 1\n")
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("sub", ["validate", "lowerbound"])
    def test_failed_generator_premise_exits_3(self, tmp_path, capsys, sub):
        # a = 1, p = 1, ell = 1 breaks A H <= mu H by 1198.85 on the probe grid
        cfg = write_cfg(tmp_path / f"{sub}.cfg", "process = tempered\nprofile_a = 1\n"
                        "profile_p = 1\nell = 1\nd = 16\nR = 5000\ndelta = 0.02\neps = 0.05\n")
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 3
        assert "FAIL generator-bound: value = 1198.8493" in capsys.readouterr().out

    def test_lowerbound_premise_that_overflows_exits_2(self, tmp_path):
        # the premise check shares validate's float-range guard
        cfg = write_cfg(tmp_path / "l.cfg", "process = tempered\nd = 8\nR = 100\n"
                        "delta = 0.02\neps = 0.05\nell = 40\nprofile_p = 2\n")
        code, text = run_cli(["lowerbound", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 2
        assert "ell = 40" in text and "profile_p = 2" in text and "R = 100" in text
        assert "Traceback" not in text and "Warning" not in text
        assert not (tmp_path / "lowerbound.csv").exists()

    def test_validate_body_reads_neither_seed_nor_n_points(self, tmp_path):
        bodies = []
        for seed, n_points in (("1", 100), ("2", 100_000)):
            out = tmp_path / seed
            cfg = write_cfg(tmp_path / f"v{seed}.cfg", "process = tempered\nprofile_a = 0.6\n"
                            f"ell = 0.4\nd = 16\nR = 400\ndelta = 0.02\neps = 0.05\n"
                            f"n_points = {n_points}\n")
            assert main(["validate", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
            lines = (out / "validate.csv").read_text().splitlines()
            bodies.append([line for line in lines if not line.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_lowerbound_exact_r_k_above_half_of_R(self, tmp_path, capsys):
        # t_lower = log(R / (2 r_k)) / mu needs R > 2 r_k strictly; the exact
        # r_k of N(0, I) at k = 3, eps = 0.05 is 3.22
        cfg = write_cfg(tmp_path / "l.cfg", """
process = ou
d = 8
R = 4
delta = 0.02
eps = 0.05
b_rho = 0.5
n = 1000
""")
        assert main(["lowerbound", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "2 r_k < R, got r_k = 3.2" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, key", [
        ("cutoff", "bins"), ("lowerbound", "r_k"), ("validate", "r_k"),
        ("validate", "r_max"), ("validate", "envelope_scale"),
    ])
    def test_method_keys_are_unknown(self, tmp_path, capsys, sub, key):
        # the bins, the level r_k, the drift grid's end and the probe scale
        # are derived from the problem, so no config sets them
        cfg = write_cfg(tmp_path / "c.cfg", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            f"{key} = 10\n")
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err

    def test_cutoff_eps_zero_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", CUTOFF_CFG.replace("eps = 0.05", "eps = 0"))
        assert main(["cutoff", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,text,key", [
        ("cutoff", CUTOFF_CFG.replace("times = 0, 3.01685506", "times = -1, 2"), "times"),
        ("ks-sweep", "d = 4\nR = 50\ntimes = 0, -0.5\n", "times"),
        ("quantile-table", "d_list = 3, 0\n", "d_list"),
        ("quantile-table", "p_list = 1, 2.5\n", "p_list"),
        ("quantile-table", "p_list = -1\n", "p_list"),
        ("quantile-table", "p_list = 0\n", "p_list"),
    ])
    def test_list_element_out_of_range_exits_2(self, tmp_path, capsys, sub, text, key):
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,text,key", [
        ("cutoff", CUTOFF_CFG.replace("b_rho = 0.5", "b_rho = 0"), "b_rho"),
        ("cutoff", CUTOFF_CFG.replace("R = 50", "R = 2"), "R"),
        ("validate", "process = tempered\nprofile_p = 0\nd = 8\nR = 50\ndelta = 0.02\n"
                     "eps = 0.05\n", "profile_p"),
    ], ids=["b_rho", "R", "profile_p"])
    def test_open_interval_end_exits_2(self, tmp_path, capsys, sub, text, key):
        # each of these values sits on the excluded end of the key's interval
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "below minimum" in err

    def test_ks_sweep_R_beyond_the_finite_end_exits_2(self, tmp_path):
        # R = 1e300 used to overflow R sqrt(mu) and x sqrt(mu) into rows at t = inf
        cfg = write_cfg(tmp_path / "k.cfg", "d = 4\nR = 1e300\nmu = 1e100\nreps = 2\n")
        code, text = run_cli(["ks-sweep", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 2
        assert "key 'R'" in text and "above maximum" in text
        assert "Traceback" not in text and "Warning" not in text

    def test_ks_sweep_at_the_largest_mu_runs(self, tmp_path):
        # at t = 0 the OU transition once formed 2 mu = inf before multiplying by
        # t, and its NaN variance stopped the run with a message naming no key
        cfg = write_cfg(tmp_path / "k.cfg", "d = 4\nR = 1e150\nmu = 1.7e308\nreps = 2\n")
        code, text = run_cli(["ks-sweep", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 0
        assert "Traceback" not in text and "Warning" not in text
        rows = [line.split(",") for line in (tmp_path / "ks-sweep.csv").read_text().splitlines()
                if not line.startswith(("#", "t,"))]
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row if c)

    def test_lowerbound_reads_neither_seed_nor_n(self, tmp_path):
        bodies = []
        for seed, n in (("1", "100"), ("2", "100000")):
            cfg = write_cfg(tmp_path / "l.cfg", "process = tempered\nd = 8\nR = 400\n"
                                                f"delta = 0.02\neps = 0.05\nn = {n}\n")
            out = tmp_path / seed
            assert main(["lowerbound", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
            bodies.append([line for line in (out / "lowerbound.csv").read_text().splitlines()
                           if not line.startswith("#")])
        assert bodies[0] == bodies[1]

    def test_lowerbound_accepts_any_ignored_count(self, tmp_path):
        # n and rk_n enter no term, so no value of theirs stops the run
        cfg = write_cfg(tmp_path / "l.cfg", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            "n = -1\nrk_n = 0\n")
        assert main(["lowerbound", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0

    def test_lowerbound_failed_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # at the exact r_k the gate holds by construction; at r_k = 1 the pi
        # term pi(H >= 1) is 0, so the bound cannot reach the floor
        monkeypatch.setattr(experiments, "projection_quantile",
                            lambda pi, k, eps: SimpleNamespace(r=1.0))
        cfg = write_cfg(tmp_path / "l.cfg", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n")
        assert main(["lowerbound", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL lower-bound-at-horizon:" in out and "PASS bound-ordering:" in out
        assert (tmp_path / "lowerbound.csv").exists()

    def test_ks_sweep_small_R_default_times_exits_2(self, tmp_path, capsys):
        # with eps = 0.1, t_onset = log R - log(sqrt(2 log 10)) < 0 for R < 2.14597
        cfg = write_cfg(tmp_path / "k.cfg", "d = 4\nR = 1.5\nreps = 2\n")
        assert main(["ks-sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "R = 1.5" in err and "2.14597" in err
        # explicit times need no default grid
        cfg = write_cfg(tmp_path / "k.cfg", "d = 4\nR = 1.5\nreps = 2\ntimes = 0, 1\n")
        assert main(["ks-sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0

    def test_ks_sweep_R_sqrt_mu_underflow(self, tmp_path, capsys):
        # R sqrt(mu) rounds to 0 here, where log(R sqrt(mu)) raised ValueError
        text = "d = 1\nR = 5e-324\nmu = 0.25\nreps = 1\n"
        cfg = write_cfg(tmp_path / "k.cfg", text)
        assert main(["ks-sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "R = 4.94066e-324, mu = 0.25" in capsys.readouterr().err
        # explicit times need no horizon
        cfg = write_cfg(tmp_path / "k.cfg", text + "times = 0, 1\n")
        assert main(["ks-sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("times", ["", "times = 1\n"])
    def test_cutoff_below_the_onset_radius_exits_2(self, tmp_path, times):
        # R sqrt(mu) = 0.972 >= max(sqrt(0.9), sqrt(2 log(1/0.9))) = 0.949, but
        # t_onset = log(0.972)/0.105 < 0: the hypothesis needs the onset radius 1
        cfg = write_cfg(tmp_path / "c.cfg", "d = 1\nR = 3\ndelta = 0.02\neps = 0.9\n"
                                            f"mu = 0.105\nn = 200\n{times}")
        code, text = run_cli(["cutoff", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 2
        assert "cut-off hypothesis violated" in text and "sqrt(2 log(1/eps)), 1) = 1," in text
        assert "R = 3, mu = 0.105" in text and "Traceback" not in text

    @pytest.mark.parametrize("text", [
        "d = 64\nR = 50\nmu = 1e-17\nreps = 3\ntimes = 1\n",
        "d = 125\nR = 0\nmu = 1.1125369292536007e-308\nreps = 1\n",
        "d = 16\nR = 0\nmu = 5e-324\nreps = 2\n",
    ], ids=["1e-17", "1e-308", "5e-324"])
    def test_ks_sweep_at_a_tiny_mu_runs(self, tmp_path, text):
        # the transition's variance once rounded to 0 at mu T ~ 1e-17, and the
        # stationary start overflowed near mu = 1e-308
        cfg = write_cfg(tmp_path / "k.cfg", text)
        code, out = run_cli(["ks-sweep", "--config", cfg, "--out", str(tmp_path)],
                            warnings_as_errors=True)
        assert code == 0, out
        assert "Traceback" not in out and "Warning" not in out
        lines = (tmp_path / "ks-sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith(("#", "t,"))]
        # the d coordinates differ, so the standardized statistic stays far from 0.5
        assert all(0.0 < float(row[4]) < 0.2 for row in rows)

    @pytest.mark.parametrize("sub", ["lowerbound", "validate"])
    def test_ou_at_the_smallest_mu_exits_2_naming_mu(self, tmp_path, capsys, sub):
        # mu/2 rounds to 0 at mu = 5e-324, which leaves N(0, I/mu) no profile scale
        cfg = write_cfg(tmp_path / "c.cfg", "process = ou\nmu = 5e-324\nd = 8\nR = 50\n"
                                            "delta = 0.02\neps = 0.05\n")
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "key 'mu' = 4.94066e-324" in capsys.readouterr().err

    @pytest.mark.parametrize("mu, reason", [
        ("1e-323", "no exact r_k at key 'mu' = 9.88131e-324: projection quantile out of"),
        ("1e-315", "no exact r_k at key 'mu' = 1e-315: projection quantile out of"),
        ("1e-300", "2 r_k < R, got r_k = 3.05752e+150 (exact at key 'mu' = 1e-300)"),
    ])
    def test_ou_lowerbound_at_a_tiny_mu_exits_2_naming_mu(self, tmp_path, capsys, mu, reason):
        # the exact r_k of N(0, I/mu) grows as 1/sqrt(mu): from mu = 1e-315 down
        # it leaves the float range, and at 1e-300 it exceeds R/2
        cfg = write_cfg(tmp_path / "c.cfg", f"process = ou\nmu = {mu}\nd = 8\nR = 50\n"
                                            "delta = 0.02\neps = 0.05\n")
        assert main(["lowerbound", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["0.5", "1e10"])
    def test_cutoff_gates_pass_off_the_unit_clock(self, tmp_path, capsys, mu):
        # both horizons read R sqrt(mu) on the clock 1/mu; a mu = 1 copy of the
        # clock failed tv-at-mix at mu = 0.5 and tv-at-onset at mu = 1e10
        cfg = write_cfg(tmp_path / "c.cfg", f"d = 4\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            f"n = 200\nmu = {mu}\n")
        assert main(["cutoff", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS tv-at-onset:" in out and "PASS tv-at-mix:" in out

    @pytest.mark.parametrize("mu, times", [("1e13", "1"), ("1e14", "0")])
    def test_cutoff_gates_read_their_own_rows_at_large_mu(self, tmp_path, capsys, mu, times):
        # t_onset and t_mix_simple lie within 1e-12 of each other (mu = 1e13)
        # or of the user's t = 0 (mu = 1e14); each gate still gets a row at
        # exactly its horizon
        cfg = write_cfg(tmp_path / "c.cfg", f"d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            f"n = 100\nmu = {mu}\ntimes = {times}\n")
        assert main(["cutoff", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) in (0, 3)
        out = capsys.readouterr().out
        assert "tv-at-onset:" in out and "tv-at-mix:" in out
        lines = (tmp_path / "cutoff.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        col = {name: i for i, name in enumerate(header)}
        ts = [row[col["t"]] for row in rows]
        assert len(rows) == 3 and float(times) in map(float, ts)
        assert rows[0][col["t_onset"]] in ts and rows[0][col["t_mix_simple"]] in ts

    def test_heavy_tailed_quantile_out_of_range_exits_2(self, tmp_path):
        # at p = 0.01 the d = 4 quantile is finite, about 4.1e263; the d = 30 one overflows
        cfg = write_cfg(tmp_path / "q.cfg", "p_list = 0.01\nd_list = 4\n")
        code, text = run_cli(["quantile-table", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0 and "Warning" not in text
        row = (tmp_path / "quantile-table.csv").read_text().splitlines()[-1].split(",")
        assert row[0] == "0.01" and 1e263 < float(row[1]) < 1e264
        cfg = write_cfg(tmp_path / "q.cfg", "p_list = 0.01\nd_list = 4,30\n")
        code, text = run_cli(["quantile-table", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "d = 30, p = 0.01" in text
        assert "Traceback" not in text and "Warning" not in text

    @pytest.mark.parametrize("sub, text", [
        # every radius of pi rounds to 0, where the horizon check read NaN
        ("lowerbound", "process = tempered\nd = 4\nR = 50\ndelta = 0.02\neps = 0.05\n"
                       "profile_a = 1e300\nprofile_p = 0.3\n"),
        # subnormal radii, where the tail's slope overflowed
        ("quantile-table", "p_list = 0.9375\nd_list = 3\na = 9.02183998831235e+289\n"),
    ])
    def test_quantile_below_the_normal_floats_exits_2(self, tmp_path, sub, text):
        cfg = write_cfg(tmp_path / "q.cfg", text)
        code, out = run_cli([sub, "--config", cfg, "--out", str(tmp_path)], warnings_as_errors=True)
        assert code == 2
        assert "is not a normal float" in out and "d = " in out and "p = " in out
        assert "Traceback" not in out and "Warning" not in out

    def test_unresolved_quantile_tail_exits_2(self, tmp_path):
        # the 97-node tail is 11.5% low near this root, where the 49-node rule
        # on every other node reads 3.9% apart from it
        cfg = write_cfg(tmp_path / "q.cfg", "p_list = 2\nd_list = 300\na = 1\neps = 1e-40\n")
        code, text = run_cli(["quantile-table", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "d = 300, p = 2, eps = 1e-40" in text
        assert "Traceback" not in text and not (tmp_path / "quantile-table.csv").exists()

    @pytest.mark.parametrize("sub, text", [
        ("validate", "process = ou\nd = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn = 100000\n"),
        ("quantile-table", "n = 300000\n"),
    ])
    def test_validate_rejects_n(self, tmp_path, capsys, sub, text):
        # the validate tail mass and the quantiles are exact, so neither has a sample size
        cfg = write_cfg(tmp_path / "v.cfg", text)
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "unknown configuration key 'n'" in capsys.readouterr().err

    def test_ks_sweep_rejects_delta(self, tmp_path, capsys):
        # a ks-sweep start is a point, not a ball, so there is no ball radius to set
        cfg = write_cfg(tmp_path / "k.cfg", "d = 4\nR = 50\ndelta = 0.02\n")
        assert main(["ks-sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "unknown configuration key 'delta'" in capsys.readouterr().err

    def test_validate_rejects_rk_n(self, tmp_path, capsys):
        # r_k is exact; only lowerbound still accepts (and ignores) rk_n
        cfg = write_cfg(tmp_path / "v.cfg", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            "rk_n = 20000\n")
        assert main(["validate", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        assert "unknown configuration key 'rk_n'" in capsys.readouterr().err

    def test_lowerbound_rejects_rho0(self, tmp_path, capsys):
        # the bound starts from the data mixture alone; from pi it could not be positive
        cfg = write_cfg(tmp_path / "l.cfg", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\n"
                                            "rho0 = pi\n")
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown configuration key 'rho0'" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, text, keys", [
        ("lowerbound", "d = 4\nR = 50\ndelta = 0.02\neps = 0.05\nk = 5\n",
         "key 'k' = 5 exceeds key 'd' = 4"),
        ("validate", "d = 2\nR = 50\ndelta = 0.02\neps = 0.05\nn_points = 100\n",
         "key 'k' = 3 exceeds key 'd' = 2"),
        ("quantile-table", "d_list = 30,2\n",
         "key 'k' = 3 exceeds d = 2 in key 'd_list' (cells q_d2, r_d2)"),
    ], ids=["lowerbound", "validate", "quantile-table"])
    def test_k_above_d_names_its_keys(self, tmp_path, capsys, sub, text, keys):
        cfg = write_cfg(tmp_path / f"{sub}.cfg", text)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and keys in err
        assert not (tmp_path / sub / f"{sub}.csv").exists()

    @pytest.mark.parametrize("text, message", [
        # a repeated d once wrote q_d3 and r_d3 twice, and csv.DictReader kept the last pair
        ("d_list = 3,30,3\n", "key 'd_list': 3 appears more than once"),
        # a repeated p once wrote the same row twice; 1 and 1.0 are one value
        ("p_list = 1,1.4,1.0\n", "key 'p_list': 1 appears more than once"),
    ], ids=["d_list", "p_list"])
    def test_repeated_quantile_table_entry_exits_2(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path / "q.cfg", text)
        assert main(["quantile-table", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "q" / "quantile-table.csv").exists()

    @pytest.mark.parametrize("case", ["config-not-utf8", "config-is-directory", "out-is-file"])
    def test_path_errors_exit_2(self, tmp_path, case):
        cfg = write_cfg(tmp_path / "c.cfg", "p = 1\n")
        out = tmp_path / "out"
        if case == "config-not-utf8":
            (tmp_path / "c.cfg").write_bytes(b"p = 1\n# \xff\xfe\n")
            named = cfg
        elif case == "config-is-directory":
            cfg = named = str(tmp_path)
        else:
            out.write_text("")
            named = str(out)
        code, text = run_cli(["classify", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "Traceback" not in text
        assert named in text

    @pytest.mark.parametrize("name", ["quantile-table.csv", "quantile-table_manifest.json",
                                      "cutoff.svg"])
    def test_unwritable_output_exits_2(self, tmp_path, name):
        # a directory in an output file's place cannot be written over
        sub = name.split(".")[0].removesuffix("_manifest")
        text = {"quantile-table": "p_list = 1.8\nd_list = 3\n",
                "cutoff": "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn = 500\n"}[sub]
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, text = run_cli([sub, "--config", cfg, "--out", str(out), "--svg"])
        assert code == 2
        assert "Traceback" not in text
        assert f"cannot write {out / name}" in text
        # a failed write removes what the run wrote before it, and nothing is announced
        assert not (out / f"{sub}.csv").is_file()
        assert "wrote" not in text


SMALL_RUNS = {"cutoff": "n = 2000\n", "lowerbound": "n = 2000\n", "validate": "n_points = 500\n"}


def data_cfg(tmp_path, sub, R="50", extra=""):
    text = f"d = 8\nR = {R}\ndelta = 0.02\neps = 0.05\nb_rho = 0.5\n" + SMALL_RUNS[sub] + extra
    return write_cfg(tmp_path / f"{sub}.cfg", text)


class TestExtremeScales:
    """Data keys at the ends of the float range end in a documented exit.

    The suite turns RuntimeWarnings into errors, so an overflow on the way
    fails these tests as well as a traceback does.
    """

    @pytest.mark.parametrize("sub", ["validate", "lowerbound"])
    @pytest.mark.parametrize("scale", ["1e-300", "1e-160"])
    def test_tiny_bulk_scale_runs(self, tmp_path, sub, scale):
        # (radius / bulk_scale)^2 passes DBL_MAX: the bulk's chi-square CDF reads 1
        cfg = data_cfg(tmp_path, sub, extra=f"bulk_scale = {scale}\n")
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) in (0, 3)

    @pytest.mark.parametrize("sub", ["cutoff", "lowerbound", "validate"])
    @pytest.mark.parametrize("key, value", [
        ("R", "1e300"), ("R", "1.3e154"), ("R", "1.000001e150"), ("bulk_scale", "1e300"),
    ])
    def test_beyond_the_finite_end_exits_2(self, tmp_path, capsys, sub, key, value):
        extra = f"bulk_scale = {value}\n" if key == "bulk_scale" else ""
        cfg = data_cfg(tmp_path, sub, R=value if key == "R" else "50", extra=extra)
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "above maximum" in err

    @pytest.mark.parametrize("sub", ["cutoff", "lowerbound", "validate"])
    @pytest.mark.parametrize("key", ["R", "bulk_scale"])
    def test_finite_end_runs(self, tmp_path, sub, key):
        cfg = data_cfg(tmp_path, sub, R="1e150" if key == "R" else "50",
                       extra="bulk_scale = 1e150\n" if key == "bulk_scale" else "")
        assert main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) in (0, 3)

    @pytest.mark.parametrize("text", [
        "d = 3\nR = 1e150\nmu = 1e10\nn_points = 500\n",
        "d = 8\nR = 1e150\nn_points = 500\n",
    ], ids=["far-and-fast", "envelope-end"])
    def test_ou_probes_at_scale_pass(self, tmp_path, capsys, text):
        # OU meets every probe exactly; far points must not turn H^3 <b, G> into 0 * inf
        cfg = write_cfg(tmp_path / "v.cfg", "process = ou\ndelta = 0.02\neps = 0.05\n" + text)
        assert main(["validate", "--config", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for name in ("linear-growth", "dispersion-balance", "generator-bound"):
            assert f"PASS {name}:" in out

    def test_tempered_probes_that_overflow_exit_2(self, tmp_path):
        # the drift probe reads inf and three probes nan here; the run must not
        # report them as measured values or write them to validate.csv
        cfg = write_cfg(tmp_path / "v.cfg", "process = tempered\nd = 8\nR = 100\n"
                        "delta = 0.02\neps = 0.05\nell = 40\nprofile_p = 2\nn_points = 500\n")
        code, text = run_cli(["validate", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 2
        assert "ell = 40" in text and "profile_p = 2" in text and "R = 100" in text
        assert "Traceback" not in text and "Warning" not in text
        assert not (tmp_path / "validate.csv").exists()

    @pytest.mark.parametrize("extra, names", [
        # H = a r^p underflows to 0, and H^(2 ell - 1) divides by it
        ("profile_a = 5e-324\n", ("profile_a = 4.94066e-324", "ell = 0")),
    ], ids=["profile_a"])
    def test_tempered_probes_at_the_float_floor_exit_2(self, tmp_path, extra, names):
        cfg = write_cfg(tmp_path / "v.cfg", "process = tempered\nd = 3\nR = 3\ndelta = 0.5\n"
                        "eps = 0.5\n" + extra)
        code, text = run_cli(["validate", "--config", cfg, "--out", str(tmp_path)],
                             warnings_as_errors=True)
        assert code == 2
        assert all(name in text for name in names), text
        assert "Traceback" not in text and "Warning" not in text


# small runs, so that no swept value makes a run allocate much memory
SWEEP_BASES = {
    "cutoff": "d = 4\nR = 50\ndelta = 0.02\neps = 0.05\nn = 200\n",
    "lowerbound": "d = 4\nR = 50\ndelta = 0.02\neps = 0.05\nn = 200\n",
    "quantile-table": "p_list = 1.5\nd_list = 3\n",
    "ks-sweep": "d = 4\nR = 50\nreps = 2\n",
    "classify": "p = 1\n",
    "validate": "d = 4\nR = 50\ndelta = 0.02\neps = 0.05\nn_points = 100\n",
}
SWEEP_VALUES = (1e-300, 0.5, 1.0, 1.5, 1e10, 1e150, 1e300)


def _sweep_cases():
    """(subcommand, key, value) for every float key: its finite interval ends,
    then each sweep value inside its interval.  Size keys are ints or lists."""
    for sub, schema in SCHEMAS.items():
        for key, spec in schema.items():
            if spec.kind != "float":
                continue
            lo, hi = (float(end) for end in spec.within[1:-1].split(","))
            values = [v for v in (lo, hi) if math.isfinite(v)]
            values += [v for v in SWEEP_VALUES if lo < v < hi]
            for v in values:
                yield pytest.param(sub, key, v, id=f"{sub}-{key}-{v:g}")


class TestScaleSweep:
    """Every float key at the ends of its interval and across the float range
    ends in a documented exit with no NaN in its output.

    The suite turns RuntimeWarnings into errors, so an overflow on the way
    fails a case as well as a traceback does.
    """

    @pytest.mark.parametrize("sub, key, value", list(_sweep_cases()))
    def test_documented_exit_and_no_nan(self, tmp_path, capsys, sub, key, value):
        base = "".join(line + "\n" for line in SWEEP_BASES[sub].splitlines()
                       if not line.startswith(f"{key} ="))
        cfg = write_cfg(tmp_path / "c.cfg", base + f"{key} = {value!r}\n")
        code = main([sub, "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
        assert code in (0, 2, 3, 4)
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert not any("nan" in line for line in verdicts)
        csv = tmp_path / f"{sub}.csv"
        if csv.exists():
            assert "nan" not in csv.read_text()


class TestOutputs:
    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CUTOFF_CFG)
        code = main(["cutoff", "--config", cfg, "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        data = (tmp_path / "cutoff.csv").read_bytes()
        assert b"\r" not in data
        text = data.decode()
        lines = text.splitlines()
        preamble = [ln for ln in lines if ln.startswith("# ")]
        assert any("tool = mixlab" in ln for ln in preamble)
        assert any("config.R = 50" in ln for ln in preamble)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",")[:2] == ["t", "tv"]
        # numeric cells carry at most 9 significant digits
        first_row = lines[lines.index(header) + 1].split(",")
        assert len(first_row[1].replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_manifest_written(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", CUTOFF_CFG)
        main(["cutoff", "--config", cfg, "--seed", "7", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "cutoff_manifest.json").read_text())
        assert manifest["subcommand"] == "cutoff"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == ["cutoff.csv"]
        assert "duration_seconds" in manifest
        assert manifest["config"]["R"] == 50.0

    def test_svg_emitted(self, tmp_path):
        cfg = write_cfg(tmp_path / "k.cfg", "d = 64\nR = 50\nreps = 2\n")
        code = main(["ks-sweep", "--config", cfg, "--seed", "3", "--out", str(tmp_path), "--svg"])
        assert code == 0
        svg = (tmp_path / "ks-sweep.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg

    @pytest.mark.parametrize("sub, text", [
        ("cutoff", "d = 8\nR = 50\ndelta = 0.02\neps = 0.05\nn = 500\n"),
        ("ks-sweep", "d = 16\nR = 50\nreps = 2\ntimes = 0, 0.5, 1, 2, 4\n"),
    ])
    def test_svg_chart_reads_the_grid(self, tmp_path, sub, text):
        # the chart parses as XML, draws one point per grid time in each
        # polyline, and leaves the CSV bytes as a run without --svg writes them
        cfg = write_cfg(tmp_path / "c.cfg", text)
        plain, charted = tmp_path / "plain", tmp_path / "charted"
        assert main([sub, "--config", cfg, "--seed", "4", "--out", str(plain)]) == 0
        assert main([sub, "--config", cfg, "--seed", "4", "--out", str(charted), "--svg"]) == 0
        csv = (charted / f"{sub}.csv").read_bytes()
        assert csv == (plain / f"{sub}.csv").read_bytes()
        assert not (plain / f"{sub}.svg").exists()
        body = [line.split(",") for line in csv.decode().splitlines() if not line.startswith("#")]
        grid = {float(row[body[0].index("t")]) for row in body[1:]}
        root = ElementTree.parse(charted / f"{sub}.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(lines) == 1
        for line in lines:
            points = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
            assert len(points) == len(grid) > 2
            xs = [x for x, _ in points]
            assert xs == sorted(xs) and all(map(math.isfinite, xs))
        manifest = json.loads((charted / f"{sub}_manifest.json").read_text())
        assert manifest["outputs"] == [f"{sub}.csv", f"{sub}.svg"]

    def test_classify_stdout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "p = 3\nell = 0.2\n")
        assert main(["classify", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out

    def test_quantile_table_matches_direct_call(self, tmp_path):
        cfg = write_cfg(tmp_path / "q.cfg", "p_list = 1.8\nd_list = 3\n")
        main(["quantile-table", "--config", cfg, "--seed", "5", "--out", str(tmp_path)])
        text = (tmp_path / "quantile-table.csv").read_text()
        row = text.splitlines()[-1].split(",")
        direct = run_quantile_table(
            {"p_list": (1.8,), "d_list": (3,), "eps": 0.1, "a": 1.0, "k": 3},
            5,
        )
        assert float(row[1]) == pytest.approx(direct.rows[0]["q_d3"], rel=1e-8)


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path / "l.cfg", """
process = ou
d = 8
R = 50
delta = 0.02
eps = 0.05
b_rho = 0.5
n = 5000
rk_n = 20000
""")
        for threads, sub in (("1", "a"), ("8", "b")):
            main(["lowerbound", "--config", cfg, "--seed", "11", "--out",
                  str(tmp_path / sub), "--threads", threads])
        a = (tmp_path / "a" / "lowerbound.csv").read_bytes()
        b = (tmp_path / "b" / "lowerbound.csv").read_bytes()
        assert a == b
