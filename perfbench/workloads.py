"""The three benchmark workloads, driven through mixlab's public entry points.

Each workload is built once from the benchmark seed (set-up), then ``run()``
is the timed call and ``evaluate()`` checks its output outside the timed
region.  ``toy=True`` shrinks the sample counts for the set-up warm-up and
the self-test; the configuration is otherwise the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mixlab
import mixlab.cli as cli
from mixlab.measures import RadialProfile

from tracer import F64, em_steps

# The tempered process of ROADMAP criterion 3: the drift condition holds for
# p=1, ell=0.4 (it fails for p=1.5, ell=0.25, and so do 3 of 8 envelope pairs).
TEMPERED = {"process": "tempered", "d": 16, "R": 400, "delta": 0.02, "eps": 0.05,
            "b_rho": 0.5, "mu": 1, "profile_p": 1, "profile_a": 0.6, "ell": 0.4}


@dataclass
class Outcome:
    files: dict[str, bytes]  # CSV name -> bytes
    problems: list[str]  # failed checks; empty when the output is correct
    units: int  # coordinate operations done by the call


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``mixlab.cli.main`` in-process; return its exit code and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def csv_rows(data: bytes) -> list[dict[str, str]]:
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


class CliRun:
    """One ``mixlab <subcommand>`` call, writing ``<subcommand>.csv``."""

    def __init__(self, subcommand: str, cfg: dict, seed: int, out_dir: Path):
        self.cfg = cfg
        cfg_path = out_dir / f"{subcommand}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        self.csv_path = out_dir / f"{subcommand}.csv"
        self.argv = [subcommand, "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out_dir), "--threads", "1"]

    def run(self) -> tuple[int, str]:
        return call_cli(self.argv)

    def read(self, raw) -> tuple[Outcome, list[dict[str, str]], str]:
        """Collect the CSV of a finished call (and remove it for the next call)."""
        rc, text = raw
        if not self.csv_path.exists():
            problem = f"{self.argv[0]} exit code {rc}, no CSV: {text.strip()}"
            return Outcome({}, [problem], 0), [], text
        data = self.csv_path.read_bytes()
        self.csv_path.unlink()
        problems = [f"{self.argv[0]} exit code {rc}"] if rc != 0 else []
        return Outcome({self.csv_path.name: data}, problems, 0), csv_rows(data), text


class Cutoff:
    name = "cutoff-d256"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.call = CliRun("cutoff", {"d": 256, "R": 50, "delta": 0.02, "eps": 0.05,
                                      "b_rho": 0.5, "mu": 1, "n": 2_000 if toy else 100_000,
                                      "mode_kind": "uniform-ball"}, seed, out_dir)
        self.run = self.call.run

    def evaluate(self, raw) -> Outcome:
        out, rows, text = self.call.read(raw)
        out.problems += [f"{name} did not print PASS" for name in ("tv-at-onset", "tv-at-mix")
                         if f"PASS {name}:" not in text]
        # every grid time draws n x d start coordinates and evolves as many
        cfg = self.call.cfg
        out.units = 2 * cfg["n"] * cfg["d"] * len(rows)
        return out

    def largest_array(self) -> tuple[int, str]:
        n, d = self.call.cfg["n"], self.call.cfg["d"]
        return n * d * F64, f"{n} x {d} float64 points per grid time"


class LowerboundTempered:
    name = "lowerbound-tempered-d16"

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        cfg = dict(TEMPERED, mode_kind="truncated-gaussian", n=2_000 if toy else 100_000,
                   rk_n=1_000 if toy else cli.SCHEMAS["lowerbound"]["rk_n"].default)
        self.call = CliRun("lowerbound", cfg, seed, out_dir)
        self.run = self.call.run

    def evaluate(self, raw) -> Outcome:
        out, rows, _ = self.call.read(raw)
        # criterion 3: total >= floor - 3 se at the horizon t_lower
        at = [r for r in rows if r["t"] == r["t_lower"]]
        if len(at) != 1:
            out.problems.append(f"{len(at)} rows at t_lower")
        else:
            total, se, floor = (float(at[0][k]) for k in ("total", "total_se", "floor"))
            if total < floor - 3.0 * se:
                out.problems.append(f"total {total} < floor {floor} - 3 se {se} at t_lower")
        # n x d coordinates of rho0 and of pi per grid time, plus rk_n norm draws
        cfg = self.call.cfg
        out.units = 2 * cfg["n"] * cfg["d"] * len(rows) + cfg["rk_n"]
        return out

    def largest_array(self) -> tuple[int, str]:
        n, d = self.call.cfg["n"], self.call.cfg["d"]
        return n * d * F64, f"{n} x {d} float64 points of rho0 or pi"


class EnvelopeEM:
    """``mixlab validate`` on the tempered process, then a grid of growth-envelope
    checks through the library API: the only workload that runs Euler-Maruyama."""

    name = "envelope-em-d16"
    START_RADII = (0.5, 5.0, 50.0, 400.0)
    HORIZONS = (0.5, 1.0)
    STEP = 1e-2

    def __init__(self, seed: int, out_dir: Path, toy: bool):
        self.validate = CliRun("validate", dict(TEMPERED, n_points=1_000 if toy else 10_000),
                               seed, out_dir)
        d = TEMPERED["d"]
        self.paths = 200 if toy else 10_000
        self.process = mixlab.TemperedLangevin(
            RadialProfile.power_tail(TEMPERED["profile_a"], TEMPERED["profile_p"]),
            TEMPERED["ell"], d)
        self.proj = mixlab.SubspaceProjector.containing_direction(np.eye(d)[0], 3)
        self.rate = mixlab.LinearRate(TEMPERED["mu"])
        self.integrator = mixlab.IntegratorConfig(self.STEP)
        # start points at each radius along a direction drawn from the seed;
        # each pair simulates on its own substream (seed, 1, i)
        rng = np.random.default_rng([seed, 0])
        self.pairs = []
        for i, (r, t) in enumerate((r, t) for r in self.START_RADII for t in self.HORIZONS):
            u = rng.standard_normal(d)
            self.pairs.append((r, t, r * u / np.linalg.norm(u), (seed, 1, i)))

    def run(self):
        raw = self.validate.run()
        reports = [mixlab.check_growth_envelope(self.process, self.proj, self.rate, x, t,
                                                self.paths, pair_seed, self.integrator)
                   for _, t, x, pair_seed in self.pairs]
        return raw, reports

    def evaluate(self, raw) -> Outcome:
        validate_raw, reports = raw
        out, _, _ = self.validate.read(validate_raw)
        lines = ["r,t,start_value,estimate,se,bound,passed"]
        for (r, t, _, _), rep in zip(self.pairs, reports):
            lines.append(f"{r!r},{t!r},{rep.start_value!r},{rep.estimate!r},{rep.se!r},"
                         f"{rep.bound!r},{int(rep.passed)}")
            if not rep.passed:
                out.problems.append(f"envelope r={r} t={t}: {rep.estimate} > {rep.bound}")
        out.files["envelope.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
        out.units = sum(self.paths * self.process.d * em_steps(t, self.STEP)
                        for _, t, _, _ in self.pairs)
        return out

    def largest_array(self) -> tuple[int, str]:
        # validate_data_spec draws at least 1e5 points; the EM state is only paths x d
        n = 100_000
        return n * self.process.d * F64, f"{n} x {self.process.d} float64 points in validate"


WORKLOADS = {w.name: w for w in (Cutoff, LowerboundTempered, EnvelopeEM)}
