"""mixlab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload closed-loop (one caller, each call after the previous one
returns, ``--threads 1``, BLAS pinned to one thread) for about ``--seconds``
seconds in this process, checks every output, and prints a report whose last
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls and reports per-layer metrics (see tracer.py).

Set-up (``setup_s``) is measured in fresh interpreters started by this
script: process start, importing mixlab, building the workload, and one
toy-sized call that pays the first-call costs (lazy imports and the like),
up to the moment the first timed call would start.  ``wall_s`` is therefore
the warm steady-state time of one call.

Run records (CSV SHA-256 per workload and seed, environment, timings, spans)
go to ``.perfbench_out/records`` in the checkout.  A run counts as failed
when its output fails the workload's checks, or when its CSV bytes differ
from an earlier run of the same code (see ``code_digest``) and seed, traced
or not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="small sample counts, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the monotonic clock, exit (used for setup_s)")
    return p.parse_args(argv)


def code_digest() -> tuple[str, int]:
    """SHA-256 over everything the CSV bytes depend on, and the ``src/`` line count.

    That is the program's sources, the workload configs and the envelope CSV
    format in ``workloads.py``, and the numpy and scipy versions (their random
    streams).
    """
    import numpy
    import scipy

    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        lines += data.count(b"\n")
    h.update((HERE / "workloads.py").read_bytes() + b"\0")
    h.update(f"numpy {numpy.__version__} scipy {scipy.__version__}".encode())
    return h.hexdigest(), lines


def environment(src_lines: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc_level, llc_bytes = 0, 0
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = int((idx / "level").read_text())
        size = (idx / "size").read_text().strip()
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        if level > llc_level:
            llc_level, llc_bytes = level, int(size.rstrip("KM")) * scale
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes, "llc_level": llc_level,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "src_lines": src_lines,
    }


def build(args, work: Path):
    """Import mixlab from this checkout, warm up with a toy call, build the workload."""
    sys.path.insert(0, str(SRC))
    import mixlab
    from workloads import WORKLOADS

    if Path(mixlab.__file__).resolve().parent != (SRC / "mixlab").resolve():
        raise SystemExit(f"mixlab imported from {mixlab.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    warm = cls(args.seed, work, toy=True)
    warm.evaluate(warm.run())
    return cls(args.seed, work, toy=args.toy)


def probe_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return times


def timed_call(wl, tracer=None):
    """One call of the workload; returns (wall seconds, Outcome)."""
    from workloads import Outcome

    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = wl.run()
        wall = time.perf_counter() - t0
    except Exception as exc:  # a call that raises is a failed run; keep measuring
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return wall, Outcome({}, [f"raised {exc!r}"], 0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, wl.evaluate(raw)


def measure(wl, seconds: float, tracer=None):
    """Closed loop for about ``seconds``: stop at the call boundary nearest to it.

    Untraced, each step is one call.  Traced, each step is an untraced call
    followed by a traced one.  Returns (wall, outcome, traced, span index
    range or None) per call.
    """
    calls, steps = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls.append((*timed_call(wl), False, None))
        if tracer is not None:
            first = len(tracer.spans)
            wall, out = timed_call(wl, tracer)
            calls.append((wall, out, True, (first, len(tracer.spans))))
        steps.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        step = statistics.median(steps)
        if elapsed + step > seconds + step / 2:
            return calls


def compare_bytes(calls, record: dict, code_sha: str) -> dict[str, str]:
    """Mark calls whose CSV bytes differ from the reference; return the reference hashes.

    The reference is the stored record of the same code digest and seed when
    there is one, else the first call of this run that produced every file.
    """
    hashes = [{k: hashlib.sha256(v).hexdigest() for k, v in out.files.items()}
              for _, out, _, _ in calls]
    ref = record.get("csv_sha256") if record.get("code_sha256") == code_sha else None
    if not ref:
        ref = max(hashes, key=len)
    for h, (_, out, traced, _) in zip(hashes, calls):
        for name, digest in ref.items():
            if name in h and h[name] != digest:
                kind = "traced" if traced else "untraced"
                out.problems.append(f"{name} bytes differ ({kind} call): {h[name]} != {digest}")
    return ref


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixlab" / "__init__.py").is_file():
        print(f"error: no mixlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            build(args, work)
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        setup_times = [] if args.trace else probe_setup(args)
        wl = build(args, work)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        calls = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, wl, calls, setup_times, tracer)


def report(args, wl, calls, setup_times, tracer) -> int:
    from tracer import LAYERS, OVERHEAD_METRICS, functions, metric_units

    code_sha, src_lines = code_digest()
    env = environment(src_lines)
    key = f"{args.workload}{'-toy' if args.toy else ''}-seed{args.seed}"
    record_path = OUT / "records" / f"{key}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    ref = compare_bytes(calls, record, code_sha)
    bytes_changed = bool(record) and record.get("csv_sha256") != ref

    attempted = len(calls)
    failed = sum(1 for _, out, _, _ in calls if out.problems)
    walls = [w for w, _, traced, _ in calls if not traced]
    wall_s = statistics.median(walls)
    units = max(out.units for _, out, _, _ in calls)
    largest, what = wl.largest_array()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' toy' if args.toy else ''}: closed loop, one caller, --threads 1")
    print("env " + " | ".join(f"{k} {v}" for k, v in env.items()))
    print(f"largest array {largest} B computed ({what}) = {largest / env['llc_bytes']:.3g} x LLC"
          f" ({env['llc_bytes']} B); below 4 x LLC no bandwidth ratio is derived")
    for name, digest in sorted(ref.items()):
        print(f"sha256 {name} {digest}" + (" (bytes changed since the last record)"
                                           if bytes_changed else ""))
    for _, out, traced, _ in calls:
        for problem in out.problems:
            print(f"FAILED {'traced' if traced else 'untraced'} call: {problem}")

    if args.trace:
        traced = [(w, tracer.summary(*span_range)) for w, _, t, span_range in calls if t]
        units_of = metric_units()
        # median_low keeps counts whole: every value is one traced call's
        metrics = {name: statistics.median_low(s[name] for _, s in traced)
                   for name in units_of if name not in OVERHEAD_METRICS}
        traced_wall = statistics.median(w for w, _ in traced)
        metrics.update({"trace.untraced_wall_s": wall_s, "trace.traced_wall_s": traced_wall,
                        "trace.overhead_s": traced_wall - wall_s})
        layer_calls = dict.fromkeys(LAYERS, 0)
        for layer, qual, _, _ in functions():
            layer_calls[layer] += metrics[f"{qual}.calls"]
        print("calls per layer: " + " | ".join(f"{k} {v}" for k, v in layer_calls.items()))
        print("self time share of traced wall: " + " | ".join(
            f"{k} {metrics[k + '.self_s'] / traced_wall:.1%}" for k in LAYERS))
        print("bypass: " + " | ".join(f"{k} {metrics[k]}" for k in (
            "measures.MultiModalData.sample.calls", "forward.OUProcess.evolve.calls",
            "forward.TemperedLangevin.sample_endpoints.calls")))
        out_metrics = {n: {"value": metrics[n], "unit": units_of[n]} for n in units_of}
        spans_path = OUT / "records" / f"{key}-spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    else:
        out_metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "units_per_s": {"value": units / wall_s, "unit": "coord/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for name, m in out_metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")

    results = record.get("results", {}) if record.get("code_sha256") == code_sha else {}
    results[f"trace{args.trace}"] = {
        "walls_s": walls, "setup_s": setup_times, "units": units, "attempted": attempted,
        "failed": failed, "metrics": out_metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "code_sha256": code_sha,
              "csv_sha256": ref, "env": env, "largest_array_bytes": largest,
              "results": results}
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, record_path)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
