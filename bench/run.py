#!/usr/bin/env python3
"""tensorjet benchmark runner (stdlib only).

    python3 bench/run.py --workload dense_tower --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  It compiles ``src`` once, then starts the
workload process (``bench/workload.py``) with ``src`` on ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS=1`` set only in that process's environment.  Set-up
is repeated: four set-up-only processes and the measuring process each time
their set-up, and ``setup_s`` is the median of the five, each corrected
for the host's speed (see calibrate.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics from alternating untraced and traced rounds.
The last stdout line is the JSON result; the full record, with the
environment, is also written to ``.bench_out/``.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("dense_tower", "deep_dag", "series_scalar", "cli_mix")
SETUP_RUNS = 5
CHILD_DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
]


class BenchError(RuntimeError):
    pass


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def spawn(args, env, extra, deadline):
    """Run one workload process to completion and return its JSON record."""
    t0 = time.perf_counter()
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--t0", repr(t0), "--workdir", args.workdir, *extra]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{args.workload} process ran past the deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} process exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def environment(root: str, env) -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    numpy_v, blas_name, blas_v = json.loads(proc.stdout) if proc.returncode == 0 else [None] * 3
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_v,
        "blas": f"{blas_name} {blas_v}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "load_avg_start": os.getloadavg(),
    }


def run_workload(args, root, env) -> dict:
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    runs = [spawn(args, env, ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    record = spawn(args, env, [], deadline)
    runs.append(record)
    record["setup_runs_raw_s"] = [r["setup_s"] for r in runs]
    setups = record["setup_runs_s"] = [r["setup_s"] * r["setup_speed"] for r in runs]
    if record["gate_errors"]:
        raise BenchError("; ".join(record["gate_errors"]))
    if args.trace and record["missing_spans"]:
        raise BenchError(f"{args.workload}: traced spans never occurred: "
                         f"{record['missing_spans']}")
    plain = record["plain"]
    if not args.trace and plain["tail_beyond"] < 10:
        print(f"warning: only {plain['tail_beyond']} samples beyond p{record['tail_pct']}",
              file=sys.stderr)
    if args.trace:
        from spans import LAYER_METRICS

        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = dict(plain, setup_s=statistics.median(setups),
                      peak_rss_mib=record["peak_rss_mib"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tensorjet", "__init__.py")):
        print("run.py: no src/tensorjet here; run it from the root of a tensorjet checkout",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True, timeout=120)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    info = environment(root, env)
    start_ticks = cpu_ticks()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            wargs = argparse.Namespace(**vars(args), workdir=os.path.join(
                ".bench_work", f"{name}-seed{args.seed}-trace{args.trace}"))
            wargs.workload = name
            results[name] = run_workload(wargs, root, env)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    info["load_avg_end"] = os.getloadavg()
    end_ticks = cpu_ticks()
    if start_ticks and end_ticks and end_ticks[1] > start_ticks[1]:
        info["cpu_steal_share"] = (end_ticks[0] - start_ticks[0]) / (end_ticks[1] - start_ticks[1])

    os.makedirs(".bench_out", exist_ok=True)
    for name, rec in results.items():
        rec["environment"] = info
        with open(os.path.join(".bench_out", f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
        print(f"# {name}: seed {args.seed}, {rec['plain']['rounds']} rounds of "
              f"{rec['ops_per_round']} ops, op sequence sha256 {rec['op_sequence_sha256'][:16]}, "
              f"tail = p{rec['tail_pct']} ({rec['plain']['tail_beyond']} samples beyond), "
              f"fail_ratio {rec['failed']}/{rec['attempted']}")
        for metric, mv in rec["metrics"].items():
            print(f"{name:14s} {metric:48s} {mv['value']:14.6g} {mv['unit']}")
        if args.trace:
            t = rec["layers"]
            print(f"# tracing overhead: {t['trace.traced_ops_per_s']:.4g} traced vs "
                  f"{t['trace.untraced_ops_per_s']:.4g} untraced ops/s (ratio "
                  f"{t['trace.overhead_ratio']:.3f}, base: untraced)")
        else:
            print(f"{name:14s} {'fail_ratio':48s} {rec['failed'] / rec['attempted']:14.6g} ratio")
            p = rec["plain"]
            print(f"# {name}: as measured, before the host-speed correction: setup_s "
                  f"{statistics.median(rec['setup_runs_raw_s']):.4g} s, ops_per_s "
                  f"{p['raw_ops_per_s']:.4g} 1/s, op_p50_ms {p['raw_op_p50_ms']:.4g} ms, "
                  f"op_tail_ms {p['raw_op_tail_ms']:.4g} ms; host speed "
                  f"{statistics.median(p['round_speeds']):.3f} (median over rounds)")
        for label, msg in list(rec["errors"].items())[:5]:
            print(f"# FAILED {label}: {msg}")
    print("# environment " + json.dumps(info))

    if args.workload == "all":
        summary = {name: {"fail_ratio": rec["failed"] / rec["attempted"],
                          **{m: v["value"] for m, v in rec["metrics"].items()}}
                   for name, rec in results.items()}
        print(json.dumps({"correct": all(r["failed"] == 0 for r in results.values()),
                          "workloads": summary}))
        return 0
    rec = results[args.workload]
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
