"""One workload process: set up, measure a closed loop of ops, check, report.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread.  The process pins itself to one CPU.  A single client
issues the next op only after the previous one returned.  The process prints
one JSON record on stdout.

Timing model: ``setup_s`` runs from the parent's spawn timestamp (passed as
``--t0``; ``perf_counter`` is system-wide on Linux) to the first timed op.
The measured phase runs whole rounds (passes over the op sequence) until
``--seconds`` have passed.  Each op's result is fingerprinted; the first
result of each op is kept and checked against the oracle after the phase,
and every later result must be bitwise identical to it.  With ``--trace 1``
untraced and traced rounds alternate, so both see the same machine state.

Every time is reported twice: as measured (``raw_*``) and corrected for the
host's speed by ``calibrate``.  Each round's op times are scaled by the
kernel samples taken during that round, and ``setup_s`` by those taken
between the warm-up ops plus a burst right after set-up.  Sample time is
counted in neither.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

import calibrate

OP_CAP_S = 10.0  # per-op time cap for in-process ops


def fingerprint(obj, h=None):
    """Digest of a result, exact to the bit."""
    top = h is None
    h = hashlib.blake2b(digest_size=16) if top else h
    if isinstance(obj, np.ndarray):
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for x in obj:
            fingerprint(x, h)
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, (int, float, str, Fraction, np.floating)) or obj is None:
        h.update(repr(obj).encode())
    elif hasattr(obj, "tower"):  # DerivativeTower
        fingerprint([obj.at, obj.tower], h)
    elif hasattr(obj, "components"):  # MultiTensor
        fingerprint(list(obj.components), h)
    elif hasattr(obj, "coeffs"):  # RationalPoly
        fingerprint(list(obj.coeffs), h)
    elif is_dataclass(obj):
        fingerprint([getattr(obj, f.name) for f in fields(obj)], h)
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")
    return h.digest() if top else None


def _on_alarm(signum, frame):
    from workloads import OpTimeout

    raise OpTimeout("in-process op exceeded its time cap")


def execute(op, cap):
    """Run one op under the time cap: (ok, seconds, result or error text)."""
    if cap:
        signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        res = op.run()
        return True, time.perf_counter() - start, res
    except Exception as exc:  # any failure of an op is counted, not fatal
        return False, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        if cap:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_check(op, res, firsts):
    from checks import CheckFailed

    try:
        op.check(res, firsts)
        return None
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a crash inside a check is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


class Measurement:
    def __init__(self):
        self.latencies = []  # seconds, every attempted op, as measured
        self.labels = []
        self.ok = []
        self.round_walls = []  # seconds, without the calibration samples
        self.round_speeds = []  # calibrate.REF_S / mean kernel time, one per round


def measure_round(wl, cap, firsts, digests, errors, m: Measurement, sampler):
    start = time.perf_counter()
    for op in wl.ops:
        ok, dt, res = execute(op, cap)
        sampler.tick()
        m.latencies.append(dt)
        m.labels.append(op.label)
        if ok:
            fp = fingerprint(res)
            if op.label not in digests:
                digests[op.label] = fp
                firsts[op.label] = res
            elif digests[op.label] != fp:
                ok = False
                errors.setdefault(op.label, "result differs from its first run")
        else:
            errors.setdefault(op.label, res)
        m.ok.append(ok)
    samples, spent = sampler.take()
    m.round_walls.append(time.perf_counter() - start - spent)
    m.round_speeds.append(calibrate.REF_S / statistics.fmean(samples))


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks."""
    if not sorted_vals:
        return float("nan")
    rank = pct / 100.0 * (len(sorted_vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (rank - lo)


def make_cli_runner(in_process, tj):
    from workloads import CLI_TIMEOUT_S, run_process

    if not in_process:
        return lambda argv: run_process([sys.executable, "-m", "tensorjet", *argv], CLI_TIMEOUT_S)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tj.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode("utf-8")

    return run


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and the CLI children it starts, so the kernel
    # samples of calibrate time the CPU the ops ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import workloads

    in_process_cli = args.trace == 1
    tj = None
    if args.workload != "cli_mix" or in_process_cli:
        import tensorjet as tj
        import tensorjet.cli  # noqa: F401  (binds tj.cli)

        src = os.path.realpath(os.path.join(os.getcwd(), "src"))
        if not os.path.realpath(tj.__file__).startswith(src + os.sep):
            raise SystemExit(f"tensorjet imported from {tj.__file__}, not from {src}")

    rng = random.Random(args.seed)
    wl = workloads.FACTORIES[args.workload](rng, tj, args.workdir)
    warm = {}
    for op in wl.ops:  # generation order runs smallest first: a cheap, seed-independent warm-up
        warm.setdefault(op.kind, op)
    rng.shuffle(wl.ops)
    wl.run_cli = make_cli_runner(in_process_cli, tj)
    op_digest = hashlib.sha256(b"\n".join(op.label for op in wl.ops)).hexdigest()
    cap = None if args.workload == "cli_mix" else OP_CAP_S
    signal.signal(signal.SIGALRM, _on_alarm)

    sampler = calibrate.Sampler()
    for op in sorted(warm.values(), key=lambda o: o.kind):
        ok, _, res = execute(op, cap)
        if not ok:
            print(f"warm-up op {op.kind} failed: {res}", file=sys.stderr)
        sampler.tick()
    samples, spent = sampler.take()
    setup_s = time.perf_counter() - args.t0 - spent
    setup_speed = calibrate.REF_S / statistics.fmean(samples + calibrate.burst())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    load_start = os.getloadavg()
    firsts, digests, errors = {}, {}, {}
    plain, traced = Measurement(), Measurement()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    phase_start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain.round_walls) > len(traced.round_walls)
        if use_trace:
            tracer.install(tj)
            tracer.record = not traced.round_walls
            try:
                measure_round(wl, cap, firsts, digests, errors, traced, sampler)
            finally:
                tracer.uninstall()
        else:
            measure_round(wl, cap, firsts, digests, errors, plain, sampler)
        done = time.perf_counter() - phase_start >= args.seconds
        if done and (tracer is None or len(traced.round_walls) >= len(plain.round_walls)):
            break
    if args.workload == "cli_mix" and not in_process_cli:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    by_label = {op.label: op for op in wl.ops}
    for label, res in firsts.items():
        problem = run_check(by_label[label], res, firsts)
        if problem is not None:
            errors.setdefault(label, problem)

    gate_errors = self_test_gate(wl, firsts, cap)

    record = {
        "workload": wl.name,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "op_sequence_sha256": op_digest,
        "ops_per_round": len(wl.ops),
        "tail_pct": wl.tail_pct,
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "errors": {f"{by_label[label].kind} {hashlib.sha256(label).hexdigest()[:12]}": msg
                   for label, msg in errors.items()},
        "gate_errors": gate_errors,
    }
    all_m = [plain] + ([traced] if tracer else [])
    attempted = sum(len(m.ok) for m in all_m)
    failed = sum(1 for m in all_m for ok, lab in zip(m.ok, m.labels)
                 if not ok or lab in errors)
    record.update(attempted=attempted, failed=failed)

    def summary(m):
        """Metrics from the host-corrected times, and the same from the raw ones."""
        good = sum(1 for ok, lab in zip(m.ok, m.labels) if ok and lab not in errors)
        n = len(wl.ops)
        speeds = [s for s in m.round_speeds for _ in range(n)]
        out = {"ops": len(m.latencies), "rounds": len(m.round_walls),
               "round_walls_s": m.round_walls, "round_speeds": m.round_speeds,
               "latencies_s": m.latencies, "pass_ratio": good / len(m.latencies)}
        for prefix, walls, lat in (
                ("", [w * s for w, s in zip(m.round_walls, m.round_speeds)],
                 sorted(x * s for x, s in zip(m.latencies, speeds))),
                ("raw_", m.round_walls, sorted(m.latencies))):
            tail = percentile(lat, wl.tail_pct)
            out.update({prefix + "ops_per_s": good / sum(walls),
                        prefix + "op_p50_ms": 1e3 * percentile(lat, 50.0),
                        prefix + "op_tail_ms": 1e3 * tail,
                        prefix + "tail_beyond": sum(1 for x in lat if x > tail)})
        return out

    record["plain"] = summary(plain)
    record["peak_rss_mib"] = peak_kib / 1024.0
    if tracer is not None:
        from spans import import_times, layer_values

        record["traced"] = summary(traced)
        layers = layer_values(tracer, len(traced.round_walls))
        layers["program.build_s"] = wl.build_s
        layers.update(import_times())
        untraced_rate = record["plain"]["ops_per_s"]
        traced_rate = record["traced"]["ops_per_s"]
        layers["trace.untraced_ops_per_s"] = untraced_rate
        layers["trace.traced_ops_per_s"] = traced_rate
        layers["trace.overhead_ratio"] = untraced_rate / traced_rate
        record["layers"] = layers
        record["missing_spans"] = [n for n in wl.expected_spans if tracer.stats[n][0] == 0]
        record["spans_first_traced_round"] = len(tracer.spans)
        os.makedirs(args.workdir, exist_ok=True)
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(record))
    return 0


def self_test_gate(wl, firsts, cap):
    """Known-bad results and an overrunning op must each be counted as failed."""
    from workloads import Op

    cases = list(wl.gate(firsts))
    if cap:
        cases.append(("in-process op over the time cap",
                      Op("overrun", b"overrun", lambda: time.sleep(5), lambda r, f: None)))
    problems = []
    for name, op in cases:
        ok, _, res = execute(op, 0.2 if cap else None)
        if ok and run_check(op, res, firsts) is None:
            problems.append(f"gate self-test not counted as failed: {name}")
    return problems


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
