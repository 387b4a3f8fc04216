"""The four workloads: op sequences, their result checks and gate self-tests.

Every workload covers its whole size grid on every seed, so the work in one
pass over the op sequence (a *round*) is the same for every seed; the seed
draws coefficients, points, directions, step counts and the op order.  That
keeps seeds comparable while still changing every input value.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

import checks as C
import jet
from specs import affine, build, describe, normal_vector, quadratic_weights, sexpr


class OpTimeout(Exception):
    """An op ran past the per-op time cap."""


@dataclass
class Op:
    kind: str
    label: bytes  # canonical description of the op and its inputs
    run: object  # () -> result; looks library functions up at call time
    check: object  # (result, firsts: dict[label, result]) -> None, raises CheckFailed


@dataclass
class Workload:
    name: str
    tail_pct: float  # highest percentile with >= 10 samples beyond it at the expected op count
    ops: list = field(default_factory=list)
    expected_spans: tuple = ()
    build_s: float = 0.0
    gate: object = None  # (firsts) -> list of (case name, op) the runner must count as failed
    run_cli: object = None  # (argv) -> (exit code, stdout bytes); set by the runner


def _label(*parts) -> bytes:
    return describe(parts)


class _ProgramMaker:
    """Builds specs into programs and accounts the time to ``program.build_s``."""

    def __init__(self, tj, wl: Workload):
        self.tj = tj
        self.wl = wl
        self.memo = {}

    def __call__(self, spec):
        start = time.perf_counter()
        prog = build(spec, self.tj, self.memo)
        self.wl.build_s += time.perf_counter() - start
        return prog


# --- shared tower op ----------------------------------------------------------

def _tower_op(kind, spec, prog, v, k, u, program_mod):
    def run():
        return program_mod.derivative_tower(prog, v, k)

    def check(res, firsts):
        C.require(res.order == k, f"{kind}: order {res.order} != {k}")
        C.require(np.array_equal(res.at, v), f"{kind}: base point changed")
        C.check_tower(res.tower.components, spec, v, u, kind)

    return Op(kind, _label(kind, spec, v, k), run, check)


def _tower_gate(firsts, ops):
    """Perturbed copies of a checked tower: both must fail their op's check."""
    from types import SimpleNamespace

    op = next(o for o in ops if hasattr(firsts.get(o.label), "tower")
              and firsts[o.label].order >= 2 and firsts[o.label].tower.dim_in >= 2)
    res = firsts[op.label]
    cases = []
    for name, perturb in (("tower, one diagonal entry perturbed", C.perturb_diagonal),
                          ("tower, one off-diagonal entry perturbed", C.perturb_off_diagonal)):
        comps = perturb(res.tower.components)
        fake = SimpleNamespace(order=res.order, at=res.at,
                               tower=SimpleNamespace(components=comps))
        cases.append((name, Op(op.kind, op.label, lambda f=fake: f, op.check)))
    return cases


# --- dense_tower ----------------------------------------------------------------

def dense_tower(rng, tj, workdir) -> Workload:
    wl = Workload("dense_tower", tail_pct=98.0, expected_spans=(
        "program.derivative_tower", "multitensor._symmetrize_component",
        "multitensor.symmetrize", "multitensor.algebra_product",
        "operators.compose_towers", "operators.order_reduce"))
    make = _ProgramMaker(tj, wl)
    P = tj.program

    def add(kind, spec, d, k):
        prog = make(spec)
        v = normal_vector(rng, d, 0.5)
        u = C.draw_direction(rng, d)
        wl.ops.append(_tower_op(kind, spec, prog, v, k, u, P))

    for d in range(2, 7):
        for k in range(3, 6):
            add("tanh_affine", ("compose", ("elem", "tanh", d), affine(rng, d, d, 0.6 / d**0.5)), d, k)
            add("product", ("prod", [
                ("compose", ("elem", "tanh", d), affine(rng, d, d, 0.6 / d**0.5)),
                ("compose", ("elem", "sin", d), affine(rng, d, d, 0.6 / d**0.5)),
            ]), d, k)
            add("tensor_network", ("net", [
                (quadratic_weights(rng, d, d), "tanh"),
                (quadratic_weights(rng, d, d), "tanh"),
                (quadratic_weights(rng, d, d), None),
            ]), d, k)
    for d in range(2, 5):
        for k in range(3, 6):
            inner = ("compose", ("elem", "tanh", d), affine(rng, d, d, 0.6 / d**0.5))
            add("derivative", ("deriv", inner, 1), d, k)
    for k in (6, 7, 8):
        for outer, inner in (("sin", "tanh"), ("exp", "sin")):
            add("scalar_corner", ("compose", ("elem", outer, 1), ("elem", inner, 1)), 1, k)
    wl.gate = lambda firsts: _tower_gate(firsts, wl.ops)
    return wl


# --- deep_dag ---------------------------------------------------------------------

def deep_dag(rng, tj, workdir) -> Workload:
    wl = Workload("deep_dag", tail_pct=95.0, expected_spans=(
        "program.derivative_tower", "program.evaluate", "multitensor._symmetrize_component",
        "multitensor.symmetrize", "multitensor.algebra_product", "operators.compose_towers",
        "operators.forward_chain", "operators.reverse_chain"))
    make = _ProgramMaker(tj, wl)
    P, O = tj.program, tj.operators

    for depth in (50, 100, 150, 200):
        for d in (1, 2):
            spec = affine(rng, d, d, 0.8 / d**0.5)
            for _ in range(depth):
                spec = ("compose", ("elem", rng.choice(("sin", "tanh")), d), spec)
            prog = make(spec)
            for k in (2, 3):
                v = normal_vector(rng, d, 0.5)
                wl.ops.append(_tower_op("chain", spec, prog, v, k, C.draw_direction(rng, d), P))
            for _ in range(2):
                wl.ops.append(_evaluate_op(spec, prog, normal_vector(rng, d, 0.5), P))

    for depth in (6, 7, 8, 9):
        q = ("compose", ("elem", "cos", 1), ("affine", np.array([[rng.uniform(0.01, 0.04)]]),
                                             np.array([rng.uniform(-0.04, 0.04)])))
        for _ in range(depth):
            q = ("prod", [q, q])  # one shared child, so the DAG has depth+2 nodes
        prog = make(q)
        for k in (2, 3):
            wl.ops.append(_tower_op("shared_nest", q, prog, normal_vector(rng, 1, 0.5), k,
                                    C.draw_direction(rng, 1), P))

    stage_specs = [("compose", ("elem", rng.choice(("sin", "tanh")), 2), affine(rng, 2, 2, 0.7))
                   for _ in range(50)]
    stages = [make(s) for s in stage_specs]
    composite = stage_specs[0]
    for s in stage_specs[1:]:
        composite = ("compose", s, composite)
    for k in (2, 3):
        v = normal_vector(rng, 2, 0.5)
        u = C.draw_direction(rng, 2)
        fwd = _chain_op("forward_chain", composite, stages, v, k, u, O, None)
        wl.ops.append(fwd)
        wl.ops.append(_chain_op("reverse_chain", composite, stages, v, k, u, O, fwd.label))
    wl.gate = lambda firsts: _tower_gate(firsts, wl.ops)
    return wl


def _evaluate_op(spec, prog, v, program_mod):
    def run():
        return program_mod.evaluate(prog, v)

    def check(res, firsts):
        want = jet.value(spec, v)
        C.close(res, want, np.abs(want), "evaluate")

    return Op("evaluate", _label("evaluate", spec, v), run, check)


def _chain_op(kind, composite, stages, v, k, u, operators_mod, partner):
    def run():
        return getattr(operators_mod, kind)(stages, v, k)

    def check(res, firsts):
        C.check_tower(res.tower.components, composite, v, u, kind)
        if partner is not None and partner in firsts:
            C.check_towers_agree(firsts[partner].tower.components, res.tower.components,
                                 "forward_chain vs reverse_chain")

    return Op(kind, _label(kind, composite, v, k), run, check)


# --- series_scalar --------------------------------------------------------------------

def series_scalar(rng, tj, workdir) -> Workload:
    wl = Workload("series_scalar", tail_pct=99.5, expected_spans=(
        "program.derivative_tower", "multitensor.symmetrize",
        "reducesum.reduce_sum_apply", "reducesum.reduce_sum_polynomials",
        "reducesum.reduction_velocity", "iterators.find_fixed_point", "iterators.schroeder",
        "iterators.fractional_iterate", "iterators.iterating_velocity",
        "operators.taylor_series"))
    make = _ProgramMaker(tj, wl)
    R, I = tj.reducesum, tj.iterators

    def rays(spec, v0, direction, order, n, k, exact):
        prog = make(spec)
        for fn in ("reduce_sum_apply", "reduce_sum_polynomials", "reduction_velocity"):
            wl.ops.append(_reduce_op(fn, spec, prog, v0, direction, order, n, k, exact, R))

    for name in ("exp", "sin", "cos"):
        for order in (12, 16, 20, 24):
            spec = ("sum", [("elem", name, 1), affine(rng, 1, 1, 0.5)])
            rays(spec, np.array([rng.uniform(-0.5, 0.5)]),
                 np.array([rng.choice((-1, 1)) * rng.uniform(0.2, 0.5)]),
                 order, rng.randint(3, 8), rng.randint(1, 2), exact=False)
    for m in (2, 3, 4):
        # integer data: every value on the ray is an exact float64 integer
        spec = ("sum", [("elem", f"pow{m}", 1),
                        ("affine", np.array([[float(rng.randint(-3, 3))]]),
                         np.array([float(rng.randint(-3, 3))]))])
        rays(spec, np.array([float(rng.randint(-2, 2))]), np.array([float(rng.choice((1, 2)))]),
             12, rng.randint(3, 8), rng.randint(1, 2), exact=True)
    for order in (5, 6, 7, 8):
        name = ("exp", "sin", "cos", "exp")[order - 5]
        spec = ("sum", [("elem", name, 3), affine(rng, 3, 3, 0.4)])
        prog = make(spec)
        v0 = normal_vector(rng, 3, 0.3)
        direction = normal_vector(rng, 3, 0.3)
        n = rng.randint(3, 6)
        fns = ["reduce_sum_apply"] + {6: ["reduce_sum_polynomials"],
                                      7: ["reduction_velocity"]}.get(order, [])
        for fn in fns:
            wl.ops.append(_reduce_op(fn, spec, prog, v0, direction, order, n, 1, False, R))

    for order in (12, 18, 24):
        for form in ("layer", "sum"):
            _iterate_ops(wl, rng, make, form, order, I)

    def gate(firsts):
        cases = []
        for exact in (False, True):
            op = next(o for o in wl.ops if o.kind == "reduce_sum_apply" and o.exact == exact
                      and o.label in firsts and np.all(o.last_term() != 0))
            short = firsts[op.label] - op.last_term()
            ray = "polynomial" if exact else "series"
            cases.append((f"reduce_sum_apply missing its last term ({ray} ray)",
                          Op(op.kind, op.label, lambda r=short: r, op.check)))
        return cases

    wl.gate = gate
    return wl


def _reduce_op(fn, spec, prog, v0, direction, order, n, k, exact, reducesum_mod):
    def run():
        f = getattr(reducesum_mod, fn)
        if fn == "reduce_sum_apply":
            return f(prog, v0, direction, n, order)
        if fn == "reduce_sum_polynomials":
            return f(prog, v0, direction, order)
        return f(prog, v0, direction, n, k, order)

    def literal(upto):
        return sum(jet.value(spec, v0 + h * direction) for h in range(upto + 1))

    def check(res, firsts):
        coeffs = jet.ray_coefficients(spec, v0, direction, order)  # (order+1, d_out)
        d_out = coeffs.shape[1]
        if fn == "reduce_sum_polynomials":
            C.require(len(res) == d_out, f"{fn}: {len(res)} polynomials for {d_out} outputs")
            for i, poly in enumerate(res):
                own = C.ray_sum_poly(coeffs[:, i])
                for m in sorted({0, 1, n, n + 3}):
                    got = poly(m)
                    if exact:
                        C.require(got == Fraction(float(literal(m)[i])),
                                  f"{fn}: P({m}) = {got} != literal sum")
                    else:
                        C.close(float(got), float(C.poly_eval(own, m)),
                                C.ray_sum_scale(coeffs[:, i], m), f"{fn}: P({m})")
            return
        want = np.empty(d_out)
        scale = np.empty(d_out)
        kk = 0 if fn == "reduce_sum_apply" else k
        for i in range(d_out):
            own = C.poly_derivative(C.ray_sum_poly(coeffs[:, i]), kk)
            want[i] = float(C.poly_eval(own, n))
            scale[i] = C.ray_sum_scale(coeffs[:, i], n, kk)
        if exact and fn == "reduce_sum_apply":
            C.require(np.array_equal(res, literal(n)), f"{fn}: {res} != literal sum {literal(n)}")
        elif exact:
            C.require(np.array_equal(res, want), f"{fn}: {res} != exact {want}")
        else:
            C.close(res, want, scale, fn)

    op = Op(fn, _label(fn, spec, v0, direction, order, n, k), run, check)
    op.exact = exact
    op.last_term = partial(jet.value, spec, v0 + n * direction)
    return op


def _design_map(rng, form, make):
    """Scalar map with a chosen fixed point f and multiplier lam in (0.35, 0.6)."""
    f = rng.uniform(-0.5, 0.5)
    lam = rng.uniform(0.35, 0.6)
    if form == "layer":
        c = rng.choice((-1, 1)) * rng.uniform(0.1, 0.3)
        w1 = lam - 2 * c * f
        w0 = f - w1 * f - c * f * f
        spec = ("layer", [np.array([w0]), np.array([[w1]]), np.array([[[c]]])])
    else:
        g = rng.choice(("sin", "tanh"))
        gf, dgf = (math.sin(f), math.cos(f)) if g == "sin" else (math.tanh(f), 1 - math.tanh(f) ** 2)
        a = lam - dgf
        b = f - a * f - gf
        spec = ("sum", [("affine", np.array([[a]]), np.array([b])), ("elem", g, 1)])
    return spec, make(spec), f


def _koenigs(spec, f):
    local = jet.ray_coefficients(spec, [f], [1.0], 30)[:, 0]
    local[0] = 0.0
    return C.Koenigs(local)


def _iterate_ops(wl, rng, make, form, order, iterators_mod):
    spec, prog, f = _design_map(rng, form, make)
    koenigs = lru_cache(maxsize=1)(partial(_koenigs, spec, f))  # built on first check
    seed = f + rng.choice((-1, 1)) * rng.uniform(0.02, 0.05)
    fp = iterators_mod.find_fixed_point(prog, seed)
    data = iterators_mod.schroeder(prog, fp, order)
    I = iterators_mod

    def check_fp(res, firsts):
        C.require(abs(res - f) <= 1e-8, f"fixed point {res} != designed {f}")
        C.require(abs(jet.value(spec, [res])[0] - res) <= 1e-10, "p(fp) != fp")

    wl.ops.append(Op("find_fixed_point", _label("ffp", spec, seed),
                     lambda: I.find_fixed_point(prog, seed), check_fp))

    def check_schroeder(res, firsts):
        C.require(res.fixed_point == fp and res.order == order, "schroeder: wrong base")
        own = jet.ray_coefficients(spec, [fp], [1.0], order)[:, 0]
        C.close(res.lam, own[1], abs(own[1]), "schroeder: multiplier")
        P = np.concatenate([[0.0], own[1:]])
        h = np.array(res.h_coeffs)
        lhs = C.compose_series(h, P, order)
        scale = C.compose_series(np.abs(h), np.abs(P), order)
        C.close(lhs, res.lam * h, scale, "schroeder: h(p(u)) = lam h(u)")
        ident = C.compose_series(h, np.array(res.h_inv_coeffs), order)
        scale = C.compose_series(np.abs(h), np.abs(np.array(res.h_inv_coeffs)), order)
        C.close(ident, np.eye(1, order + 1, 1)[0], scale, "schroeder: h(h_inv(w)) = w")

    wl.ops.append(Op("schroeder", _label("schroeder", spec, fp, order),
                     lambda: I.schroeder(prog, fp, order), check_schroeder))

    for x in (0.5, 1.0, 2.0):
        v = f + rng.choice((-1, 1)) * rng.uniform(0.02, 0.05)

        def check_iter(res, firsts, x=x, v=v):
            if x == 0.5:
                want = koenigs().lam**0.5 * koenigs().h_and_slope(v - f)[0]
                got = koenigs().h_and_slope(res - f)[0]
                C.close(got, want, 1.0, "fractional_iterate x=0.5 (Koenigs)", C.SERIES_TOL)
            else:
                want = v
                for _ in range(int(x)):
                    want = jet.value(spec, [want])[0]
                C.close(res, want, abs(v), f"fractional_iterate x={x}", C.SERIES_TOL)

        wl.ops.append(Op("fractional_iterate", _label("fi", spec, order, x, v),
                         lambda x=x, v=v: I.fractional_iterate(data, x, v), check_iter))

    v = f + rng.choice((-1, 1)) * rng.uniform(0.02, 0.05)

    def check_vel(res, firsts):
        C.close(res, koenigs().velocity(v - f), 1.0, "iterating_velocity (Koenigs)", C.SERIES_TOL)

    wl.ops.append(Op("iterating_velocity", _label("vel", spec, order, v),
                     lambda: I.iterating_velocity(data, v), check_vel))


# --- cli_mix ----------------------------------------------------------------------

CLI_TIMEOUT_S = 30.0


def run_process(argv, timeout):
    """Run a child to completion; past ``timeout`` it is killed, reaped, and OpTimeout raised."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise OpTimeout(f"{argv[1:3]} exceeded {timeout} s") from None
        return proc.returncode, out


def _fmt_vec(v) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.strip().strip("[]").split(",")])


def _tower_from_json(obj):
    d_out, d_in = obj["dim_out"], obj["dim_in"]
    return [np.array(c).reshape((d_out,) + (d_in,) * j) for j, c in enumerate(obj["components"])]


def cli_mix(rng, tj, workdir) -> Workload:
    import json

    wl = Workload("cli_mix", tail_pct=80.0, expected_spans=(
        "cli.main", "sexpr.parse", "program.derivative_tower", "program.evaluate",
        "operators.taylor_series", "operators.forward_chain", "operators.reverse_chain",
        "operators.compose_towers", "multitensor._symmetrize_component",
        "reducesum.reduce_sum_apply", "reducesum.reduce_sum_polynomials",
        "reducesum.reduction_velocity", "iterators.find_fixed_point", "iterators.schroeder",
        "iterators.fractional_iterate", "iterators.iterating_velocity"))
    os.makedirs(workdir, exist_ok=True)

    texts = {}

    def write(name, spec):
        path = os.path.join(workdir, name)
        texts[path] = sexpr(spec) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[path])
        return path

    def add(kind, argv, check):
        label = _label(kind, [texts.get(a, a) for a in argv])
        wl.ops.append(Op(kind, label, lambda: wl.run_cli(argv), check))

    def ok(res):
        code, out = res
        C.require(code == 0, f"exit code {code}")
        return out.decode()

    # tau
    spec = ("compose", ("elem", "tanh", 2), affine(rng, 2, 2, 0.6))
    at = normal_vector(rng, 2, 0.5)
    u = C.draw_direction(rng, 2)

    def check_tau(res, firsts, spec=spec, at=at, u=u):
        obj = json.loads(ok(res))
        C.require(obj["tower"]["order"] == 3, "tau: wrong order")
        C.check_tower(_tower_from_json(obj["tower"]), spec, at, u, "tau")

    add("tau", ["tau", "--program", write("tau.sexpr", spec), "--at", _fmt_vec(at),
                "--order", "3"], check_tau)

    # taylor
    spec = ("compose", ("elem", "sin", 2), affine(rng, 2, 2, 0.6))
    at = normal_vector(rng, 2, 0.5)
    direction = C.draw_direction(rng, 2)
    h = rng.uniform(0.05, 0.2)

    def check_taylor(res, firsts, spec=spec, at=at, direction=direction, h=h):
        lines = ok(res).splitlines()
        C.require(len(lines) == 3, "taylor: expected 3 lines")
        coeffs = jet.ray_coefficients(spec, at, direction, 6)
        terms = np.array([h**j * coeffs[j] for j in range(7)])
        series = _parse_vec(lines[0].split(":", 1)[1])
        truth = _parse_vec(lines[1].split(":", 1)[1])
        C.close(series, terms.sum(axis=0), np.abs(terms).sum(axis=0), "taylor: series")
        want_truth = jet.value(spec, at + h * direction)
        C.close(truth, want_truth, np.abs(want_truth), "taylor: truth")
        err = float(lines[2].split(":", 1)[1])
        C.close(err, np.max(np.abs(terms.sum(axis=0) - want_truth)),
                np.abs(terms).sum(), "taylor: error")

    add("taylor", ["taylor", "--program", write("taylor.sexpr", spec), "--at", _fmt_vec(at),
                   "--order", "6", "--h", repr(h), "--dir", _fmt_vec(direction)], check_taylor)

    # compose-modes
    stage_specs = [("compose", ("elem", rng.choice(("sin", "tanh")), 2), affine(rng, 2, 2, 0.7))
                   for _ in range(3)]
    composite = stage_specs[0]
    for s in stage_specs[1:]:
        composite = ("compose", s, composite)
    paths = [write(f"stage{i}.sexpr", s) for i, s in enumerate(stage_specs)]
    at = normal_vector(rng, 2, 0.5)
    u = C.draw_direction(rng, 2)

    def check_modes(res, firsts, composite=composite, at=at, u=u):
        obj = json.loads(ok(res))
        fwd, rev = _tower_from_json(obj["forward"]), _tower_from_json(obj["reverse"])
        C.check_tower(fwd, composite, at, u, "compose-modes forward")
        C.check_tower(rev, composite, at, u, "compose-modes reverse")
        C.check_towers_agree(fwd, rev, "compose-modes forward vs reverse")
        gap = max(float(np.max(np.abs(a - b))) for a, b in zip(fwd, rev))
        C.require(obj["max_discrepancy"] == gap, "compose-modes: max_discrepancy misreported")

    add("compose_modes", ["compose-modes", "--chain", *paths, "--at", _fmt_vec(at),
                          "--order", "3", "--mode", "both"], check_modes)

    # reduce-sum --m
    m, n, k = rng.randint(3, 9), rng.randint(2, 12), rng.randint(1, 2)

    def check_m(res, firsts, m=m, n=n, k=k):
        lines = ok(res).splitlines()
        C.require(len(lines) == 3, "reduce-sum --m: expected 3 lines")
        own = C.power_sum_poly(m)
        C.require(Fraction(lines[0]) == sum(h**m for h in range(n + 1)), "--m: value")
        C.require(C.trim(C.parse_rational_poly(lines[1])) == C.trim(own), "--m: polynomial")
        C.require(Fraction(lines[2]) == C.poly_eval(C.poly_derivative(own, k), n),
                  "--m: velocity")

    add("reduce_sum_m", ["reduce-sum", "--m", str(m), "--n", str(n), "--velocity", str(k)],
        check_m)

    # reduce-sum --program
    spec = ("sum", [("elem", "exp", 1), affine(rng, 1, 1, 0.5)])
    at = np.array([rng.uniform(-0.5, 0.5)])
    direction = np.array([rng.choice((-1, 1)) * rng.uniform(0.2, 0.5)])
    n = rng.randint(3, 8)

    def check_rs(res, firsts, spec=spec, at=at, direction=direction, n=n):
        lines = ok(res).splitlines()
        C.require(len(lines) == 3, "reduce-sum --program: expected 3 lines")
        c = jet.ray_coefficients(spec, at, direction, 12)[:, 0]
        own = C.ray_sum_poly(c)
        C.close(_parse_vec(lines[0]), [float(C.poly_eval(own, n))], C.ray_sum_scale(c, n),
                "reduce-sum --program: value")
        poly = C.parse_rational_poly(lines[1])
        for mm in (0, 1, n):
            C.close(float(C.poly_eval(poly, mm)), float(C.poly_eval(own, mm)),
                    C.ray_sum_scale(c, mm), f"reduce-sum --program: P({mm})")
        C.close(_parse_vec(lines[2]), [float(C.poly_eval(C.poly_derivative(own, 1), n))],
                C.ray_sum_scale(c, n, 1), "reduce-sum --program: velocity")

    add("reduce_sum_program", ["reduce-sum", "--program", write("ray.sexpr", spec),
                               "--at", _fmt_vec(at), "--dir", _fmt_vec(direction),
                               "--order", "12", "--n", str(n), "--velocity", "1"], check_rs)

    # iterate
    spec, _, f = _design_map(rng, "layer", lambda s: None)
    seed = f + rng.choice((-1, 1)) * rng.uniform(0.02, 0.05)
    v = f + rng.choice((-1, 1)) * rng.uniform(0.02, 0.05)
    x = rng.choice((1, 2))

    def check_iterate(res, firsts, spec=spec, v=v, x=x, f=f):
        lines = ok(res).splitlines()
        C.require(len(lines) == 2, "iterate: expected 2 lines")
        want = v
        for _ in range(x):
            want = jet.value(spec, [want])[0]
        C.close(float(lines[0].split(":")[1]), want, abs(v), "iterate: value", C.SERIES_TOL)
        C.close(float(lines[1].split(":")[1]), _koenigs(spec, f).velocity(v - f), 1.0,
                "iterate: velocity (Koenigs)", C.SERIES_TOL)

    add("iterate", ["iterate", "--program", write("map.sexpr", spec), "--seed", repr(seed),
                    "--x", str(x), "--at", repr(v), "--order", "12"], check_iterate)

    def check_selftest(res, firsts):
        lines = ok(res).splitlines()
        C.require(len(lines) >= 2 and all(ln.startswith("PASS  ") for ln in lines[:-1])
                  and lines[-1] == f"all {len(lines) - 1} checks passed", "selftest: not all PASS")

    add("selftest", ["selftest"], check_selftest)

    def gate(firsts):
        tau = next(op for op in wl.ops if op.kind == "tau")
        code, out = firsts[tau.label]
        obj = json.loads(out)
        comps = obj["tower"]["components"]
        comps[-1][0] += 1e-4 * max(1.0, max(abs(c) for c in comps[-1]))
        bad = (code, json.dumps(obj).encode())
        slow = Op("cli_overrun", b"overrun",
                  lambda: run_process([sys.executable, "-c", "import time; time.sleep(30)"], 0.2),
                  lambda res, firsts: None)
        return [("tau output with one perturbed entry", Op(tau.kind, tau.label, lambda: bad,
                                                           tau.check)),
                ("CLI op over the time cap", slow)]

    wl.gate = gate
    return wl


FACTORIES = {
    "dense_tower": dense_tower,
    "deep_dag": deep_dag,
    "series_scalar": series_scalar,
    "cli_mix": cli_mix,
}
