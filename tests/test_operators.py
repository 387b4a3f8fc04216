import math
from fractions import Fraction

import numpy as np
import pytest

from tensorjet import (
    Affine,
    Compose,
    Constant,
    ContractionLayer,
    DomainEvalError,
    Elementwise,
    Identity,
    MultiTensor,
    Product,
    Shape,
    compose_towers,
    derivative_tower,
    differentiable_derivative,
    evaluate,
    forward_chain,
    get_primitive,
    integer_power,
    partition_weight,
    partitions,
    primitive_library,
    reverse_chain,
    order_reduce,
    series_eval,
    taylor_series,
    tensor_network,
    truncate,
)
from tensorjet import multitensor
from tensorjet.multitensor import (
    ShapeMismatchError,
    _pack,
    _symmetrize_component,
    _unpack,
    algebra_product,
    symmetrize,
)
import tensorjet.operators as operators_module
from tensorjet.operators import reduction_commutes
from tensorjet.program import DerivativeTower, _horner

from _gen import (
    fd_hessian,
    fd_jacobian,
    loglog_slope,
    max_component_gap,
    random_chain,
    random_multitensor,
    random_program,
    rel_gap,
)


def scalar_power(n):
    return Compose(Elementwise(integer_power(n)), Identity(1))


class TestPartitions:
    def test_zero_has_the_empty_partition(self):
        assert partitions(0) == ((),)

    def test_four(self):
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_counts_match_recurrence(self):
        # two-variable counting recurrence, independent of the enumerator
        def count(n, max_part):
            if n == 0:
                return 1
            return sum(count(n - f, f) for f in range(min(n, max_part), 0, -1))

        for n in range(12):
            assert len(partitions(n)) == count(n, n)
        assert len(partitions(10)) == 42

    def test_descending_lexicographic_order(self):
        for n in range(1, 9):
            ps = partitions(n)
            assert all(sum(p) == n for p in ps)
            assert list(ps) == sorted(ps, reverse=True)

    def test_weights_sum_to_set_partition_counts(self):
        bell = [1, 1, 2, 5, 15, 52, 203]
        for n in range(7):
            assert sum(partition_weight(p) for p in partitions(n)) == bell[n]

    def test_repeated_calls_identical(self):
        assert partitions(6) is partitions(6)


class TestTaylorSeries:
    def test_exp_series_value(self):
        series = taylor_series(Elementwise(get_primitive("exp")), [0.0], 3)
        got = series_eval(series, 0.1, [1.0])[0]
        assert got == pytest.approx(1.0 + 0.1 + 0.005 + 0.1**3 / 6, abs=1e-15)
        assert abs(got - math.exp(0.1)) < 1e-5

    def test_affine_series_is_exact_for_any_step(self):
        p = Affine([[2.0, -1.0], [0.5, 3.0]], [1.0, -2.0])
        v0 = np.array([0.4, -0.3])
        series = taylor_series(p, v0, 1)
        for h in (0.1, 1.0, 7.5):
            v = np.array([1.0, 2.0])
            got = series_eval(series, h, v)
            want = evaluate(p, v0 + h * v)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_step_returns_base_value(self):
        rng = np.random.default_rng(20)
        p = random_program(rng, 2, 2, 2)
        v0 = rng.uniform(-0.5, 0.5, size=2)
        series = taylor_series(p, v0, 3)
        got = series_eval(series, 0.0, rng.uniform(-1, 1, size=2))
        assert np.max(np.abs(got - evaluate(p, v0))) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name,v0", [("exp", 0.3), ("sin", 0.7)])
    def test_truncation_error_decays_at_order_plus_one(self, k, name, v0):
        p = Elementwise(get_primitive(name))
        series = taylor_series(p, [v0], k)
        hs = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        errs = [
            abs(series_eval(series, h, [1.0])[0] - evaluate(p, [v0 + h])[0])
            for h in hs
        ]
        assert abs(loglog_slope(hs, errs) - (k + 1)) < 0.3


class TestComposeTowers:
    def test_second_derivative_of_sine_of_square(self):
        f = Elementwise(get_primitive("sin"))
        g = scalar_power(2)
        inner = derivative_tower(g, [0.0], 2)
        outer = derivative_tower(f, inner.value, 2)
        out = compose_towers(outer, inner)
        # f'(g) g'' + f''(g) (g')^2 at 0 = cos(0)*2 + 0 = 2
        assert out.component(2)[0, 0, 0] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.2, -0.8])
    def test_second_derivative_formula_pointwise(self, x):
        f = Elementwise(get_primitive("sin"))
        g = scalar_power(2)
        inner = derivative_tower(g, [x], 2)
        outer = derivative_tower(f, inner.value, 2)
        got = compose_towers(outer, inner).component(2)[0, 0, 0]
        want = math.cos(x * x) * 2.0 - math.sin(x * x) * (2.0 * x) ** 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_inner_identity_returns_outer(self):
        rng = np.random.default_rng(21)
        f = random_program(rng, 2, 2, 2)
        v = rng.uniform(-0.5, 0.5, size=2)
        f_tower = derivative_tower(f, v, 3)
        id_tower = derivative_tower(Identity(2), v, 3)
        out = compose_towers(f_tower, id_tower)
        assert max_component_gap(out.tower, f_tower.tower) < 1e-14

    def test_outer_identity_returns_inner(self):
        rng = np.random.default_rng(22)
        g = random_program(rng, 2, 2, 2)
        v = rng.uniform(-0.5, 0.5, size=2)
        g_tower = derivative_tower(g, v, 3)
        id_tower = derivative_tower(Identity(2), g_tower.value, 3)
        out = compose_towers(id_tower, g_tower)
        assert max_component_gap(out.tower, g_tower.tower) < 1e-14

    def test_base_point_mismatch_raises(self):
        f_tower = derivative_tower(Identity(1), [1.0], 2)
        g_tower = derivative_tower(Identity(1), [0.0], 2)
        with pytest.raises(ValueError, match="base point"):
            compose_towers(f_tower, g_tower)

    def test_order_mismatch_raises(self):
        a = derivative_tower(Identity(1), [0.0], 2)
        b = derivative_tower(Identity(1), [0.0], 1)
        with pytest.raises(ValueError, match="order"):
            compose_towers(a, b)

    def test_matches_compose_node_and_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mid = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            g = random_program(rng, d, mid, 2)
            f = random_program(rng, mid, d, 2)
            v = rng.uniform(-0.6, 0.6, size=d)
            inner = derivative_tower(g, v, 2)
            outer = derivative_tower(f, inner.value, 2)
            got = compose_towers(outer, inner)
            node = derivative_tower(Compose(f, g), v, 2)
            assert max_component_gap(got.tower, node.tower) < 1e-10
            composite = Compose(f, g)
            assert rel_gap(got.component(1), fd_jacobian(composite, v)) < 1e-6
            assert rel_gap(got.component(2), fd_hessian(composite, v)) < 1e-4


def _bitwise_equal(a, b):
    return len(a.components) == len(b.components) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a.components, b.components)
    )


DIAGONAL_PRIMS = sorted(primitive_library()) + ["pow3"]


class TestDiagonalChainRule:
    @staticmethod
    def _cases(name, seed):
        """Random (inner program, point, order) triples, d 1-4 and order 1-6."""
        rng = np.random.default_rng(seed)
        for case in range(12):
            d = 1 + case % 4
            k = 1 + case % 6
            inner = random_program(rng, d, d, 2)
            if name in ("log", "reciprocal"):  # keep the intermediate positive
                inner = Compose(Elementwise(get_primitive("exp"), d), inner)
            yield inner, rng.uniform(-0.6, 0.6, size=d), k

    @pytest.mark.parametrize("name", DIAGONAL_PRIMS)
    def test_bitwise_equal_to_dense_outer_tower(self, name):
        """Horner on the packed inner tower against ``compose_towers``.

        For an elementwise outer the substitution's nested sums are Horner's
        steps, so over these cases the two agree bit for bit.  Where the walk
        knows the inner is affine it sums over a pair table cut to degree 1,
        in shorter blocks, and the two can differ by rounding (up to 2.8e-17
        of max(1, |component|) over 300 random affine inners, d 3-5).  The
        tower is exactly symmetric and finite.
        """
        prim = get_primitive(name)
        for inner, v, k in self._cases(name, 41):
            d = inner.dim_out
            outer = Elementwise(prim, d)
            got = derivative_tower(Compose(outer, inner), v, k)
            inner_tower = derivative_tower(inner, v, k)
            dense = compose_towers(
                derivative_tower(outer, inner_tower.value, k), inner_tower
            )
            _assert_close(got.tower, dense.tower, rel=1e-15)
            assert got.tower.is_symmetric(tol=0.0)
            assert all(np.all(np.isfinite(c)) for c in got.tower.components)

    @pytest.mark.parametrize("name", DIAGONAL_PRIMS)
    def test_raising_the_order_keeps_lower_components(self, name):
        prim = get_primitive(name)
        for inner, v, k in self._cases(name, 42):
            p = Compose(Elementwise(prim, inner.dim_out), inner)
            low = derivative_tower(p, v, k).tower
            high = derivative_tower(p, v, k + 1).tower
            assert _bitwise_equal(truncate(high, k), low)

    def test_domain_error_names_the_outer_node(self):
        p = Compose(Elementwise(get_primitive("log")), Affine([[1.0]], [-2.0]))
        with pytest.raises(DomainEvalError, match="/compose.outer"):
            derivative_tower(p, [0.5], 3)

    def test_exp_of_affine_at_order_12(self):
        a, b, x = 0.7, -0.2, 0.4
        p = Compose(Elementwise(get_primitive("exp")), Affine([[a]], [b]))
        t = derivative_tower(p, [x], 12)
        want = math.exp(a * x + b)
        for j, comp in enumerate(t.tower.components):
            assert comp.ravel()[0] == pytest.approx(a**j * want, rel=1e-13)

    def test_thirty_fold_sine_chain_at_order_12(self):
        p = Identity(1)
        for _ in range(30):
            p = Compose(Elementwise(get_primitive("sin")), p)
        x = 0.3
        t = derivative_tower(p, [x], 12).tower
        assert all(np.all(np.isfinite(c)) for c in t.components)
        assert _bitwise_equal(truncate(t, 11), derivative_tower(p, [x], 11).tower)
        slope = 1.0
        for _ in range(30):
            slope *= math.cos(x)
            x = math.sin(x)
        assert t.components[0][0] == pytest.approx(x, rel=1e-14)
        assert t.components[1][0, 0] == pytest.approx(slope, rel=1e-13)


def _partition_loop(outer, inner):
    """Reference chain rule on dense towers: every integer partition's contraction.

    Component n sums, over the partitions of n, the outer derivative of order
    "number of parts" contracted with one inner derivative per part, weighted
    by the partition's slot count, and is symmetrized.
    """
    f, g = outer.tower.components, inner.tower.components
    d_out, d_in, k = f[0].shape[0], inner.tower.dim_in, inner.order
    comps = [f[0]]
    for n in range(1, k + 1):
        acc = np.zeros((d_out,) + (d_in,) * n)
        for lam in partitions(n):
            t = f[len(lam)]
            for part in lam:
                t = np.tensordot(t, g[part], axes=([1], [0]))
            acc += partition_weight(lam) * t
        comps.append(_symmetrize_component(acc))
    return DerivativeTower(at=inner.at, tower=MultiTensor(Shape(d_out, d_in, k), comps))


def _assert_close(got, want, rel=1e-12):
    for a, b in zip(got.components, want.components):
        assert np.max(np.abs(a - b)) <= rel * max(1.0, float(np.max(np.abs(b))))


def _along(tower, u):
    """[i][n]: exactly <component n, u^(x)n>_i / n!, from the tower's float entries."""
    uf = np.array([Fraction(x) for x in u], dtype=object)
    rows = []
    for n, comp in enumerate(tower.components):
        t = np.vectorize(Fraction, otypes=[object])(comp)
        for _ in range(n):
            t = t.dot(uf)
        rows.append([x / math.factorial(n) for x in t])
    return list(zip(*rows))


def _exact_series(a, name):
    """Taylor coefficients 1..K of reciprocal(g) or log(g) from g's, in exact arithmetic."""
    b = [Fraction(0)] * len(a)
    for n in range(1, len(a)):
        if name == "reciprocal":
            b[0] = 1 / a[0]
            b[n] = -sum(a[m] * b[n - m] for m in range(1, n + 1)) / a[0]
        else:  # (log g)' = g' / g
            b[n] = (a[n] - sum(Fraction(m, n) * b[m] * a[n - m] for m in range(1, n))) / a[0]
    return b


class TestSubstitutionAccuracy:
    @pytest.mark.parametrize("name", ["reciprocal", "log"])
    def test_as_close_as_horner_to_an_exact_series(self, name):
        """Along a direction, against the exact series of f(g), g the inner tower's series.

        The error of order n is n! |got_n - exact_n| / max(1, n! |exact_n|),
        that of the n-th directional derivative; both towers share the
        rounded outer derivatives.  The partition loop lost digits here to
        cancellation among large terms.
        """
        prim = get_primitive(name)
        directions = np.random.default_rng(45)
        for seed in (41, 42):
            for inner, v, k in TestDiagonalChainRule._cases(name, seed):
                d = inner.dim_out
                u = directions.uniform(-1.0, 1.0, size=d)
                inner_tower = derivative_tower(inner, v, k)
                exact = [_exact_series(a, name) for a in _along(inner_tower.tower, u)]

                def error(tower):
                    return max(math.factorial(n) * float(abs(got[n] - want[n]))
                               / max(1.0, math.factorial(n) * float(abs(want[n])))
                               for got, want in zip(_along(tower, u), exact)
                               for n in range(1, k + 1))

                outer = derivative_tower(Elementwise(prim, d), inner_tower.value, k)
                composed = error(compose_towers(outer, inner_tower).tower)
                horner = error(derivative_tower(Compose(Elementwise(prim, d), inner), v, k).tower)
                assert composed <= 2.0 * horner + 1e-16


class TestDeeperOrders:
    """A tower one order deeper truncates to the shallower one bit for bit."""

    @pytest.mark.parametrize("kind", ["forward_chain", "reverse_chain", "layer", "affine"])
    def test_order_plus_one_truncates_to_order(self, kind):
        rng = np.random.default_rng(46)
        for case in range(6):
            d = 1 + case % 3
            v = rng.uniform(-0.5, 0.5, d)
            if kind.endswith("chain"):
                chain = random_chain(rng, 3, d, 2, depth=2) + [
                    ContractionLayer(random_multitensor(rng, 2, 2, 2)),
                    Elementwise(get_primitive("sin"), 2)]
                run = lambda k, chain=chain: getattr(operators_module, kind)(chain, v, k)
            else:
                outer = (ContractionLayer(random_multitensor(rng, 2, 2, 2)) if kind == "layer"
                         else Affine(rng.uniform(-0.8, 0.8, (2, 2)), rng.uniform(-0.5, 0.5, 2)))
                p = Compose(outer, random_program(rng, d, 2, 2))
                run = lambda k, p=p: derivative_tower(p, v, k)
            for k in range(5):
                assert _bitwise_equal(truncate(run(k + 1).tower, k), run(k).tower)


class TestChainRuleSymmetrizes:
    """Substitution on packed towers is symmetric by construction: no symmetrizing pass."""

    def test_only_multi_slot_components_of_several_inputs(self, monkeypatch):
        """Against the partition loop, which symmetrizes every component it sums."""
        rng = np.random.default_rng(43)
        programs = [random_program(rng, 1 + case % 3, 2, 3) for case in range(18)]
        points = [rng.uniform(-0.5, 0.5, size=p.dim_in) for p in programs]
        towers = [derivative_tower(p, v, 4).tower for p, v in zip(programs, points)]
        calls = []

        def reference(outer, inner):
            calls.append(inner.tower.dim_in)
            return _partition_loop(outer, inner)

        monkeypatch.setattr(operators_module, "compose_towers", reference)
        for p, v, got in zip(programs, points, towers):
            _assert_close(got, derivative_tower(p, v, 4).tower)
            assert got.is_symmetric(tol=0.0)
        assert set(calls) == {1, 2, 3}  # the reference ran for every input dimension

    def test_no_symmetrizing_for_one_input(self, monkeypatch):
        rng = np.random.default_rng(44)
        cases = []
        for d in (1, 2, 3):
            inner = derivative_tower(random_program(rng, d, 2, 2), rng.uniform(-0.5, 0.5, d), 4)
            for outer in (ContractionLayer(random_multitensor(rng, 2, 2, 2)),
                          Elementwise(get_primitive("tanh"), 2), random_program(rng, 2, 2, 2)):
                cases.append((derivative_tower(outer, inner.value, 4), inner))
        calls = []

        def counting(comp):
            calls.append(comp.shape)
            return comp.copy()

        monkeypatch.setattr(operators_module, "_symmetrize_component", counting)
        monkeypatch.setattr(multitensor, "_symmetrize_component", counting)
        for outer, inner in cases:
            compose_towers(outer, inner)
        assert calls == []


class TestSkippedChainRuleTerms:
    """Nested sums above the outer's degree are skipped; the towers keep every bit."""

    @staticmethod
    def _towers(seed):
        """Towers of programs with affine, constant and polynomial factors, d 1-4, order 1-6."""
        rng = np.random.default_rng(seed)
        sin, tanh, pow3 = (get_primitive(name) for name in ("sin", "tanh", "pow3"))
        for case in range(24):
            d = 1 + case % 4
            k = 1 + case % 6
            v = rng.uniform(-0.6, 0.6, size=d)

            def affine():
                return Affine(rng.uniform(-0.8, 0.8, (d, d)), rng.uniform(-0.5, 0.5, d))

            quadratic = ContractionLayer(random_multitensor(rng, d, d, 2))
            constant = Constant(tuple(rng.uniform(-0.5, 0.5, d)), input_dim=d)
            inner = random_program(rng, d, d, 2)
            programs = [
                Compose(Elementwise(sin, d), x)
                for x in (affine(), Identity(d), constant, quadratic)
            ]
            programs += [Compose(affine(), inner), Compose(quadratic, inner),
                         Compose(Elementwise(pow3, d), inner),
                         Compose(Elementwise(pow3, d), affine()),
                         tensor_network([(random_multitensor(rng, d, d, 2), tanh),
                                         (random_multitensor(rng, d, d, 1), None)])]
            for p in programs:
                yield lambda p=p, v=v, k=k: derivative_tower(p, v, k)
            chain = [Compose(Elementwise(sin, d), affine()),
                     Compose(quadratic, affine()), affine(), Elementwise(pow3, d)]
            yield lambda c=chain, v=v, k=k: forward_chain(c, v, k)
            yield lambda c=chain, v=v, k=k: reverse_chain(c, v, k)

    def test_bitwise_equal_to_every_term(self, monkeypatch):
        runs = list(self._towers(51))
        got = [run() for run in runs]
        # every level up to the order, zero coefficients included
        monkeypatch.setattr(multitensor, "_packed_degree", lambda packed, dim_in, order: order)
        for run, tower in zip(runs, got):
            assert all(np.all(np.isfinite(c)) for c in tower.tower.components)
            assert _bitwise_equal(tower.tower, run().tower)

    @pytest.mark.parametrize("d", [1, 3])
    def test_elementwise_of_affine_has_one_term_per_order(self, d):
        """Component n is f^(n)(A v + b) times n copies of A's row, entry by entry."""
        rng = np.random.default_rng(52)
        outer = Elementwise(get_primitive("sin"), d)
        a = rng.uniform(-0.8, 0.8, (d, d))
        affine = Affine(a, rng.uniform(-0.5, 0.5, d))
        for k in range(1, 7):
            inner = derivative_tower(affine, rng.uniform(-0.6, 0.6, d), k)
            outer_tower = derivative_tower(outer, inner.value, k)
            got = compose_towers(outer_tower, inner)
            for n, comp in enumerate(got.tower.components):
                want = np.array([outer_tower.component(n)[(i,) * (n + 1)] for i in range(d)])
                for _ in range(n):
                    want = want[..., None] * a.reshape((d,) + (1,) * (want.ndim - 1) + (d,))
                assert np.max(np.abs(comp - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))

    def test_quadratic_outer_has_terms_of_at_most_two_parts(self, monkeypatch):
        """The nested sums of a quadratic outer stop at degree 2 at every order."""
        rng = np.random.default_rng(53)
        p = Compose(ContractionLayer(random_multitensor(rng, 2, 2, 2)),
                    Elementwise(get_primitive("sin"), 2))
        plans = []
        nest_plan = multitensor._nest_plan

        def recording(dim, degree):
            plans.append((dim, degree))
            return nest_plan(dim, degree)

        monkeypatch.setattr(multitensor, "_nest_plan", recording)
        got = [derivative_tower(p, [0.3, -0.2], k).tower for k in range(2, 7)]
        assert plans == [(2, 2)] * 5
        monkeypatch.setattr(operators_module, "compose_towers", _partition_loop)
        for k, tower in zip(range(2, 7), got):
            _assert_close(tower, derivative_tower(p, [0.3, -0.2], k).tower)

    def test_inner_tower_with_inf_gives_non_finite_tower(self):
        d, k = 2, 4
        comps = [np.array([0.1, 0.2]), np.array([[np.inf, 0.5], [0.3, 0.2]])]
        comps += [np.zeros((d,) + (d,) * j) for j in range(2, k + 1)]
        inner = DerivativeTower(at=np.zeros(d), tower=MultiTensor(Shape(d, d, k), comps))
        outers = [Affine([[0.5, 0.2], [0.1, -0.3]], [0.1, 0.0]),
                  ContractionLayer(random_multitensor(np.random.default_rng(54), d, d, 2)),
                  Elementwise(get_primitive("pow3"), d)]
        fvals = np.array([[np.sin(x + r * np.pi / 2) for x in inner.value] for r in range(k + 1)])
        with np.errstate(invalid="ignore"):
            towers = [compose_towers(derivative_tower(o, inner.value, k), inner).tower
                      for o in outers]
            packed = _horner(fvals, _pack(inner.tower.components, d), d, k)
            towers.append(_unpack(packed, d, k))
        for tower in towers:
            assert not all(np.all(np.isfinite(c)) for c in tower.components[1:])


class TestChains:
    def test_two_stage_chain_equals_single_composition(self):
        rng = np.random.default_rng(24)
        g = random_program(rng, 1, 2, 1)
        f = random_program(rng, 2, 1, 1)
        v = rng.uniform(-0.5, 0.5, size=1)
        chained = forward_chain([g, f], v, 3)
        inner = derivative_tower(g, v, 3)
        outer = derivative_tower(f, inner.value, 3)
        direct = compose_towers(outer, inner)
        assert max_component_gap(chained.tower, direct.tower) < 1e-12

    def test_forward_and_reverse_jacobians_agree(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            chain = random_chain(rng, 4, 2, 2)
            v = rng.uniform(-0.5, 0.5, size=2)
            fwd = forward_chain(chain, v, 1)
            rev = reverse_chain(chain, v, 1)
            assert max_component_gap(fwd.tower, rev.tower) < 1e-10

    def test_identity_chain(self):
        chain = [Identity(2)] * 4
        v = np.array([0.3, -0.4])
        t = forward_chain(chain, v, 2)
        assert np.array_equal(t.value, v)
        assert np.array_equal(t.component(1), np.eye(2))
        assert np.all(t.component(2) == 0.0)

    def test_chain_dim_mismatch(self):
        with pytest.raises(ValueError, match="chain"):
            forward_chain([Identity(2), Identity(3)], [0.0, 0.0], 1)

    def test_forward_chain_error_contract(self):
        log = get_primitive("log")
        shift = Affine([[1.0]], [-2.0])  # 0.5 -> -1.5 exactly
        cases = [
            (lambda: forward_chain([Identity(2)], [0.1], 1),
             ShapeMismatchError, "input must have shape (2,), got (1,)"),
            (lambda: forward_chain([Identity(2)], [[0.1, 0.2]], 1),
             ShapeMismatchError, "input must have shape (2,), got (1, 2)"),
            (lambda: forward_chain([Identity(1)], [0.1], -1),
             ValueError, "order must be >= 0"),
            (lambda: forward_chain([], [0.1], 1),
             ValueError, "chain must contain at least one program"),
            (lambda: forward_chain([Identity(2), Identity(3)], [0.0, 0.0], 1),
             ValueError, "chain mismatch: stage yields dim 2, next expects dim 3"),
            (lambda: forward_chain([shift, Compose(Elementwise(log), Identity(1))], [0.5], 2),
             DomainEvalError, "/compose.outer: elem(log): log of non-positive input -1.5"),
            (lambda: forward_chain([shift, Elementwise(log)], [0.5], 0),
             DomainEvalError, "/: elem(log): log of non-positive input -1.5"),
        ]
        for run, kind, message in cases:
            with pytest.raises(kind) as err:
                run()
            assert type(err.value) is kind
            assert str(err.value) == message

    def test_forward_chain_pushes_a_series_without_towers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called")

        rng = np.random.default_rng(26)
        chain = random_chain(rng, 4, 2, 2, depth=2)
        v = rng.uniform(-0.5, 0.5, size=2)
        want = reverse_chain(chain, v, 3)
        monkeypatch.setattr(operators_module, "compose_towers", refuse)
        monkeypatch.setattr(operators_module, "derivative_tower", refuse)
        got = forward_chain(chain, v, 3)
        assert max_component_gap(got.tower, want.tower) < 1e-10

    def test_forward_chain_value_keeps_its_bits_from_order_0_to_1_at_dim_9(self):
        # nine summands: numpy would add one column pairwise, so order 0 walks two
        rng = np.random.default_rng(27)
        chain = [Affine(rng.uniform(-1, 1, (9, 9)), rng.uniform(-1, 1, 9)),
                 Compose(Elementwise(get_primitive("sin"), 9),
                         Affine(rng.uniform(-1, 1, (9, 9)), rng.uniform(-1, 1, 9)))]
        v = rng.uniform(-1, 1, size=9)
        values = [forward_chain(chain, v, k).value for k in (0, 1, 2)]
        assert np.array_equal(values[0], values[1]) and np.array_equal(values[1], values[2])

    def test_chains_and_series_stop_at_order_63(self):
        message = ("order 64 is above 63, the largest of a dense tower "
                   "(component j has j + 1 axes, and numpy arrays have at most 64)")
        sin = Elementwise(get_primitive("sin"))
        for run in (lambda: forward_chain([sin, sin], [0.1], 64),
                    lambda: reverse_chain([sin, sin], [0.1], 64),
                    lambda: taylor_series(sin, [0.1], 64)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == message
        assert forward_chain([sin, sin], [0.1], 63).tower.components[63].ndim == 64


class TestOrderReduction:
    def test_cube_reduces_to_its_derivative(self):
        t = derivative_tower(scalar_power(3), [2.0], 3)
        assert [c.ravel()[0] for c in t.tower.components] == [8.0, 12.0, 12.0, 6.0]
        reduced = order_reduce(t)
        assert [c.ravel()[0] for c in reduced.tower.components] == [12.0, 12.0, 6.0]

    def test_double_reduction_is_second_derivative_tower(self):
        # second derivative of x^3 is 6x: tower (12, 6) at x = 2
        t = derivative_tower(scalar_power(3), [2.0], 3)
        twice = order_reduce(order_reduce(t))
        assert [c.ravel()[0] for c in twice.tower.components] == [12.0, 6.0]

    def test_affine_reduces_to_constant_tower(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = derivative_tower(Affine(A, [0.0, 0.0]), [0.5, 0.5], 2)
        reduced = order_reduce(t)
        assert np.array_equal(reduced.value, A.ravel())
        assert np.all(reduced.component(1) == 0.0)

    def test_order_zero_rejected(self):
        t = derivative_tower(Identity(1), [0.0], 0)
        with pytest.raises(ValueError):
            order_reduce(t)

    def test_commutes_with_adding_an_order_exactly(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            p = random_program(rng, d, d, 2)
            v = rng.uniform(-0.5, 0.5, size=d)
            deep = derivative_tower(p, v, 3)
            shallow = derivative_tower(p, v, 2)
            assert reduction_commutes(deep, shallow)

    def test_components_shift_bitwise(self):
        rng = np.random.default_rng(27)
        p = random_program(rng, 2, 2, 2)
        v = rng.uniform(-0.5, 0.5, size=2)
        t = derivative_tower(p, v, 3)
        reduced = order_reduce(t)
        for j in range(reduced.order + 1):
            want = t.component(j + 1).reshape((4,) + (2,) * j)
            assert np.array_equal(reduced.component(j), want)


class TestDifferentiableDerivative:
    def test_sine_derivative_is_cosine(self):
        dsin = differentiable_derivative(Elementwise(get_primitive("sin")), 1)
        got = derivative_tower(dsin, [0.0], 2)
        want = derivative_tower(Elementwise(get_primitive("cos")), [0.0], 2)
        assert max_component_gap(got.tower, want.tower) < 1e-12
        for x in (0.3, 1.1):
            assert evaluate(dsin, [x])[0] == pytest.approx(math.cos(x), abs=1e-15)

    def test_affine_derivative_is_constant(self):
        A = np.array([[2.0, 1.0], [0.0, -1.0]])
        d = differentiable_derivative(Affine(A, [5.0, 5.0]), 1)
        v = np.array([0.1, 0.9])
        assert np.array_equal(evaluate(d, v), A.ravel())
        t = derivative_tower(d, v, 1)
        assert np.all(t.component(1) == 0.0)

    def test_nesting_matches_single_second_order_extraction(self):
        p = Elementwise(get_primitive("sin"))
        nested = differentiable_derivative(differentiable_derivative(p, 1), 1)
        single = differentiable_derivative(p, 2)
        v = [0.4]
        a = derivative_tower(nested, v, 2)
        b = derivative_tower(single, v, 2)
        assert max_component_gap(a.tower, b.tower) < 1e-12

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            differentiable_derivative(Identity(1), 0)


class TestShiftHomomorphisms:
    def test_series_of_product_is_product_of_series(self):
        rng = np.random.default_rng(28)
        for _ in range(8):
            a = random_program(rng, 2, 2, 2)
            b = random_program(rng, 2, 2, 2)
            v0 = rng.uniform(-0.5, 0.5, size=2)
            k = 3
            got = taylor_series(Product((a, b)), v0, k).tower
            sa = taylor_series(a, v0, k).tower
            sb = taylor_series(b, v0, k).tower
            want = symmetrize(algebra_product(sa, sb, max_order=k))
            assert max_component_gap(got, want) < 1e-10

    def test_series_of_composition_composes_series_exactly_for_polynomials(self):
        # for polynomial stages the truncated series are exact maps, so
        # expanding the composite equals running one series into the other
        rng = np.random.default_rng(29)
        for _ in range(8):
            inner = random_multitensor(rng, 2, 2, 2)
            outer = random_multitensor(rng, 1, 2, 2)
            from tensorjet import ContractionLayer

            g = ContractionLayer(inner)
            f = ContractionLayer(outer)
            v0 = rng.uniform(-0.5, 0.5, size=2)
            k = 4  # total degree of f . g
            s_fg = taylor_series(Compose(f, g), v0, k)
            s_g = taylor_series(g, v0, k)
            base_f = evaluate(g, v0)
            s_f = taylor_series(f, base_f, k)
            for h in (0.5, 1.0, 2.0):
                v = rng.uniform(-1.0, 1.0, size=2)
                via_composite = series_eval(s_fg, h, v)
                mid = series_eval(s_g, h, v) - base_f
                via_stages = series_eval(s_f, 1.0, mid)
                scale = max(1.0, float(np.max(np.abs(via_composite))))
                assert np.max(np.abs(via_composite - via_stages)) / scale < 1e-10

    def test_composition_error_decays_at_truncation_order(self):
        f = Elementwise(get_primitive("exp"))
        g = Elementwise(get_primitive("sin"))
        p = Compose(f, g)
        for k in (1, 2, 3):
            series = taylor_series(p, [0.4], k)
            hs = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
            errs = [
                abs(series_eval(series, h, [1.0])[0] - evaluate(p, [0.4 + h])[0])
                for h in hs
            ]
            assert abs(loglog_slope(hs, errs) - (k + 1)) < 0.3
