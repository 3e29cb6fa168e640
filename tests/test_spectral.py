"""Observable, quadrature, projector and correlation tests.

Frozen expectations: exact trigonometric integrals for inner products, the
closed-form rectangle autocorrelation (via the 1-D folding identity), and
hand-computed tile averages.
"""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vhbilliards.dynamics import DirectionState, PhasePoint, flow
from vhbilliards.errors import (
    BilliardError,
    ConfigError,
    DegenerateDirection,
    EventBudgetExceeded,
    GeometryError,
    GridMismatch,
    TooManySingular,
    UnalignedGrid,
)
from vhbilliards.geometry import (
    PointLocation,
    TilingCertificate,
    approximate_pq,
    build_polygon,
    build_table,
    contains_point,
    lshape,
    tile_anchors,
    tiling_parameters,
    unit_square,
)
from vhbilliards.lab import perturb_length, random_table
from vhbilliards.spectral import (
    Observable,
    SampledObservable,
    TileAverageObservable,
    _eval_trig,
    aligned_m,
    basis_function,
    build_grid,
    chi,
    continuous_part,
    correlation,
    correlation_chain_check,
    inner,
    oscillation_bound_check,
    series_summary,
    series_to_csv,
    sweep_correlations,
    tile_average,
)


@pytest.fixture(scope="module")
def square_grid():
    return build_grid(unit_square(), 32)


@pytest.fixture(scope="module")
def lshape_grid():
    return build_grid(lshape(), 20)


@pytest.fixture(scope="module")
def lshape5():
    return approximate_pq(lshape(), 5, Fraction(1, 10))


@pytest.fixture
def counted_batches(monkeypatch):
    """Every FlowBatch the spectral module builds, in order."""
    import vhbilliards.spectral as spectral

    built = []

    class CountedBatch(spectral.FlowBatch):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spectral, "FlowBatch", CountedBatch)
    return built


class TestObservable:
    def test_hermitian_validation(self):
        with pytest.raises(ValueError):
            Observable(((1, 0, 1 + 0j),))

    def test_real_valued(self, square_grid):
        h = Observable.from_dict({(1, 2): 0.3 + 0.4j, (-1, -2): 0.3 - 0.4j})
        vals = square_grid.evaluate(h)
        assert vals.dtype == np.float64
        assert np.abs(vals).max() > 0.1

    def test_cosine_evaluation(self):
        h = Observable.cosine(1, 0)
        xs = np.array([0.0, 0.25, 0.5])
        ys = np.zeros(3)
        np.testing.assert_allclose(h.evaluate(xs, ys, 1.0, 1.0),
                                   [1.0, 0.0, -1.0], atol=1e-15)

    def test_lipschitz_constant(self):
        assert abs(Observable.cosine(1, 0).lipschitz(1.0, 1.0) - 2 * math.pi) \
            < 1e-12
        assert abs(Observable.sine(0, 2).lipschitz(1.0, 2.0) - 2 * math.pi) \
            < 1e-12

    def test_basis_enumeration(self):
        assert basis_function(1).coeffs == Observable.constant(1.0).coeffs
        assert basis_function(2).coeffs == Observable.cosine(0, 1).coeffs
        assert basis_function(3).coeffs == Observable.sine(0, 1).coeffs
        assert basis_function(4).coeffs == Observable.cosine(1, -1).coeffs
        assert basis_function(6).coeffs == Observable.cosine(1, 0).coeffs
        with pytest.raises(ValueError):
            basis_function(0)


def three_buffer_eval_trig(coeffs, xs, ys, width, height):
    """The evaluation before it wrote its first wave into its output: a
    zero-filled sum plus a phase and a wave array per call."""
    out = np.zeros_like(np.asarray(xs, dtype=np.float64))
    phase, wave = np.empty_like(out), np.empty_like(out)
    for kx, ky, c in coeffs:
        if kx == 0 and ky == 0:
            out += c.real
            continue
        if (kx, ky) < (-kx, -ky):
            continue
        if kx:
            np.multiply(2.0 * math.pi * kx / width, xs, out=phase)
            if ky:
                phase += np.multiply(2.0 * math.pi * ky / height, ys,
                                     out=wave)
        else:
            np.multiply(2.0 * math.pi * ky / height, ys, out=phase)
        if c.real:
            out += np.multiply(np.cos(phase, out=wave), 2.0 * c.real,
                               out=wave)
        if c.imag:
            out += np.multiply(np.sin(phase, out=wave), -2.0 * c.imag,
                               out=wave)
    return out


def random_hermitian(rng) -> Observable:
    """1-4 terms, each a constant or a frequency pair with a real,
    imaginary or complex amplitude; pairs with kx * ky != 0 included."""
    coeffs = {}
    for _ in range(rng.integers(1, 5)):
        kx, ky = (int(k) for k in rng.integers(-3, 4, size=2))
        a, b = rng.normal(size=2)
        kind = rng.integers(3)
        c = complex(a if kind != 1 else 0.0, b if kind != 0 else 0.0)
        if kx == ky == 0:
            c = complex(a)
        coeffs[(kx, ky)] = c
        coeffs[(-kx, -ky)] = c.conjugate()
    return Observable.from_dict(coeffs)


class TestEvalTrig:
    """The one-buffer evaluation equals the three-buffer one bit for bit,
    signed zeros included."""

    WIDTH, HEIGHT = 2.5, 0.75

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(2024)
        xs = np.concatenate([[0.0, -0.0, 0.0, -0.0, 1.25, -1.25],
                             rng.uniform(-3.0, 3.0, 250)])
        ys = np.concatenate([[0.0, 0.0, -0.0, -0.0, -0.0, 0.375],
                             rng.uniform(-1.0, 1.0, 250)])
        return xs, ys

    def assert_same_bits(self, coeffs, xs, ys):
        got = _eval_trig(coeffs, xs, ys, self.WIDTH, self.HEIGHT)
        want = three_buffer_eval_trig(coeffs, xs, ys, self.WIDTH, self.HEIGHT)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), coeffs

    def test_random_hermitian_sums(self, points):
        rng = np.random.default_rng(17)
        hs = [Observable.constant(-0.5), Observable.cosine(2, 0),
              Observable.sine(0, 1), Observable.sine(1, -2),
              Observable.from_dict({(1, 1): 0.3 - 0.2j, (-1, -1): 0.3 + 0.2j})]
        hs += [random_hermitian(rng) for _ in range(300)]
        for h in hs:
            self.assert_same_bits(h.coeffs, *points)

    def test_basis_functions(self, points):
        for j in range(1, 30):
            self.assert_same_bits(basis_function(j).coeffs, *points)

    def test_sines_of_signed_zeros(self, points):
        # sin(-0.0) is -0.0: a sum that starts at 0.0 turns it into +0.0
        xs, ys = points
        vals = Observable.sine(1, 0).evaluate(xs[:4], ys[:4], 1.0, 1.0)
        assert np.signbit(vals).tolist() == [False] * 4

    def test_one_wave_allocates_only_its_output(self):
        n = 262_144
        rng = np.random.default_rng(5)
        xs, ys = rng.random(n), rng.random(n)
        h = Observable.cosine(1, 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vals = h.evaluate(xs, ys, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert vals.shape == (n,)
        assert peak <= 8 * n + 64 * 1024, peak


class TestGrid:
    def test_point_count_aligned(self, square_grid, lshape_grid):
        assert square_grid.npts == 32 * 32
        assert lshape_grid.npts == 3 * 400  # area 3 at m = 20

    def test_weights_sum_to_one(self, lshape_grid):
        assert abs(4 * lshape_grid.npts * lshape_grid.weight - 1.0) < 1e-12

    def test_incommensurate_resolution_still_covers(self):
        table = build_table(build_polygon("ENWS", ["3/2"] * 4))
        grid = build_grid(table, 3)  # 3/2 * 3 = 4.5 cells per axis
        assert grid.npts > 0
        # quadrature mass is normalized to one regardless of alignment
        from vhbilliards.spectral import chi, inner
        assert inner(chi(grid), chi(grid), grid) == 1.0

    def test_every_point_is_interior(self, holed_table):
        # unaligned resolutions put some midpoints on the boundary (the
        # holed table at m = 2 has them on the hole); they must stay out
        rng = np.random.default_rng(31)
        cases = [(holed_table, m) for m in (2, 3, 4, 8)]
        cases += [(random_table(rng), m) for m in (3, 5) for _ in range(12)]
        for table, m in cases:
            grid = build_grid(table, m)
            (x0, y0), _ = table.bbox
            for i, j in zip(grid.ix.tolist(), grid.iy.tolist()):
                mid = (x0 + Fraction(2 * i + 1, 2 * m),
                       y0 + Fraction(2 * j + 1, 2 * m))
                assert contains_point(table, mid) is PointLocation.INTERIOR

    def test_aligned_m_helper(self):
        cert = tiling_parameters(build_table(build_polygon("ENWS", ["3/2"] * 4)))
        assert aligned_m(cert, 50) % cert.p == 0
        assert aligned_m(cert, 50) >= 50

    def test_grid_mismatch(self, square_grid, lshape_grid):
        sampled = chi(square_grid)
        with pytest.raises(GridMismatch):
            inner(sampled, chi(lshape_grid), lshape_grid)

    def test_sampled_observable_off_its_grid(self, square_grid,
                                             counted_batches):
        # a sampled observable has values only at its grid points, so the
        # flowed factor of a correlation raises, before any flow, instead
        # of reading them; the chain check takes only trigonometric sums
        h = chi(square_grid)
        with pytest.raises(GridMismatch):
            sweep_correlations(square_grid, [1.0], [h], [0.5])
        with pytest.raises(GridMismatch):
            correlation(square_grid.table, 1.0, h, [0.5], grid=square_grid)
        table = square_grid.table
        cert = tiling_parameters(table)
        for bad in (h, TileAverageObservable(Observable.cosine(1, 0), table,
                                             cert)):
            with pytest.raises(ConfigError):
                correlation_chain_check(table, cert, 1.0, bad, 2.0,
                                        square_grid)
        assert counted_batches == []

    def test_sampled_observables_compare_by_identity(self, square_grid):
        a, b = chi(square_grid), chi(square_grid)
        assert a == a and a != b

    def test_correlation_rejects_another_tables_grid(self, square_grid):
        h = Observable.cosine(1, 0)
        with pytest.raises(GridMismatch):
            correlation(lshape(), 1.0, h, [0.5, 1.0], grid=square_grid)
        # an equal table built separately is the grid's table
        series = correlation(unit_square(), 1.0, h, [0.5, 1.0],
                             grid=square_grid)
        assert np.array_equal(series.values, correlation(
            square_grid.table, 1.0, h, [0.5, 1.0], grid=square_grid).values)


class TestInner:
    def test_chi_is_normalized(self, square_grid):
        assert inner(chi(square_grid), chi(square_grid), square_grid) == 1.0

    def test_cosine_self_inner(self, square_grid):
        h = Observable.cosine(1, 0)
        assert abs(inner(h, h, square_grid) - 0.5) < 1e-10

    def test_cosine_against_chi(self, square_grid):
        h = Observable.cosine(1, 0)
        assert abs(inner(h, chi(square_grid), square_grid)) < 1e-12

    def test_symmetry_and_bilinearity(self, lshape_grid):
        h1 = Observable.cosine(1, 0)
        h2 = Observable.sine(0, 1)
        assert inner(h1, h2, lshape_grid) == inner(h2, h1, lshape_grid)
        # h3 = h1 + 0.5 * h2 written out in coefficients
        h3 = Observable.from_dict({
            (1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j,
            (0, 1): -0.25j, (0, -1): 0.25j})
        lhs = inner(h3, h2, lshape_grid)
        rhs = inner(h1, h2, lshape_grid) + 0.5 * inner(h2, h2, lshape_grid)
        assert abs(lhs - rhs) < 1e-12


class TestTileAverage:
    def test_constant_fixed_point(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        hd = tile_average(Observable.constant(2.5), cert, lshape_grid)
        assert np.all(hd.values == 2.5)

    def test_linear_function_on_quartered_square(self, square_grid):
        cert = tiling_parameters(square_grid.table).refined(2)
        hd = tile_average(SampledObservable(square_grid, square_grid.xs), cert,
                          square_grid)
        u = (square_grid.xs - 1.0) % 0.5
        np.testing.assert_allclose(hd.values, 1.25 + u, atol=1e-13)

    def test_integral_preservation_exact(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        h = Observable.cosine(1, 1)
        hd = tile_average(h, cert, lshape_grid)
        lhs = inner(hd, chi(lshape_grid), lshape_grid)
        rhs = inner(h, chi(lshape_grid), lshape_grid)
        assert abs(lhs - rhs) < 1e-14

    def test_idempotent(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        h = Observable.cosine(1, 0)
        hd = tile_average(h, cert, lshape_grid)
        hdd = tile_average(hd, cert, lshape_grid)
        assert np.abs(hd.values - hdd.values).max() < 1e-13

    def test_self_adjoint(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        h1 = Observable.cosine(1, 0)
        h2 = Observable.sine(1, 1)
        lhs = inner(tile_average(h1, cert, lshape_grid), h2, lshape_grid)
        rhs = inner(h1, tile_average(h2, cert, lshape_grid), lshape_grid)
        assert abs(lhs - rhs) < 1e-13

    def test_periodicity_exact(self, lshape5):
        grid = build_grid(lshape5, 20)
        cert = lshape5.certificate
        hd = tile_average(Observable.cosine(1, 0), cert, grid)
        mx = grid.m // cert.p
        my = grid.m // cert.q
        cls = (grid.ix % mx) * my + (grid.iy % my)
        for c in np.unique(cls)[:10]:
            vals = hd.values[cls == c]
            assert np.all(vals == vals[0])

    def test_unaligned_grid_rejected(self, lshape5):
        grid = build_grid(lshape5, 7)  # 7 not divisible by 5
        with pytest.raises(UnalignedGrid):
            tile_average(Observable.cosine(1, 0), lshape5.certificate, grid)

    def test_wrong_tile_count_rejected(self, lshape5, counted_batches):
        # the right (p, q) with a tile count the table does not have: every
        # tile reduction raises, also on a grid that keeps the right
        # certificate's classes, and the chain check flows nothing
        cert = lshape5.certificate
        wrong = replace(cert, tile_count=cert.tile_count + 1)
        h = basis_function(2)
        calls = [lambda g: tile_average(h, wrong, g),
                 lambda g: oscillation_bound_check(h, wrong, g, eps=50.0),
                 lambda g: correlation_chain_check(lshape5, wrong, 1.0, h,
                                                   5.0, g)]
        kept = build_grid(lshape5, 20)
        tile_average(h, cert, kept)
        assert oscillation_bound_check(h, cert, kept, eps=50.0).hypothesis_met
        for call in calls:
            for grid in (build_grid(lshape5, 20), kept):
                with pytest.raises(UnalignedGrid, match="not uniformly"):
                    call(grid)
        assert counted_batches == []

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=3335828575)  # one class of 268,668 points
    @settings(max_examples=60, deadline=None)
    def test_projector_identities_on_random_tables(self, seed):
        # idempotent, self-adjoint, integral-preserving and constant on
        # each tile class on an aligned grid of a random table; each class
        # mean is one pairwise sum, so averaging equal values rounds by
        # O(log n) ulps for a class of n points
        table = random_table(np.random.default_rng(seed),
                             hole_probability=0.6)
        cert = tiling_parameters(table)
        grid = build_grid(table, aligned_m(cert, 1))
        cls, _ = grid.tile_classes(cert)
        hs = [basis_function(j) for j in (2, 5, 6)]
        for h, g in zip(hs, hs[1:] + hs[:1]):
            hd = tile_average(h, cert, grid)
            hdd = tile_average(hd, cert, grid)
            assert np.abs(hdd.values - hd.values).max() <= 1e-12
            assert abs(inner(hd, g, grid)
                       - inner(h, tile_average(g, cert, grid), grid)) <= 1e-12
            assert abs(inner(hd, chi(grid), grid)
                       - inner(h, chi(grid), grid)) <= 1e-12
            per_class = np.zeros(cls.max() + 1)
            per_class[cls] = hd.values
            assert np.array_equal(hd.values, per_class[cls])

    def test_analytic_form_matches_grid_form(self, lshape5):
        # the table's own frame, and a perturbed table on a grid in the
        # snapped L-shape's frame, as a continuity probe builds its grids
        table = approximate_pq(perturb_length(lshape(), 0, Fraction(1, 5)),
                               5, Fraction(1, 10))
        frame = build_grid(lshape5, 40)
        foreign = replace(build_grid(table, 40), width=frame.width,
                          height=frame.height)
        cases = [(build_grid(lshape5, 20), Observable.cosine(1, 1))]
        cases += [(foreign, basis_function(j)) for j in (4, 5)]
        for grid, h in cases:
            cert = grid.table.certificate
            hd = tile_average(h, cert, grid)
            fn = TileAverageObservable(h, grid.table, cert)
            assert np.abs(fn.evaluate(grid.xs, grid.ys, grid.width,
                                      grid.height) - hd.values).max() < 1e-12
            assert np.abs(grid.evaluate(fn) - hd.values).max() < 1e-12


class TestContinuousPart:
    def test_constant_vanishes(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        hc = continuous_part(Observable.constant(3.0), cert, lshape_grid)
        assert np.abs(hc.values).max() < 1e-14

    def test_pointwise_decomposition_exact(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        h = Observable.cosine(1, 0)
        hd = tile_average(h, cert, lshape_grid)
        hc = continuous_part(h, cert, lshape_grid)
        residual = lshape_grid.evaluate(h) - hd.values - hc.values
        assert np.abs(residual).max() < 1e-15

    def test_orthogonal_to_average(self, lshape_grid):
        cert = tiling_parameters(lshape_grid.table)
        h = Observable.cosine(1, 0)
        hd = tile_average(h, cert, lshape_grid)
        hc = continuous_part(h, cert, lshape_grid)
        assert abs(inner(hc, hd, lshape_grid)) < 1e-13
        assert abs(inner(hc, chi(lshape_grid), lshape_grid)) < 1e-13


class TestCorrelation:
    def test_indicator_is_invariant(self, square_grid):
        t_grid = np.array([0.5, 1.0, 2.5])
        s = correlation(unit_square(), 0.9, Observable.constant(1.0), t_grid,
                        grid=square_grid)
        np.testing.assert_allclose(s.values, 1.0, atol=1e-12)
        assert np.abs(s.gap).max() < 1e-12

    def test_square_closed_form(self):
        table = unit_square()
        grid = build_grid(table, 64)
        t_grid = 0.25 * np.arange(1, 201)
        theta = 1.0
        s = correlation(table, theta, Observable.cosine(1, 0), t_grid,
                        grid=grid)
        expected = 0.5 * np.cos(2 * math.pi * t_grid * math.cos(theta))
        assert np.abs(s.values - expected).max() <= 3.0 / 64
        assert abs(s.level) < 1e-12

    def test_t0_equals_norm_squared(self, square_grid):
        h = Observable.cosine(1, 0)
        s = correlation(unit_square(), 0.7, h, np.array([0.0, 1.0]),
                        grid=square_grid)
        assert s.values[0] == s.norm_sq

    def test_cauchy_schwarz_envelope(self, lshape_grid):
        h = Observable.cosine(1, 0)
        t_grid = 0.5 * np.arange(1, 41)
        s = correlation(lshape(), 0.77, h, t_grid, grid=lshape_grid)
        assert np.abs(s.values).max() <= s.norm_sq + 1e-10

    def test_too_many_singular(self):
        # a 2-per-unit grid on the L sends >0.1% of points into the notch
        # corner along the diagonal
        table = lshape()
        grid = build_grid(table, 2)
        with pytest.raises(TooManySingular):
            correlation(table, math.pi / 4, Observable.cosine(1, 0),
                        np.array([3.0]), grid=grid)

    def test_event_budget(self, square_grid, monkeypatch):
        # the sweep's batches read dynamics.MAX_EVENTS at call time
        import vhbilliards.dynamics as dynamics

        monkeypatch.setattr(dynamics, "MAX_EVENTS", 5)
        with pytest.raises(EventBudgetExceeded):
            sweep_correlations(square_grid, [1.0], [Observable.cosine(1, 0)],
                               [50.0])

    def test_decreasing_time_grid_rejected(self, square_grid):
        with pytest.raises(ValueError):
            correlation(unit_square(), 1.0, Observable.cosine(1, 0),
                        np.array([2.0, 1.0]), grid=square_grid)

    @pytest.mark.parametrize("table_fixture", ["lshape_table", "holed_table"])
    def test_observable_stack_matches_single_calls(self, request, monkeypatch,
                                                   table_fixture):
        # one flow serves the whole stack; each row must equal the flow of
        # its observable alone, whether or not directions share a batch
        import vhbilliards.spectral as spectral

        grid = build_grid(request.getfixturevalue(table_fixture), 8)
        thetas = [0.4, 0.9, 1.3]
        t_grid = 0.25 * np.arange(1, 41)
        hs = [basis_function(j) for j in (1, 2, 5, 6)]
        singles = [sweep_correlations(grid, thetas, [h], t_grid) for h in hs]
        single_values = np.concatenate([v for v, _, _ in singles])
        for chunked in (False, True):
            if chunked:
                monkeypatch.setattr(spectral, "BATCH_POINT_LIMIT",
                                    4 * grid.npts)  # one theta per chunk
            values, dropped, h0s = sweep_correlations(grid, thetas, hs,
                                                      t_grid)
            assert values.shape == (len(hs), len(thetas), t_grid.size)
            assert np.array_equal(values, single_values)
            for h, h0 in zip(hs, h0s, strict=True):
                assert np.array_equal(h0, grid.evaluate(h))
            for _, single_dropped, _ in singles:
                assert np.array_equal(dropped, single_dropped)

    def test_observable_evaluated_once_at_grid_points(self, square_grid,
                                                      monkeypatch):
        # the level and norm come from the sweep's grid values
        sizes = []
        evaluate = Observable.evaluate

        def counted(h, xs, ys, width, height):
            sizes.append(np.size(xs))
            return evaluate(h, xs, ys, width, height)

        monkeypatch.setattr(Observable, "evaluate", counted)
        correlation(unit_square(), 1.0, Observable.cosine(1, 0),
                    [0.5, 1.0, 1.5], square_grid)
        assert sizes == [square_grid.npts] + 3 * [4 * square_grid.npts]

    def test_sweep_rows_independent_of_batching(self, square_grid):
        import vhbilliards.spectral as spectral

        thetas = [0.6, 0.9, 1.2]
        t_grid = 0.5 * np.arange(1, 21)
        h = Observable.cosine(1, 0)
        full, _, _ = sweep_correlations(square_grid, thetas, [h], t_grid)
        old = spectral.BATCH_POINT_LIMIT
        try:
            spectral.BATCH_POINT_LIMIT = 4 * square_grid.npts  # one theta/chunk
            split, _, _ = sweep_correlations(square_grid, thetas, [h], t_grid)
        finally:
            spectral.BATCH_POINT_LIMIT = old
        assert np.array_equal(full, split)


# strictly increasing time grids
time_grids = st.lists(st.floats(min_value=0.0, max_value=30.0),
                      min_size=2, max_size=8, unique=True).map(sorted)


class TestSweepTimeGrid:
    """A sweep value at t is a function of theta, t and the grid alone."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           thetas=st.lists(st.floats(min_value=0.05, max_value=1.52),
                           min_size=1, max_size=2),
           times=time_grids, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_at_t_ignores_the_other_times(self, seed, thetas, times,
                                                data):
        table = random_table(np.random.default_rng(seed),
                             hole_probability=0.6)
        grid = build_grid(table, 6)
        hs = [basis_function(j) for j in (2, 5)]
        t = data.draw(st.sampled_from(times), label="t")
        others = data.draw(st.lists(st.sampled_from(times), unique=True),
                           label="others")
        grids = [times, sorted(set(others) | {t}), [t]]
        try:
            sweeps = [sweep_correlations(grid, thetas, hs, g)[0]
                      for g in grids]
        except TooManySingular:
            assume(False)
        want = sweeps[0][..., times.index(t)]
        for g, values in zip(grids[1:], sweeps[1:]):
            assert values[..., g.index(t)].tobytes() == want.tobytes(), g


class TestChainCheck:
    def test_constant_observable_all_zero(self, lshape5):
        grid = build_grid(lshape5, 20)
        rep = correlation_chain_check(lshape5, lshape5.certificate, 1.0,
                                      Observable.constant(1.0), 5.0, grid)
        assert rep.lines == (0.0, 0.0, 0.0, 0.0)
        assert rep.cross_term == 0.0

    def test_t0_reduces_to_norm_identity(self, lshape5):
        grid = build_grid(lshape5, 20)
        h = Observable.cosine(1, 0)
        rep = correlation_chain_check(lshape5, lshape5.certificate, 1.0,
                                      h, 0.0, grid)
        hd = tile_average(h, lshape5.certificate, grid)
        hc = continuous_part(h, lshape5.certificate, grid)
        level_mean = inner(h, chi(grid), grid)
        centered = hd.values - level_mean
        expected = float(np.sum(centered ** 2) / grid.npts) \
            + float(np.sum(hc.values ** 2) / grid.npts)
        assert abs(rep.lines[0] - expected) < 1e-12

    def test_lines_consistent_and_slack_nonnegative(self, lshape5):
        grid = build_grid(lshape5, 40)
        h = Observable.cosine(1, 0)
        rep = correlation_chain_check(lshape5, lshape5.certificate, 1.0,
                                      h, 7.0, grid)
        assert rep.max_consistency_gap < 1e-10
        assert rep.decomposition_residual < 1e-10
        assert rep.slack >= 0.0
        assert rep.invariant_slack >= 0.0  # ample margin at this m
        assert rep.unitarity_defect <= 3.0 / grid.m
        assert abs(rep.cross_term) <= 10.0 / grid.m

    def test_requires_aligned_grid(self, lshape5, counted_batches):
        grid = build_grid(lshape5, 7)
        with pytest.raises(UnalignedGrid):
            correlation_chain_check(lshape5, lshape5.certificate, 1.0,
                                    Observable.cosine(1, 0), 5.0, grid)
        assert counted_batches == []


class TestChainFlowCache:
    """The grid keeps one direction's flowed points across chain checks."""

    @staticmethod
    def cold(table, cert, theta, h, t):
        # a fresh grid has nothing kept
        grid = build_grid(table, 20)
        return correlation_chain_check(table, cert, theta, h, t, grid)

    @staticmethod
    def kept(grid):
        """The grid's one kept direction: ``(theta, batch, t -> state)``."""
        return grid._kept["flow"]

    def test_warm_call_equals_cold_call(self, lshape5):
        cert = lshape5.certificate
        grid = build_grid(lshape5, 20)
        correlation_chain_check(lshape5, cert, 1.0, basis_function(2), 5.0,
                                grid)
        assert list(self.kept(grid)[2]) == [5.0]
        for j in (2, 3, 4):
            warm = correlation_chain_check(lshape5, cert, 1.0,
                                           basis_function(j), 5.0, grid)
            cold = self.cold(lshape5, cert, 1.0, basis_function(j), 5.0)
            assert repr(warm) == repr(cold)
        assert list(self.kept(grid)[2]) == [5.0]

    @pytest.mark.parametrize("change", [{"theta": 0.7}, {"t": 6.5}])
    def test_other_keys_never_hit(self, lshape5, change):
        cert = lshape5.certificate
        h = basis_function(3)
        grid = build_grid(lshape5, 20)
        correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)
        call = {"theta": 1.0, "t": 5.0} | change
        warm = correlation_chain_check(lshape5, cert, call["theta"], h,
                                       call["t"], grid)
        cold = self.cold(lshape5, cert, call["theta"], h, call["t"])
        assert repr(warm) == repr(cold)

    def test_other_table_is_a_mismatch(self, lshape5):
        # the 2x2 square holds the L-shape's grid points but flows them
        # differently, so a grid only serves its own table
        square = build_table(build_polygon("ENWS", [2] * 4))
        grid = build_grid(lshape5, 20)
        h = basis_function(2)
        correlation_chain_check(lshape5, lshape5.certificate, 1.0, h, 5.0,
                                grid)
        with pytest.raises(GridMismatch):
            correlation_chain_check(square, tiling_parameters(square), 1.0,
                                    h, 5.0, grid)
        assert list(self.kept(grid)[2]) == [5.0]
        # an equal table built separately is the grid's table
        twin = approximate_pq(lshape(), 5, Fraction(1, 10))
        assert twin is not lshape5
        warm = correlation_chain_check(twin, twin.certificate, 1.0, h, 5.0,
                                       grid)
        assert repr(warm) == repr(self.cold(lshape5, lshape5.certificate,
                                            1.0, h, 5.0))

    def test_kept_arrays_are_read_only(self, lshape5):
        grid = build_grid(lshape5, 20)
        for a in grid._flowed(1.0, 5.0):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[1]

    def test_one_direction_within_point_limit(self, lshape5, monkeypatch):
        import vhbilliards.spectral as spectral

        cert = lshape5.certificate
        h = basis_function(2)
        grid = build_grid(lshape5, 20)
        block = 4 * grid.npts
        monkeypatch.setattr(spectral, "BATCH_POINT_LIMIT", 2 * block + 1)
        for t in (1.0, 2.0, 3.0):
            correlation_chain_check(lshape5, cert, 1.0, h, t, grid)
            assert len(self.kept(grid)[2]) * block \
                <= spectral.BATCH_POINT_LIMIT
        assert list(self.kept(grid)[2]) == [1.0, 2.0]
        # an unkept time is flowed again, with the same result
        warm = correlation_chain_check(lshape5, cert, 1.0, h, 3.0, grid)
        assert repr(warm) == repr(self.cold(lshape5, cert, 1.0, h, 3.0))
        correlation_chain_check(lshape5, cert, 0.7, h, 2.0, grid)
        assert self.kept(grid)[0] == 0.7
        assert list(self.kept(grid)[2]) == [2.0]

    def test_resumed_times_equal_cold_calls(self, lshape5):
        cert = lshape5.certificate
        grid = build_grid(lshape5, 20)
        for j in (2, 5):
            for t in (5.0, 10.0, 20.0, 2.5, 20.0):
                warm = correlation_chain_check(lshape5, cert, 1.0,
                                               basis_function(j), t, grid)
                cold = self.cold(lshape5, cert, 1.0, basis_function(j), t)
                assert repr(warm) == repr(cold)

    def test_kept_states_stay_at_their_time(self, lshape5):
        # slope 1 sends grid points into the reflex vertex, so the batch
        # freezes more points after each kept time
        theta = math.pi / 4
        grid = build_grid(lshape5, 20)
        for t in (1.0, 2.0, 5.0):
            grid._flowed(theta, t)
        states = self.kept(grid)[2]
        frozen = [states[t][2].sum() for t in (1.0, 2.0, 5.0)]
        assert frozen[0] < frozen[1] < frozen[2]
        for t in (1.0, 2.0, 5.0):
            cold = build_grid(lshape5, 20)._flowed(theta, t)
            for kept, want in zip(states[t], cold):
                assert kept.tobytes() == want.tobytes()

    def test_one_batch_per_direction(self, lshape5, counted_batches):
        built = counted_batches
        cert = lshape5.certificate
        grid = build_grid(lshape5, 20)
        h = basis_function(3)

        def check(theta, t):
            correlation_chain_check(lshape5, cert, theta, h, t, grid)
            return len(built)

        # later times resume the direction's batch
        assert [check(1.0, t) for t in (5.0, 10.0, 20.0)] == [1, 1, 1]
        assert self.kept(grid)[1].target == 20.0
        # an earlier time starts again from 0; a kept time flows nothing
        assert [check(1.0, 2.5), check(1.0, 20.0), check(1.0, 4.0)] \
            == [2, 2, 2]
        assert [check(0.7, 5.0), check(0.7, 10.0)] == [3, 3]

    def test_batch_dropped_when_a_flow_raises(self, lshape5, monkeypatch):
        import vhbilliards.spectral as spectral

        built = []

        class SecondAdvanceRaises(spectral.FlowBatch):
            def __init__(self, *args, **kwargs):
                built.append(self)
                self.advances = 0
                super().__init__(*args, **kwargs)

            def advance_to(self, t_target):
                self.advances += 1
                if self.advances == 2:
                    raise EventBudgetExceeded("planted on the second advance")
                return super().advance_to(t_target)

        monkeypatch.setattr(spectral, "FlowBatch", SecondAdvanceRaises)
        cert = lshape5.certificate
        grid = build_grid(lshape5, 20)
        h = basis_function(2)
        correlation_chain_check(lshape5, cert, 1.0, h, 0.5, grid)
        with pytest.raises(EventBudgetExceeded):
            correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)
        assert self.kept(grid)[1] is None
        # the failed batch is not resumed: the same call flows a new batch
        # from 0 and reports what a cold call does
        warm = correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)
        assert len(built) == 2
        assert repr(warm) == repr(self.cold(lshape5, cert, 1.0, h, 5.0))

    def test_replace_copy_keeps_its_own_state(self, lshape5):
        # a frame change by dataclasses.replace must not share the kept
        # flow: the copy's direction must not answer the original's calls
        cert = lshape5.certificate
        h = basis_function(3)
        grid = build_grid(lshape5, 20)
        correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)
        twin = replace(grid)
        assert repr(correlation_chain_check(lshape5, cert, 0.7, h, 5.0, twin)) \
            == repr(self.cold(lshape5, cert, 0.7, h, 5.0))
        assert repr(correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)) \
            == repr(self.cold(lshape5, cert, 1.0, h, 5.0))

    def test_replace_copy_starts_with_nothing_kept(self, lshape5,
                                                   counted_batches):
        built = counted_batches
        cert = lshape5.certificate
        h = basis_function(2)
        grid = build_grid(lshape5, 20)
        correlation_chain_check(lshape5, cert, 1.0, h, 5.0, grid)
        twin = replace(grid)
        assert twin._kept == {}
        # the copy flows its own batch for the call the original has kept
        correlation_chain_check(lshape5, cert, 1.0, h, 5.0, twin)
        assert len(built) == 2
        assert self.kept(twin)[1] is built[1]
        assert self.kept(grid)[1] is built[0]

    def test_grid_is_frozen(self, lshape5):
        grid = build_grid(lshape5, 20)
        assert [f.name for f in fields(grid) if f.init] == [
            "table", "m", "xs", "ys", "ix", "iy", "width", "height"]
        with pytest.raises(FrozenInstanceError):
            grid.table = lshape()
        with pytest.raises(FrozenInstanceError):
            grid.width = 2.0

    def test_grid_equality_is_identity(self):
        sq = unit_square()
        a, b = build_grid(sq, 4), build_grid(sq, 4)
        assert a == a and a != b
        assert hash(a) == hash(a) and {a, b} == {a, b}
        # the points are compared by compatible, not by ==
        assert a.compatible(b)

    def test_anchors_once_per_table_and_certificate(self, monkeypatch):
        import vhbilliards.spectral as spectral

        calls = []

        def counted(table, cert):
            calls.append((id(table), cert))
            return tile_anchors(table, cert)

        monkeypatch.setattr(spectral, "tile_anchors", counted)
        table = approximate_pq(lshape(), 5, Fraction(1, 10))
        cert = table.certificate
        grid = build_grid(table, 20)
        for j in (1, 2, 3):
            for t in (1.0, 2.0):
                correlation_chain_check(table, cert, 1.0, basis_function(j),
                                        t, grid)
        assert len(calls) == 1
        finer = cert.refined(10)
        TileAverageObservable(basis_function(2), table, finer)
        TileAverageObservable(basis_function(2), table, finer)
        assert calls[1:] == [(id(table), finer)]
        twin = approximate_pq(lshape(), 5, Fraction(1, 10))
        TileAverageObservable(basis_function(2), twin, cert)
        assert len(calls) == 3


class TestInputErrors:
    """Invalid inputs raise typed errors before any flow."""

    def test_invalid_inputs_raise_billiard_errors(self, lshape5,
                                                  counted_batches):
        grid = build_grid(lshape5, 20)
        cert = lshape5.certificate
        h = basis_function(2)
        start = PhasePoint(0.5, 0.5, DirectionState(1.0))
        calls = [
            lambda: build_grid(lshape5, 0),
            lambda: flow(lshape5, start, -1.0),
            lambda: sweep_correlations(grid, [1.0], [h], [0.5, math.inf]),
            lambda: correlation_chain_check(lshape5, cert, 1.0, h, -1.0,
                                            grid),
            lambda: correlation_chain_check(lshape5, cert, 1.0, h, math.nan,
                                            grid),
        ]
        for call in calls:
            with pytest.raises(ConfigError) as err:
                call()
            assert isinstance(err.value, BilliardError)
            assert isinstance(err.value, ValueError)
        assert counted_batches == []

    def test_observables_without_a_needed_capability(self, square_grid):
        # only a trigonometric sum has a tile-average form, and only an
        # observable with a Lipschitz constant has an oscillation bound
        table = square_grid.table
        cert = tiling_parameters(table).refined(4)
        hd = TileAverageObservable(Observable.cosine(1, 0), table, cert)
        for bad in (chi(square_grid), hd):
            with pytest.raises(ConfigError, match=type(bad).__name__):
                TileAverageObservable(bad, table, cert)
            with pytest.raises(ConfigError, match="Lipschitz"):
                oscillation_bound_check(bad, cert, square_grid, eps=0.1)

    def test_certificate_off_the_table_lattice(self):
        table = build_table(build_polygon("ENWS", ["1/2", 1, "1/2", 1]))
        with pytest.raises(GeometryError, match="does not fit"):
            TileAverageObservable(Observable.cosine(1, 0), table,
                                  TilingCertificate(1, 1, 1))

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, 2.0,
                                       math.nan])
    def test_degenerate_direction_rejected_before_flowing(
            self, square_grid, counted_batches, theta):
        h = Observable.cosine(1, 0)
        with pytest.raises(DegenerateDirection):
            sweep_correlations(square_grid, [0.9, theta], [h], [0.5])
        with pytest.raises(DegenerateDirection):
            correlation(unit_square(), theta, h, [0.5], grid=square_grid)
        with pytest.raises(DegenerateDirection):
            correlation_chain_check(
                unit_square(), tiling_parameters(unit_square()), theta, h,
                0.5, square_grid)
        assert counted_batches == []


def dense_max_oscillation(h, cert, grid, delta):
    """Oracle: the largest tile-average difference over all class pairs
    closer than delta, from full ncls x ncls tables."""
    hd = tile_average(h, cert, grid)
    cls, rows = grid.tile_classes(cert)
    ncls = rows.shape[0]
    class_vals = np.empty(ncls)
    class_vals[cls] = hd.values
    my = grid.m // cert.q
    ux = ((np.arange(ncls) // my) + 0.5) / grid.m
    uy = ((np.arange(ncls) % my) + 0.5) / grid.m
    dist = np.hypot(ux[:, None] - ux[None, :], uy[:, None] - uy[None, :])
    close = (dist < delta) & (dist > 0)
    if not np.any(close):
        return 0.0
    diffs = np.abs(class_vals[:, None] - class_vals[None, :])
    return float(diffs[close].max())


class TestOscillationBound:
    def test_stencil_matches_dense_pairs(self, lshape5):
        rng = np.random.default_rng(8)
        square = unit_square()
        cases = [(square, tiling_parameters(square).refined(k), m)
                 for k, m in ((4, 24), (5, 40), (2, 30), (1, 12))]
        cases += [(lshape5, lshape5.certificate, m) for m in (20, 40)]
        rect = build_table(build_polygon("ENWS", [2, "1/2", 2, "1/2"]))
        cases += [(rect, tiling_parameters(rect).refined(3), 24)]
        checked = 0
        for table, cert, m in cases:
            grid = build_grid(table, m)
            hs = [basis_function(j) for j in (1, 2, 5, 6, 9)]
            hs += [Observable.cosine(int(rng.integers(-3, 4)), 2)]
            for h in hs:
                for eps in (0.05, 0.3, 1.0, 3.0, 50.0):
                    rep = oscillation_bound_check(h, cert, grid, eps)
                    if not rep.hypothesis_met:
                        continue
                    want = dense_max_oscillation(h, cert, grid, rep.delta)
                    assert rep.max_oscillation == want
                    assert rep.passed == (want <= rep.bound + 1e-12)
                    checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("plus, minus", [((0, 0), (0, 5)),
                                             ((1, 2), (6, 2)),
                                             ((7, 0), (0, 5)),
                                             ((2, 5), (5, 1))])
    def test_stencil_finds_the_one_extreme_pair(self, plus, minus):
        # the tile average is +1 and -1 on two in-tile cells and 0
        # elsewhere, so only that pair differs by 2
        table = build_table(build_polygon("ENWS", [2, "1/2", 2, "1/2"]))
        cert = tiling_parameters(table).refined(3)
        grid = build_grid(table, 24)
        mx, my = grid.m // cert.p, grid.m // cert.q

        class TwoCells:
            def evaluate(self, xs, ys, width, height):
                a = np.floor((xs - 1.0) * grid.m).astype(int) % mx
                b = np.floor((ys - 1.0) * grid.m).astype(int) % my
                return (1.0 * ((a == plus[0]) & (b == plus[1]))
                        - 1.0 * ((a == minus[0]) & (b == minus[1])))

            def lipschitz(self, width, height):
                return 1.0

        rep = oscillation_bound_check(TwoCells(), cert, grid, eps=10.0)
        assert rep.hypothesis_met
        assert rep.max_oscillation == 2.0
        assert rep.max_oscillation == dense_max_oscillation(
            TwoCells(), cert, grid, rep.delta)

    def test_constant_has_zero_oscillation(self, square_grid):
        cert = tiling_parameters(square_grid.table).refined(4)
        rep = oscillation_bound_check(Observable.constant(1.0), cert,
                                      square_grid, eps=0.1)
        assert rep.passed

    def test_cosine_with_fine_tiles(self):
        table = unit_square()
        grid = build_grid(table, 200)
        cert = tiling_parameters(table).refined(50)
        rep = oscillation_bound_check(Observable.cosine(1, 0), cert, grid,
                                      eps=0.1)
        assert rep.hypothesis_met
        assert rep.passed

    def test_coarse_tiles_report_hypothesis_not_met(self):
        table = unit_square()
        grid = build_grid(table, 40)
        cert = tiling_parameters(table).refined(4)
        rep = oscillation_bound_check(Observable.cosine(1, 0), cert, grid,
                                      eps=0.1)
        assert not rep.hypothesis_met
        assert not rep.passed

    def test_nontrivial_average_on_lshape(self, lshape5):
        # the tile average of this observable is nonzero on the L, so the
        # scan sees real variation
        grid = build_grid(lshape5, 40)
        h = Observable.cosine(1, 0)
        hd = tile_average(h, lshape5.certificate, grid)
        assert np.abs(hd.values).max() > 0.01
        rep = oscillation_bound_check(h, lshape5.certificate, grid, eps=1.0)
        assert rep.hypothesis_met
        assert rep.passed


class TestCesaro:
    def test_zero_gap(self, square_grid):
        s = correlation(unit_square(), 0.9, Observable.constant(1.0),
                        np.array([1.0, 2.0, 3.0]), grid=square_grid)
        np.testing.assert_allclose(s.cesaro_squared(), 0.0, atol=1e-24)

    def test_single_entry(self, square_grid):
        s = correlation(unit_square(), 0.9, Observable.cosine(1, 0),
                        np.array([1.0]), grid=square_grid)
        assert s.cesaro_squared()[0] == s.gap[0] ** 2

    def test_square_table_limit_one_eighth(self):
        # closed-form series: gap(t) = |cos(2 pi t cos(theta))| / 2
        theta = 1.0
        t = 0.25 * np.arange(1, 2001)
        from vhbilliards.spectral import CorrelationSeries
        series = CorrelationSeries(
            times=t,
            values=0.5 * np.cos(2 * math.pi * t * math.cos(theta)),
            level=0.0, norm_sq=0.5, dropped_fraction=0.0, theta=theta)
        assert abs(series.cesaro_squared()[-1] - 0.125) < 0.01


class TestExports:
    def test_csv_and_summary(self, tmp_path, square_grid):
        h = Observable.cosine(1, 0)
        s = correlation(unit_square(), 1.0, h, 0.5 * np.arange(1, 11),
                        grid=square_grid)
        path = tmp_path / "series.csv"
        series_to_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,C,gap,cesaro_sq,cesaro_abs"
        assert len(lines) == 11
        summary = series_summary(s, unit_square(), h, square_grid)
        assert summary["grid_m"] == 32
        assert summary["observable"] == h.descriptor()
        assert "table_hash" in summary

    def test_summary_describes_only_trigonometric_sums(self, square_grid,
                                                       lshape_grid):
        s = correlation(unit_square(), 1.0, Observable.cosine(1, 0), [0.5],
                        grid=square_grid)
        table = lshape_grid.table
        hd = TileAverageObservable(Observable.cosine(1, 0), table,
                                   tiling_parameters(table))
        for h, kind in ((hd, "TileAverageObservable"),
                        (chi(square_grid), "SampledObservable")):
            with pytest.raises(ConfigError, match=kind):
                series_summary(s, unit_square(), h, square_grid)
