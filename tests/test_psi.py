import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgl.errors import DomainError
from bgl.psi import (
    PGrid,
    PsiFunction,
    check_log_convex,
    constant,
    doob_factor,
    from_formula,
    from_table,
    power,
    product_psi,
    psi_doob,
    psi_fourier,
    psi_kappa,
    psi_kappa12,
    ratio,
)


def grid(lo=1.2, hi=40.0, n=40):
    return PGrid.log_spaced(lo, hi, n)


class TestEval:
    def test_constant(self):
        assert constant()(5.0) == 1.0

    def test_power(self):
        assert power(2.0)(3.0) == 9.0

    def test_interval_formula(self):
        # oracle: (2/(2-p))^{1/p} at p = 3/2 is 4^{2/3}
        psi = from_formula(lambda p: (2.0 / (2.0 - p)) ** (1.0 / p), 1.0, 2.0)
        assert psi(1.5) == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)

    def test_outside_support_raises(self):
        psi = from_formula(lambda p: (2.0 / (2.0 - p)) ** (1.0 / p), 1.0, 2.0)
        with pytest.raises(DomainError):
            psi(2.5)
        with pytest.raises(DomainError):
            psi(1.0)

    def test_nan_outside_every_support(self):
        with pytest.raises(DomainError):
            power(1.0)(math.nan)
        with pytest.raises(DomainError):
            power(1.0).check_support([2.0, math.nan])

    def test_psi_below_one_rejected_by_constant(self):
        with pytest.raises(DomainError):
            constant(0.5)

    def test_support_validation(self):
        with pytest.raises(DomainError):
            PsiFunction(0.5, 2.0, lambda p: p)
        with pytest.raises(DomainError):
            PsiFunction(2.0, 2.0, lambda p: p)


class TestProduct:
    def test_identity(self):
        z = product_psi(constant(), constant())
        assert z(7.0) == 1.0

    def test_pointwise(self):
        z = product_psi(power(1.0), power(1.0))
        assert z(3.0) == 9.0

    def test_doob_times_power(self):
        z = product_psi(doob_factor(), power(1.0))
        assert z(2.0) == pytest.approx(4.0)

    def test_empty_intersection(self):
        with pytest.raises(DomainError):
            product_psi(from_formula(lambda p: p, 1.0, 2.0),
                        from_formula(lambda p: p, 3.0, 4.0))

    def test_commutative_associative_on_grid(self):
        g = grid()
        a, b, c = power(0.5), doob_factor(), ratio(0.75)
        ab = product_psi(a, b)
        ba = product_psi(b, a)
        assert np.array_equal(ab.eval(g.points), ba.eval(g.points))
        left = product_psi(ab, c).eval(g.points)
        right = product_psi(a, product_psi(b, c)).eval(g.points)
        assert np.allclose(left, right, rtol=1e-15)


class TestKappaTransforms:
    def test_kappa_one(self):
        assert psi_kappa(constant(), 1.0)(2.0) == 2.0

    def test_kappa_half_on_power(self):
        assert psi_kappa(power(1.0), 0.5)(2.0) == pytest.approx(2.0 * 2.0 / 1.5)

    def test_kappa_to_zero_limit(self):
        g = grid()
        base = power(1.5)
        near = psi_kappa(base, 1e-9)
        assert np.allclose(near.eval(g.points), base.eval(g.points), rtol=1e-6)

    def test_kappa_beyond_support(self):
        with pytest.raises(DomainError):
            psi_kappa(from_formula(lambda p: p, 1.0, 2.0), 3.0)

    def test_kappa_dominates_psi(self):
        g = PGrid.log_spaced(2.1, 80, 50)
        base = power(0.5)
        lifted = psi_kappa(base, 2.0)
        assert np.all(lifted.eval(g.points) >= base.eval(g.points))


class TestKappa12:
    def test_larger_second_exponent_is_identity(self):
        base = power(1.0)
        assert psi_kappa12(base, 1.0, 2.0) is base

    def test_fractional_exponent(self):
        f = psi_kappa12(constant(), 2.0, 1.0)
        assert f(4.0) == pytest.approx(math.sqrt(2.0))

    def test_log_case_clamps_at_one(self):
        f = psi_kappa12(constant(), 1.0, 1.0)
        assert f(math.e + 1.0) == 1.0

    def test_empty_restriction(self):
        with pytest.raises(DomainError):
            psi_kappa12(from_formula(lambda p: p, 1.0, 2.0), 3.0, 1.0)


class TestDoobFourierWeights:
    def test_doob_at_two(self):
        assert psi_doob(constant())(2.0) == 2.0

    def test_doob_large_p_limit(self):
        assert psi_doob(constant())(1e7) == pytest.approx(1.0, abs=1e-6)

    def test_doob_on_power(self):
        assert psi_doob(power(1.0))(3.0) == pytest.approx(4.5)

    def test_doob_ratio_decreasing_to_one(self):
        g = grid()
        base = power(1.0)
        r = psi_doob(base).eval(g.points) / base.eval(g.points)
        assert np.all(np.diff(r) < 0) and r[-1] > 1.0

    def test_fourier_values(self):
        assert psi_fourier(constant())(2.0) == 16.0
        assert psi_fourier(constant())(3.0) == pytest.approx(81.0 / 4.0)
        assert psi_fourier(doob_factor())(2.0) == pytest.approx(32.0)

    def test_all_transforms_stay_above_one(self):
        g = PGrid.log_spaced(2.2, 60, 50)
        for psi in [psi_kappa(constant(), 2.0), psi_kappa12(constant(), 2.0, 1.0),
                    psi_doob(power(0.5)), psi_fourier(constant())]:
            assert np.all(psi.eval(g.points) >= 1.0)


def test_transform_supports_on_a_bounded_base():
    """Each weighted transform lives on (max(a, kappa, 1), b) of its base."""
    base = power(1.0, a=1.2, b=30.0)
    cases = [(psi_kappa(base, 0.5), 1.2), (psi_kappa(base, 2.0), 2.0),
             (psi_kappa12(base, 2.0, 1.0), 2.0), (psi_kappa12(base, 2.0, 2.0), 2.0),
             (psi_kappa12(base, 0.5, 0.5), 1.2), (psi_doob(base), 1.2),
             (psi_fourier(base), 1.2)]
    for psi, a in cases:
        assert (psi.a, psi.b) == (a, 30.0), psi.label


class TestTable:
    def test_interpolates_tabulated_points(self):
        pts = np.array([1.5, 2.0, 4.0, 8.0])
        vals = pts ** 1.3
        t = from_table(pts, vals)
        assert np.allclose(t.eval(pts), vals, rtol=1e-14)

    def test_log_linear_between_nodes(self):
        t = from_table([2.0, 4.0], [1.0, 9.0])
        assert t(3.0) == pytest.approx(3.0)  # geometric midpoint

    def test_nan_entries_rejected(self):
        with pytest.raises(DomainError):
            from_table([1.5, math.nan, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            from_table([1.5, 4.0], [1.0, math.nan])


class TestLogConvexity:
    def test_power_passes(self):
        rep = check_log_convex(power(2.0), grid())
        assert rep.passed

    def test_exp_passes_with_no_excess(self):
        psi = from_formula(np.exp, 1.0, math.inf, "exp")
        rep = check_log_convex(psi, grid())
        assert rep.passed and rep.worst_violation <= 1e-9

    def test_dent_fails(self):
        g = grid()
        dent_at = g.points[17]

        def dented(p):
            p = np.asarray(p, float)
            return np.where(np.abs(p - dent_at) < 1e-12, 0.8 * p, p)

        rep = check_log_convex(from_formula(dented, 1.0, math.inf, "dent"), g)
        assert not rep.passed and rep.worst_violation > 1e-3


class TestPGrid:
    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            PGrid(np.array([2.0]))

    def test_strictly_increasing(self):
        with pytest.raises(DomainError):
            PGrid(np.array([1.5, 1.5, 2.0]))

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError):
            PGrid(np.array([1.5, np.nan, 2.0]))

    def test_inside_respects_cap(self):
        g = PGrid.inside(constant(), n=16, p_max_cap=100.0)
        assert g.points[-1] == 100.0 and g.points[0] > 1.0

    def test_inside_finite_support(self):
        psi = from_formula(lambda p: p, 1.0, 2.0)
        g = PGrid.inside(psi, n=16)
        psi.check_support(g.points)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 3.0), kappa=st.floats(0.1, 1.0))
def test_product_of_constructors_stays_log_convex(beta, kappa):
    z = product_psi(power(beta), ratio(kappa))
    rep = check_log_convex(z, PGrid.log_spaced(1.3, 30, 24))
    assert rep.passed
