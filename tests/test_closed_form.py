import copy
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spiralcurv import (
    BadParameter,
    CurvatureProfile,
    DomainError,
    first_positive_circle_zero,
    geodesic_circle_curvature,
    geodesic_circle_curvature_dK,
    profile,
    spiral_curvature,
    spiral_curvature_abs_dK,
    spiral_curvature_dK,
    spiral_curvature_series,
    spiral_curvature_with_method,
)
from spiralcurv.closed_form import (
    METHOD_CLOSED_FORM,
    METHOD_SERIES,
    SERIES_WINDOW,
)

PI = math.pi

# reference values computed with a 250-bit oracle (tools/oracle.py)
COTH_1 = 1.3130352854993313
F_2_07 = 0.9282607252741535          # sqrt(2)*cot(0.7*sqrt(2))
FP_M1_1 = -0.29448681226651042       # d/dK of circle curvature at K=-1, r=1
FP_2_07 = -0.26872671414659869


class TestCircleCurvature:
    def test_flat_branch(self):
        assert geodesic_circle_curvature(0.0, 2.0) == 0.5
        assert geodesic_circle_curvature(0.0, 0.25) == 4.0

    def test_positive_branch(self):
        assert geodesic_circle_curvature(2.0, 0.7) == pytest.approx(F_2_07, rel=1e-15)
        # quarter turn on the unit sphere: cot(pi/2) = 0
        assert abs(geodesic_circle_curvature(1.0, PI / 2.0)) < 1e-15

    def test_negative_branch(self):
        assert geodesic_circle_curvature(-1.0, 1.0) == pytest.approx(COTH_1, rel=1e-15)
        assert geodesic_circle_curvature(-4.0, 0.5) == pytest.approx(2.0 * COTH_1, rel=1e-15)

    def test_large_radius_negative_K_saturates(self):
        # coth -> 1, so the curvature approaches sqrt(-K)
        assert geodesic_circle_curvature(-4.0, 40.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("K,r", [(1.0, PI), (1.0, 4.0), (4.0, PI / 2.0)])
    def test_conjugate_radius_rejected(self, K, r):
        with pytest.raises(DomainError):
            geodesic_circle_curvature(K, r)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(DomainError):
            geodesic_circle_curvature(1.0, r)


class TestSpiralCurvature:
    def test_factorization_is_exact(self):
        for K in (-2.0, 0.0, 1.5):
            for theta in (0.3, PI / 4.0, 2.9):
                assert spiral_curvature(K, 1.2, theta) == math.cos(
                    theta
                ) * geodesic_circle_curvature(K, 1.2)

    def test_flat_value(self):
        # cos(pi/3)/2; fl(cos(pi/3)) is one ulp above 1/2
        k = spiral_curvature(0.0, 2.0, PI / 3.0)
        assert abs(k - 0.25) <= 5.6e-17

    def test_radial_direction_vanishes(self):
        # cos(fl(pi/2)) ~ 6.1e-17 times cot(0.5) ~ 1.83
        assert abs(spiral_curvature(1.0, 0.5, PI / 2.0)) < 2e-16

    def test_method_tag_reflects_route(self):
        _, m = spiral_curvature_with_method(1e-6, 1.0, 0.5)
        assert m == METHOD_SERIES
        _, m = spiral_curvature_with_method(1.0, 1.0, 0.5)
        assert m == METHOD_CLOSED_FORM

    def test_continuous_across_zero(self):
        k0 = spiral_curvature(0.0, 1.5, PI / 3.0)
        assert abs(spiral_curvature(1e-30, 1.5, PI / 3.0) - k0) < 1e-15
        assert abs(spiral_curvature(-1e-30, 1.5, PI / 3.0) - k0) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, PI, -0.2, 4.0])
    def test_angle_domain(self, theta):
        with pytest.raises(DomainError):
            spiral_curvature(0.0, 1.0, theta)

    @pytest.mark.parametrize(
        "K,r", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf),
                (-1.0, math.inf), (1.0, math.nan)]
    )
    def test_non_finite_inputs_rejected(self, K, r):
        for fn in (spiral_curvature, spiral_curvature_dK):
            with pytest.raises(DomainError):
                fn(K, r, 0.7)
        with pytest.raises(DomainError):
            geodesic_circle_curvature(K, r)

    @pytest.mark.parametrize(
        "axis,fixed,hi", [("r", math.nan, 1.0), ("r", 0.0, math.inf), ("K", 1.0, math.inf),
                          ("K", math.inf, 1.0)]
    )
    def test_non_finite_profile_rejected(self, axis, fixed, hi):
        with pytest.raises(DomainError):
            profile(axis, fixed, 0.5, hi, 3, 0.7)


class TestSeries:
    def test_matches_direct_inside_validity(self):
        for K in (3e-3, -3e-3, 8e-2):
            r = 1.0
            direct = math.cos(0.9) * (
                math.sqrt(K) / math.tan(r * math.sqrt(K))
                if K > 0
                else math.sqrt(-K) / math.tanh(r * math.sqrt(-K))
            )
            s = spiral_curvature_series(K, r, 0.9, 6)
            assert s == pytest.approx(direct, rel=1e-10)

    def test_term_count_controls_error(self):
        K, r, theta = 5e-2, 1.0, 0.7
        direct = math.cos(theta) * math.sqrt(K) / math.tan(r * math.sqrt(K))
        e2 = abs(spiral_curvature_series(K, r, theta, 2) - direct)
        e4 = abs(spiral_curvature_series(K, r, theta, 4) - direct)
        assert e4 < e2

    def test_outside_validity_rejected(self):
        with pytest.raises(DomainError):
            spiral_curvature_series(0.5, 1.0, 0.7, 4)  # |K| r^2 = 0.5 > 0.1

    @pytest.mark.parametrize("terms", [1, 7, 2.5, "4"])
    def test_terms_validated(self, terms):
        with pytest.raises(BadParameter):
            spiral_curvature_series(1e-3, 1.0, 0.7, terms)


class TestDerivative:
    def test_exact_at_zero(self):
        for r in (0.25, 1.0, 3.0, 7.5):
            assert geodesic_circle_curvature_dK(0.0, r) == -(r / 3.0)

    def test_frozen_values(self):
        assert geodesic_circle_curvature_dK(-1.0, 1.0) == pytest.approx(FP_M1_1, rel=1e-14)
        assert geodesic_circle_curvature_dK(2.0, 0.7) == pytest.approx(FP_2_07, rel=1e-14)

    def test_matches_finite_difference(self):
        for K in (-2.0, -0.3, 0.4, 2.0):
            h = 1e-6
            fd = (
                geodesic_circle_curvature(K + h, 0.8)
                - geodesic_circle_curvature(K - h, 0.8)
            ) / (2.0 * h)
            assert geodesic_circle_curvature_dK(K, 0.8) == pytest.approx(fd, rel=1e-7)

    def test_spiral_derivative_factorization(self):
        assert spiral_curvature_dK(0.0, 1.5, PI / 3.0) == math.cos(PI / 3.0) * -(1.5 / 3.0)

    def test_abs_derivative_sign(self):
        # |k| decreases in K whenever the curve is not a radial geodesic
        assert spiral_curvature_abs_dK(1.0, 0.5, PI / 6.0) < 0.0
        assert spiral_curvature_abs_dK(1.0, 0.5, 2.5) < 0.0
        assert abs(spiral_curvature_abs_dK(1.0, 0.5, PI / 2.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            geodesic_circle_curvature_dK(4.0, 2.0)


class TestFirstZero:
    def test_values(self):
        assert first_positive_circle_zero(4.0) == pytest.approx(PI / 4.0, rel=1e-15)
        assert first_positive_circle_zero(0.0) == math.inf
        assert first_positive_circle_zero(-1.0) == math.inf

    def test_circle_curvature_changes_sign_past_zero(self):
        z = first_positive_circle_zero(1.0)
        assert geodesic_circle_curvature(1.0, z - 1e-3) > 0.0
        assert geodesic_circle_curvature(1.0, z + 1e-3) < 0.0


class TestProfile:
    def test_two_steps_hits_endpoints(self):
        prof = profile("r", 0.0, 0.5, 2.0, 2, PI / 4.0)
        xs = [x for x, _ in prof.samples]
        assert xs == [0.5, 2.0]

    def test_flat_radius_sweep_is_cos_over_r(self):
        theta = PI / 3.0
        prof = profile("r", 0.0, 0.25, 4.0, 17, theta)
        for x, k in prof.samples:
            assert k == math.cos(theta) * (1.0 / x)

    def test_method_column_flips_through_series(self):
        prof = profile("K", 1.0, -0.1, 0.1, 21, PI / 4.0)
        methods = prof.sample_methods
        assert methods[0] == METHOD_CLOSED_FORM
        assert methods[-1] == METHOD_CLOSED_FORM
        assert METHOD_SERIES in methods
        # the seam window is contiguous
        first = methods.index(METHOD_SERIES)
        last = len(methods) - 1 - methods[::-1].index(METHOD_SERIES)
        assert all(m == METHOD_SERIES for m in methods[first : last + 1])

    def test_domain_error_before_any_result(self):
        with pytest.raises(DomainError):
            profile("r", 4.0, 0.5, 3.0, 9, PI / 4.0)  # upper end past conjugate radius

    @pytest.mark.parametrize(
        "axis,steps,lo,hi",
        [("x", 5, 0.0, 1.0), ("r", 1, 0.5, 1.0), ("r", 5, 1.0, 0.5), ("K", 5, 1.0, 1.0)],
    )
    def test_bad_arguments(self, axis, steps, lo, hi):
        with pytest.raises(BadParameter):
            profile(axis, 0.0, lo, hi, steps, PI / 4.0)



class TestCurvatureProfileValue:
    """The tuple-backed CurvatureProfile behaves as the frozen dataclass it was."""

    FIELDS = ("axis", "samples", "theta", "fixed_value", "method", "sample_methods")

    def make(self):
        return profile("r", 1.0, 0.1, 2.0, 3, 0.7)

    def test_fields_in_order(self):
        prof = self.make()
        assert prof._fields == self.FIELDS
        assert tuple(prof) == tuple(getattr(prof, name) for name in self.FIELDS)
        assert prof.axis == "r" and prof.theta == 0.7 and prof.fixed_value == 1.0
        assert prof.method == METHOD_CLOSED_FORM
        assert isinstance(prof.samples, list) and isinstance(prof.sample_methods, list)

    def test_equality_only_between_profiles_with_equal_fields(self):
        prof = self.make()
        twin = CurvatureProfile("r", list(prof.samples), 0.7, 1.0, METHOD_CLOSED_FORM,
                                list(prof.sample_methods))
        assert prof == twin and not prof != twin
        assert prof != self.make()._replace(theta=0.8)
        assert prof != profile("r", 1.0, 0.1, 2.0, 4, 0.7)
        # a plain tuple with the same items is not a profile
        assert prof != tuple(prof) and not prof == tuple(prof)
        assert tuple(prof) != prof
        assert prof != list(prof) and prof != "r"

    @pytest.mark.parametrize("name", FIELDS + ("extra",))
    def test_fields_cannot_be_assigned(self, name):
        prof = self.make()
        with pytest.raises(AttributeError):
            setattr(prof, name, 0.0)

    def test_unhashable_like_the_dataclass(self):
        # a frozen dataclass hashes its fields, and samples is a list
        with pytest.raises(TypeError, match="list"):
            hash(self.make())

    def test_repr_names_every_field(self):
        samples = [(0.5, 1.0), (2.0, 0.25)]
        prof = CurvatureProfile("K", samples, 0.5, 2.0, METHOD_SERIES, ["series", "series"])
        assert repr(prof) == (
            "CurvatureProfile(axis='K', samples=[(0.5, 1.0), (2.0, 0.25)], theta=0.5, "
            "fixed_value=2.0, method='series', sample_methods=['series', 'series'])"
        )

    def test_sample_methods_defaults_to_a_new_list(self):
        a = CurvatureProfile("r", [], 0.5, 0.0, METHOD_CLOSED_FORM)
        b = CurvatureProfile(axis="r", samples=[], theta=0.5, fixed_value=0.0,
                             method=METHOD_CLOSED_FORM)
        assert a.sample_methods == [] and b.sample_methods == []
        a.sample_methods.append("series")
        assert b.sample_methods == []
        assert a.sample_methods is not b.sample_methods

    def test_samples_stays_a_mutable_list(self):
        prof = self.make()
        x, k = prof.samples[1]
        prof.samples[1] = (x, math.nextafter(k, math.inf))
        assert prof.samples[1][1] > k

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)),
        lambda p: pickle.loads(pickle.dumps(p, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_pickle_and_copy_round_trip(self, clone):
        prof = self.make()
        again = clone(prof)
        assert type(again) is CurvatureProfile
        assert again == prof
        assert repr(again) == repr(prof)


admissible = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=PI - 0.05),
).filter(lambda t: not (t[0] > 0.0 and t[1] * math.sqrt(t[0]) >= PI - 1e-9))


@settings(deadline=None, max_examples=150)
@given(admissible)
def test_factorization_property(q):
    K, r, theta = q
    assert spiral_curvature(K, r, theta) == math.cos(theta) * geodesic_circle_curvature(K, r)


@settings(deadline=None, max_examples=150)
@given(admissible, st.floats(min_value=1e-4, max_value=1.0))
def test_monotone_decreasing_in_K(q, dk):
    K, r, theta = q
    assume(not (K + dk > 0.0 and r * math.sqrt(K + dk) >= PI - 1e-9))
    assert geodesic_circle_curvature(K + dk, r) < geodesic_circle_curvature(K, r)


@settings(deadline=None, max_examples=100)
@given(admissible)
def test_sign_follows_cos_theta_inside_first_zero(q):
    K, r, theta = q
    assume(r < first_positive_circle_zero(K) - 1e-6)
    assume(abs(theta - PI / 2.0) > 1e-3)
    k = spiral_curvature(K, r, theta)
    assert (k > 0.0) == (math.cos(theta) > 0.0)


class TestOverflowEdges:
    def test_subnormal_radius_is_domain_error(self):
        # 1/r overflows below r ~ 5.6e-309; the result used to be inf
        for r in (1e-320, 5e-324, 5e-309):
            with pytest.raises(DomainError):
                spiral_curvature(0.0, r, PI / 4.0)
            with pytest.raises(DomainError):
                geodesic_circle_curvature(-1.0, r)
            with pytest.raises(DomainError):
                spiral_curvature_series(0.0, r, PI / 4.0, 4)

    def test_smallest_radii_with_a_finite_curvature_are_unchanged(self):
        for r in (6e-309, 1e-300, 1e-200):
            assert spiral_curvature(0.0, r, PI / 3.0) == math.cos(PI / 3.0) * (1.0 / r)
            assert geodesic_circle_curvature(1e-5, r) == 1.0 / r

    def test_dK_far_out_on_the_coth_branch_is_the_limit(self):
        # b = r sqrt(-K) = 1000: sinh(b) overflows, b / sinh(b)^2 underflows to 0
        for K, r in ((-1e6, 1.0), (-1.0, 800.0), (-1e300, 1e-140)):
            assert geodesic_circle_curvature_dK(K, r) == -0.5 / math.sqrt(-K)
        assert math.isfinite(spiral_curvature_dK(-1e6, 1.0, 0.7))

    @pytest.mark.parametrize("b", [0.5, 20.0, 355.0, 356.0, 399.9, 400.0, 400.1, 700.0, 710.0])
    def test_dK_guard_keeps_every_value_sinh_could_give(self, b):
        # where sinh(b) is finite the guarded derivative is the plain formula, bit for bit
        K = -4.0
        sh = math.sinh(b)
        plain = (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b) + b / (sh * sh))
        assert geodesic_circle_curvature_dK(K, b / 2.0) == plain
