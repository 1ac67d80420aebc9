import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asuq import DataError, DegeneracyError, hyshot_space
from asuq.hyshot import (
    P_RATIO,
    T_RATIO,
    ShotRecord,
    TransitionSpec,
    area_mach_ratio,
    build_inflow,
    eddy_growth_ratio,
    equivalence_ratio,
    fit_T0_H0,
    load_shots,
    mach_from_area_ratio,
    nominal_dissipation_length,
    phi_regime,
    stagnation_to_static,
    transition_range,
    turbulence_inflow,
)


class TestShotData:
    def test_bundled_table_shape(self):
        shots = load_shots()
        assert len(shots) == 13
        assert sum(s.excluded for s in shots) == 4
        assert {s.id for s in shots if s.excluded} == {804, 816, 817, 828}

    def test_fuel_off_shots_have_no_plenum_pressure(self):
        shots = {s.id: s for s in load_shots()}
        for sid in (805, 807, 808, 814):
            assert shots[sid].PH2_bar is None
        assert shots[810].PH2_bar == 5.73

    def test_missing_file_raises(self):
        with pytest.raises(DataError):
            load_shots("/nonexistent/shots.csv")

    def test_bad_row_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,P0_bar,T0_K,H0_MJkg,PH2_bar,phi,excluded\n"
                        "805,178.05,xxx,3.25,,,0\n")
        with pytest.raises(DataError, match="row 2"):
            load_shots(path)

    def test_indented_comment_is_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,P0_bar,T0_K,H0_MJkg,PH2_bar,phi,excluded\n"
                        "1,178.0,2742,3.25,,,0\n  # note\n"
                        "2,181.0,2780,3.30,,,1\n")
        assert [(s.id, s.excluded) for s in load_shots(path)] == [
            (1, False), (2, True)]


class TestT0H0Regression:
    def test_nine_shot_fit_reproduces_reference(self):
        intercept, slope = fit_T0_H0(load_shots())
        assert intercept == pytest.approx(508.1386, abs=1.0)
        assert slope == pytest.approx(6.8718e-4, abs=1e-6)

    def test_two_collinear_points_exact(self):
        shots = [
            ShotRecord(id=1, P0_bar=100, T0_K=1000.0, H0_MJkg=1.0),
            ShotRecord(id=2, P0_bar=100, T0_K=1500.0, H0_MJkg=2.0),
        ]
        intercept, slope = fit_T0_H0(shots)
        assert intercept == pytest.approx(500.0, abs=1e-9)
        assert slope == pytest.approx(500.0 / 1e6, rel=1e-12)

    def test_including_excluded_shots_changes_fit(self):
        shots = load_shots()
        fit9 = fit_T0_H0(shots)
        fit13 = fit_T0_H0(shots, include_excluded=True)
        assert abs(fit13[0] - fit9[0]) > 1.0

    def test_order_invariance(self):
        shots = load_shots()
        a = fit_T0_H0(shots)
        b = fit_T0_H0(list(reversed(shots)))
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_enthalpy_rescaling_transforms_slope_reciprocally(self):
        shots = load_shots()
        scaled = [
            ShotRecord(id=s.id, P0_bar=s.P0_bar, T0_K=s.T0_K,
                       H0_MJkg=s.H0_MJkg * 1000.0, excluded=s.excluded)
            for s in shots
        ]
        a0, b0 = fit_T0_H0(shots)
        a1, b1 = fit_T0_H0(scaled)
        assert a1 == pytest.approx(a0, rel=1e-9)
        assert b1 == pytest.approx(b0 / 1000.0, rel=1e-9)

    def test_too_few_usable_shots(self):
        shots = [ShotRecord(id=1, P0_bar=1, T0_K=2000, H0_MJkg=3.0)]
        with pytest.raises(DegeneracyError):
            fit_T0_H0(shots)


class TestStagnationToStatic:
    def test_pressure_ratio(self):
        P, _, _, _ = stagnation_to_static(17.73e6, 2735.0, 3.24e6, 0.0)
        assert P == pytest.approx(2056.68, rel=1e-12)

    def test_zero_angle_velocity_components(self):
        _, _, Ux, Uy = stagnation_to_static(17.73e6, 2735.0, 3.24e6, 0.0)
        assert Uy == 0.0
        assert Ux == pytest.approx(1.332 * math.sqrt(3.24e6), rel=1e-12)

    def test_velocity_magnitude_at_nominal_enthalpy(self):
        _, _, Ux, Uy = stagnation_to_static(17.73e6, 2735.0, 3.2415e6, 3.6)
        assert math.hypot(Ux, Uy) == pytest.approx(2398.0, abs=1.0)

    def test_positive_angle_pitches_flow_down(self):
        _, _, _, Uy = stagnation_to_static(17.73e6, 2735.0, 3.24e6, 3.6)
        assert Uy < 0

    def test_temperature_ratio(self):
        _, T, _, _ = stagnation_to_static(17.73e6, 2735.73, 3.24e6, 0.0)
        assert T == pytest.approx(0.0978 * 2735.73, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DataError):
            stagnation_to_static(0.0, 2735.0, 3.24e6, 0.0)


class TestTurbulenceInflow:
    def test_kinetic_energy(self):
        k, _ = turbulence_inflow(100.0, 0.1, 1.0)
        assert k == pytest.approx(150.0, rel=1e-12)

    def test_specific_dissipation(self):
        k, omega = turbulence_inflow(100.0, 0.1, 1.0)
        assert omega == pytest.approx(math.sqrt(150.0) / 0.09 ** 0.25, rel=1e-12)
        assert omega == pytest.approx(22.36, abs=0.01)

    def test_zero_intensity_is_laminar_with_warning(self):
        with pytest.warns(UserWarning, match="laminar"):
            k, omega = turbulence_inflow(100.0, 0.0, 1.0)
        assert k == 0.0 and omega == 0.0

    def test_quadratic_scaling_in_velocity_and_intensity(self):
        k0, w0 = turbulence_inflow(50.0, 0.01, 0.245)
        k_u, _ = turbulence_inflow(100.0, 0.01, 0.245)
        k_i, _ = turbulence_inflow(50.0, 0.02, 0.245)
        assert k_u == pytest.approx(4.0 * k0, rel=1e-12)
        assert k_i == pytest.approx(4.0 * k0, rel=1e-12)

    def test_omega_scales_as_sqrt_k_and_inverse_length(self):
        k0, w0 = turbulence_inflow(50.0, 0.01, 0.245)
        _, w_2L = turbulence_inflow(50.0, 0.01, 0.490)
        _, w_2U = turbulence_inflow(100.0, 0.01, 0.245)
        assert w_2L == pytest.approx(w0 / 2.0, rel=1e-12)
        assert w_2U == pytest.approx(w0 * 2.0, rel=1e-12)  # sqrt(4 k0) = 2 sqrt(k0)


class TestAreaMach:
    def test_sonic_throat(self):
        assert area_mach_ratio(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_nominal_tunnel_condition(self):
        assert area_mach_ratio(7.4, 1.4) == pytest.approx(133.0, abs=1.0)

    def test_known_value_at_mach_two(self):
        # classic gas-table value for gamma = 1.4
        assert area_mach_ratio(2.0, 1.4) == pytest.approx(1.6875, abs=1e-4)

    def test_monotone_branches(self):
        sup = [area_mach_ratio(m) for m in np.linspace(1.001, 10, 40)]
        sub = [area_mach_ratio(m) for m in np.linspace(0.05, 0.999, 40)]
        assert np.all(np.diff(sup) > 0)
        assert np.all(np.diff(sub) < 0)
        for m in (0.3, 0.9, 1.2, 5.0):
            if m != 1.0:
                assert area_mach_ratio(m) > 1.0 + 1e-12

    def test_inverse_round_trip(self):
        ratio = area_mach_ratio(2.0, 1.4)
        assert mach_from_area_ratio(ratio, 1.4) == pytest.approx(2.0, abs=1e-9)

    def test_inverse_of_nominal_ratio(self):
        assert mach_from_area_ratio(area_mach_ratio(7.4)) == pytest.approx(
            7.4, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.floats(1.0, 1e3), gamma=st.floats(1.05, 1.8))
    def test_bisection_to_adjacent_floats_equals_200_halvings(self, ratio,
                                                              gamma):
        def fixed_count(ratio, gamma):
            # The earlier loop: exactly 200 halvings of [1, 50].
            lo, hi = 1.0, 50.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if area_mach_ratio(mid, gamma) < ratio:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert mach_from_area_ratio(ratio, gamma) == fixed_count(ratio, gamma)

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(1.0, 3.0, exclude_min=True))
    @example(gamma=1.4866024158637785)  # rounded to 1 - 3e-16 before
    @example(gamma=1.0001)  # the ratio at Mach 50 is past the float range
    def test_sonic_point_is_exact_and_round_trips(self, gamma):
        assert area_mach_ratio(1.0, gamma) == 1.0
        assert mach_from_area_ratio(area_mach_ratio(1.0, gamma), gamma) == 1.0

    def test_ratio_past_the_float_range_is_inf(self):
        assert area_mach_ratio(50.0, 1.0001) == math.inf
        assert math.isfinite(area_mach_ratio(50.0, 1.004))  # core**e alone overflows

    def test_domain_checks(self):
        with pytest.raises(DataError):
            area_mach_ratio(-1.0)
        with pytest.raises(DataError):
            area_mach_ratio(2.0, gamma=1.0)
        with pytest.raises(DataError):
            mach_from_area_ratio(0.5)
        with pytest.raises(DataError, match="not reachable below Mach 50"):
            mach_from_area_ratio(area_mach_ratio(60.0))


class TestEddyGrowth:
    def test_cube_of_ratio_matches_density_ratio(self):
        growth = eddy_growth_ratio()
        density_ratio = (1.0 / P_RATIO) * T_RATIO
        assert growth ** 3 == pytest.approx(density_ratio, rel=1e-12)

    def test_nominal_length_scale_near_table_value(self):
        L = nominal_dissipation_length()
        assert abs(L - 0.245) / 0.245 < 0.03

    def test_throat_size_chain(self):
        # 610 mm test section at area ratio ~133 gives a ~53 mm throat
        throat = 0.610 / math.sqrt(area_mach_ratio(7.4))
        assert throat == pytest.approx(0.053, abs=0.001)


class TestTransition:
    def test_ramp_table_row(self):
        lo, hi = transition_range(TransitionSpec(x_t0=0.145, varphi=0.2))
        assert lo == pytest.approx(0.087, rel=1e-12)
        assert hi == pytest.approx(0.203, rel=1e-12)

    def test_cowl_table_row(self):
        lo, hi = transition_range(TransitionSpec(x_t0=0.050, varphi=0.2))
        assert lo == pytest.approx(0.030, rel=1e-12)
        assert hi == pytest.approx(0.070, rel=1e-12)

    def test_zero_perturbation_collapses(self):
        lo, hi = transition_range(TransitionSpec(x_t0=0.1, varphi=0.0))
        assert lo == hi == 0.1

    def test_midpoint_is_nominal(self):
        spec = TransitionSpec(x_t0=0.145, varphi=0.2)
        lo, hi = transition_range(spec)
        assert (lo + hi) / 2 == pytest.approx(0.145, rel=1e-14)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            TransitionSpec(x_t0=-0.1)
        with pytest.raises(DataError):
            TransitionSpec(x_t0=0.1, varphi=0.5)


class TestEquivalenceRatio:
    def test_stoichiometric_by_construction(self):
        assert equivalence_ratio(1.0, 8.0) == pytest.approx(1.0, rel=1e-12)

    def test_no_fuel(self):
        assert equivalence_ratio(0.0, 5.0) == 0.0

    def test_zero_oxidizer_rejected(self):
        with pytest.raises(DataError):
            equivalence_ratio(1.0, 0.0)

    def test_regime_classification(self):
        assert phi_regime(0.30) == "as-designed"
        assert phi_regime(0.39) == "regime-boundary"
        assert phi_regime(0.45) == "regime-boundary"


class TestBuildInflow:
    @pytest.fixture
    def space(self):
        return hyshot_space()

    def test_nominal_point(self, space):
        cond = build_inflow(np.zeros(7), space)
        assert cond.P == pytest.approx(2056.68, abs=0.1)
        intercept, slope = fit_T0_H0(load_shots())
        T0_nominal = intercept + slope * 3.24155e6
        assert cond.T == pytest.approx(0.0978 * T0_nominal, rel=1e-12)
        assert cond.U_mag == pytest.approx(1.332 * math.sqrt(3.24155e6), rel=1e-9)
        assert cond.x_t_ramp == pytest.approx(0.145, rel=1e-12)
        assert cond.x_t_cowl == pytest.approx(0.050, rel=1e-12)
        assert cond.alpha_deg == pytest.approx(3.6, rel=1e-12)

    def test_angle_of_attack_extreme(self, space):
        x = np.zeros(7)
        x[2] = 1.0
        cond = build_inflow(x, space)
        assert cond.alpha_deg == pytest.approx(4.6, rel=1e-12)

    def test_turbulence_intensity_scaling(self, space):
        x = np.zeros(7)
        nominal = build_inflow(x, space)
        x[3] = -1.0
        low = build_inflow(x, space)
        assert low.k / nominal.k == pytest.approx((0.001 / 0.01) ** 2, rel=1e-9)

    def test_wrong_space_names_rejected(self, space):
        from asuq import ParameterSpace, unit_space

        with pytest.raises(DataError, match="schema|names"):
            build_inflow(np.zeros(7), unit_space(7))
        # The bundled names in another order are refused too.
        with pytest.raises(DataError, match="schema|names"):
            build_inflow(np.zeros(7), ParameterSpace(space.params[::-1]))

    def test_params_object_keys(self, space):
        cond = build_inflow(np.zeros(7), space)
        assert set(cond.to_params()) == {
            "P_Pa", "T_K", "Ux_ms", "Uy_ms", "k_m2s2", "omega_1s",
            "xt_ramp_m", "xt_cowl_m",
        }
        assert all(isinstance(v, float) for v in cond.to_params().values())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: ShotRecord(1, NAN, 2700.0, 3.2),
    lambda: ShotRecord(1, 178.0, NAN, 3.2),
    lambda: ShotRecord(1, 178.0, 2700.0, INF),
    lambda: ShotRecord(1, 178.0, 2700.0, 3.2, PH2_bar=NAN),
    lambda: ShotRecord(1, 178.0, 2700.0, 3.2, phi=INF),
    lambda: TransitionSpec(x_t0=NAN),
    lambda: TransitionSpec(x_t0=INF),
    lambda: stagnation_to_static(NAN, 2735.0, 3.24e6, 0.0),
    lambda: stagnation_to_static(17.7e6, INF, 3.24e6, 0.0),
    lambda: stagnation_to_static(17.7e6, 2735.0, 3.24e6, NAN),
    lambda: turbulence_inflow(NAN, 0.01, 0.2),
    lambda: turbulence_inflow(2000.0, NAN, 0.01),
    lambda: turbulence_inflow(2000.0, 0.01, NAN),
    lambda: turbulence_inflow(2000.0, INF, 0.01),
    lambda: area_mach_ratio(NAN),
    lambda: area_mach_ratio(INF),
    lambda: area_mach_ratio(2.0, NAN),
    lambda: area_mach_ratio(2.0, INF),
    lambda: mach_from_area_ratio(NAN),
    lambda: mach_from_area_ratio(INF),
    lambda: mach_from_area_ratio(2.0, NAN),
    lambda: equivalence_ratio(NAN, 1.0),
    lambda: equivalence_ratio(1.0, NAN),
    lambda: equivalence_ratio(INF, 1.0),
    lambda: phi_regime(NAN),
    lambda: phi_regime(INF),
    lambda: phi_regime(-INF),
    lambda: build_inflow([0.0, NAN, 0.0, 0.0, 0.0, 0.0, 0.0], hyshot_space()),
    lambda: build_inflow([INF, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], hyshot_space()),
], ids=["shot-P0", "shot-T0", "shot-H0-inf", "shot-PH2", "shot-phi-inf",
        "x_t0", "x_t0-inf", "stagnation-P0",
        "stagnation-T0-inf", "stagnation-alpha", "turbulence-U",
        "turbulence-I", "turbulence-L", "turbulence-I-inf", "area-M",
        "area-M-inf", "area-gamma", "area-gamma-inf", "mach-ratio",
        "mach-ratio-inf", "mach-gamma", "phi-fuel", "phi-oxidizer",
        "phi-fuel-inf", "regime-phi", "regime-phi-inf", "regime-phi-minus-inf",
        "inflow-x", "inflow-x-inf"])
def test_non_finite_input_raises(call):
    with pytest.raises(DataError):
        call()


SHOTS_HEADER = "id,P0_bar,T0_K,H0_MJkg,PH2_bar,phi,excluded\n"
# Four shots, the second and fourth flagged with neither 0 nor 1.
SHOTS_EXCLUDED_2_AND_MINUS_1 = SHOTS_HEADER + (
    "1,178.0,2742,3.25,,,0\n2,181.0,2780,3.30,,,2\n"
    "3,175.0,2716,3.21,,,0\n4,179.0,2760,3.28,,,-1\n")


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: ShotRecord(7, -1.0, 2700.0, 3.2), DataError,
     "shot 7: P0, T0, H0 must be finite and positive"),
    (lambda tmp: load_shots(tmp / "header.csv"), DataError,
     "header must contain"),
    (lambda tmp: load_shots(tmp / "empty.csv"), DataError, "no shot rows"),
    (lambda tmp: load_shots(tmp / "excluded.csv"), DataError,
     "row 3: excluded must be 0 or 1, got 2"),
    # A bad row is named by its line in the file, comments and blanks
    # included.
    (lambda tmp: load_shots(tmp / "commented.csv"), DataError,
     "row 5: excluded must be 0 or 1, got 2"),
    (lambda tmp: load_shots(tmp / "indented.csv"), DataError,
     "row 4: excluded must be 0 or 1, got 2"),
    (lambda tmp: fit_T0_H0([ShotRecord(1, 178.0, 2700.0, 3.25),
                            ShotRecord(2, 178.0, 2800.0, 3.25)]),
     DegeneracyError, "all shots share one enthalpy"),
    # The enthalpies differ by one ulp: below lstsq's rank cut-off.
    (lambda tmp: fit_T0_H0([ShotRecord(1, 178.0, 2700.0, 3.25),
                            ShotRecord(2, 178.0, 2800.0,
                                       math.nextafter(3.25, 4.0))]),
     DegeneracyError, "rank-deficient shot regression"),
    (lambda tmp: turbulence_inflow(0.0, 0.01, 0.2), DataError,
     "velocity magnitude and length scale must be finite and positive"),
    (lambda tmp: turbulence_inflow(2000.0, -0.01, 0.2), DataError,
     "turbulence intensity must be finite and >= 0"),
    (lambda tmp: equivalence_ratio(-1.0, 8.0), DataError,
     "fuel mass flow must be finite and >= 0"),
], ids=["shot", "shots-header", "shots-empty", "shots-excluded",
        "shots-commented", "shots-indented", "one-enthalpy", "rank",
        "velocity", "intensity", "fuel"])
def test_input_check_raises(tmp_path, call, error, message):
    (tmp_path / "header.csv").write_text("id,P0_bar\n1,178.0\n")
    (tmp_path / "empty.csv").write_text(SHOTS_HEADER)
    (tmp_path / "excluded.csv").write_text(SHOTS_EXCLUDED_2_AND_MINUS_1)
    (tmp_path / "commented.csv").write_text(
        SHOTS_HEADER + "1,178.0,2742,3.25,,,0\n# note\n\n2,181.0,2780,3.30,,,2\n")
    (tmp_path / "indented.csv").write_text(
        SHOTS_HEADER + "1,178.0,2742,3.25,,,0\n  # note\n2,181.0,2780,3.30,,,2\n")
    with pytest.raises(error, match=message):
        call(tmp_path)
