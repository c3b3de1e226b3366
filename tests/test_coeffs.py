import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fuchswave.coeffs import (BOUNDED, COMPLEX_PAIR, DOUBLE_ROOT, LOG, PURE,
                              REAL_LARGE, REAL_SMALL, CoefficientModel,
                              RegimeUnsupportedError, TabulatedCoefficient,
                              UnsupportedOrderError, check_hypotheses,
                              classify_regime, example_bounded, example_log,
                              predicted_decay)


def test_eval_pure_scale_invariant_values():
    model = CoefficientModel(b0=2.0, m0=0.0)
    assert (model.b_derivative(1.0, 0), model.m_derivative(1.0, 0)) == (1.0, 0.0)
    model = CoefficientModel(b0=2.0, m0=3.0)
    db, dm = model.b_derivative(0.0, 1), model.m_derivative(0.0, 1)
    assert db == -2.0 and dm == -6.0


def test_eval_log_family_at_zero():
    model = example_log(b0=1.0, m0=0.0, b1=1.0, m1=0.0, gamma=1.0)
    b0_val = model.b_derivative(0.0, 0)
    assert b0_val == pytest.approx(1.0 + 1.0 / math.e, rel=1e-14)


def test_order_above_budget_rejected():
    model = CoefficientModel(b0=1.0, m0=1.0, ell=2)
    with pytest.raises(UnsupportedOrderError):
        model.b_derivative(1.0, 3)


@pytest.mark.parametrize("order,h,rel", [(1, 1e-4, 1e-5), (2, 1e-3, 1e-4),
                                         (3, 1e-2, 1e-3)])
def test_log_family_jets_match_finite_differences(order, h, rel):
    model = example_log(b0=2.0, m0=1.0, b1=0.7, m1=0.3, gamma=0.8)
    t = 3.0
    exact = model.b_derivative(t, order)
    if order == 1:
        fd = (model.b(t + h) - model.b(t - h)) / (2 * h)
    elif order == 2:
        fd = (model.b(t + h) - 2 * model.b(t) + model.b(t - h)) / h ** 2
    else:
        fd = (model.b(t + 2 * h) - 2 * model.b(t + h)
              + 2 * model.b(t - h) - model.b(t - 2 * h)) / (2 * h ** 3)
    assert exact == pytest.approx(fd, rel=rel)


def test_log_family_jets_match_mpmath():
    # the b term amp/((e+t) L^gamma) and the m term amp/((e+t)^2 L^gamma),
    # L = ln(e+t), against mpmath's 50-digit numerical derivatives
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ts = [0.0, 0.5, 3.0, 47.0, 1e3, 1e6]
    for gamma in (0.6, 0.8, 0.9, 1.0):
        model = example_log(b0=0.0, m0=0.0, b1=0.7, m1=0.3, gamma=gamma, ell=8)
        for jet, amp, power in ((model.b_jet(np.array(ts), 8), 0.7, 1),
                                (model.m_jet(np.array(ts), 8), 0.3, 2)):
            def f(x):
                return amp / ((mpmath.e + x) ** power * mpmath.log(mpmath.e + x) ** gamma)
            for i, t in enumerate(ts):
                for k, ref in enumerate(mpmath.diffs(f, mpmath.mpf(t), 8)):
                    assert abs(float((jet[k, i] - ref) / ref)) <= 1e-13, (gamma, power, t, k)


def test_lambda_pure_closed_form():
    model = CoefficientModel(b0=2.0, m0=0.0)
    assert model.lam(3.0) == pytest.approx(4.0, abs=1e-14)
    ts = np.array([0.0, 1.0, 10.0, 1e4])
    assert np.allclose(model.lam(ts), (1.0 + ts) ** 1.0)


def test_lambda_at_zero_is_one():
    for model in (CoefficientModel(b0=3.0, m0=1.0),
                  example_bounded(2.0, 1.0),
                  example_log(2.0, 1.0)):
        assert model.lam(0.0) == 1.0


@pytest.mark.parametrize("model", [
    example_bounded(2.0, 1.0, c1=1.0, p1=0.5, c2=0.5, p2=0.25),
    example_log(2.0, 1.0, b1=1.0, m1=1.0, gamma=1.0),
    example_log(1.5, 0.5, b1=0.4, m1=0.2, gamma=0.75),
])
def test_lambda_closed_form_against_quadrature_oracle(model):
    # independent quadrature oracle for exp(0.5 int_0^t b)
    for t in (0.5, 7.0, 431.0):
        integral, _ = quad(lambda u: float(model.b(u)), 0.0, t,
                           epsabs=1e-13, epsrel=1e-12, limit=300)
        assert model.lam(t) == pytest.approx(math.exp(0.5 * integral),
                                                      rel=1e-9)


def test_lambda_log_family_carries_subpolynomial_factor():
    # with the gamma = 1 logarithmic perturbation the quotient by (1+t)^(b0/2)
    # grows like ln(e+t)^(b1/2); the quadrature oracle confirms it
    model = example_log(2.0, 0.0, b1=1.0, m1=0.0, gamma=1.0)
    for t in (1e2, 1e4, 1e6):
        expected = (1.0 + t) ** 1.0 * math.log(math.e + t) ** 0.5
        assert model.lam(t) == pytest.approx(expected, rel=1e-12)


EIGHT_CELLS = {
    (1.0, 1.0): (-1 + 1j, -1 - 1j, COMPLEX_PAIR),
    (1.0, 0.01): (-1 + 0.1j, -1 - 0.1j, COMPLEX_PAIR),
    (2.0, 0.75): (-1.5 + math.sqrt(0.5) * 1j, -1.5 - math.sqrt(0.5) * 1j, COMPLEX_PAIR),
    (2.0, 2.0): (-1.5 + math.sqrt(1.75) * 1j, -1.5 - math.sqrt(1.75) * 1j, COMPLEX_PAIR),
    (3.0, 0.0): (-1.0, -3.0, REAL_LARGE),
    (4.0, 0.0): (-1.0, -4.0, REAL_LARGE),
    (2.0, 0.25): (-1.5, -1.5, DOUBLE_ROOT),
    (0.0, 5.0): (-0.5 + math.sqrt(4.75) * 1j, -0.5 - math.sqrt(4.75) * 1j, COMPLEX_PAIR),
}


@pytest.mark.parametrize("cell", sorted(EIGHT_CELLS))
def test_classifier_matches_hand_arithmetic(cell):
    mu_p, mu_m, case = EIGHT_CELLS[cell]
    cls = classify_regime(*cell)
    assert abs(cls.mu_plus - mu_p) <= 1e-12
    assert abs(cls.mu_minus - mu_m) <= 1e-12
    assert cls.case == case


def test_classifier_boundary_cases_exact():
    assert classify_regime(2.0, 0.25).case == DOUBLE_ROOT
    # b0(b0-2) = 4 m0 goes to the side the energy estimate admits
    cls = classify_regime(0.0, 0.0)
    assert cls.case == REAL_SMALL
    assert cls.mu_plus == 0.0 and cls.mu_minus == -1.0
    assert classify_regime(3.0, 0.0).case == REAL_LARGE


@given(b0=st.floats(-3, 6, allow_nan=False), m0=st.floats(-3, 8, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_trace_and_determinant_identities(b0, m0):
    cls = classify_regime(b0, m0)
    assert abs(cls.mu_plus + cls.mu_minus + (b0 + 1.0)) < 1e-9 * (1 + abs(b0))
    assert abs(cls.mu_plus * cls.mu_minus - (b0 + m0)) < 1e-9 * (1 + abs(b0) + abs(m0))
    assert cls.dominant_exponent == pytest.approx(max(cls.mu_plus.real, -b0 / 2.0))


def test_check_hypotheses_pure_integrals_vanish():
    model = CoefficientModel(b0=2.0, m0=3.0)
    for T in (10.0, 1e4):
        rep = check_hypotheses(model, T)
        assert rep.integral_b == 0.0 and rep.integral_m == 0.0
        assert rep.hyp1_pass and rep.hyp2_pass


def test_check_hypotheses_log_family_sigma_split():
    model = example_log(3.0, 0.5, b1=1.0, m1=1.0, gamma=1.0)
    # divergent in the sigma = 1 sense, summable for sigma = 1.5; the verdict
    # is a finite-horizon Cauchy test on [T/2, T] with the huge horizon made
    # affordable by the log-time substitution
    fail = check_hypotheses(model, 1e60, sigma=1.0)
    assert not fail.hyp2_pass
    ok = check_hypotheses(model, 1e60, sigma=1.5)
    assert ok.hyp2_pass


def test_check_hypotheses_bounded_power_perturbation():
    model = example_bounded(2.0, 1.0, c1=1.0, p1=0.5, c2=0.0)
    rep = check_hypotheses(model, 1e8, sigma=1.0)
    assert rep.hyp2_pass and rep.hyp1_pass
    assert rep.integral_b > 0.0


def test_hypothesis_integrals_monotone_in_horizon():
    model = example_bounded(2.0, 1.0, c1=1.0, p1=0.5, c2=0.5, p2=0.5)
    vals = [check_hypotheses(model, T, sigma=1.0).integral_b
            for T in (1e2, 1e4, 1e6)]
    assert vals[0] < vals[1] < vals[2]


def test_predicted_decay_table_values():
    model = CoefficientModel(b0=2.0, m0=2.0)
    assert predicted_decay(model, "diss") == pytest.approx(-1.5)
    assert predicted_decay(model, "hyp_large") == pytest.approx(-1.0)
    model = CoefficientModel(b0=4.0, m0=0.0)
    assert predicted_decay(model, "diss") == pytest.approx(-1.0)
    assert predicted_decay(model, "diss") > -model.b0 / 2.0


def test_predicted_decay_sigma_cap():
    model = CoefficientModel(b0=2.0, m0=2.0, sigma=1.5)  # 4 m0 > (b0-1)^2
    with pytest.raises(RegimeUnsupportedError):
        predicted_decay(model, "diss")


def test_tabulated_family_from_columns():
    ts = np.linspace(0.0, 50.0, 2001)
    b_tab = TabulatedCoefficient.from_columns(ts, 2.0 / (1.0 + ts))
    m_tab = TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2)
    model = CoefficientModel(b0=2.0, m0=1.0, family="tabulated",
                             b_table=b_tab, m_table=m_tab)
    assert model.b(3.0) == pytest.approx(0.5, rel=1e-8)
    assert model.b_derivative(3.0, 1) == pytest.approx(-2.0 / 16.0, rel=1e-4)


def _table_model(t_last, n_nodes):
    # b = 2/(1+t), m = 1/(1+t)^2 tabulated on [0, t_last]
    ts = np.linspace(0.0, t_last, n_nodes)
    return CoefficientModel(
        b0=2.0, m0=1.0, family="tabulated",
        b_table=TabulatedCoefficient.from_columns(ts, 2.0 / (1.0 + ts)),
        m_table=TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2))


def test_tabulated_derivatives_are_the_splines_up_to_order_3():
    model = _table_model(50.0, 2001)
    t = 5.0
    jet = model.b_jet(t, 3)
    assert jet[1] == pytest.approx(-2.0 / (1.0 + t) ** 2, rel=1e-6)
    assert jet[3] == pytest.approx(-12.0 / (1.0 + t) ** 4, rel=0.02)
    # the spline's antiderivative against the closed form lam = 1 + t
    assert model.lam(t) == pytest.approx(1.0 + t, rel=1e-9)
    # ell = 8 is declared, but a cubic spline has no exact fourth derivative
    assert model.ell == 8
    for jet_of in (model.b_jet, model.m_jet):
        with pytest.raises(UnsupportedOrderError):
            jet_of(t, 4)


def test_check_hypotheses_reads_the_tabulated_budget():
    # ell = 8 by default, but the spline supplies derivatives up to order 3
    # only, so the sampled Hyp.-1 orders stop there
    model = _table_model(1e3, 4001)
    rep = check_hypotheses(model, 1e3)
    assert model.ell == 8 and model.budget == 3
    assert [c["k"] for c in rep.hyp1_constants] == [0, 1, 2, 3]
    assert all(np.isfinite(c["sup_b"]) and np.isfinite(c["sup_m"])
               for c in rep.hyp1_constants)


def test_check_hypotheses_integrates_a_spline_deviation_without_warning():
    # the spline's weighted deviation (1+t) b - b0 has a kink at each of the
    # 4001 nodes (1e-5 near t = 1, roundoff beyond t = 200); one quad per
    # table interval meets the tolerance, so scipy warns of nothing
    model = _table_model(1e3, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(model, 1e3)
    # references: Simpson's rule on 8e6 log-spaced points; the single quad
    # that warned returned integral_b = 5.245340e-6, 1.6e-5 off
    assert rep.integral_b == pytest.approx(5.2452540648e-6, rel=1e-8)
    assert rep.integral_m == pytest.approx(1.7720257417e-5, rel=1e-8)
    assert rep.tail_b < 1e-13 and rep.tail_m < 1e-13 and rep.hyp2_pass


def test_tabulated_family_does_not_extrapolate():
    model = _table_model(200.0, 801)
    for evaluate, t in ((model.b, 1e3), (model.m, 1e3), (model.lam, 300.0),
                        (model.b, np.array([1.0, 250.0]))):
        with pytest.raises(ValueError, match="last 200"):
            evaluate(t)
    assert model.lam(200.0) == pytest.approx(201.0, rel=1e-3)  # the last node itself is in range


def test_tabulated_rejects_effective_dissipation():
    ts = np.linspace(0.0, 100.0, 300)
    growing = TabulatedCoefficient.from_columns(ts, np.full_like(ts, 0.5))  # tb -> inf
    flat_m = TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2)
    with pytest.raises(ValueError):
        CoefficientModel(b0=0.5, m0=1.0, family="tabulated",
                         b_table=growing, m_table=flat_m)


def _tabulated_model():
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 1e8, 400)))
    return CoefficientModel(
        b0=2.0, m0=1.0, family="tabulated",
        b_table=TabulatedCoefficient.from_columns(ts, 2.0 / (1.0 + ts)),
        m_table=TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2))


_FOUR_FAMILIES = [
    CoefficientModel(b0=2.0, m0=0.75),
    example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=-0.3, p2=0.7),
    example_log(2.0, 0.5, b1=0.3, m1=0.1, gamma=0.9),
    _tabulated_model(),
]


@pytest.mark.parametrize("model", _FOUR_FAMILIES, ids=lambda model: model.family)
def test_scalar_time_fast_path_matches_array_path(model):
    # ODE right-hand sides pass one float time per call.  The closed-form
    # families then evaluate on Python floats and must agree with the array
    # path, a 0-d array here, to 1 ulp; the tabulated family's splines
    # evaluate a float as scipy's PPoly does, bit for bit.
    for f in (model.b, model.m):
        for t in (0.0, 0.3, 1.0, 7.5, 49.0, 123.4, 1e4, 3.7e7):
            ref = f(np.asarray(t))
            for scalar in (t, np.float64(t)):
                value = f(scalar)
                assert type(value) is float
                if model.family == "tabulated":
                    assert value == ref
                else:
                    assert abs(value - ref) <= np.spacing(abs(ref))
    if model.family != "tabulated":
        # (1+t)^2 overflows a Python float; the array path's answer is kept
        with np.errstate(over="ignore"):
            assert model.m(1e200) == model.m(np.asarray(1e200))


@pytest.mark.parametrize("model", _FOUR_FAMILIES, ids=lambda model: model.family)
def test_kernel_gives_b_and_m_in_one_call(model):
    # the kernel an ODE right-hand side calls returns the pair (b, m), the
    # same bits as the public b(t) and m(t), on floats and on arrays
    kernel = model.kernel()
    ts = [0.0, 0.3, 1.0, 7.5, 123.4, 1e4, 1e6]
    if model.family == "tabulated":
        ts += model.b_table.t[:50] + model.b_table.t[-3:]
    for t in ts:
        b, m = kernel(t)
        assert type(b) is type(m) is float
        assert (b, m) == (model.b(t), model.m(t))
    b, m = kernel(np.array(ts))
    assert np.array_equal(b, model.b(np.array(ts))) and np.array_equal(m, model.m(np.array(ts)))


def test_tabulated_value_at_a_float_is_the_splines_bit_for_bit():
    # the float path finds the piece and sums it as scipy's PPoly does:
    # every node, both neighbours of every node, the ends and 1e5 random times
    model = _table_model(1e3, 4001)
    nodes = np.asarray(model.b_table.t)
    rng = np.random.default_rng(7)
    ts = np.concatenate((nodes, np.nextafter(nodes[1:], -np.inf),
                         np.nextafter(nodes[:-1], np.inf),
                         rng.uniform(nodes[0], nodes[-1], 100_000)))
    for table in (model.b_table, model.m_table):
        values = np.array([table(t) for t in ts.tolist()])
        assert np.array_equal(values.view(np.uint64), table.spline(ts).view(np.uint64))
        assert table(0.0) == table.spline(0.0) and table(1e3) == table.spline(1e3)
        for t in (np.nextafter(0.0, -1.0), np.nextafter(1e3, 2e3), -1.0, 1e9):
            with pytest.raises(ValueError, match="does not extrapolate"):
                table(float(t))


def test_json_round_trip():
    model = example_log(2.0, 0.5, b1=0.3, m1=0.1, gamma=0.9, sigma=1.5)
    clone = CoefficientModel.from_json(model.to_json())
    assert clone.family == LOG and clone.gamma == 0.9
    ts = np.array([0.0, 2.0, 9.0])
    assert np.allclose(clone.b(ts), model.b(ts))
    assert np.allclose(clone.m(ts), model.m(ts))


def test_family_validation():
    with pytest.raises(ValueError):
        CoefficientModel(b0=1.0, m0=0.0, family="nope")
    with pytest.raises(ValueError):
        example_log(1.0, 0.0, gamma=0.3)
    with pytest.raises(ValueError):
        CoefficientModel(b0=1.0, m0=0.0, sigma=3.0)
