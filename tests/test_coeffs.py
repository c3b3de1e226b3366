import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fuchswave import coeffs
from fuchswave.coeffs import (BOUNDED, COMPLEX_PAIR, DOUBLE_ROOT, LOG, PURE,
                              REAL_LARGE, REAL_SMALL, CoefficientModel,
                              TabulatedCoefficient, check_hypotheses,
                              classify_regime, example_bounded, example_log,
                              predicted_decay)
from fuchswave.errors import HorizonError, RegimeUnsupportedError, UnsupportedOrderError


def test_eval_pure_scale_invariant_values():
    model = CoefficientModel(b0=2.0, m0=0.0)
    assert (model.b_jet(1.0, 0)[0], model.m_jet(1.0, 0)[0]) == (1.0, 0.0)
    model = CoefficientModel(b0=2.0, m0=3.0)
    db, dm = model.b_jet(0.0, 1)[1], model.m_jet(0.0, 1)[1]
    assert db == -2.0 and dm == -6.0


def test_eval_log_family_at_zero():
    model = example_log(b0=1.0, m0=0.0, b1=1.0, m1=0.0, gamma=1.0)
    b0_val = model.b_jet(0.0, 0)[0]
    assert b0_val == pytest.approx(1.0 + 1.0 / math.e, rel=1e-14)


def test_order_above_budget_rejected():
    model = CoefficientModel(b0=1.0, m0=1.0, ell=2)
    with pytest.raises(UnsupportedOrderError):
        model.b_jet(1.0, 3)[3]


@pytest.mark.parametrize("order,h,rel", [(1, 1e-4, 1e-5), (2, 1e-3, 1e-4),
                                         (3, 1e-2, 1e-3)])
def test_log_family_jets_match_finite_differences(order, h, rel):
    model = example_log(b0=2.0, m0=1.0, b1=0.7, m1=0.3, gamma=0.8)
    t = 3.0
    exact = model.b_jet(t, order)[order]
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
    assert model.b_jet(3.0, 1)[1] == pytest.approx(-2.0 / 16.0, rel=1e-4)


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
    # 4001 nodes (1e-5 near t = 1, roundoff beyond t = 200), where the panels
    # have their edges; nothing warns
    model = _table_model(1e3, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(model, 1e3)
    # references: Simpson's rule on 8e6 log-spaced points; a single quad on
    # [1, T] warned and returned integral_b = 5.245340e-6, 1.6e-5 off
    assert rep.integral_b == pytest.approx(5.2452540648e-6, rel=1e-9)
    assert rep.integral_m == pytest.approx(1.7720257417e-5, rel=1e-9)
    assert rep.tail_b < 1e-13 and rep.tail_m < 1e-13 and rep.hyp2_pass


def _quad_deviation_integrals(model, sigma, T):
    """Reference for check_hypotheses' [integral_b, integral_m, tail_b,
    tail_m]: scipy's quad in x = ln t.  Past t = 1e50 the deviations are
    their roundoff, where quad warns."""
    out = []
    for lo in (1.0, T / 2.0):
        for f in (lambda t: (1.0 + t) * model.b(t) - model.b0,
                  lambda t: (1.0 + t) ** 2 * model.m(t) - model.m0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out.append(quad(lambda x: abs(f(math.exp(x))) ** sigma, math.log(lo),
                                math.log(T), limit=400, epsabs=1e-17, epsrel=1e-13)[0])
    return np.array(out)


def _spline_deviation_integrals(table, power, lead, sigma, T):
    """int |(1+t)^power table(t) - lead|^sigma dt/t on [1, T] and on
    [T/2, T]: quad on each table interval, split where the deviation, a
    quartic there, changes sign."""
    nodes, Poly = np.asarray(table.t), np.polynomial.Polynomial
    out = []
    for lo in (1.0, T / 2.0):
        edges, total = np.r_[lo, nodes[(nodes > lo) & (nodes < T)], T], 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            i = np.searchsorted(nodes, a, side="right") - 1
            dev = Poly(table.pieces[i]) * Poly([1.0 + nodes[i], 1.0]) ** power - lead
            roots = sorted(r.real + nodes[i] for r in dev.roots()
                           if abs(r.imag) < 1e-12 and a < r.real + nodes[i] < b)
            cuts = np.log(np.r_[a, roots, b])
            total += sum(quad(lambda x: abs(dev(math.exp(x) - nodes[i])) ** sigma, u, v,
                              epsabs=0.0, epsrel=1e-13)[0] for u, v in zip(cuts[:-1], cuts[1:]))
        out.append(total)
    return out


@pytest.mark.parametrize("model", [
    example_bounded(2.0, 1.0, c1=1.0, p1=0.5, c2=0.5, p2=0.25),
    example_bounded(4.0, 3.0, c1=-0.7, p1=1.5, c2=2.0, p2=0.1),
    example_log(3.0, 0.5, b1=1.0, m1=1.0, gamma=1.0),
    example_log(2.0, 0.75, b1=-0.7, m1=0.3, gamma=0.8),
], ids=["bounded", "bounded_fast", "log", "log_gamma"])
def test_check_hypotheses_integrals_match_quad(model):
    # the Gauss-Legendre panels against scipy's quad on [1, T] and [T/2, T],
    # T < 2 included, where the tail reaches below t = 1; the absolute 1e-15
    # is for the tails past t = 1e50, the deviations' roundoff
    for T, sigma in ((1.5, 1.0), (2.0, 1.5), (1e3, 1.0), (1e8, 2.0), (1e60, 1.0),
                     (1e60, 1.5)):
        rep = check_hypotheses(model, T, sigma=sigma)
        ref = _quad_deviation_integrals(model, sigma, T)
        got = np.array([rep.integral_b, rep.integral_m, rep.tail_b, rep.tail_m])
        assert np.all(np.abs(got - ref) <= 1e-10 * ref + 1e-15), (T, sigma, got, ref)


def _oscillating_table_model():
    # b and m on distinct nodes, with deviations that change sign inside
    # table intervals, one of them 0.5% of an interval from its end
    tb = np.linspace(0.0, 410.0, 301)
    tm = np.r_[0.0, np.geomspace(1e-3, 410.0, 256)]
    return CoefficientModel(
        b0=2.0, m0=1.0, family="tabulated",
        b_table=TabulatedCoefficient.from_columns(
            tb, 2.0 / (1 + tb) + 0.3 * np.sin(3.0 * tb) / (1 + tb) ** 1.5),
        m_table=TabulatedCoefficient.from_columns(
            tm, 1.0 / (1 + tm) ** 2 + 0.2 * np.cos(2.0 * tm) / (1 + tm) ** 2.5))


def test_check_hypotheses_settles_sign_changes_inside_table_intervals():
    # sigma = 1 puts a kink at each sign change.  One between a panel's edge
    # and its outermost node is seen by neither Gauss rule, nor by quad's
    # Kronrod rule, and the panel is halved until a rule sees it; quad run
    # where the Gauss rules disagreed, as earlier versions did, left tail_b
    # 5.8e-7 off here
    model = _oscillating_table_model()
    for sigma in (1.0, 1.5):
        rep = check_hypotheses(model, 400.0, sigma=sigma)
        (ib, tb), (im, tm) = (_spline_deviation_integrals(table, power, lead, sigma, 400.0)
                              for table, power, lead in ((model.b_table, 1, 2.0),
                                                         (model.m_table, 2, 1.0)))
        got = np.array([rep.integral_b, rep.integral_m, rep.tail_b, rep.tail_m])
        assert np.all(np.abs(got - [ib, im, tb, tm]) <= 1e-8 * got), (sigma, got)


def test_check_hypotheses_names_the_interval_it_cannot_settle(monkeypatch):
    # the halving stops after _HYP2_ROUNDS rounds; a partial sum is never
    # returned
    monkeypatch.setattr(coeffs, "_HYP2_ROUNDS", 3)
    with pytest.raises(HorizonError, match=r"did not settle on t in \[\d"):
        check_hypotheses(_oscillating_table_model(), 400.0, sigma=1.0)


def test_check_hypotheses_rejects_a_horizon_past_the_float_range():
    # (1+t)^2 m overflows past t ~ 1e154: at T = 1e200 the m integrals would
    # read NaN, so the horizon is refused by name; T = 1e100 is still audited
    # to the bit it was before the check existed, with no warning either way
    model = example_bounded(2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HorizonError, match=r"integral_m is nan at T = 1e\+200"):
            check_hypotheses(model, 1e200)
        rep = check_hypotheses(model, 1e100)
    assert (rep.integral_b, rep.integral_m) == (1.7627471740390863, 1.7627471740390854)
    assert (rep.tail_b, rep.tail_m) == (2.2614277108854598e-17, 1.002239976987129e-17)
    assert rep.hyp1_pass and rep.hyp2_pass
    assert [c["sup_m"] for c in rep.hyp1_constants] == [
        1.7071067811865475, 3.767766952966369, 12.187184335382291, 51.842329509220306,
        273.13281230071175]


def test_check_hypotheses_reaches_a_tables_last_node():
    # 10**log10(T) overshoots T = 200, 300 and 700, each a table's last
    # node: the last Hyp.-1 sample is T itself
    for T in (200.0, 300.0, 700.0):
        rep = check_hypotheses(_table_model(T, 801), T)
        assert rep.hyp1_pass and rep.hyp2_pass


def test_check_hypotheses_leaves_scipy_integrate_unimported():
    # a fresh interpreter audits a bounded, a log and a tabulated model;
    # only the tables' splines import scipy (scipy.interpolate)
    script = (
        "import sys, numpy as np\n"
        "from fuchswave.coeffs import *\n"
        "ts = np.linspace(0.0, 1e3, 401)\n"
        "table = CoefficientModel(b0=2.0, m0=1.0, family='tabulated',\n"
        "    b_table=TabulatedCoefficient.from_columns(ts, 2.0 / (1.0 + ts)),\n"
        "    m_table=TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2))\n"
        "for model in (example_bounded(2.0, 1.0), example_log(3.0, 0.5), table):\n"
        "    check_hypotheses(model, 1e3)\n"
        "print('scipy.integrate' in sys.modules)\n")
    src = str(Path(coeffs.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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


@pytest.mark.parametrize("model", _FOUR_FAMILIES[:3], ids=lambda model: model.family)
def test_kernel_float_and_array_paths_agree_within_2_ulps(model):
    # the float path (math.log, Python powers) and the array path (np.log,
    # np.power) round apart at a few hundred of 1e5 log-spaced times, by at
    # most 2 ulps; the doubles are mapped to integers in their order
    kernel = model.kernel()
    ts = np.expm1(np.random.default_rng(3).uniform(0.0, math.log1p(1e6), 100_000))
    floats = np.array([kernel(t) for t in ts.tolist()]).T
    arrays = np.array(kernel(ts))
    ordered = [np.where(i < 0, np.int64(-2 ** 63) - i, i)
               for i in (floats.view(np.int64), arrays.view(np.int64))]
    assert np.abs(ordered[0] - ordered[1]).max() <= 2


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
