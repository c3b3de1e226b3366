import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from fuchswave.coeffs import (CoefficientModel, TabulatedCoefficient, UnsupportedOrderError,
                              example_bounded, example_log)
from fuchswave.diagonalize import (M_ROT, M_ROT_INV,
                                   ZoneConstantError, _conjugated_generator, _norm2,
                                   assemble_from_boundary,
                                   assemble_representation, audit_symbol,
                                   build_stage,
                                   free_phase, min_zone_constant,
                                   preliminary_transform, q_limit,
                                   q_propagator)
from fuchswave.modal import (FORM_HYP, ModalSystem, integrate_fundamental,
                             spectral_norm, weighted_propagator)
from fuchswave.zones import ZoneConfig, theta
from oracles import integrate_q

CFG = ZoneConfig(N=1.0)
FREE = CoefficientModel(b0=0.0, m0=0.0)
EX31 = example_bounded(2.0, 0.75, c1=0.5, p1=0.5, c2=0.5, p2=0.5, ell=6)


def test_rotation_inverse():
    assert spectral_norm(M_ROT @ M_ROT_INV - np.eye(2)) < 1e-15


def test_preliminary_transform_conjugation():
    xi = 1.7
    pre = preliminary_transform(EX31, xi)
    for t in (0.0, 3.0, 42.0):
        b, m = float(EX31.b(t)), float(EX31.m(t))
        A = np.array([[0.0, xi], [xi + m / xi, 1j * b]])  # hyp_system: D_t U = A U
        residual = pre.M_inv @ A @ pre.M - (pre.D + pre.B(t) + pre.C(t))
        assert spectral_norm(residual) < 1e-12


def test_preliminary_transform_free_case():
    pre = preliminary_transform(FREE, 2.0)
    assert spectral_norm(pre.B(5.0)) == 0.0
    assert spectral_norm(pre.C(5.0)) == 0.0
    with pytest.raises(ZeroDivisionError):
        preliminary_transform(FREE, 0.0)


def test_first_sweep_satisfies_commutator_identity():
    stage = build_stage(EX31, 1, CFG)
    t, xi = 5.0, 1.3
    N1 = stage.N_parts[0].eval(t, xi)
    F0 = stage.F_parts[0].eval(t, xi)
    D = np.diag([xi, -xi]).astype(complex)
    B = 0.5j * float(EX31.b(t)) * np.ones((2, 2))
    assert spectral_norm((D @ N1 - N1 @ D) + B - F0) == 0.0
    # the commutator identity pins the first correction to
    # (i b / 4 xi) [[0, -1], [1, 0]] with zero diagonal
    closed = 1j * float(EX31.b(t)) / (4.0 * xi) * np.array([[0, -1], [1, 0]])
    assert spectral_norm(N1 - closed) < 1e-16
    assert F0[0, 0] == F0[1, 1] == 0.5j * float(EX31.b(t))


def test_free_case_hierarchy_vanishes():
    stage = build_stage(FREE, 2, CFG)
    for part in stage.N_parts + stage.F_parts:
        assert spectral_norm(part.eval(7.0, 1.5)) == 0.0
    assert spectral_norm(stage.B_k.eval(7.0, 1.5)) == 0.0


@pytest.mark.parametrize("model", [EX31, example_log(2.0, 0.5, b1=0.3, m1=0.1, gamma=0.9)],
                         ids=["bounded", "log"])
def test_symbol_jets_match_finite_differences(model):
    # every symbol of a k = 2 stage: the order-1 jet entry is the t-derivative
    # of the order-0 values, and the order-0 entry of a longer jet is the
    # order-0 jet itself
    stage = build_stage(model, 2, CFG)
    for t, xi in [(2.0, 1.3), (15.0, 0.5), (120.0, 4.0)]:
        h = 1e-3 * (1.0 + t)
        taus = t + h * np.array([-2.0, -1.0, 1.0, 2.0])
        for sym in stage.N_parts + stage.F_parts + [stage.B_k]:
            jet = sym.jet(np.array([t]), xi, 1)[..., 0]
            assert np.array_equal(jet[0], sym.jet(np.array([t]), xi, 0)[0, ..., 0])
            v = np.moveaxis(sym.jet(taus, xi, 0)[0], -1, 0)
            fd = (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)
            assert spectral_norm(jet[1] - fd) <= 1e-6 * spectral_norm(jet[1]), sym.name


def test_smoothness_budget_enforced():
    model = CoefficientModel(b0=2.0, m0=1.0, ell=2)
    with pytest.raises(UnsupportedOrderError):
        build_stage(model, 2, CFG)


def test_tabulated_stage_keeps_one_order_of_headroom():
    # a cubic spline has 3 exact derivatives, so the budget is 3 whatever ell
    # says; k = 3 sweeps would run q_generator (a pass opened at order k) on
    # the piecewise-constant third derivative with no order of headroom left
    ts = np.linspace(0.0, 1e3, 4001)
    model = CoefficientModel(
        b0=2.0, m0=1.0, family="tabulated",
        b_table=TabulatedCoefficient.from_columns(ts, 2.0 / (1.0 + ts)),
        m_table=TabulatedCoefficient.from_columns(ts, 1.0 / (1.0 + ts) ** 2))
    with pytest.raises(UnsupportedOrderError):
        build_stage(model, 3, CFG)
    stage = build_stage(model, 2, CFG)
    G = stage.q_generator(np.linspace(10.0, 20.0, 5), 2.0)
    assert G.shape == (5, 2, 2) and np.all(np.isfinite(G))


def test_operator_identity_residual_random_points():
    stage = build_stage(EX31, 2, CFG)
    rng = np.random.default_rng(7)
    for _ in range(100):
        xi = float(np.exp(rng.uniform(math.log(0.3), math.log(20.0))))
        t_min = max(theta(CFG, xi), 0.0)
        t = t_min + float(np.exp(rng.uniform(0.0, math.log(200.0))))
        assert stage.operator_identity_residual(t, xi) < 1e-9


def test_symbol_order_audit():
    stage = build_stage(EX31, 2, CFG)
    for sym in stage.N_parts + [stage.B_k]:
        consts = audit_symbol(sym, CFG, k_max=1, alpha_max=2)
        near = audit_symbol(sym, CFG, t_factors=(1.0, 3.0),
                            xi_values=np.geomspace(0.25, 2.0, 4),
                            k_max=1, alpha_max=2)
        for key, c_all in consts.items():
            assert np.isfinite(c_all)
            # weighted constants must not blow up on the far grid
            assert c_all <= 3.0 * near[key] + 1e-12


def test_min_zone_constant_values():
    free_stage = build_stage(FREE, 1, CFG)
    assert min_zone_constant(free_stage) <= 0.011  # any N > 0 works
    stage = build_stage(CoefficientModel(b0=2.0, m0=0.0), 1, CFG)
    N_min = min_zone_constant(stage)
    # sup ||N1|| = b0 / (4 N) on the zone: invertibility needs N >= b0/2
    assert 0.9 <= N_min <= 1.3
    stage2 = build_stage(EX31, 2, CFG)
    assert min_zone_constant(stage2) <= 10.0


def test_q_propagator_identity_and_free():
    stage = build_stage(EX31, 1, CFG)
    res = q_propagator(stage, 5.0, 5.0, 2.0)
    assert np.array_equal(res.matrix, np.eye(2))
    free_stage = build_stage(FREE, 1, CFG)
    res = q_propagator(free_stage, 0.0, 123.0, 2.0)
    assert spectral_norm(res.matrix - np.eye(2)) < 1e-12
    assert res.C_total == pytest.approx(0.0, abs=1e-14)


def test_q_propagator_paths_agree():
    # (s, t, xi, zone constant N, sweeps k): a point at N = 1 and three whose
    # one-pass series bound over the whole span exceeded 1e-9, among them the
    # repcheck defaults' points at N = 0.1
    for s, t, xi, N, k in [(1.0, 200.0, 2.0, 1.0, 2), (0.0, 100.0, 1.5, 1.0, 2),
                           (4.611275882562849, 292.7033284055535, 0.2038254575079694, 0.1, 2),
                           (3.6010993514066114, 245.8479806443042, 0.29277145029938617, 0.1, 2)]:
        stage = build_stage(EX31, k, ZoneConfig(N=N))
        a = q_propagator(stage, s, t, xi)
        assert a.path == "series"
        assert spectral_norm(a.matrix - integrate_q(stage, s, t, xi)) < 1e-9
        assert a.tail_bound < 1e-9


def _panel_reference(stage, s, t, xi, depth=8):
    """Q_k(t,s,xi) and C_total by the series path's panel rule on stacked
    (panel, node, 2, 2) matrices: panels laid out one by one, the Lagrange
    integrals from a solve with the Legendre Vandermonde matrix, one
    generator call on the whole grid, np.matmul, svd norms."""
    x, w = np.polynomial.legendre.leggauss(16)
    coef = np.linalg.solve(np.polynomial.legendre.legvander(x, 15), np.eye(16))
    S = np.polynomial.legendre.legval(x, np.polynomial.legendre.legint(coef, lbnd=-1)).T
    panels = []
    a = s
    while a < t:                      # segments where 1 + tau at most doubles
        b = min(2.0 * a + 1.0, t)
        edges = np.linspace(a, b, max(1, math.ceil(2.0 * xi * (b - a) / 4.0)) + 1)
        panels += zip(edges[:-1], edges[1:])
        a = b
    lo, hi = np.array(panels).T
    hw = 0.5 * (hi - lo)
    taus = (0.5 * (lo + hi))[:, None] + hw[:, None] * x
    G = _conjugated_generator(stage, taus.ravel(), s, xi).reshape(taus.shape + (2, 2))
    C_total = float(np.sum(hw * (np.linalg.svd(G, compute_uv=False)[..., 0] @ w)))
    term = np.broadcast_to(np.eye(2, dtype=complex), G.shape)
    Q = np.eye(2, dtype=complex)
    for _ in range(depth):
        integrand = 1j * np.matmul(G, term)
        totals = hw[:, None, None] * np.einsum("j,pjab->pab", w, integrand)
        before = np.cumsum(totals, axis=0) - totals
        term = (hw[:, None, None, None] * np.einsum("ij,pjab->piab", S, integrand)
                + before[:, None])
        Q += totals.sum(axis=0)
    return Q, C_total


# the last point has 31,680 nodes, four _Q_CHUNK slices of the generator
REFERENCE_POINTS = [(1.0, 200.0, 2.0), (2.0, 50.0, 4.0), (10.0, 1000.0, 4.0)]


@pytest.mark.parametrize("s, t, xi", REFERENCE_POINTS)
def test_q_series_matches_stacked_matmul_reference(s, t, xi):
    # the series path sums entrywise on a (2, 2, panel, node) layout from a
    # generator sampled in slices
    stage = build_stage(EX31, 2, CFG)
    res = q_propagator(stage, s, t, xi)
    Q_ref, C_ref = _panel_reference(stage, s, t, xi)
    assert res.path == "series"
    assert spectral_norm(res.matrix - Q_ref) <= 1e-13
    assert abs(res.C_total - C_ref) <= 1e-13 * C_ref


def _simpson_series(stage, s, t, xi, spacing, depth=8):
    """Q_k(t,s,xi) and C_total by scipy's cumulative_simpson and simpson on a
    uniform grid with a node every `spacing` rad of 2 xi (t - s), one column
    of the Peano-Baker terms at a time."""
    n = max(801, int(2.0 * xi * (t - s) / spacing) + 9)
    taus = np.linspace(s, t, n)
    G = np.concatenate([_conjugated_generator(stage, taus[lo:lo + 8192], s, xi)
                        for lo in range(0, n, 8192)])
    C_total = float(simpson(_norm2(G), x=taus))
    h = (t - s) / (n - 1)
    Q = np.eye(2, dtype=complex)
    for c in range(2):
        col = np.zeros((2, n), dtype=complex)
        col[c] = 1.0
        for _ in range(depth):
            col = np.array([cumulative_simpson(1j * (G[:, a, 0] * col[0] + G[:, a, 1] * col[1]),
                                               dx=h, initial=0.0) for a in range(2)])
            Q[:, c] += col[:, -1]
    return Q, C_total, n


@pytest.mark.parametrize("s, t, xi", REFERENCE_POINTS)
def test_q_series_is_the_limit_of_simpson_grids(s, t, xi):
    # Simpson is 4th order: halving its spacing cuts its distance to the
    # panel rule 16-fold, until that distance reaches the roundoff of
    # Simpson's n-term running sums, sqrt(n) eps C_total; every series
    # integral is bounded by C_total
    stage = build_stage(EX31, 2, CFG)
    res = q_propagator(stage, s, t, xi)
    gaps = []
    for spacing in (0.02, 0.01, 0.005):
        Q, C_total, n = _simpson_series(stage, s, t, xi, spacing)
        floor = math.sqrt(n) * np.finfo(float).eps * res.C_total
        gaps.append((spectral_norm(Q - res.matrix), abs(C_total - res.C_total), floor))
    for coarse, fine in zip(gaps, gaps[1:]):
        for k in range(2):
            assert coarse[k] <= coarse[2] or fine[k] <= 0.1 * coarse[k]
    assert gaps[-1][0] <= 1e-13 and gaps[-1][1] <= 1e-13


def test_q_series_memory_is_flat_in_the_grid():
    # 8,784, 95,040 and 393,216 nodes, the last a q_limit segment; the
    # hierarchy evaluated on the whole grid at once peaked at about 170 MB for
    # 108,909 nodes, and a series summed over the whole grid at 137 MB for
    # 393,216
    stage = build_stage(EX31, 2, CFG)
    for s, t, xi in ((10.0, 1000.0, 1.1), (10.0, 1000.0, 12.0), (24576.0, 49152.0, 2.0)):
        tracemalloc.start()
        try:
            res = q_propagator(stage, s, t, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.path == "series"
        assert peak <= 64e6


def test_closed_form_2x2_norm_matches_svd():
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def unitary():
        return np.linalg.qr(cplx(2, 2))[0]

    stacks = [cplx(500, 2, 2), 1e-12 * cplx(50, 2, 2), 1e12 * cplx(50, 2, 2),
              np.array([unitary() @ np.diag([1.0, 1.0 + d]) @ unitary()
                        for d in (0.0, 1e-15, 1e-9, 1e-4)]),
              np.array([np.outer(cplx(2), cplx(2).conj()) for _ in range(20)]),
              np.zeros((3, 2, 2), dtype=complex)]
    for G in stacks:
        ref = np.linalg.svd(G, compute_uv=False)[:, 0]
        assert np.all(np.abs(_norm2(G) - ref) <= 1e-13 * ref)


def test_q_determinant_bound():
    stage = build_stage(EX31, 2, CFG)
    for (s, t, xi) in [(0.0, 100.0, 1.5), (2.0, 50.0, 4.0), (10.0, 1000.0, 1.1)]:
        res = q_propagator(stage, s, t, xi)
        assert abs(np.linalg.det(res.matrix)) >= res.det_lower_bound() - 1e-12


def test_q_limit_properties():
    free_stage = build_stage(FREE, 1, CFG)
    res = q_limit(free_stage, 1.0, 2.0, tol=1e-10)
    assert spectral_norm(res.matrix - np.eye(2)) < 1e-9

    stage = build_stage(EX31, 2, CFG)
    tol = 1e-7
    lim_a = q_limit(stage, 1.0, 2.0, tol=tol)
    lim_b = q_limit(stage, 1.0, 2.0, tol=tol, t_start=3.0, growth=1.7)
    assert abs(np.linalg.det(lim_a.matrix)) > 1e-3  # invertible limit
    assert spectral_norm(lim_a.matrix - lim_b.matrix) < 2.0 * tol


def test_q_limit_tail_tracks_remainder_integral():
    # || Q(inf) - Q(t) || decays like the remaining generator integral
    stage = build_stage(EX31, 2, CFG)
    xi, s = 2.0, 1.0
    lim = q_limit(stage, s, xi, tol=1e-9)
    for t in (50.0, 400.0):
        Qt = q_propagator(stage, s, t, xi).matrix
        gap = spectral_norm(lim.matrix - Qt)
        taus = np.linspace(t, t * 4096.0, 20001)
        G = _conjugated_generator(stage, taus, s, xi)
        tail = float(np.trapezoid(np.linalg.svd(G, compute_uv=False)[:, 0], taus))
        assert gap <= 3.0 * tail
        assert gap >= 0.01 * tail


def test_q_norm_bounded_over_zone():
    stage = build_stage(EX31, 2, CFG)
    worst = 0.0
    for xi in (1.0, 2.0, 8.0):
        th = theta(CFG, xi)
        for t in (th + 10.0, th + 100.0, th + 1000.0):
            res = q_propagator(stage, th, t, xi)
            worst = max(worst, spectral_norm(res.matrix))
    assert worst < 3.0


def test_representation_identity_against_oracle():
    stage = build_stage(EX31, 2, CFG)
    E_rep = assemble_representation(stage, 0.0, 1000.0, 2.0)
    sysm = ModalSystem(EX31, CFG, 2.0, FORM_HYP)
    E_orc = integrate_fundamental(sysm, 0.0, 1000.0, tol=1e-12)
    rel = spectral_norm(E_rep.entries - E_orc.entries) / E_orc.norm()
    assert rel <= 1e-6
    assert E_rep.provenance == "representation"


def test_representation_free_case_exact():
    for k in (1, 2):
        stage = build_stage(CoefficientModel(b0=0.0, m0=0.0, ell=6), k, CFG)
        E = assemble_representation(stage, 0.0, 17.0, 3.0).entries
        expected = M_ROT @ free_phase(17.0, 0.0, 3.0) @ M_ROT_INV
        assert spectral_norm(E - expected) < 1e-10


def test_representation_requires_oscillatory_start():
    stage = build_stage(EX31, 1, CFG)
    with pytest.raises(ValueError):
        assemble_representation(stage, 0.0, 10.0, 0.01)  # (s, xi) in slow zone


def test_glued_representation_matches_cross_zone_oracle():
    stage = build_stage(EX31, 2, CFG)
    xi = 0.25
    th = theta(CFG, xi)
    t = 2000.0
    E_bnd = weighted_propagator(EX31, CFG, xi, [th], rtol=1e-12)[0]
    E_glued = assemble_from_boundary(stage, t, xi, E_bnd)
    E_full = weighted_propagator(EX31, CFG, xi, [t], rtol=1e-12)[0]
    rel = spectral_norm(E_glued.entries - E_full) / spectral_norm(E_full)
    assert rel < 1e-6


def test_e0_unitarity():
    for t, s, xi in [(10.0, 0.0, 2.0), (1e4, 3.0, 0.5)]:
        E0 = free_phase(t, s, xi)
        assert spectral_norm(E0 @ E0.conj().T - np.eye(2)) < 1e-12


def stage_audit_report(stage, k_max=1, alpha_max=2):
    """JSON-able audit of every symbol in the hierarchy: claimed orders,
    sampled grid description and worst weighted constant per derivative."""
    report = {"k": stage.k, "zone_constant": stage.config.N, "symbols": []}
    for sym in stage.N_parts + stage.F_parts + [stage.B_k]:
        consts = audit_symbol(sym, stage.config, k_max=k_max, alpha_max=alpha_max)
        report["symbols"].append({
            "name": sym.name,
            "order": list(sym.order),
            "smoothness": sym.smoothness,
            "grid": "xi in [N/4, 32N] log, t/theta in {1, 3, 10, 100}",
            "worst_constant": {f"k={k},alpha={a}": c
                               for (k, a), c in consts.items()},
        })
    return report


def test_stage_audit_report_serializable():
    import json

    stage = build_stage(EX31, 2, CFG)
    report = stage_audit_report(stage, k_max=1, alpha_max=1)
    blob = json.dumps(report)
    assert '"N^(1)"' in blob and '"B^(2)"' in blob
    names = [s["name"] for s in report["symbols"]]
    assert names == ["N^(1)", "N^(2)", "F^(0)", "F^(1)", "B^(2)"]
    for sym in report["symbols"]:
        assert all(np.isfinite(v) for v in sym["worst_constant"].values())


def boundary_symbol_audit(model, config, xi_values, alpha_max=2, rtol=1e-11):
    """Sampled homogeneous-symbol constants of S(xi) = lam(theta) E(theta,0,xi):
    ||D_xi^a S|| |xi|^a should stay comparable across dyadic frequency ranges.
    The FD step grows with the derivative order so oracle noise (ca. rtol)
    stays below the difference quotients."""
    def S(r):
        th = theta(config, r)
        E = weighted_propagator(model, config, r, [th], rtol=rtol)[0]
        return float(model.lam(th)) * E

    out = {}
    for alpha in range(alpha_max + 1):
        consts = []
        h_rel = {0: 0.0, 1: 1e-3, 2: 0.02}[alpha]
        for r in xi_values:
            h = h_rel * r
            if alpha == 0:
                val = S(r)
            elif alpha == 1:
                val = (S(r + h) - S(r - h)) / (2.0 * h)
            else:
                val = (S(r + h) - 2.0 * S(r) + S(r - h)) / h ** 2
            consts.append(spectral_norm(val) * r ** alpha)
        out[alpha] = np.asarray(consts)
    return out


def test_zone_boundary_symbol_audit():
    # lam(theta) E(theta, 0, xi) behaves like a homogeneous symbol of order 0:
    # the |xi|^alpha-weighted derivative norms stay bounded toward xi -> 0
    # (the constants may decay; the bound is one-sided)
    consts = boundary_symbol_audit(EX31, CFG, xi_values=np.geomspace(0.002, 0.64, 8),
                                   alpha_max=2, rtol=1e-11)
    for alpha in range(3):
        arr = consts[alpha]
        assert np.all(np.isfinite(arr)) and np.all(arr > 0)
        lo, hi = arr[: len(arr) // 2], arr[len(arr) // 2:]
        # no blow-up where the |xi|^(-alpha) weight is most stringent
        assert lo.max() <= 3.0 * hi.max()
        assert arr.max() < 50.0
