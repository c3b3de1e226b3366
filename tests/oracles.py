"""Reference integrators for the tests, independent of the program's own
DOP853 driver (modal.solve_ivp) that several of them check, and of the
Gauss-Legendre panel rule behind diagonalize.q_propagator."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from fuchswave.diagonalize import _conjugated_generator
from fuchswave.modal import HorizonError


def integrate_fuchs(sys, a, b, rtol=1e-11):
    """Direct oracle for t E' = (D+R)E, E(a) = I, integrated in x = ln t."""
    d = sys.dimension

    def rhs(x, y):
        t = math.exp(x)
        M = np.diag(sys.mu(t)) + sys.R(t)
        return (M @ y.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (math.log(a), math.log(b)), np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise HorizonError(sol.message)
    return sol.y[:, -1].reshape(d, d)


def integrate_q(stage, s, t, xi, rtol=1e-11):
    """Q_k(t,s,xi) by DOP853 on D_t Q = G Q, Q(s) = I, with G the
    generator conjugated by the free phase anchored at s."""
    def rhs(tau, y):
        G = _conjugated_generator(stage, np.array([tau]), s, xi)[0]
        return (1j * G @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (s, t), np.eye(2, dtype=complex).ravel(), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise HorizonError(sol.message)
    return sol.y[:, -1].reshape(2, 2)
