import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_plant
from grid_oracle import grid_norms as oracle_grid_norms
from qrate import bundled_params, bundled_plant, derive_constants
from qrate import matnum as mn

# sha256 of the little-endian float64 bits of (dist_gain, peak_closed,
# peak_open) for the bundled plant and make_random_plant(default_rng(40 + n), n)
# at n = 2..6, taken from the point-by-point _grid_norms.
DESIGN_PEAKS_SHA256 = "4a86ef671b7b7ee0a5ad0ff36ccdf605cbd7e94939a8ba3b65132981fc44c508"

# (n_x, seed) of plants make_random_plant(default_rng(seed), n_x) (drawn like
# design_sweep's random_plant) whose phi_integral refines to n = 8,192,
# 16,384, 32,768 and 65,536 points: each such level crosses many re-anchored
# sub-chains of _grid_norms, which the plants above never reach.
DEEP_PLANTS = {(2, 16): 32768, (3, 33): 16384, (4, 35): 8192, (5, 1): 65536, (6, 2): 32768}
# sha256 of their (dist_gain, peak_closed, peak_open) bits as for
# DESIGN_PEAKS_SHA256, taken from the point-at-a-time chain walk.
DEEP_PEAKS_SHA256 = "5b187274761b47f1cb989ae9c5cbe1e69404ff47b046c42b793d7428af74466a"


def test_inf_norm_vec_examples():
    assert mn.inf_norm_vec([0.0, 0.0, 0.0]) == 0.0
    assert mn.inf_norm_vec([1.0, -2.0, 0.5]) == 2.0
    assert mn.inf_norm_vec([-7.0]) == 7.0


def test_inf_norm_mat_examples():
    assert mn.inf_norm_mat(np.eye(2)) == 1.0
    assert mn.inf_norm_mat([[1.0, -2.0], [3.0, 4.0]]) == 7.0
    assert mn.inf_norm_mat([[0.5, 0.0], [0.0, -0.9]]) == 0.9


def test_expm_zero_is_identity():
    assert np.allclose(mn.expm(np.zeros((3, 3)), 1.0), np.eye(3), atol=1e-14)


def test_expm_diagonal_closed_form():
    E = mn.expm(np.diag([1.0, -1.5]), 0.1)
    expected = np.diag([math.exp(0.1), math.exp(-0.15)])
    assert np.max(np.abs(E - expected)) < 1e-12


def test_expm_nilpotent_terminates():
    E = mn.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)
    assert np.max(np.abs(E - np.array([[1.0, 2.0], [0.0, 1.0]]))) < 1e-12


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        mn.expm(np.ones((2, 3)))


def test_expm_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        M = rng.uniform(-1.0, 1.0, (n, n))
        s, t = rng.uniform(0.0, 1.0, 2)
        lhs = mn.expm(M, s) @ mn.expm(M, t)
        rhs = mn.expm(M, s + t)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_phi_integral_constant_integrand():
    assert abs(mn.phi_integral(np.zeros((2, 2)), np.eye(2), 0.5) - 0.5) < 1e-12


def test_phi_integral_diagonal_closed_forms():
    # integrand e^s on [0, 0.1]
    v = mn.phi_integral(np.diag([1.0, -1.5]), np.array([[1.0], [0.0]]), 0.1)
    exact = math.exp(0.1) - 1.0
    assert abs(v - exact) / exact < 1e-9
    # integrand e^{-s} on [0, 1]
    v = mn.phi_integral(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
    exact = 1.0 - math.exp(-1.0)
    assert abs(v - exact) / exact < 1e-9


# each quadrature as a function of (A, D, tau), and the n of its first level
_QUADRATURES = {
    "phi_integral": (mn.phi_integral, 4),
    "max_norm_over_interval": (lambda A, D, tau: mn.max_norm_over_interval(A, tau), 16),
}


# every level overflows, in the products with D or in the chain of e^{800 h}
@pytest.mark.parametrize("name, A, D", [
    ("phi_integral", bundled_plant().A, [[1e308], [0.0]]),
    ("phi_integral", [[800.0]], [[1.0]]),
    ("max_norm_over_interval", [[800.0]], None),
], ids=["phi_integral_huge_D", "phi_integral", "max_norm_over_interval"])
def test_quadrature_stops_at_the_first_non_finite_level(monkeypatch, name, A, D):
    quadrature, first_n = _QUADRATURES[name]
    calls = []
    orig = mn._grid_norms

    def counted(A, D, tau, n, exps=None):
        calls.append(n)
        return orig(A, D, tau, n, exps)

    monkeypatch.setattr(mn, "_grid_norms", counted)
    # one grid walk, not all of them, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="did not converge"):
            quadrature(np.array(A), D, 1.0)
    assert calls == [first_n]
    # a finite level followed by an overflowing one must not pass
    # inf <= rtol * inf and return inf
    levels = iter([np.ones(first_n + 1), np.full(2 * first_n + 1, np.inf)])
    monkeypatch.setattr(mn, "_grid_norms", lambda A, D, tau, n, exps=None: next(levels))
    with pytest.raises(ArithmeticError):
        quadrature(np.zeros((1, 1)), np.ones((1, 1)), 1.0)


def test_phi_integral_rejects_mismatch():
    with pytest.raises(ValueError):
        mn.phi_integral(np.eye(2), np.eye(3), 0.1)


def test_max_norm_over_interval_cases():
    assert abs(mn.max_norm_over_interval(np.zeros((2, 2)), 3.0) - 1.0) < 1e-12
    assert abs(mn.max_norm_over_interval(np.diag([-1.0, -2.0]), 1.0) - 1.0) < 1e-8
    v = mn.max_norm_over_interval(np.array([[1.0]]), 0.1)
    assert abs(v - math.exp(0.1)) < 1e-8


def test_sym_eig_extremes_examples():
    assert mn.sym_eig_extremes(np.eye(3)) == (1.0, 1.0)
    assert mn.sym_eig_extremes(np.diag([2.0, -5.0])) == (-5.0, 2.0)
    lo, hi = mn.sym_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(lo - 1.0) < 1e-10 and abs(hi - 3.0) < 1e-10


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        mn.sym_eig_extremes(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dlyap_scalar_series():
    assert abs(mn.dlyap(np.array([[0.0]]), np.array([[1.0]]))[0, 0] - 1.0) < 1e-12
    assert abs(mn.dlyap(np.array([[0.5]]), np.array([[1.0]]))[0, 0] - 4.0 / 3.0) < 1e-12


def test_dlyap_diagonal_series():
    P = mn.dlyap(np.diag([0.5, 0.2]), np.eye(2))
    assert abs(P[0, 0] - 4.0 / 3.0) < 1e-12
    assert abs(P[1, 1] - 25.0 / 24.0) < 1e-12
    assert abs(P[0, 1]) < 1e-14


def test_dlyap_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mn.dlyap(np.eye(2), np.eye(2))  # spectral radius 1
    with pytest.raises(ValueError):
        mn.dlyap(0.5 * np.eye(2), -np.eye(2))  # not positive definite


def test_dlyap_random_residual_contract():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        S = rng.uniform(-1.0, 1.0, (n, n))
        rho = np.max(np.abs(np.linalg.eigvals(S)))
        if rho > 0:
            S *= rng.uniform(0.1, 0.9) / rho
        W = rng.uniform(-1.0, 1.0, (n, n))
        Q = W @ W.T + np.eye(n)
        P = mn.dlyap(S, Q)
        assert mn.inf_norm_mat(S.T @ P @ S - P + Q) <= 1e-10 * mn.inf_norm_mat(Q)
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.linalg.eigvalsh(P)[0] > 0


def test_is_schur_stable_examples():
    assert mn.is_schur_stable(0.99 * np.eye(2))
    assert not mn.is_schur_stable(np.eye(2))
    # nilpotent: radius 0 despite norm 2
    assert mn.is_schur_stable(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_norm_submultiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        M = rng.uniform(-2.0, 2.0, (n, n))
        N = rng.uniform(-2.0, 2.0, (n, n))
        v = rng.uniform(-2.0, 2.0, n)
        assert mn.inf_norm_vec(M @ v) <= mn.inf_norm_mat(M) * mn.inf_norm_vec(v) * (1 + 1e-12)
        assert mn.inf_norm_mat(M @ N) <= mn.inf_norm_mat(M) * mn.inf_norm_mat(N) * (1 + 1e-12)


def test_linear_algebra_facts():
    # |v|^2 <= v'v;  v'w <= n|v||w|;  eigenvalue sandwich in the quadratic
    # form for any symmetric M, and in the infinity-norm form for the
    # positive definite matrices it is applied to.
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        v = rng.uniform(-3.0, 3.0, n)
        w = rng.uniform(-3.0, 3.0, n)
        W = rng.uniform(-1.0, 1.0, (n, n))
        M = (W + W.T) / 2.0
        lo, hi = mn.sym_eig_extremes(M)
        vnorm = mn.inf_norm_vec(v)
        tol = 1e-12 * max(1.0, vnorm**2)
        assert vnorm**2 <= v @ v + tol
        assert v @ w <= n * vnorm * mn.inf_norm_vec(w) + tol
        quad = v @ M @ v
        assert lo * (v @ v) - tol <= quad <= hi * (v @ v) + tol
        P = W @ W.T + 0.1 * np.eye(n)
        plo, phi = mn.sym_eig_extremes(P)
        pquad = v @ P @ v
        assert plo * vnorm**2 - tol <= pquad <= n * phi * vnorm**2 + tol


# the grids the refinements pass: one chain below _GRID_ANCHOR points, then
# one to sixteen whole sub-chains and the last anchor
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 6), n_cols=st.integers(0, 3),
       tau=st.floats(0.01, 2.0, exclude_min=True, exclude_max=True),
       n=st.sampled_from([4, 16, 128, 256, 512, 1024, 2048, 4096]))
def test_grid_norms_match_point_by_point_oracle(seed, n_x, n_cols, tau, n):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-3.0, 3.0, (n_x, n_x))
    D = rng.uniform(-2.0, 2.0, (n_x, n_cols)) if n_cols else None
    got = mn._grid_norms(A, D, tau, n)
    assert got.tobytes() == oracle_grid_norms(A, D, tau, n).tobytes()


def test_design_peaks_match_pinned_bits():
    plants = [bundled_plant()] + [make_random_plant(np.random.default_rng(40 + n), n)
                                  for n in range(2, 7)]
    h = hashlib.sha256()
    for m in plants:
        d = derive_constants(m, bundled_params())
        h.update(struct.pack("<3d", d.dist_gain, d.peak_closed, d.peak_open))
    assert h.hexdigest() == DESIGN_PEAKS_SHA256


def test_deep_design_peaks_match_pinned_bits(monkeypatch):
    deepest = []
    orig = mn._grid_norms

    def counted(A, D, tau, n, exps=None):
        if D is not None:
            deepest[-1] = max(deepest[-1], n)
        return orig(A, D, tau, n, exps)

    monkeypatch.setattr(mn, "_grid_norms", counted)
    h = hashlib.sha256()
    for (n_x, seed), n in DEEP_PLANTS.items():
        deepest.append(0)
        d = derive_constants(make_random_plant(np.random.default_rng(seed), n_x), bundled_params())
        assert deepest[-1] == n, (n_x, seed)
        h.update(struct.pack("<3d", d.dist_gain, d.peak_closed, d.peak_open))
    assert h.hexdigest() == DEEP_PEAKS_SHA256


def test_phi_integral_takes_each_exponential_once(monkeypatch):
    # The refinement of DEEP_PLANTS' (5, 1) plant ends at n = 65536: its
    # 256 anchor times include the step times of the levels n = 4..256, so
    # the 15 levels need 256 + 8 distinct exponentials, each taken once.
    taken = []
    expm = scipy.linalg.expm

    def counted(M):
        taken.append(M.tobytes())
        return expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    m = make_random_plant(np.random.default_rng(1), 5)
    mn.phi_integral(m.A, m.D, m.dt)
    assert len(set(taken)) == len(taken) == 65536 // mn._GRID_ANCHOR + 8


def test_grid_norms_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(2)
    A = rng.uniform(-1.0, 1.0, (6, 6))
    D = rng.uniform(-1.0, 1.0, (6, 1))
    tracemalloc.start()
    try:
        got = mn._grid_norms(A, D, 0.1, 1 << 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result alone is 1 MB; an unblocked stack of 6x6 matrices is 37 MB
    assert peak < 4 * 2**20
    # 512 sub-chains, as many as _GRID_BLOCK: each block holds a single step
    assert got.tobytes() == oracle_grid_norms(A, D, 0.1, 1 << 17).tobytes()
