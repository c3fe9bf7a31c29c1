"""Plant description, design parameters, and the derived certificate
constants that both endpoints of the quantized feedback loop share.

The certificate inequalities validated here are what later make the
closed-loop value function contract at rate ``nu`` during stabilizing
stages.  One private derivation computes each one-period exponential once,
solves the Lyapunov equation, and holds the only copy of each inequality;
:func:`validate_design`, :func:`synthesize_design` and
:func:`derive_constants` are arithmetic over it, and only the last adds the
interval quadratures.

The three share that derivation: it depends on the plant, ``floor_margin``
and Q alone, so the validate, synthesize, validate, derive chain that the
commands run on one plant computes it once.  A memo of one entry holds it,
keyed by the plant's identity (a plant never changes), ``floor_margin`` and
the bits of Q.  One entry suffices for that chain, and a sweep over many
plants evicts it at the next plant, so the memo never grows with the
number of designs.  Its arrays are read-only, as they are shared by every
:class:`DerivedConstants` made from it.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import matnum

__all__ = [
    "PlantModel",
    "DesignParams",
    "DerivedConstants",
    "CertificateReport",
    "check_assumptions",
    "derive_constants",
    "validate_design",
    "synthesize_design",
]

# Safety factors for the sequential parameter synthesis: each inequality is
# satisfied with half of the available slack.
THETA_RHO = 0.5
THETA_PHI = 0.5


def _read_only(M: np.ndarray) -> np.ndarray:
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Continuous-time linear plant with a fixed feedback gain.

    dx/dt = A x + B u + D d, sampled every ``dt`` seconds; each sample is
    quantized on a hypercube grid with ``n_levels`` cells per dimension.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    K: np.ndarray
    dt: float
    n_levels: int

    def __post_init__(self):
        A = matnum.as_matrix(self.A, "A")
        B = matnum.as_matrix(self.B, "B")
        D = matnum.as_matrix(self.D, "D")
        K = matnum.as_matrix(self.K, "K")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError("B must have as many rows as A")
        if D.shape[0] != n:
            raise ValueError("D must have as many rows as A")
        if K.shape != (B.shape[1], n):
            raise ValueError("K must be n_u x n_x")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive")
        if int(self.n_levels) != self.n_levels or self.n_levels < 2:
            raise ValueError("n_levels must be an integer >= 2")
        for name, M in (("A", A), ("B", B), ("D", D), ("K", K)):
            # read-only: the simulation and the design derivation are built once per plant
            object.__setattr__(self, name, _read_only(M.copy()))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "n_levels", int(self.n_levels))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_d(self) -> int:
        return self.D.shape[1]

    def closed_loop(self) -> np.ndarray:
        return self.A + self.B @ self.K


@dataclass(frozen=True, eq=False)
class DesignParams:
    """Tunable quantities of the communication and control strategy.

    radius0        initial quantization radius (shared by both endpoints)
    search_margin  extra growth factor applied to the radius while searching
    dist_level     disturbance level absorbed by the searching propagation
    psi, rho, phi  certificate triple entering the contraction inequalities
    Q              Lyapunov right-hand side; identity when None
    floor_margin   lower floor applied to the per-period growth factor so
                   the searching-stage arithmetic stays meaningful when the
                   open-loop growth is exactly 1
    """

    radius0: float
    search_margin: float
    dist_level: float
    psi: float
    rho: float
    phi: float
    Q: np.ndarray | None = None
    floor_margin: float = 0.01

    def __post_init__(self):
        for name in ("radius0", "search_margin", "dist_level", "psi", "rho", "phi", "floor_margin"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number")
            # the derivation takes log(1 + margin) and squares growth factors of 1 + margin
            grow = 1.0 + float(v)
            if name.endswith("_margin") and not 1.0 < grow * grow < math.inf:
                raise ValueError(f"{name} must keep 1 < (1 + {name})^2 < inf, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.Q is not None:
            Q = matnum.as_matrix(self.Q, "Q")
            if Q.shape[0] != Q.shape[1]:
                raise ValueError("Q must be square")
            with np.errstate(over="ignore"):  # reported below, naming Q
                asym, sym = np.max(np.abs(Q - Q.T)), (Q + Q.T) / 2
            if asym > 1e-10:
                raise ValueError("Q must be symmetric")
            if not np.all(np.isfinite(sym)):
                raise ValueError("Q is too large: (Q + Q^T)/2 overflows")
            if not matnum.is_positive_definite(sym):
                raise ValueError("Q must be positive definite")
            object.__setattr__(self, "Q", _read_only(Q.copy()))  # the derivation memo keys on it

    def resolved_q(self, n_x: int) -> np.ndarray:
        if self.Q is None:
            return np.eye(n_x)
        if self.Q.shape[0] != n_x:
            raise ValueError("Q dimension does not match the plant")
        return self.Q


@dataclass(frozen=True, eq=False)
class DerivedConstants:
    """Constants shared by encoder, decoder, integrator, and checkers.

    ``nu`` is always recorded, even when it is not below 1; whether the
    contraction certificate holds is reported separately.
    """

    S_closed: np.ndarray      # one-period closed-loop transition e^{(A+BK)dt}
    S_open: np.ndarray        # one-period open-loop transition e^{A dt}
    growth: float             # ||S_open||, per-period open-loop growth
    growth_eff: float         # max(growth, 1 + floor_margin)
    search_margin: float      # p.search_margin; log(1 + it) is the eta counters' base
    search_growth: float      # (1 + search_margin) * growth_eff
    search_ratio: float       # (search_growth - 1) / (growth_eff - 1)
    dist_gain: float          # integral of ||e^{As} D|| over one period
    P: np.ndarray             # Lyapunov solution for S_closed
    Q: np.ndarray             # resolved Lyapunov right-hand side
    chi: float                # quantization-error amplification constant
    nu: float                 # per-step contraction factor of the value function
    nu_base: float            # nu without the (1 + 1/psi) phi rho term
    peak_closed: float        # max ||e^{(A+BK)s}|| over one period
    peak_open: float          # max ||e^{As}|| over one period
    intersample_gain: float   # 2*peak_closed + peak_open
    data_rate_bits: float     # log2(n_levels^n_x + 2) / dt
    n_levels: int

    @property
    def n_x(self) -> int:
        return self.P.shape[0]


@dataclass
class CertificateReport:
    """Outcome of checking the design inequalities for a concrete plant."""

    assumption1_ok: bool
    assumption2_ok: bool
    psi_ok: bool
    rho_ok: bool
    nu_ok: bool
    nu: float
    messages: list[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return (self.assumption1_ok and self.assumption2_ok
                and self.psi_ok and self.rho_ok and self.nu_ok)


class _Derivation:
    """One-period transitions, Lyapunov solution and design-inequality formulas.

    Without ``p`` only the transitions and the assumptions are set.  dlyap
    runs only for a stable closed loop; otherwise P and Q stay None and
    ``chi``, ``quant_gain`` (= (n-1)^2/n^2 chi) and ``contraction`` are nan.
    Of ``p`` only ``floor_margin`` and Q are read (see :func:`_derivation`).
    """

    def __init__(self, m: PlantModel, p: DesignParams | None = None):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            S = self.S_closed = _read_only(matnum.expm(m.closed_loop(), m.dt))
            self.S_open = _read_only(matnum.expm(m.A, m.dt))
        for name, T in (("e^{(A+BK) dt}", S), ("e^{A dt}", self.S_open)):
            if not np.isfinite(T).all():
                raise OverflowError(f"the one-period transition {name} leaves the float range")
        self.growth = matnum.inf_norm_mat(self.S_open)
        self.assumptions = (matnum.is_schur_stable(S), self.growth < m.n_levels)
        if p is None:
            return
        self.growth_eff = max(self.growth, 1.0 + p.floor_margin)
        self.n_levels = n = m.n_levels
        self.Q = self.P = None
        self.chi = self.contraction = math.nan
        if self.assumptions[0]:
            self.Q = _read_only(p.resolved_q(m.n_x))
            self.P = _read_only(matnum.dlyap(S, self.Q))
            q_min, _ = matnum.sym_eig_extremes(self.Q)
            if q_min <= 0:
                # eigvalsh can lose it for a badly scaled Q: 1 / |L^-1|_2^2, L = chol(Q)
                L = np.linalg.cholesky((self.Q + self.Q.T) / 2)
                q_min = (1.0 / float(np.linalg.norm(np.linalg.inv(L), 2))) ** 2
            _, p_max = matnum.sym_eig_extremes(self.P)
            sps = matnum.inf_norm_mat(S.T @ self.P @ S)
            try:
                self.chi = 2.0 * m.n_x**2 * sps**2 / q_min + m.n_x * sps
            except OverflowError:
                raise ArithmeticError(f"chi overflows: |S^T P S| is {sps:.3g} and the smallest "
                                      f"eigenvalue of Q {q_min:.3g}") from None
            self.contraction = 1.0 - q_min / (2.0 * p_max)
        self.quant_gain = ((n - 1) ** 2 / n**2) * self.chi

    def psi_lhs(self, psi: float) -> float:
        return (1.0 + psi) * self.growth_eff**2 / self.n_levels**2

    def quantization(self, psi: float, rho: float) -> float:
        return self.quant_gain / rho + self.psi_lhs(psi)

    def nu_base(self, psi: float, rho: float) -> float:
        return max(self.contraction, self.quantization(psi, rho))

    def nu(self, p: DesignParams) -> float:
        return self.nu_base(p.psi, p.rho) + (1.0 + 1.0 / p.psi) * p.phi * p.rho


# (key, derivation) of the last _derivation call, read and replaced as one
# tuple: threads that race at worst derive the same design twice.
_last: tuple = (None, None)


def _derivation(m: PlantModel, p: DesignParams) -> _Derivation:
    """``_Derivation(m, p)``, computed anew only when the plant (by identity),
    ``p.floor_margin`` or the bits of ``p.Q`` differ from the last call's."""
    global _last
    key = (m, p.floor_margin, None if p.Q is None else p.Q.tobytes())  # Q is square
    last_key, c = _last
    if key != last_key:
        c = _Derivation(m, p)
        _last = key, c
    return c


def check_assumptions(m: PlantModel) -> tuple[bool, bool]:
    """(closed loop stable, per-period growth below the grid count)."""
    return _Derivation(m).assumptions


def derive_constants(m: PlantModel, p: DesignParams) -> DerivedConstants:
    """Compute every shared constant for the given plant and parameters."""
    c = _derivation(m, p)
    if c.P is None:
        raise ValueError("dlyap requires spectral radius of S below 1")
    sg = (1.0 + p.search_margin) * c.growth_eff
    peak_cl = matnum.max_norm_over_interval(m.closed_loop(), m.dt)
    peak_op = matnum.max_norm_over_interval(m.A, m.dt)
    return DerivedConstants(
        S_closed=c.S_closed,
        S_open=c.S_open,
        growth=c.growth,
        growth_eff=c.growth_eff,
        search_margin=p.search_margin,
        search_growth=sg,
        search_ratio=(sg - 1.0) / (c.growth_eff - 1.0),
        dist_gain=matnum.phi_integral(m.A, m.D, m.dt),
        P=c.P,
        Q=c.Q,
        chi=c.chi,
        nu=c.nu(p),
        nu_base=c.nu_base(p.psi, p.rho),
        peak_closed=peak_cl,
        peak_open=peak_op,
        intersample_gain=2.0 * peak_cl + peak_op,
        data_rate_bits=math.log2(float(m.n_levels) ** m.n_x + 2.0) / m.dt,
        n_levels=m.n_levels,
    )


def validate_design(m: PlantModel, p: DesignParams) -> CertificateReport:
    """Check the design inequalities; violations are data, not errors."""
    c = _derivation(m, p)
    a1, a2 = c.assumptions
    msgs: list[str] = []
    if not a1:
        msgs.append("closed loop A + BK is not stable over one period")
    if not a2:
        msgs.append("per-period growth is not below the grid count")

    psi_lhs = c.psi_lhs(p.psi)
    psi_ok = psi_lhs < 1.0
    if not psi_ok:
        msgs.append(f"(1+psi)*growth_eff^2/n^2 = {psi_lhs:.6g} is not below 1")

    # Both are nan without a stable closed loop, so both verdicts read False.
    rho_lhs = c.quantization(p.psi, p.rho)
    nu = c.nu(p)
    rho_ok = rho_lhs < 1.0
    nu_ok = nu < 1.0
    if not a1:
        msgs.append("Lyapunov-based conditions unavailable without a stable closed loop")
    if a1 and not rho_ok:
        msgs.append(f"quantization term {rho_lhs:.6g} is not below 1 (rho too small)")
    if a1 and not nu_ok:
        msgs.append(f"contraction factor nu = {nu:.6g} is not below 1")

    return CertificateReport(a1, a2, psi_ok, rho_ok, nu_ok, nu, msgs)


def synthesize_design(m: PlantModel, hints: DesignParams) -> DesignParams:
    """Pick (psi, rho, phi) satisfying the design inequalities with nu < 1.

    psi keeps the hint when it already fits under half the admissible cap;
    rho and phi are then sized so each remaining inequality holds with a
    factor-of-two slack.  Every other field is copied from ``hints``.
    """
    c = _derivation(m, hints)
    a1, a2 = c.assumptions
    if not a1:
        raise ValueError("cannot synthesize: closed loop is not stable")
    if not a2:
        raise ValueError("cannot synthesize: per-period growth reaches the grid count")

    psi_cap = 0.5 * (m.n_levels**2 / c.growth_eff**2 - 1.0)
    if psi_cap <= 0:
        raise ValueError("cannot synthesize: growth floor reaches the grid count")
    psi = min(hints.psi, psi_cap)
    rho = c.quant_gain / (THETA_RHO * (1.0 - c.psi_lhs(psi)))
    phi = THETA_PHI * (1.0 - c.nu_base(psi, rho)) * psi / ((1.0 + psi) * rho)
    return dataclasses.replace(hints, psi=psi, rho=rho, phi=phi)
