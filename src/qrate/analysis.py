"""Certificate constants, explicit gain-function constructions, and the
trajectory checker that verifies every provable inequality on a logged run.

The gain functions are straight compositions of closed-form pieces; the
checker never clamps a margin, it reports the worst one found together
with a pass/fail verdict at 1e-9 slack.  Checks that rest on the
contraction certificate are reported as "not_certified" instead of being
run when the design inequalities do not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .design import DerivedConstants, DesignParams
from .matnum import inf_norm_mat, sym_eig_extremes
from .plant import TrajectoryLog
from .signals import Disturbance

__all__ = [
    "GainConstants",
    "GainFunctions",
    "CheckRow",
    "CheckReport",
    "gain_constants",
    "eta_functions",
    "iss_gains",
    "check_trajectory",
]

SLACK = 1e-9
_BLOCK_RUNS = 64  # sampling intervals per intersample_envelope block

Map1 = Callable[[float], float]
Map2 = Callable[[float, float], float]
Map3 = Callable[[float, float, float], float]


@dataclass(frozen=True)
class GainConstants:
    """Scalar constants behind the stage-wise state bounds.

    ``valid`` records whether the contraction factor is below one; the
    decay-dependent fields are NaN when it is not.
    """

    c1: float           # sqrt(V) <= c1 * (|x| + E) at visible samples
    c2: float           # |x| <= c2 * sqrt(V)
    c3: float           # |x next| <= c3 * sqrt(V) + dist_gain * ||d||
    c_exp: float        # prefactor of the exponential stage envelope
    decay: float        # envelope decay rate per sample
    step_gain: float    # one-step worst-case growth while visible
    kappa: float        # exponent splitting long-time/short-time regimes
    escape_gain: float  # state and radius bound at escape times
    nu: float
    valid: bool


@dataclass(frozen=True)
class GainFunctions:
    """Evaluable gain maps, composed exactly as the certificate stacks them.

    All single-argument members vanish at zero and are nondecreasing; the
    ISS gains gamma1/gamma2/gamma3 bound the state for all time from the
    initial condition and the disturbance sup norm.
    """

    eta_state: Map1            # capture-step count from an initial-state ratio
    eta_dist: Map1             # capture-step count from a disturbance ratio
    eta_smooth: Map1           # continuous majorant of both step counts
    initial_search_bound: Map2     # state bound during the initial search
    initial_capture_radius: Map3   # radius bound at the first capture
    recapture_bound: Map2          # state bound between escape and recapture
    recapture_radius: Map2         # radius bound at recapture
    capture0_gain: Map1            # initial_search_bound on the diagonal
    capture_gain: Map1             # recapture_bound on the diagonal
    stab_state_gain: Map2          # stabilizing-stage bound from the entry state
    stab_dist_gain: Map2           # stabilizing-stage bound from the disturbance
    first_stage_bound: Map3        # first stabilizing stage, full arguments
    first_stage_gain: Map2         # first_stage_bound on the diagonal
    post_escape_gain: Map1         # searching stages after an escape
    post_recapture_gain: Map1      # stabilizing stages after a recapture
    gamma1: Map1
    gamma2: Map1
    gamma3: Map1


def gain_constants(d: DerivedConstants, p: DesignParams) -> GainConstants:
    """All scalar gain constants for the given design."""
    p_min, p_max = sym_eig_extremes(d.P)
    n = d.n_levels
    s_norm = inf_norm_mat(d.S_closed)
    c1 = math.sqrt(d.n_x * p_max) + math.sqrt(p.rho)
    c2 = 1.0 / math.sqrt(p_min) + 1.0 / math.sqrt(p.rho)
    c3 = max(s_norm / math.sqrt(p_min),
             ((n - 1) * s_norm + d.growth_eff) / (n * math.sqrt(p.rho)))
    escape = max(1.0 / math.sqrt(p.rho * p.phi), c3 / math.sqrt(p.phi) + 1.0) * d.dist_gain
    step_gain = 2.0 * s_norm + d.growth_eff
    valid = d.nu < 1.0
    if valid:
        c_exp = c1 * c3 / math.sqrt(d.nu)
        decay = -0.5 * math.log(d.nu)
        # Interior point of the admissible interval (0, -1/log_nu(step_gain)).
        kappa = -math.log(d.nu) / (2.0 * math.log(step_gain))
    else:
        c_exp = decay = kappa = math.nan
    return GainConstants(c1, c2, c3, c_exp, decay, step_gain, kappa, escape, d.nu, valid)


def eta_functions(d: DerivedConstants, search_margin: float) -> tuple[Map1, Map1, Map1]:
    """Capture-step counters (from state, from disturbance) and their
    continuous majorant."""
    geff = d.growth_eff
    hat = (1.0 + search_margin) * geff
    ratio = (hat - 1.0) / (geff - 1.0)
    log_base = math.log(1.0 + search_margin)

    def eta_state(s: float) -> float:
        if s <= 1.0:
            return 0.0
        return float(math.ceil(math.log(s) / log_base))

    def eta_dist(s: float) -> float:
        if s <= 1.0:
            return 0.0
        return float(math.ceil(math.log(ratio * s) / log_base))

    def eta_smooth(s: float) -> float:
        if s > 1.0:
            return math.log(ratio * s) / log_base + 1.0
        return math.log(ratio) / log_base * s

    return eta_state, eta_dist, eta_smooth


def _search_maps(d: DerivedConstants, p: DesignParams):
    """Search-stage bound maps; these need no contraction certificate."""
    eta_state, eta_dist, eta_smooth = eta_functions(d, p.search_margin)
    lam = d.growth_eff
    lam_hat = d.search_growth
    phi_d = d.dist_gain
    delta = p.dist_level
    e0 = p.radius0
    n = d.n_levels

    def initial_search_bound(s: float, r: float) -> float:
        m = eta_smooth(s / e0) + eta_smooth(r / delta)
        pw = lam**m
        return pw * s + (pw - 1.0) / (lam - 1.0) * phi_d * r

    def initial_capture_radius(e: float, s: float, r: float) -> float:
        m = eta_smooth(s / e) + eta_smooth(r / delta)
        pw = lam_hat**m
        return pw * e + (pw - 1.0) / (lam_hat - 1.0) * phi_d * delta

    def recapture_bound(s: float, r: float) -> float:
        m = 2.0 * eta_smooth(r / delta) + 1.0
        pw = lam**m
        return pw * s + (pw - 1.0) / (lam - 1.0) * phi_d * r

    def recapture_radius(e: float, s: float) -> float:
        m = 2.0 * eta_smooth(s / delta) + 1.0
        pw = lam_hat**m
        return pw * lam / n * e + (pw - 1.0) / (lam_hat - 1.0) * phi_d * delta

    return (eta_state, eta_dist, eta_smooth, initial_search_bound,
            initial_capture_radius, recapture_bound, recapture_radius)


def iss_gains(d: DerivedConstants, p: DesignParams, g: GainConstants) -> GainFunctions:
    """Compose the full gain-function stack.

    Requires a valid contraction certificate; the stabilizing-stage maps
    need the decay rate.
    """
    if not g.valid:
        raise ValueError("gain functions need a contraction factor below 1")
    (eta_state, eta_dist, eta_smooth, initial_search_bound,
     initial_capture_radius, recapture_bound, recapture_radius) = _search_maps(d, p)

    c12 = g.c1 * g.c2
    kappa = g.kappa
    h = g.step_gain
    h_factor = h / (h - 1.0)
    expo = kappa * (math.log(h) / math.log(g.nu)) + 1.0
    phi_d = d.dist_gain
    e0 = p.radius0
    gamma_esc = g.escape_gain
    h_tilde = d.intersample_gain

    def stab_state_gain(e: float, s: float) -> float:
        long_time = c12 * s ** (kappa / 2.0) * (s + e)
        short_time = h_factor * s**expo
        return max(long_time, short_time)

    def stab_dist_gain(e: float, s: float) -> float:
        long_time = c12 * s ** (kappa / 2.0) * (phi_d * s + e)
        short_time = h_factor * phi_d * s**expo
        return max(long_time, short_time)

    def capture0_gain(s: float) -> float:
        return initial_search_bound(s, s)

    def capture_gain(s: float) -> float:
        return recapture_bound(s, s)

    def first_stage_bound(e: float, s: float, r: float) -> float:
        e_cap = initial_capture_radius(e, s, r)
        return (stab_state_gain(e_cap, capture0_gain(s) + capture0_gain(r))
                + stab_dist_gain(e_cap, r))

    def first_stage_gain(e: float, s: float) -> float:
        return first_stage_bound(e, s, s)

    def post_escape_gain(s: float) -> float:
        return capture_gain(gamma_esc * s) + capture_gain(s)

    def post_recapture_gain(s: float) -> float:
        e_cap = recapture_radius(gamma_esc * s, s)
        return stab_state_gain(e_cap, post_escape_gain(s)) + stab_dist_gain(e_cap, s)

    def gamma1(s: float) -> float:
        return h_tilde * max(capture0_gain(s), first_stage_gain(e0, s))

    def gamma2(s: float) -> float:
        return (h_tilde * max(capture0_gain(s), first_stage_gain(e0, s),
                              post_escape_gain(s), post_recapture_gain(s))
                + phi_d * s)

    def gamma3(s: float) -> float:
        return (h_tilde * max(phi_d * s, post_escape_gain(s), post_recapture_gain(s))
                + phi_d * s)

    return GainFunctions(
        eta_state=eta_state,
        eta_dist=eta_dist,
        eta_smooth=eta_smooth,
        initial_search_bound=initial_search_bound,
        initial_capture_radius=initial_capture_radius,
        recapture_bound=recapture_bound,
        recapture_radius=recapture_radius,
        capture0_gain=capture0_gain,
        capture_gain=capture_gain,
        stab_state_gain=stab_state_gain,
        stab_dist_gain=stab_dist_gain,
        first_stage_bound=first_stage_bound,
        first_stage_gain=first_stage_gain,
        post_escape_gain=post_escape_gain,
        post_recapture_gain=post_recapture_gain,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
    )


@dataclass
class CheckRow:
    name: str
    n_checked: int
    worst_margin: float
    status: str  # "pass", "fail", or "not_certified"


@dataclass
class CheckReport:
    rows: list[CheckRow]
    certified: bool

    @property
    def all_pass(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def row(self, name: str) -> CheckRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


class _Acc:
    """Accumulates one inequality check: lhs <= rhs within slack."""

    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self.worst = math.inf
        self.violations = 0

    def add(self, lhs, rhs, n_checked: int | None = None):
        """Check lhs <= rhs elementwise.  ``n_checked`` overrides the count
        when each entry stands for several inequalities (its tightest)."""
        lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        if lhs.size == 0:
            return
        margin = rhs - lhs
        self.n += lhs.size if n_checked is None else n_checked
        self.worst = min(self.worst, float(margin.min()))
        tol = SLACK * np.maximum(1.0, np.abs(rhs))
        self.violations += int(np.count_nonzero(lhs > rhs + tol))

    def row(self) -> CheckRow:
        worst = self.worst if self.n else math.inf
        return CheckRow(self.name, self.n, worst, "fail" if self.violations else "pass")


def _uncertified(name: str) -> CheckRow:
    return CheckRow(name, 0, math.nan, "not_certified")


def check_trajectory(log: TrajectoryLog, d: DerivedConstants, p: DesignParams,
                     g: GainConstants, sig: Disturbance) -> CheckReport:
    """Verify every applicable inequality on a logged run.

    Protocol-level checks always run; decay-dependent checks (value
    contraction, the in-stage envelopes, and the global ISS envelope) run
    only when the design certificate holds (``g.valid``); the ISS envelope
    composes its gain functions from ``g`` with :func:`iss_gains`.
    """
    if log.center.shape[1] != d.P.shape[0]:
        raise ValueError("log and constants disagree on the state dimension")
    if log.d_sup_prev.size != log.t.size:
        raise ValueError("malformed log")

    n = d.n_levels
    last = log.n_samples - 1
    t = log.t
    E = log.radius
    V = log.value
    x_norm = np.max(np.abs(log.x), axis=1)
    xhat_err = np.max(np.abs(log.x - log.xhat), axis=1)
    center_err = np.max(np.abs(log.x - log.center), axis=1)
    stab = log.stage == 1
    sym = log.symbol
    dsup = log.d_sup_prev
    eta_state, eta_dist, _, search_bound0, chi_e0, _, _ = _search_maps(d, p)

    rows: list[CheckRow] = []

    acc = _Acc("quantization_cell")
    cells = sym >= 2
    acc.add(xhat_err[cells], E[cells] / n)
    near = sym == 1
    acc.add(x_norm[near], E[near] / n)
    rows.append(acc.row())

    acc = _Acc("quantization_center")
    acc.add(np.max(np.abs(log.xhat - log.center), axis=1)[cells],
            (n - 1) / n * E[cells])
    rows.append(acc.row())

    acc = _Acc("error_recursion_stabilizing")
    ks = np.flatnonzero(stab[:last])
    acc.add(center_err[ks + 1], d.growth_eff / n * E[ks] + d.dist_gain * dsup[ks + 1])
    rows.append(acc.row())

    acc = _Acc("error_recursion_searching")
    ks = np.flatnonzero(~stab[:last])
    acc.add(center_err[ks + 1], d.growth_eff * center_err[ks] + d.dist_gain * dsup[ks + 1])
    rows.append(acc.row())

    acc = _Acc("intersample_envelope")
    dense_norm = np.max(np.abs(log.dense_x), axis=1) if log.dense_x.size else np.empty(0)
    if dense_norm.size:
        # Each run of equal dense_k shares one start time, so one sup_prefix
        # call covers it; blocks of whole runs keep the temporaries small.
        dk = log.dense_k
        cuts = [0] + (np.flatnonzero(np.diff(dk)) + 1).tolist() + [dk.size]
        for j in range(0, len(cuts) - 1, _BLOCK_RUNS):
            block = cuts[j:j + _BLOCK_RUNS + 1]
            lo, hi = block[0], block[-1]
            sups = np.concatenate([sig.sup_prefix(t[dk[a]], log.dense_t[a:b])
                                   for a, b in zip(block, block[1:])])
            acc.add(dense_norm[lo:hi],
                    d.intersample_gain * x_norm[dk[lo:hi]] + d.dist_gain * sups)
    rows.append(acc.row())

    escapes = [ev for ev in log.events if ev.kind == "escaped"]
    captures = [ev for ev in log.events if ev.kind == "captured"]

    acc_state = _Acc("escape_state_bound")
    acc_radius = _Acc("escape_radius_bound")
    for ev in escapes:
        acc_state.add(x_norm[ev.k], g.escape_gain * dsup[ev.k])
        acc_radius.add(E[ev.k - 1], g.escape_gain * dsup[ev.k])
    rows.append(acc_state.row())
    rows.append(acc_radius.row())

    lost_at_start = sym[0] == 0
    first_capture = captures[0].k if (lost_at_start and captures) else None

    acc = _Acc("capture_initial_index")
    if lost_at_start:
        x0_ratio = x_norm[0] / p.radius0
        if first_capture is not None:
            bound = max(eta_state(x0_ratio),
                        eta_dist(sig.sup_norm(0.0, t[first_capture]) / p.dist_level))
            acc.add(float(first_capture), bound)
        else:
            bound = max(eta_state(x0_ratio),
                        eta_dist(sig.sup_norm(0.0, t[last]) / p.dist_level))
            if last > bound:
                acc.add(float(last), bound)
    rows.append(acc.row())

    acc = _Acc("recapture_index")
    for ev in escapes:
        nxt = next((c for c in captures if c.k > ev.k), None)
        if nxt is not None:
            s = sig.sup_norm(t[ev.k - 1], t[nxt.k]) / p.dist_level
            acc.add(float(nxt.k), ev.k + max(eta_dist(s), 1.0))
        else:
            s = sig.sup_norm(t[ev.k - 1], t[last]) / p.dist_level
            bound = ev.k + max(eta_dist(s), 1.0)
            if last > bound:
                acc.add(float(last), bound)
    rows.append(acc.row())

    acc = _Acc("initial_search_state_bound")
    if lost_at_start:
        k_end = first_capture if first_capture is not None else last
        r = sig.sup_norm(0.0, t[k_end])
        bound = search_bound0(x_norm[0], x_norm[0]) + search_bound0(r, r)
        acc.add(x_norm[: k_end + 1], bound)
    rows.append(acc.row())

    acc = _Acc("initial_capture_radius")
    if lost_at_start and first_capture is not None:
        r = sig.sup_norm(0.0, t[first_capture])
        acc.add(E[first_capture], chi_e0(p.radius0, x_norm[0], r))
    rows.append(acc.row())

    if g.valid:
        acc = _Acc("lyapunov_decay")
        ks = np.flatnonzero(stab[:last])
        acc.add(V[ks + 1], d.nu * V[ks])
        rows.append(acc.row())

        acc = _Acc("value_bound_c1")
        acc.add(np.sqrt(V[stab]), g.c1 * (x_norm[stab] + E[stab]))
        rows.append(acc.row())

        acc = _Acc("state_bound_c2")
        acc.add(x_norm[stab], g.c2 * np.sqrt(V[stab]))
        rows.append(acc.row())

        acc = _Acc("next_state_bound_c3")
        ks = np.flatnonzero(stab[:last])
        acc.add(x_norm[ks + 1], g.c3 * np.sqrt(V[ks]) + d.dist_gain * dsup[ks + 1])
        rows.append(acc.row())

        rows.append(_exp_decay_envelope(stab, x_norm, E, dsup, g.c_exp, d.nu, d.dist_gain))

        acc = _Acc("iss_envelope")
        if dense_norm.size:
            gains = iss_gains(d, p, g)
            bound = gains.gamma1(x_norm[0]) + gains.gamma2(sig.sup_norm(0.0, t[last]))
            acc.add(dense_norm, np.full(dense_norm.size, bound))
        rows.append(acc.row())
    else:
        rows.extend(_uncertified(name) for name in (
            "lyapunov_decay", "value_bound_c1", "state_bound_c2",
            "next_state_bound_c3", "exp_decay_envelope", "iss_envelope"))

    return CheckReport(rows=rows, certified=g.valid)


def _exp_decay_envelope(stab: np.ndarray, x_norm: np.ndarray, E: np.ndarray,
                        dsup: np.ndarray, c_exp: float, nu: float,
                        dist_gain: float) -> CheckRow:
    """|x(t_k)| <= nu^{(k-l)/2} c_exp (|x(t_l)| + E_l) + dist_gain dsup_k
    for every pair l < k in one stabilizing run.

    The right side grows with its first term, so a run violates the
    envelope iff it does at the l minimizing that term; only that pair is
    evaluated for each k, while ``n_checked`` counts all m(m-1)/2 pairs.
    """
    acc = _Acc("exp_decay_envelope")
    sqrt_nu = math.sqrt(nu)
    for run in _stabilizing_runs(stab):
        m = run.size
        if m < 2:
            continue
        base = c_exp * (x_norm[run] + E[run])  # indexed by l
        ls = _tightest_earlier(base, sqrt_nu)
        rhs = sqrt_nu ** (np.arange(1, m) - ls) * base[ls] + dist_gain * dsup[run[1:]]
        acc.add(x_norm[run[1:]], rhs, n_checked=m * (m - 1) // 2)
    return acc.row()


def _tightest_earlier(base: np.ndarray, q: float) -> np.ndarray:
    """For k = 1..m-1, the l < k minimizing q^(k-l) * base[l].

    Runs the recurrence r_k = q * min(r_{k-1}, base_{k-1}) and keeps the
    index of the minimum, so the caller can evaluate the bound at that l
    exactly as the full pair grid would.
    """
    ls = np.empty(base.size - 1, dtype=np.int64)
    r, arg = math.inf, 0
    for k, b in enumerate(base[:-1].tolist()):
        if b <= r:
            r, arg = b, k
        ls[k] = arg
        r *= q
    return ls


def _stabilizing_runs(stab: np.ndarray) -> list[np.ndarray]:
    """Maximal runs of consecutive visible samples, as index arrays."""
    runs = []
    idx = np.flatnonzero(stab)
    if idx.size == 0:
        return runs
    splits = np.flatnonzero(np.diff(idx) > 1)
    start = 0
    for s in list(splits) + [idx.size - 1]:
        runs.append(idx[start:s + 1])
        start = s + 1
    return runs
