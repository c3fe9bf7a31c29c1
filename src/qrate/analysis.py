"""Certificate constants, the gain functions, and the trajectory checker
that verifies every provable inequality on a logged run.

Each gain map is one method of :class:`GainFunctions`, a straight
composition of closed-form pieces over scalars bound once per design; the
search-stage maps, which need no certificate, sit in its base class.  The
maps that others compose (the diagonal capture and stage gains) remember
their last few values per instance, as one ISS gain evaluates each of them
several times at the same argument.

:data:`CHECKS` names the checker's inequalities in report order: the
protocol checks, which always run, then the checks that rest on the
contraction certificate, which are reported as "not_certified" instead of
being run when the design inequalities do not hold.  Each check is stated
once, as array operations over the whole log (the decay envelope per
stabilizing run), save the two dense envelopes: one pass over the dense
log, after every gain is evaluated, checks both in blocks of records and
keeps nothing per record, so its temporaries stay small whatever the
horizon.  The escape and capture checks pair every escape with the event
after it, its recapture.  The checker never clamps a margin, it reports
the worst one found together with a pass/fail verdict at 1e-9 slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    "gain_value",
    "check_trajectory",
    "CHECKS",
    "PROTOCOL_CHECKS",
    "CERTIFICATE_CHECKS",
]

SLACK = 1e-9
_DENSE_BLOCK = 8192  # dense records per block of the dense envelope checks
_RECENT = 16  # values of the memoized gain maps each GainFunctions remembers

# Every check, in report order.  The certificate checks need a contraction
# factor below one; without it they are reported as "not_certified".
PROTOCOL_CHECKS = (
    "quantization_cell", "quantization_center", "error_recursion_stabilizing",
    "error_recursion_searching", "intersample_envelope", "escape_state_bound",
    "escape_radius_bound", "capture_initial_index", "recapture_index",
    "initial_search_state_bound", "initial_capture_radius")
CERTIFICATE_CHECKS = (
    "lyapunov_decay", "value_bound_c1", "state_bound_c2", "next_state_bound_c3",
    "exp_decay_envelope", "iss_envelope")
CHECKS = PROTOCOL_CHECKS + CERTIFICATE_CHECKS


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


def eta_functions(d: DerivedConstants):
    """Capture-step counters (from state, from disturbance) and their
    continuous majorant."""
    ratio = d.search_ratio
    log_base = math.log(1.0 + d.search_margin)

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


class _SearchMaps:
    """Capture-step counters and search-stage bounds; these need no
    contraction certificate."""

    def __init__(self, d: DerivedConstants, p: DesignParams):
        self.eta_state, self.eta_dist, self.eta_smooth = eta_functions(d)
        self._lam = d.growth_eff
        self._lam_hat = d.search_growth
        self._phi_d = d.dist_gain
        self._delta = p.dist_level
        self._e0 = p.radius0
        self._n = d.n_levels

    def initial_search_bound(self, s: float, r: float) -> float:
        """State bound during the initial search."""
        m = self.eta_smooth(s / self._e0) + self.eta_smooth(r / self._delta)
        pw = self._lam**m
        return pw * s + (pw - 1.0) / (self._lam - 1.0) * self._phi_d * r

    def initial_capture_radius(self, e: float, s: float, r: float) -> float:
        """Radius bound at the first capture."""
        m = self.eta_smooth(s / e) + self.eta_smooth(r / self._delta)
        pw = self._lam_hat**m
        return pw * e + (pw - 1.0) / (self._lam_hat - 1.0) * self._phi_d * self._delta

    def recapture_bound(self, s: float, r: float) -> float:
        """State bound between an escape and the recapture."""
        m = 2.0 * self.eta_smooth(r / self._delta) + 1.0
        pw = self._lam**m
        return pw * s + (pw - 1.0) / (self._lam - 1.0) * self._phi_d * r

    def recapture_radius(self, e: float, s: float) -> float:
        """Radius bound at a recapture."""
        m = 2.0 * self.eta_smooth(s / self._delta) + 1.0
        pw = self._lam_hat**m
        return (pw * self._lam / self._n * e
                + (pw - 1.0) / (self._lam_hat - 1.0) * self._phi_d * self._delta)


def _recent(method):
    """``method`` memoized in its instance's cache of the last ``_RECENT``
    values of the memoized maps.

    Equal arguments give the same bits, save zeros of either sign and
    numbers of different types (0.0 == -0.0, 1 == 1.0 == np.float64(1.0)):
    the key holds the arguments' types (the maps take one or two), and
    calls with a zero are not memoized.  A call that raises stores nothing.
    """
    name = method.__name__

    @functools.wraps(method)
    def recent(self, *args):
        if 0 in args:
            return method(self, *args)
        key = (name, args, type(args[0]), type(args[-1]))
        cache = self._recent
        value = cache.get(key)
        if value is None:
            cache[key] = value = method(self, *args)
            if len(cache) > _RECENT:
                del cache[next(iter(cache))]  # the oldest
        return value

    return recent


class GainFunctions(_SearchMaps):
    """Evaluable gain maps, composed exactly as the certificate stacks them.

    Each map is a method.  All single-argument maps vanish at zero and are
    nondecreasing; the ISS gains gamma1/gamma2/gamma3 bound the state for
    all time from the initial condition and the disturbance sup norm.  The
    stabilizing-stage maps need the decay rate, so construction requires a
    valid contraction certificate.
    """

    def __init__(self, d: DerivedConstants, p: DesignParams, g: GainConstants):
        if not g.valid:
            raise ValueError("gain functions need a contraction factor below 1")
        super().__init__(d, p)
        self._c12 = g.c1 * g.c2
        self._kappa = g.kappa
        h = g.step_gain
        self._h_factor = h / (h - 1.0)
        self._expo = g.kappa * (math.log(h) / math.log(g.nu)) + 1.0
        self._gamma_esc = g.escape_gain
        self._h_tilde = d.intersample_gain
        self._recent: dict = {}  # see _recent

    def stab_state_gain(self, e: float, s: float) -> float:
        """Stabilizing-stage bound from the entry state."""
        long_time = self._c12 * s ** (self._kappa / 2.0) * (s + e)
        short_time = self._h_factor * s**self._expo
        return max(long_time, short_time)

    def stab_dist_gain(self, e: float, s: float) -> float:
        """Stabilizing-stage bound from the disturbance."""
        long_time = self._c12 * s ** (self._kappa / 2.0) * (self._phi_d * s + e)
        short_time = self._h_factor * self._phi_d * s**self._expo
        return max(long_time, short_time)

    @_recent
    def capture0_gain(self, s: float) -> float:
        """initial_search_bound on the diagonal."""
        return self.initial_search_bound(s, s)

    @_recent
    def capture_gain(self, s: float) -> float:
        """recapture_bound on the diagonal."""
        return self.recapture_bound(s, s)

    def first_stage_bound(self, e: float, s: float, r: float) -> float:
        """First stabilizing stage, full arguments."""
        e_cap = self.initial_capture_radius(e, s, r)
        return (self.stab_state_gain(e_cap, self.capture0_gain(s) + self.capture0_gain(r))
                + self.stab_dist_gain(e_cap, r))

    @_recent
    def first_stage_gain(self, e: float, s: float) -> float:
        """first_stage_bound on the diagonal."""
        return self.first_stage_bound(e, s, s)

    @_recent
    def post_escape_gain(self, s: float) -> float:
        """Searching stages after an escape."""
        return self.capture_gain(self._gamma_esc * s) + self.capture_gain(s)

    @_recent
    def post_recapture_gain(self, s: float) -> float:
        """Stabilizing stages after a recapture."""
        e_cap = self.recapture_radius(self._gamma_esc * s, s)
        return (self.stab_state_gain(e_cap, self.post_escape_gain(s))
                + self.stab_dist_gain(e_cap, s))

    def gamma1(self, s: float) -> float:
        return self._h_tilde * max(self.capture0_gain(s), self.first_stage_gain(self._e0, s))

    def gamma2(self, s: float) -> float:
        return (self._h_tilde * max(self.capture0_gain(s), self.first_stage_gain(self._e0, s),
                                    self.post_escape_gain(s), self.post_recapture_gain(s))
                + self._phi_d * s)

    def gamma3(self, s: float) -> float:
        return (self._h_tilde * max(self._phi_d * s, self.post_escape_gain(s),
                                    self.post_recapture_gain(s))
                + self._phi_d * s)


def iss_gains(d: DerivedConstants, p: DesignParams, g: GainConstants) -> GainFunctions:
    """The full gain-function stack; raises ValueError without a valid
    contraction certificate."""
    return GainFunctions(d, p, g)


def gain_value(name: str, fn, *args) -> float:
    """``fn(*args)`` over Python floats (numpy's bits, but no overflow
    warning).  A value that leaves the float range, by a power that raises
    or a product that rounds to inf, raises OverflowError with one line
    naming the gain and its arguments."""
    args = tuple(map(float, args))
    try:
        value = fn(*args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"gain {name}({', '.join(map(repr, args))}) leaves the float range")
    return value


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
        self.worst = float(np.min(margin, initial=self.worst))  # a NaN margin sticks
        tol = SLACK * np.maximum(1.0, np.abs(rhs))
        self.violations += int(np.count_nonzero(~(lhs <= rhs + tol)))  # NaN fails

    def row(self) -> CheckRow:
        worst = self.worst if self.n else math.inf
        return CheckRow(self.name, self.n, worst, "fail" if self.violations else "pass")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry fails its rows instead
def check_trajectory(log: TrajectoryLog, d: DerivedConstants, p: DesignParams,
                     g: GainConstants, sig: Disturbance) -> CheckReport:
    """Verify every applicable inequality on a logged run, one row per
    name in :data:`CHECKS`.

    The protocol checks always run; the certificate checks run only when
    the design certificate holds (``g.valid``) and are reported
    "not_certified" otherwise.  The ISS envelope composes its gain
    functions from ``g`` with :func:`iss_gains`.
    """
    if log.center.shape[1] != d.P.shape[0]:
        raise ValueError("log and constants disagree on the state dimension")
    if log.d_sup_prev.size != log.t.size:
        raise ValueError("malformed log")

    n = d.n_levels
    last = log.n_samples - 1
    t, E, V, sym, dsup = log.t, log.radius, log.value, log.symbol, log.d_sup_prev
    x_norm = np.max(np.abs(log.x), axis=1)
    center_err = np.max(np.abs(log.x - log.center), axis=1)
    # A visible symbol stabilizes the next interval, so this one mask is both.
    stab = sym >= 1
    ks_stab = np.flatnonzero(stab[:last])  # visible samples with a successor
    ks_search = np.flatnonzero(~stab[:last])
    maps = _SearchMaps(d, p)
    acc = {name: _Acc(name) for name in (CHECKS if g.valid else PROTOCOL_CHECKS)}

    # A cell symbol bounds the decoded error, the near-origin symbol the state.
    cells = sym >= 2
    xhat_err = np.max(np.abs(log.x - log.xhat), axis=1)
    acc["quantization_cell"].add(np.where(cells, xhat_err, x_norm)[stab], E[stab] / n)
    acc["quantization_center"].add(np.max(np.abs(log.xhat - log.center), axis=1)[cells],
                                   (n - 1) / n * E[cells])
    acc["error_recursion_stabilizing"].add(
        center_err[ks_stab + 1], d.growth_eff / n * E[ks_stab] + d.dist_gain * dsup[ks_stab + 1])
    acc["error_recursion_searching"].add(
        center_err[ks_search + 1],
        d.growth_eff * center_err[ks_search] + d.dist_gain * dsup[ks_search + 1])

    # The events are the visibility toggles, so they alternate: each one's
    # episode ends at the next event, or at the last sample while it is open.
    ev_k = np.flatnonzero(stab[1:] != stab[:-1]) + 1
    ev_end = np.append(ev_k, last)[1:]
    lost_at_start = sym[0] == 0
    escapes = slice(int(lost_at_start), None, 2)
    k_esc, k_rec = ev_k[escapes], ev_end[escapes]
    recaptured = np.arange(ev_k.size)[escapes] < ev_k.size - 1

    esc_bound = g.escape_gain * dsup[k_esc]
    acc["escape_state_bound"].add(x_norm[k_esc], esc_bound)
    acc["escape_radius_bound"].add(E[k_esc - 1], esc_bound)
    # Each counter's argument is a ratio of Python floats: no overflow warning.
    rec_bound = k_esc + np.array([max(gain_value("eta_dist", maps.eta_dist, s / p.dist_level), 1.0)
                                  for s in sig.sup_norm(t[k_esc - 1], t[k_rec]).tolist()])
    # An open search counts only once it has outrun its bound.
    kept = recaptured | (last > rec_bound)
    acc["recapture_index"].add(k_rec[kept], rec_bound[kept])

    if lost_at_start:
        captured = ev_k.size > 0
        k_cap = int(ev_k[0]) if captured else last
        r = sig.sup_norm(0.0, t[k_cap])
        bound = max(gain_value("eta_state", maps.eta_state, float(x_norm[0]) / p.radius0),
                    gain_value("eta_dist", maps.eta_dist, r / p.dist_level))
        if captured or last > bound:
            acc["capture_initial_index"].add(float(k_cap), bound)
        search_bound = maps.initial_search_bound
        acc["initial_search_state_bound"].add(
            x_norm[: k_cap + 1],
            gain_value("initial_search_bound", search_bound, x_norm[0], x_norm[0])
            + gain_value("initial_search_bound", search_bound, r, r))
        if captured:
            acc["initial_capture_radius"].add(
                E[k_cap], gain_value("initial_capture_radius", maps.initial_capture_radius,
                                     p.radius0, x_norm[0], r))

    if g.valid:
        acc["lyapunov_decay"].add(V[ks_stab + 1], d.nu * V[ks_stab])
        acc["value_bound_c1"].add(np.sqrt(V[stab]), g.c1 * (x_norm[stab] + E[stab]))
        acc["state_bound_c2"].add(x_norm[stab], g.c2 * np.sqrt(V[stab]))
        acc["next_state_bound_c3"].add(
            x_norm[ks_stab + 1], g.c3 * np.sqrt(V[ks_stab]) + d.dist_gain * dsup[ks_stab + 1])
        _add_exp_decay(acc["exp_decay_envelope"], stab, x_norm, E, dsup, g.c_exp, d.nu,
                       d.dist_gain)
        gains = iss_gains(d, p, g)
        iss_bound = (gain_value("gamma1", gains.gamma1, x_norm[0])
                     + gain_value("gamma2", gains.gamma2, sig.sup_norm(0.0, t[last])))

    # One pass over the dense log checks both dense envelopes.  It reads the
    # ISS bound, so it comes after every gain: a gain that leaves the float
    # range is named in the order the checks evaluate them.
    for a in range(0, len(log.dense_x), _DENSE_BLOCK):
        dk, dts, dxs = log.dense_block(a, a + _DENSE_BLOCK)[:3]
        dense_norm = np.max(np.abs(dxs), axis=1)
        acc["intersample_envelope"].add(
            dense_norm, d.intersample_gain * x_norm[dk] + d.dist_gain * sig.sup_norm(t[dk], dts))
        if g.valid:
            acc["iss_envelope"].add(dense_norm, iss_bound)

    return CheckReport([acc[name].row() if name in acc
                        else CheckRow(name, 0, math.nan, "not_certified") for name in CHECKS],
                       certified=g.valid)


def _add_exp_decay(acc: _Acc, stab: np.ndarray, x_norm: np.ndarray, E: np.ndarray,
                   dsup: np.ndarray, c_exp: float, nu: float, dist_gain: float) -> None:
    """|x(t_k)| <= nu^{(k-l)/2} c_exp (|x(t_l)| + E_l) + dist_gain dsup_k
    for every pair l < k in one stabilizing run.

    The right side grows with its first term, so a run violates the
    envelope iff it does at the l minimizing that term; only that pair is
    evaluated for each k, while ``n_checked`` counts all m(m-1)/2 pairs.
    """
    sqrt_nu = math.sqrt(nu)
    idx = np.flatnonzero(stab)
    for run in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
        m = run.size
        if m < 2:
            continue
        base = c_exp * (x_norm[run] + E[run])  # indexed by l
        ls = _tightest_earlier(base, sqrt_nu)
        rhs = sqrt_nu ** (np.arange(1, m) - ls) * base[ls] + dist_gain * dsup[run[1:]]
        acc.add(x_norm[run[1:]], rhs, n_checked=m * (m - 1) // 2)


def _tightest_earlier(base: np.ndarray, q: float) -> np.ndarray:
    """For k = 1..m-1, the l < k minimizing q^(k-l) * base[l].

    Runs the recurrence r_k = q * min(r_{k-1}, base_{k-1}) and keeps the
    index of the minimum, so the caller can evaluate the bound at that l
    exactly as the full pair grid would.  An exact tie keeps the later l:
    both give the same bound in exact arithmetic and differ only in the
    rounding of the caller's q^(k-l) * base[l], so the rule is a choice,
    pinned by a test, not a correctness condition.
    """
    ls = np.empty(base.size - 1, dtype=np.int64)
    r, arg = math.inf, 0
    for k, b in enumerate(base[:-1].tolist()):
        if b <= r:
            r, arg = b, k
        ls[k] = arg
        r *= q
    return ls
