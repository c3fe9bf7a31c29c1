"""Quadratic-time transcription of the two dense trajectory checks and a
per-event transcription of the six escape and capture checks, kept
independent of the package's vectorized implementation, and a replay of
the codec bookkeeping from a run's symbols.

``intersample_envelope`` masks the dense records of each sampling interval
and calls ``sup_norm`` once per dense point; ``exp_decay_envelope`` expands
every pair l < k of each stabilizing run; ``episode_rows`` walks the events
one at a time and looks each escape's recapture up among all captures.
Each returns the row tuple ``(name, n_checked, status, worst_margin)`` that
``qrate.CheckRow`` carries.

``replay`` is what the controller-side decoder knows: the range and value
at each sample, from the symbol stream alone.  ``visibility_events`` logs
the stage column and the events sample by sample, as the protocol loop
once did.  ``replay_mismatches`` names the fields of a run that differ from
both, bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from qrate import codec
from qrate.plant import TrajectoryEvent

SLACK = 1e-9


def replay(symbols, d, p, n_x):
    """(radius, center, value) at each sample, by one ``codec.advance`` per
    symbol from ``codec.initial_state``."""
    state = codec.initial_state(p.radius0, n_x)
    radius, center, value = [], [], []
    for sym in np.asarray(symbols).tolist():
        v = codec.quad_value(state.center, state.radius, d.P, p.rho)
        xhat = codec.decode_center(state, sym, d.n_levels) if sym >= 1 else state.center
        radius.append(state.radius)
        center.append(state.center)
        value.append(v)
        state = codec.advance(state, sym, xhat, v, d, p)
    return np.asarray(radius), np.asarray(center), np.asarray(value)


def visibility_events(symbols, dt):
    """(stage, events): stage 1 at a visible symbol (>= 1), else 0, and an
    event at each sample whose visibility differs from the previous
    sample's, at t_k = k * dt."""
    stage, events, prev_visible = [], [], None
    for k, sym in enumerate(np.asarray(symbols).tolist()):
        visible = sym >= 1
        if prev_visible is not None and visible != prev_visible:
            events.append(TrajectoryEvent("captured" if visible else "escaped", k, k * dt))
        prev_visible = visible
        stage.append(1 if visible else 0)
    return np.asarray(stage, dtype=int), events


def differing_fields(a, b, names):
    """The names among ``names`` whose values differ between ``a`` and
    ``b``: arrays by dtype, shape and bytes, anything else by repr, which
    tells every two floats apart (and an event's np.float64 time from a
    float one)."""
    def bits(v):
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
    return [name for name in names if bits(getattr(a, name)) != bits(getattr(b, name))]


def replay_mismatches(log, m, p, d):
    """The fields of ``log`` that differ from the replay of ``log.symbol``."""
    radius, center, value = replay(log.symbol, d, p, m.n_x)
    stage, events = visibility_events(log.symbol, m.dt)
    want = SimpleNamespace(radius=radius, center=center, value=value, stage=stage,
                           events=events)
    return differing_fields(log, want, vars(want))


class _Tally:
    def __init__(self, name):
        self.name, self.n, self.worst, self.violations = name, 0, math.inf, 0

    def add(self, lhs, rhs):
        lhs, rhs = np.broadcast_arrays(np.atleast_1d(np.asarray(lhs, dtype=float)),
                                       np.atleast_1d(np.asarray(rhs, dtype=float)))
        if lhs.size == 0:
            return
        self.n += lhs.size
        self.worst = min(self.worst, float((rhs - lhs).min()))
        self.violations += int(np.count_nonzero(lhs > rhs + SLACK * np.maximum(1.0, np.abs(rhs))))

    def row(self):
        return (self.name, self.n, "fail" if self.violations else "pass",
                self.worst if self.n else math.inf)


def intersample_envelope(log, intersample_gain, dist_gain, sig):
    tally = _Tally("intersample_envelope")
    x_norm = np.max(np.abs(log.x), axis=1)
    dense_norm = np.max(np.abs(log.dense_x), axis=1) if log.dense_x.size else np.empty(0)
    for k in np.unique(log.dense_k):
        mask = log.dense_k == k
        sups = np.array([sig.sup_norm(log.t[k], ti) for ti in log.dense_t[mask]])
        tally.add(dense_norm[mask], intersample_gain * x_norm[k] + dist_gain * sups)
    return tally.row()


def _runs(stab):
    idx = np.flatnonzero(stab)
    if idx.size == 0:
        return []
    return np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)


def exp_decay_envelope(stab, x_norm, E, dsup, c_exp, nu, dist_gain):
    tally = _Tally("exp_decay_envelope")
    sqrt_nu = math.sqrt(nu)
    for run in _runs(stab):
        m = run.size
        if m < 2:
            continue
        base = c_exp * (x_norm[run] + E[run])
        lhs_all = x_norm[run]
        extra = dist_gain * dsup[run]
        for i0 in range(1, m, 512):
            ks_rel = np.arange(i0, min(i0 + 512, m))
            gap = ks_rel[:, None] - np.arange(m)[None, :]
            valid = gap > 0
            rhs = sqrt_nu ** np.maximum(gap, 0) * base[None, :] + extra[ks_rel, None]
            tally.add(np.broadcast_to(lhs_all[ks_rel][:, None], rhs.shape)[valid], rhs[valid])
    return tally.row()


def episode_rows(log, maps, escape_gain, radius0, dist_level, sig):
    """The six escape and capture rows by name; ``maps`` supplies the
    capture-step counters and search-stage bounds of the design."""
    t, E, dsup, last = log.t, log.radius, log.d_sup_prev, log.n_samples - 1
    x_norm = np.max(np.abs(log.x), axis=1)
    escapes = [ev for ev in log.events if ev.kind == "escaped"]
    captures = [ev for ev in log.events if ev.kind == "captured"]
    tallies = {name: _Tally(name) for name in (
        "escape_state_bound", "escape_radius_bound", "capture_initial_index",
        "recapture_index", "initial_search_state_bound", "initial_capture_radius")}

    for ev in escapes:
        tallies["escape_state_bound"].add(x_norm[ev.k], escape_gain * dsup[ev.k])
        tallies["escape_radius_bound"].add(E[ev.k - 1], escape_gain * dsup[ev.k])

    lost_at_start = log.symbol[0] == 0
    first_capture = captures[0].k if (lost_at_start and captures) else None

    if lost_at_start:
        x0_ratio = x_norm[0] / radius0
        if first_capture is not None:
            bound = max(maps.eta_state(x0_ratio),
                        maps.eta_dist(sig.sup_norm(0.0, t[first_capture]) / dist_level))
            tallies["capture_initial_index"].add(float(first_capture), bound)
        else:
            bound = max(maps.eta_state(x0_ratio),
                        maps.eta_dist(sig.sup_norm(0.0, t[last]) / dist_level))
            if last > bound:
                tallies["capture_initial_index"].add(float(last), bound)

    for ev in escapes:
        nxt = next((c for c in captures if c.k > ev.k), None)
        if nxt is not None:
            s = sig.sup_norm(t[ev.k - 1], t[nxt.k]) / dist_level
            tallies["recapture_index"].add(float(nxt.k), ev.k + max(maps.eta_dist(s), 1.0))
        else:
            s = sig.sup_norm(t[ev.k - 1], t[last]) / dist_level
            bound = ev.k + max(maps.eta_dist(s), 1.0)
            if last > bound:
                tallies["recapture_index"].add(float(last), bound)

    if lost_at_start:
        k_end = first_capture if first_capture is not None else last
        r = sig.sup_norm(0.0, t[k_end])
        bound = (maps.initial_search_bound(x_norm[0], x_norm[0])
                 + maps.initial_search_bound(r, r))
        tallies["initial_search_state_bound"].add(x_norm[: k_end + 1], bound)

    if lost_at_start and first_capture is not None:
        r = sig.sup_norm(0.0, t[first_capture])
        tallies["initial_capture_radius"].add(
            E[first_capture], maps.initial_capture_radius(radius0, x_norm[0], r))

    return {name: tally.row() for name, tally in tallies.items()}
