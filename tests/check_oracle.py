"""Quadratic-time transcription of the two dense trajectory checks, kept
independent of the package's linear-time implementation.

``intersample_envelope`` masks the dense records of each sampling interval
and calls ``sup_norm`` once per dense point; ``exp_decay_envelope`` expands
every pair l < k of each stabilizing run.  Both return the row tuple
``(name, n_checked, status, worst_margin)`` that ``qrate.CheckRow`` carries.
"""

import math

import numpy as np

SLACK = 1e-9


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
