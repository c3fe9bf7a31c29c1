"""Closed-loop continuous-time integration of the plant together with the
controller's auxiliary model, and the full sampled protocol loop.

Integration is exact zero-order-hold stepping (block matrix exponentials)
on every subinterval where the disturbance is constant, and fixed-step RK4
otherwise.  Substeps are split at disturbance discontinuities so the ZOH
path stays exact for pulse-type signals.

On a sampling interval with no breakpoint inside, a piecewise-constant
input is evaluated once and each substep is one product z <- Phi_h z + c_h,
with c_h = Psi_h w formed once per substep width h.  That repeats the
arithmetic of stepping segment by segment with a fresh input each time, so
the trajectory is the same to the bit.  It has to be: the bundled plant has
an open-loop eigenvalue of +1, so any rounding difference grows like e^t
until it flips a symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import codec
from .codec import CodecState, Stage
from .design import DerivedConstants, DesignParams, PlantModel
from .matnum import as_vector
from .signals import Disturbance

__all__ = ["TrajectoryEvent", "TrajectoryLog", "sup_norm_on", "step_interval", "run_closed_loop"]

DEFAULT_SUBSTEPS = 100


@dataclass(frozen=True)
class TrajectoryEvent:
    kind: str  # "captured" or "escaped"
    k: int
    t: float


@dataclass(eq=False)
class TrajectoryLog:
    """Sampled and dense records of one closed-loop run.

    Sample arrays are indexed by k = 0..n_samples; dense arrays carry the
    substep-resolution trajectory with ``dense_k`` mapping each record to
    its sampling interval.  ``xhat`` holds the post-reset auxiliary state.
    """

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    symbol: np.ndarray
    stage: np.ndarray          # 1 stabilizing, 0 searching
    radius: np.ndarray         # quantization radius E_k
    center: np.ndarray         # shared range center
    value: np.ndarray          # V_k from the shared bookkeeping
    d_sup_prev: np.ndarray     # sup norm of d over [t_{k-1}, t_k], 0 at k=0
    dense_t: np.ndarray
    dense_k: np.ndarray
    dense_x: np.ndarray
    dense_xhat: np.ndarray
    dense_u: np.ndarray
    events: list[TrajectoryEvent]
    enc_states: list[CodecState]
    dec_states: list[CodecState]
    x0: np.ndarray
    horizon: float
    substeps: int

    @property
    def n_samples(self) -> int:
        return self.t.size


def sup_norm_on(sig: Disturbance, a: float, b: float) -> float:
    """Exact sup norm of the signal over [a, b] (``sig.sup_norm``; kept as a
    public name for ``perfbench/layertrace.py``, which wraps it)."""
    return sig.sup_norm(a, b)


def _augmented(m: PlantModel, stage: Stage) -> np.ndarray:
    """Block dynamics of z = (x, xhat) for one stage."""
    n = m.n_x
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = m.A
    if stage is Stage.STABILIZING:
        M[:n, n:] = m.B @ m.K
        M[n:, n:] = m.closed_loop()
    else:
        M[n:, n:] = m.A
    return M


def _zoh_pair(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{Mh}, integral of e^{Ms} ds over [0, h]) via one block exponential."""
    n = M.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = M
    blk[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(blk * h)
    return E[:n, :n], E[:n, n:]


def _rk4_step(M: np.ndarray, w_a: np.ndarray, w_mid: np.ndarray, w_b: np.ndarray,
              h: float, z: np.ndarray) -> np.ndarray:
    """Classical RK4 step; w_a, w_mid, w_b are the inputs at a, a + h/2, a + h."""
    k1 = M @ z + w_a
    k2 = M @ (z + 0.5 * h * k1) + w_mid
    k3 = M @ (z + 0.5 * h * k2) + w_mid
    k4 = M @ (z + h * k3) + w_b
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _zoh_lookup(cache: dict, M: np.ndarray, stage: Stage,
                h: float) -> tuple[np.ndarray, np.ndarray]:
    key = (stage, h)
    pair = cache.get(key)
    if pair is None:
        pair = _zoh_pair(M, h)
        cache[key] = pair
    return pair


def _zoh_steps(M: np.ndarray, stage: Stage, edges: np.ndarray, z0: np.ndarray, cache: dict,
               w_of, constant_input: bool) -> np.ndarray:
    """ZOH substeps z <- Phi_h z + Psi_h w, with w taken at each segment's
    midpoint; returns the states at every edge.

    With ``constant_input`` (no breakpoint inside the interval) w is
    evaluated once and Psi_h w formed once per distinct width h.  Either
    way every float operation equals that of stepping segment by segment
    with a fresh input, and the cache is filled in the same order.
    """
    hs = np.diff(edges).tolist()
    if constant_input:
        w = w_of(0.5 * (edges[0] + edges[1]))
        by_width = {}
        for h in dict.fromkeys(hs):  # distinct widths in order of first use
            Phi, Psi = _zoh_lookup(cache, M, stage, h)
            by_width[h] = (Phi, Psi @ w)
        steps = [by_width[h] for h in hs]
    else:
        steps = []
        for h, t in zip(hs, (0.5 * (edges[:-1] + edges[1:])).tolist()):
            Phi, Psi = _zoh_lookup(cache, M, stage, h)
            steps.append((Phi, Psi @ w_of(t)))
    zs = np.empty((edges.size, z0.size))
    zs[0] = z0
    rows = list(zs)
    phi_z = np.empty(z0.size)
    for (Phi, c), src, dst in zip(steps, rows, rows[1:]):
        np.matmul(Phi, src, out=phi_z)
        np.add(phi_z, c, out=dst)
    return zs


def step_interval(m: PlantModel, x: np.ndarray, xhat: np.ndarray, stage: Stage,
                  sig: Disturbance, t_k: float, substeps: int = DEFAULT_SUBSTEPS,
                  zoh_cache: dict | None = None):
    """Integrate one sampling period from t_k.

    Returns (x at the end of the period, xhat at the end of the period,
    dense records (t, x, xhat, u) at substep resolution).  ``xhat`` must
    already be reset for the interval.  ``zoh_cache`` maps (stage, substep
    width) to the ZOH pair and may be shared across calls.
    """
    n = m.n_x
    z = np.concatenate([as_vector(x, "x"), as_vector(xhat, "xhat")])
    M = _augmented(m, stage)
    edges = t_k + (m.dt / substeps) * np.arange(substeps + 1)
    bps = [t for t in sig.breakpoints(t_k, t_k + m.dt)]
    if bps:
        merged = np.concatenate([edges, np.asarray(bps, dtype=float)])
        merged.sort()
        # Drop near-duplicates so degenerate segments never reach the stepper.
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * m.dt])
        edges = merged[keep]
        edges[-1] = t_k + m.dt

    def w_of(t: float) -> np.ndarray:
        w = np.zeros(2 * n)
        w[:n] = m.D @ sig.value(t)
        return w

    cache = zoh_cache if zoh_cache is not None else {}
    if sig.piecewise_constant:
        zs = _zoh_steps(M, stage, edges, z, cache, w_of, constant_input=not bps)
    else:
        zs = np.empty((edges.size, z.size))
        zs[0] = z
        t_end, w_end = None, None
        points = edges.tolist()
        for i, (a, b) in enumerate(zip(points, points[1:])):
            h = b - a
            # The input at the end of a step is the next step's start input
            # whenever a + h lands exactly on the next edge.
            w_a = w_end if a == t_end else w_of(a)
            t_end = a + h
            w_end = w_of(t_end)
            z = _rk4_step(M, w_a, w_of(a + 0.5 * h), w_end, h, z)
            zs[i + 1] = z

    xs, xhats = zs[:, :n], zs[:, n:]
    if stage is Stage.STABILIZING:
        us = xhats @ m.K.T
    else:
        us = np.zeros((edges.size, m.n_u))
    return zs[-1, :n].copy(), zs[-1, n:].copy(), (edges, xs, xhats, us)


class _DenseLog:
    """Dense records written interval by interval into preallocated arrays,
    so the run never holds a second copy of its log.

    ``capacity`` should bound the record count; if it does not, an array
    grows by half.  ``arrays`` trims each buffer to its records in place
    and returns them, so no unused rows stay allocated; call it once, after
    the last ``append``.
    """

    def __init__(self, capacity: int, n_x: int, n_u: int):
        self.size = 0
        self.cols = {"dense_t": np.empty(capacity), "dense_k": np.empty(capacity, dtype=int),
                     "dense_x": np.empty((capacity, n_x)),
                     "dense_xhat": np.empty((capacity, n_x)),
                     "dense_u": np.empty((capacity, n_u))}

    def append(self, k: int, ts, xs, xhats, us) -> None:
        lo, hi = self.size, self.size + ts.size
        for name, rec in zip(self.cols, (ts, k, xs, xhats, us)):
            col = self.cols[name]
            if hi > col.shape[0]:
                grown = np.empty((max(hi, col.shape[0] * 3 // 2),) + col.shape[1:], col.dtype)
                grown[:lo] = col[:lo]
                self.cols[name] = col = grown
            col[lo:hi] = rec
        self.size = hi

    def arrays(self) -> dict[str, np.ndarray]:
        for col in self.cols.values():
            # the buffers are owned and no view of them is alive
            col.resize((self.size,) + col.shape[1:], refcheck=False)
        return dict(self.cols)


def run_closed_loop(m: PlantModel, p: DesignParams, d: DerivedConstants,
                    sig: Disturbance, x0, horizon: float,
                    substeps: int = DEFAULT_SUBSTEPS) -> TrajectoryLog:
    """Run the full sampled protocol: encode, decode, reset, integrate,
    and propagate both codec states, logging everything.

    The encoder and decoder are advanced independently from the exchanged
    symbol; a lockstep divergence raises immediately.
    """
    x = as_vector(x0, "x0").copy()
    if x.size != m.n_x:
        raise ValueError("x0 dimension mismatch")
    if sig.dim != m.n_d:
        raise ValueError("disturbance dimension mismatch")
    if horizon < m.dt:
        raise ValueError("horizon must cover at least one sampling period")
    n_steps = int(np.floor(horizon / m.dt + 1e-9))

    enc = codec.initial_state(p.radius0, m.n_x)
    dec = codec.initial_state(p.radius0, m.n_x)

    samp_t, samp_x, samp_xhat = [], [], []
    samp_sym, samp_stage, samp_E, samp_center, samp_V = [], [], [], [], []
    # Each interval has substeps + 1 edges and at most one more per breakpoint.
    dense = _DenseLog(n_steps * (substeps + 1) + len(sig.breakpoints(0.0, n_steps * m.dt)),
                      m.n_x, m.n_u)
    events: list[TrajectoryEvent] = []
    enc_states: list[CodecState] = []
    dec_states: list[CodecState] = []
    cache: dict = {}
    prev_visible: bool | None = None

    for k in range(n_steps + 1):
        t_k = k * m.dt
        sym = codec.encode(enc, x, m.n_levels)
        if sym >= 1:
            xhat = codec.decode_center(dec, sym, m.n_levels)
            stage = Stage.STABILIZING
        else:
            xhat = dec.center.copy()
            stage = Stage.SEARCHING

        visible = sym >= 1
        if prev_visible is not None and visible != prev_visible:
            events.append(TrajectoryEvent("captured" if visible else "escaped", k, t_k))
        prev_visible = visible

        samp_t.append(t_k)
        samp_x.append(x.copy())
        samp_xhat.append(xhat.copy())
        samp_sym.append(sym)
        samp_stage.append(1 if stage is Stage.STABILIZING else 0)
        samp_E.append(dec.radius)
        samp_center.append(dec.center.copy())
        samp_V.append(codec.quad_value(dec.center, dec.radius, d.P, p.rho))
        enc_states.append(enc)
        dec_states.append(dec)

        if k == n_steps:
            break

        x, _, records = step_interval(m, x, xhat, stage, sig, t_k, substeps, cache)
        dense.append(k, *records)

        enc = codec.advance(enc, sym, d, p)
        dec = codec.advance(dec, sym, d, p)
        if enc != dec:
            raise RuntimeError("encoder and decoder states diverged")

    t = np.asarray(samp_t)
    return TrajectoryLog(
        t=t,
        x=np.asarray(samp_x),
        xhat=np.asarray(samp_xhat),
        symbol=np.asarray(samp_sym, dtype=int),
        stage=np.asarray(samp_stage, dtype=int),
        radius=np.asarray(samp_E),
        center=np.asarray(samp_center),
        value=np.asarray(samp_V),
        d_sup_prev=np.concatenate([[0.0], sig.sup_norm(t[:-1], t[1:])]),
        **dense.arrays(),
        events=events,
        enc_states=enc_states,
        dec_states=dec_states,
        x0=as_vector(x0).copy(),
        horizon=float(horizon),
        substeps=int(substeps),
    )
