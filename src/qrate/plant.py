"""Closed-loop continuous-time integration of the plant together with the
controller's auxiliary model, and the full sampled protocol loop.

Integration is exact zero-order-hold stepping (block matrix exponentials)
where the disturbance is constant, split at its discontinuities, and
fixed-step RK4 otherwise.  Each stage's block matrix is built once per
plant and the substep grid once per (dt, substeps); a run computes the ZOH
pair of each (stage, substep width) once, and sizes its dense log once.
A run also builds the substep plan of each breakpoint-free ZOH interval
once per (stage, substep widths), and replays it: each substep's
``Phi.dot``, its width slot, and each distinct width's Psi, so an interval
forms only its Psi w constants.  The pairs, the plans and the state rows
that every interval, ZOH or RK4, steps in, with their row views built
once, are one object per run; one copy moves an interval's records out.
Each sampling interval then encodes, decodes, values and advances the codec
state once, and evaluates its inputs in one broadcast ``Disturbance.value``
call: the first midpoint when no breakpoint splits a constant input, else
every segment midpoint, or every RK4 start, midpoint and end.  Each substep
is a few numpy calls into preallocated buffers; matrix-vector products are
``ndarray.dot(v, out)``, the same BLAS gemv as ``@`` at half the call cost.
An autonomous ZOH interval, whose input terms are +0.0 in every bit (each
interval between the pulses of a pulse train), is one gemv per substep
and a single +0.0 add over its records, the per-substep adds deferred.
This is the arithmetic of stepping segment by segment with a fresh input,
operation for operation, save that deferral, which ``_zoh_steps`` shows to
be exact; so the trajectory is the same to the bit.  It has
to be: the bundled plant has an open-loop eigenvalue of +1, so any rounding
difference grows like e^t until it flips a symbol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import codec
from .codec import Stage
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

    @property
    def n_samples(self) -> int:
        return self.t.size


def sup_norm_on(sig: Disturbance, a: float, b: float) -> float:
    """Exact sup norm of the signal over [a, b] (``sig.sup_norm``; kept as a
    public name for ``perfbench/layertrace.py``, which wraps it)."""
    return sig.sup_norm(a, b)


@functools.lru_cache(maxsize=32)
def _augmented(m: PlantModel, stage: Stage) -> np.ndarray:
    """Block dynamics of z = (x, xhat) for one stage, read-only, built once per plant."""
    n = m.n_x
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = m.A
    if stage is Stage.STABILIZING:
        M[:n, n:] = m.B @ m.K
        M[n:, n:] = m.closed_loop()
    else:
        M[n:, n:] = m.A
    M.flags.writeable = False
    return M


@functools.lru_cache(maxsize=32)
def _substep_grid(dt: float, substeps: int) -> np.ndarray:
    """Offsets of an interval's substep edges from its start, read-only."""
    grid = (dt / substeps) * np.arange(substeps + 1)
    grid.flags.writeable = False
    return grid


def _zoh_pair(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{Mh}, integral of e^{Ms} ds over [0, h]) via one block exponential;
    e^{Mh} C-contiguous, as ``ndarray.dot`` copies any other layout per call."""
    n = M.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = M
    blk[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(blk * h)
    return np.ascontiguousarray(E[:n, :n]), E[:n, n:]


def _inputs(m: PlantModel, sig: Disturbance, ts: np.ndarray) -> np.ndarray:
    """The block input (D d(t), 0) at each time of ``ts``, one row each, from
    one ``value`` call.  The stacked product is one gemv per row, so each row
    has the bits of ``m.D @ sig.value(t)``."""
    w = np.zeros((ts.size, 2 * m.n_x))
    w[:, :m.n_x] = np.matmul(m.D, sig.value(ts)[:, :, None])[:, :, 0]
    return w


class _ZohCache(dict):
    """The stepping state of one run.  Its items are the ZOH pairs, keyed
    (stage, substep width) in order of first use.  Beside them it keeps the
    ``plans`` of the breakpoint-free ZOH intervals, keyed (stage, substep
    widths as bytes), and the state rows that every interval steps in:
    ``buf``, with its row views built once (``rows[i]`` is row i and
    ``dsts[i]`` row i + 1), the gemv output ``phi_z`` and ``zero``, the
    bytes of +0.0 in every entry of a row."""

    def __init__(self):
        super().__init__()
        self.plans: dict = {}
        self.buf = np.empty((0, 0))

    def load(self, zs: np.ndarray) -> None:
        """Copy ``zs[0]`` into row 0, first rebuilding the rows when ``zs``
        has more rows than they do or another row size."""
        n_rows, size = zs.shape
        if self.buf.shape[0] < n_rows or self.buf.shape[1] != size:
            self.buf = np.empty((n_rows, size))
            self.rows, self.dsts = list(self.buf), list(self.buf[1:])
            self.phi_z = np.empty(size)
            self.zero = bytes(self.phi_z.nbytes)
        self.rows[0][...] = zs[0]

    def plan(self, M: np.ndarray, stage: Stage, widths: np.ndarray,
             keep: bool) -> tuple[list, list, list]:
        """The substep program for segments of ``widths``: each substep's
        ``Phi.dot`` (one bound method per distinct width, shared by its
        substeps), each substep's slot among the distinct widths, and the
        Psi of each distinct width.  With ``keep`` the plan is kept in
        ``plans`` and replayed by every later interval of the same stage and
        widths.  The pairs of the distinct widths are looked up in order of
        first use, so the run's pairs fill in that order."""
        key = (stage, widths.tobytes())
        plan = self.plans.get(key) if keep else None
        if plan is None:
            hs = widths.tolist()
            slot = {h: i for i, h in enumerate(dict.fromkeys(hs))}
            for h in slot:
                if (stage, h) not in self:
                    self[(stage, h)] = _zoh_pair(M, h)
            pairs = [self[(stage, h)] for h in slot]
            slots = [slot[h] for h in hs]
            dots = [Phi.dot for Phi, _ in pairs]
            plan = [dots[i] for i in slots], slots, [Psi for _, Psi in pairs]
            if keep:
                self.plans[key] = plan
        return plan


def _rk4_steps(m: PlantModel, M: np.ndarray, sig: Disturbance, edges: np.ndarray,
               zs: np.ndarray, cache: _ZohCache) -> None:
    """Classical RK4 from ``zs[0]`` over the segments [a, a + h] of
    ``edges``, each edge's state written into the next row of ``zs``.  The
    steps run in ``cache``'s rows, copied out to ``zs`` once.  Per step, in
    this order and association: k1 = M z + w_a, k2 = M (z + (h/2) k1) + w_mid,
    k3 = M (z + (h/2) k2) + w_mid, k4 = M (z + h k3) + w_b and
    z + (h/6) (((k1 + 2 k2) + 2 k3) + k4); a start a equal to the previous
    end reuses that end's input."""
    a, hs = edges[:-1], np.diff(edges)
    n_seg, ends, size = hs.size, a + hs, zs.shape[1]
    fresh = np.concatenate([[True], a[1:] != ends[:-1]])
    # rows of w: the midpoints, the ends, then the fresh starts
    w = _inputs(m, sig, np.concatenate([a + 0.5 * hs, ends, a[fresh]]))
    starts = np.where(fresh, 2 * n_seg + np.cumsum(fresh) - 1, n_seg + np.arange(n_seg) - 1)
    # h/2, h, h/6 and 2 as vectors: half the call cost of a scalar, same bits
    halves, fulls, sixths = (list(np.repeat(c[:, None], size, axis=1))
                             for c in (0.5 * hs, hs, hs / 6.0))
    w_rows = list(w)
    two = np.full(size, 2.0)
    k1, k2, k3, k4, arg = np.empty((5, size))
    add, mul, dot = np.add, np.multiply, M.dot
    cache.load(zs)
    for half, h, sixth, z, dst, w_a, w_mid, w_b in zip(
            halves, fulls, sixths, cache.rows, cache.dsts, list(w[starts]), w_rows, w_rows[n_seg:]):
        dot(z, k1)
        add(k1, w_a, k1)
        mul(k1, half, arg)
        add(arg, z, arg)
        dot(arg, k2)
        add(k2, w_mid, k2)
        mul(k2, half, arg)
        add(arg, z, arg)
        dot(arg, k3)
        add(k3, w_mid, k3)
        mul(k3, h, arg)
        add(arg, z, arg)
        dot(arg, k4)
        add(k4, w_b, k4)
        mul(k2, two, k2)
        add(k2, k1, k2)
        mul(k3, two, k3)
        add(k2, k3, k2)
        add(k2, k4, k2)
        mul(k2, sixth, k2)
        add(z, k2, dst)
    zs[1:] = cache.buf[1:len(zs)]


def _zoh_steps(M: np.ndarray, stage: Stage, widths: np.ndarray, zs: np.ndarray,
               cache: _ZohCache, w: np.ndarray) -> None:
    """ZOH substeps z <- Phi_h z + Psi_h w from ``zs[0]`` over segments of
    ``widths``, each edge's state written into the next row of ``zs``.
    ``w`` is the input at each segment's midpoint, or one row for all, and
    then Psi_h w is formed once per distinct width.

    ``cache`` keeps the plan of each one-row interval's widths and replays
    it; a split interval builds an unkept plan.  The run's pairs fill in
    order of first use either way.  The substeps run in ``cache``'s rows,
    copied out to ``zs`` once.

    An autonomous interval, whose constants Psi_h w are all +0.0 in every
    bit, steps with the gemv alone and adds +0.0 to all its records once at
    the end, in the copy.  That is the per-substep chain to the bit.  Adding
    +0.0 keeps every value, NaN and inf included, except -0, which it makes
    +0.  And gemv inputs that differ only in the signs of zero entries give
    outputs that differ only in the signs of zero entries: each product,
    and each partial sum in BLAS's fixed order, is equal on both sides or
    zero on both.  So each deferred record, once normalized, equals the
    record of the chain that normalized after every substep.  A -0 constant
    would keep a -0 that the one +0.0 add turns into +0, so the guard
    compares bytes, not ``== 0``.
    """
    dots, slots, psis = cache.plan(M, stage, widths, keep=len(w) == 1)
    if len(w) == 1:
        consts = [Psi @ w[0] for Psi in psis]
        steps = map(consts.__getitem__, slots)
    else:
        steps = consts = [psis[i] @ w_seg for i, w_seg in zip(slots, w)]
    cache.load(zs)
    if any(c.tobytes() != cache.zero for c in consts):
        phi_z, add = cache.phi_z, np.add
        for phi_dot, c, src, dst in zip(dots, steps, cache.rows, cache.dsts):
            phi_dot(src, phi_z)
            add(phi_z, c, dst)
        zs[1:] = cache.buf[1:len(zs)]
    else:
        for phi_dot, src, dst in zip(dots, cache.rows, cache.dsts):
            phi_dot(src, dst)
        np.add(cache.buf[1:len(zs)], 0.0, out=zs[1:])


def step_interval(m: PlantModel, x: np.ndarray, xhat: np.ndarray, stage: Stage,
                  sig: Disturbance, t_k: float, substeps: int = DEFAULT_SUBSTEPS,
                  zoh_cache: _ZohCache | None = None):
    """Integrate one sampling period from t_k.

    Returns (x at the end of the period, xhat at the end of the period,
    dense records (t, x, xhat, u) at substep resolution).  ``xhat`` must
    already be reset for the interval.  ``zoh_cache`` is the stepping state
    of a run, shared by all its intervals, or None for a fresh one.
    """
    if zoh_cache is None:
        zoh_cache = _ZohCache()
    elif not isinstance(zoh_cache, _ZohCache):
        raise TypeError(f"zoh_cache must be None or a _ZohCache, not {type(zoh_cache).__name__}")
    n = m.n_x
    z = np.concatenate([as_vector(x, "x"), as_vector(xhat, "xhat")])
    M = _augmented(m, stage)
    edges = t_k + _substep_grid(m.dt, substeps)
    bps = sig.breakpoints(t_k, t_k + m.dt)
    if bps:
        merged = np.concatenate([edges, np.asarray(bps, dtype=float)])
        merged.sort()
        # Drop near-duplicates so degenerate segments never reach the stepper.
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * m.dt])
        edges = merged[keep]
        edges[-1] = t_k + m.dt
    zs = np.empty((edges.size, z.size))
    zs[0] = z
    if sig.piecewise_constant:
        # Without a breakpoint the input is constant: the first midpoint's serves all.
        mids = 0.5 * (edges[:-1] + edges[1:]) if bps else 0.5 * (edges[:1] + edges[1:2])
        _zoh_steps(M, stage, edges[1:] - edges[:-1], zs, zoh_cache, _inputs(m, sig, mids))
    else:
        _rk4_steps(m, M, sig, edges, zs, zoh_cache)

    xs, xhats = zs[:, :n], zs[:, n:]
    us = codec.controller_input(stage, m.K, xhats)
    return zs[-1, :n].copy(), zs[-1, n:].copy(), (edges, xs, xhats, us)


def _off_grid_count(t: np.ndarray, dt: float, substeps: int) -> int:
    """How many of the breakpoints ``t`` ``step_interval`` keeps as extra
    edges: those farther than 1e-12 * dt from the nearest substep edge of
    their sampling period, the edge computed as ``step_interval`` does."""
    h = dt / substeps
    t_k = np.floor(t / dt) * dt
    edge = t_k + h * np.rint((t - t_k) / h)
    return int(np.count_nonzero(np.abs(t - edge) > 1e-12 * dt))


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
        self.capacity = capacity
        self.cols = {"dense_t": np.empty(capacity), "dense_k": np.empty(capacity, dtype=int),
                     "dense_x": np.empty((capacity, n_x)),
                     "dense_xhat": np.empty((capacity, n_x)),
                     "dense_u": np.empty((capacity, n_u))}

    def append(self, k: int, ts, xs, xhats, us) -> None:
        lo, hi = self.size, self.size + ts.size
        if hi > self.capacity:
            self.capacity = max(hi, self.capacity * 3 // 2)
            for col in self.cols.values():  # owned, and no view of them is alive
                col.resize((self.capacity,) + col.shape[1:], refcheck=False)
        for col, rec in zip(self.cols.values(), (ts, k, xs, xhats, us)):
            col[lo:hi] = rec
        self.size = hi

    def arrays(self) -> dict[str, np.ndarray]:
        for col in self.cols.values():
            # the buffers are owned and no view of them is alive
            col.resize((self.size,) + col.shape[1:], refcheck=False)
        return dict(self.cols)


def _left_float_range(dense: _DenseLog) -> str:
    """Where the logged state first has a non-finite entry."""
    xs = dense.cols["dense_x"][:dense.size]
    i = int(np.argmin(np.isfinite(xs).all(axis=1)))
    return (f"the state left the float range at t = {dense.cols['dense_t'][i]:g}, in the "
            f"sampling interval from sample k = {dense.cols['dense_k'][i]}")


def run_closed_loop(m: PlantModel, p: DesignParams, d: DerivedConstants,
                    sig: Disturbance, x0, horizon: float,
                    substeps: int = DEFAULT_SUBSTEPS) -> TrajectoryLog:
    """Run the full sampled protocol: encode, decode, reset and advance the
    codec state, then integrate the interval in the stage that ``advance``
    decided, logging everything.

    Both endpoints compute the codec state from the symbols alone, so the run
    holds one copy.  Each change of ``stage`` (``symbol >= 1``) is an event.
    """
    x = as_vector(x0, "x0").copy()
    if x.size != m.n_x:
        raise ValueError("x0 dimension mismatch")
    if sig.dim != m.n_d:
        raise ValueError("disturbance dimension mismatch")
    if horizon < m.dt:
        raise ValueError("horizon must cover at least one sampling period")
    n_steps = int(np.floor(horizon / m.dt + 1e-9))

    state = codec.initial_state(p.radius0, m.n_x)
    samples = []  # (x, xhat, symbol, radius, center, V) at each sample
    # Each interval has substeps + 1 edges and one more per breakpoint off them.
    n_off = _off_grid_count(np.array(sig.breakpoints(0.0, n_steps * m.dt)), m.dt, substeps)
    dense = _DenseLog(n_steps * (substeps + 1) + n_off, m.n_x, m.n_u)
    cache = _ZohCache()

    # A state that leaves the float range is reported by the next encode,
    # not by a numpy warning from each product on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            try:
                sym = codec.encode(state, x, m.n_levels)
            except ValueError:
                if np.isfinite(x).all():
                    raise
                raise ValueError(_left_float_range(dense)) from None
            xhat = codec.decode_center(state, sym, m.n_levels) if sym >= 1 else state.center
            v = codec.quad_value(state.center, state.radius, d.P, p.rho)
            samples.append((x, xhat, sym, state.radius, state.center, v))

            if k == n_steps:
                break

            state = codec.advance(state, sym, xhat, v, d, p)
            x, _, records = step_interval(m, x, xhat, state.stage, sig, k * m.dt, substeps, cache)
            dense.append(k, *records)

    t = np.arange(n_steps + 1) * m.dt
    x, xhat, symbol, radius, center, value = (np.asarray(col) for col in zip(*samples))
    visible = symbol >= 1
    toggles = np.flatnonzero(visible[1:] != visible[:-1]) + 1
    return TrajectoryLog(
        t=t,
        x=x,
        xhat=xhat,
        symbol=symbol,
        stage=visible.astype(int),
        radius=radius,
        center=center,
        value=value,
        d_sup_prev=np.concatenate([[0.0], sig.sup_norm(t[:-1], t[1:])]),
        **dense.arrays(),
        events=[TrajectoryEvent("captured" if visible[k] else "escaped", k, k * m.dt)
                for k in toggles.tolist()],
    )
