"""Closed-loop continuous-time integration of the plant together with the
controller's auxiliary model, and the full sampled protocol loop.

A run has one state (``_Run``), built in vectorized passes before the first
sample from all that does not depend on the plant's state, and freed with
the run; nothing is kept per plant at module level.  It holds the block
dynamics of z = (x, xhat) in each stage, its substep grid and time grid,
each sampling interval's record offset in a dense log it sizes exactly,
with the edges of the intervals that the disturbance's discontinuities
split (every other interval's edges are t_k plus the substep grid); for
each breakpoint-free ZOH interval, its substep widths and held input
(D d(mid), 0), every input from one broadcast ``Disturbance.value`` call;
and every buffer an interval steps in, sized for the longest.  The loop
then runs, per interval, only the codec calls, the substep chain and one
copy of the states into the log.  The log stores the states and the time
grid alone, and derives each record's time, interval and controller input
block by block.  ``step_interval`` is that interval step: given a run's
state it steps the run's next interval, and given None it checks its
states and start and steps a run of one interval.

Integration is exact zero-order hold (block matrix exponentials) where the
disturbance is constant and fixed-step RK4 otherwise.  The run state
computes the ZOH pair of each (stage, substep width) once, and keeps the
substep programs of the recent (stage, widths, input), so each interval
between the pulses of a pulse train is a lookup.  Such an autonomous
interval, whose input terms are +0.0 in every bit, is one gemv per
substep and a single +0.0 add over its records, which ``_zoh_steps``
shows to be exact.  Every other step is the arithmetic of stepping segment
by segment with a fresh input, operation for operation, so the trajectory
is the same to the bit.  It has to be: the bundled plant has an open-loop
eigenvalue of +1, so any rounding difference grows like e^t until it flips
a symbol.
"""

from __future__ import annotations

import numbers
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
# A run keeps the substep programs of this many recent (stage, kind) pairs.
# On the bundled and the benchmark's pulse runs a kind recurs after at most
# three others; held noise makes a new kind at almost every hold.
_PROGRAMS = 8


@dataclass(frozen=True)
class TrajectoryEvent:
    kind: str  # "captured" or "escaped"
    k: int
    t: float


@dataclass(eq=False)
class TrajectoryLog:
    """Sampled and dense records of one closed-loop run.

    Sample arrays are indexed by k = 0..n_samples.  ``xhat`` holds the
    post-reset auxiliary state.  The dense records are the trajectory at
    substep resolution, and only their states are stored: ``dense_x`` and
    ``dense_xhat``, 2 n_x floats a record (32 bytes for n_x = 2), beside
    the run's time grid, a few words per interval.  Interval k has the
    records ``lo[k]:lo[k + 1]`` at the times t_k + ``grid``, or, for the
    intervals ``split`` at the disturbance's breakpoints, at their edges
    in ``split_t`` (concatenated in interval order).  ``dense_block``
    derives a range of records' interval index k, time t and controller
    input u (the feedback law ``K`` in the interval's stage) with the bits
    the run had; ``dense_k``, ``dense_t`` and ``dense_u`` are the whole
    range.
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
    dense_x: np.ndarray
    dense_xhat: np.ndarray
    events: list[TrajectoryEvent]
    K: np.ndarray              # feedback gain of the stabilizing stage
    lo: np.ndarray             # interval k has the dense records lo[k]:lo[k + 1]
    grid: np.ndarray           # offsets of an unsplit interval's edges from t_k
    split: np.ndarray          # the intervals split at breakpoints, ascending
    split_t: np.ndarray        # their edges, concatenated

    @property
    def n_samples(self) -> int:
        return self.t.size

    def dense_block(self, a: int, b: int) -> tuple[np.ndarray, ...]:
        """(k, t, x, xhat, u), the columns of ``dense.csv``, of the dense
        records a:b, bounded as ``dense_x[a:b]`` bounds them: negative ends
        count from the end, ends past it clip, and b below a gives empty
        columns.  x and xhat are views of the log's rows.

        Each interval that meets the block is laid on the grid, its t one
        row t_k + ``grid``, one float add as the run made it; the rows of
        the split intervals are then overwritten by their stored edges, and
        k repeats each interval over its record count.  u is the feedback
        law on the block's stack of auxiliary states, as
        ``codec.controller_input`` gives it, and 0 where the interval
        searches: the symbol at the interval's start decides (``symbol >=
        1`` stabilizes).  A stack of at least two rows gives each row the
        bits of the interval's own stack (numpy takes one row down another
        product)."""
        a, b, _ = slice(a, b).indices(len(self.dense_x))
        b, lo, split = max(a, b), self.lo, self.split
        first, last = int(lo.searchsorted(a, "right")) - 1, int(lo.searchsorted(b))
        rows = list(self.t[first:last, None] + self.grid)
        s0, s1 = split.searchsorted([first, last]).tolist()
        for s, j in enumerate(split[s0:s1].tolist(), s0):
            # the j - s unsplit intervals before j hold the other records
            e0, e1 = (lo[j:j + 2] - (j - s) * self.grid.size).tolist()
            rows[j - first] = self.split_t[e0:e1]
        cut = slice(a - lo[first], b - lo[first])
        k = np.arange(first, last).repeat(np.diff(lo[first:last + 1]))[cut]
        t = np.concatenate([np.empty(0), *rows])[cut]
        x, xhat = self.dense_x[a:b], self.dense_xhat[a:b]
        # the run's products ignored overflow too; a searching row's is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            u = codec.controller_input(Stage.STABILIZING, self.K,
                                       xhat if b - a != 1 else xhat[[0, 0]])[:b - a]
        u[self.symbol[k] < 1] = 0.0
        return k, t, x, xhat, u

    @property
    def dense_k(self) -> np.ndarray:
        return self.dense_block(0, len(self.dense_x))[0]

    @property
    def dense_t(self) -> np.ndarray:
        return self.dense_block(0, len(self.dense_x))[1]

    @property
    def dense_u(self) -> np.ndarray:
        return self.dense_block(0, len(self.dense_x))[4]


def sup_norm_on(sig: Disturbance, a: float, b: float) -> float:
    """Exact sup norm of the signal over [a, b] (``sig.sup_norm``; kept as a
    public name for ``perfbench/layertrace.py``, which wraps it)."""
    return sig.sup_norm(a, b)


def _zoh_pair(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{Mh}, integral of e^{Ms} ds over [0, h]) via one block exponential;
    e^{Mh} C-contiguous, as ``ndarray.dot`` copies any other layout per call."""
    n = M.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = M
    blk[:n, n:] = np.eye(n)
    E = scipy.linalg.expm(blk * h)
    return np.ascontiguousarray(E[:n, :n]), E[:n, n:]


class _Run(dict):
    """The state of one run of the sampling intervals from ``starts``, all
    built before the first is stepped.  Its items are the ZOH pairs, keyed
    (stage, substep width) in order of first use; all else is attributes,
    so that ``len`` stays the pair count.

    The run owns its read-only substep ``grid`` and, in ``dynamics``, the
    block matrix of z = (x, xhat) of each stage: [[A, 0], [0, A]] while
    searching and [[A, BK], [0, A + BK]] while stabilizing.

    Interval i, the ``next`` one stepped, has the records ``lo[i]:lo[i + 1]``
    of the dense log ``x``, ``xhat``, sized exactly.  Its ``edges`` are
    ``starts[i]`` plus the substep ``grid``, or, where the disturbance has
    breakpoints inside (t_k, t_k + dt), those merged in, near-duplicates
    dropped and the last edge set to t_k + dt: ``split`` maps each such
    interval to its edges, views of ``split_t``.  ``span`` is the range of
    one ``breakpoints`` call that covers every interval.  On the ZOH path a
    breakpoint-free interval i has ``kind[i] >= 0``, its row of ``kinds``,
    one read-only array whose rows hold the substep widths, then the held
    input (D d(mid), 0); ``programs`` keeps the ``_zoh_program`` of the
    last ``_PROGRAMS`` (stage, kind) stepped, least recent first.  Every
    other interval, and every interval of an RK4 run, has ``kind[i]`` -1.

    Every buffer an interval steps in is sized for the longest: the state
    rows ``buf``, with their views built once (``rows[i]`` is row i and
    ``dsts[i]`` row i + 1); the input rows ``w``, three per segment on the
    RK4 path and one on the ZOH path, and their views ``w_rows``; the gemv
    output ``phi_z`` and ``zero``, the bytes of +0.0 in every entry of a
    row; RK4's scratch ``ks``: k1..k4, the argument row, the stacked k2, k3
    and a stack of 2.0; and the (h/2, h, h/6) row vectors of each RK4
    substep width in ``hvecs``."""

    # Slots, as a dict subclass's own attributes read several times slower
    # than a plain object's, and a run's loop reads about 20 per interval.
    __slots__ = ("m sig substeps dynamics programs next starts grid split split_t lo x xhat kind "
                 "kinds buf rows dsts w w_rows phi_z zero ks hvecs").split()

    def __init__(self, m: PlantModel, sig: Disturbance, starts: np.ndarray, substeps: int,
                 span: tuple[float, float]):
        super().__init__()
        if not (isinstance(substeps, numbers.Integral) and substeps >= 1):
            raise ValueError(f"substeps must be a positive integer, not {substeps!r}")
        if sig.dim != m.n_d:
            raise ValueError("disturbance dimension mismatch")
        n, size = m.n_x, 2 * m.n_x
        grid = (m.dt / substeps) * np.arange(substeps + 1)
        dynamics = np.zeros((2, size, size))
        dynamics[:, :n, :n] = dynamics[0, n:, n:] = m.A
        dynamics[1, :n, n:], dynamics[1, n:, n:] = m.B @ m.K, m.closed_loop()
        grid.flags.writeable = dynamics.flags.writeable = False
        self.dynamics = dict(zip(Stage, dynamics))
        self.m, self.sig, self.substeps, self.programs, self.next = m, sig, substeps, {}, 0
        self.starts, self.grid = starts, grid
        # Only an interval that meets one of the span's breakpoints, or the
        # last, which may end past the span by a rounding, can hold one.
        every = np.asarray(sig.breakpoints(*span), dtype=float)
        near = every.searchsorted(starts) < every.searchsorted(starts + m.dt, "right")
        near[-1], split = True, {}
        del every
        for i in np.flatnonzero(near).tolist():
            t_k = float(starts[i])
            bps = sig.breakpoints(t_k, t_k + m.dt)
            if bps:
                merged = np.concatenate([t_k + grid, np.asarray(bps, dtype=float)])
                merged.sort()
                # Drop near-duplicates so degenerate segments never reach the stepper.
                keep = np.concatenate([[True], np.diff(merged) > 1e-12 * m.dt])
                split[i] = merged[keep]
                split[i][-1] = t_k + m.dt
        at = list(split)
        sizes = np.full(starts.size, grid.size)
        sizes[at] = [e.size for e in split.values()]
        self.lo = np.concatenate([[0], np.cumsum(sizes)])
        self.split_t = np.concatenate([np.empty(0), *split.values()])
        self.split = dict(zip(at, np.split(self.split_t, np.cumsum(sizes[at])[:-1])))
        del split
        # The breakpoint-free ZOH intervals; an RK4 run has none.
        plain = np.delete(np.arange(starts.size), at) if sig.piecewise_constant else []
        kind, ids = np.full(starts.size, -1), {}
        # Without a breakpoint the input is constant: the first midpoint's serves all.
        mids = 0.5 * ((starts[plain] + grid[0]) + (starts[plain] + grid[1]))
        d = sig.value(mids) if mids.size else None
        # Their ids, a block of about 8,192 edges at a time, so that no
        # temporary grows with the run.
        step = max(1, 8192 // grid.size)
        for a in range(0, len(plain), step):
            block = plain[a:a + step]
            edges = starts[block, None] + grid
            held = np.zeros((block.size, size))
            held[:, :m.n_x] = np.matmul(m.D, d[a:a + step, :, None])[:, :, 0]
            rows = np.concatenate([edges[:, 1:] - edges[:, :-1], held], axis=1)
            kind[block] = [ids.setdefault(row.tobytes(), len(ids)) for row in rows]
        self.kind = kind.tolist()
        # read-only rows of substep widths, then held input
        self.kinds = np.frombuffer(b"".join(ids)).reshape(-1, substeps + size)
        del ids  # before the log is allocated
        self.x, self.xhat = np.empty((self.lo[-1], m.n_x)), np.empty((self.lo[-1], m.n_x))
        self.buf = np.empty((int(sizes.max()), size))
        self.rows, self.dsts = list(self.buf), list(self.buf[1:])
        self.w = np.zeros(((1 if sig.piecewise_constant else 3) * (len(self.rows) - 1), size))
        self.w_rows, self.phi_z, self.hvecs = list(self.w), np.empty(size), {}
        self.zero = bytes(self.phi_z.nbytes)
        k = np.empty((5, size))
        self.ks = (*k, k[1:3], np.full((2, size), 2.0))

    def edges(self, i: int) -> np.ndarray:
        """The edges of interval i: t_k plus the grid, as one float add
        each, or the merged edges of a split interval."""
        e = self.split.get(i)
        return self.starts[i] + self.grid if e is None else e

    def inputs(self, ts: np.ndarray) -> list:
        """The block input (D d(t), 0) at each time of ``ts`` from one
        ``value`` call, written into the first rows of ``w``, whose other
        columns stay 0.  Returns the views of those rows.  The stacked
        product is one gemv per row, so each row has the bits of
        ``m.D @ sig.value(t)``."""
        self.w[:ts.size, :self.m.n_x] = np.matmul(self.m.D, self.sig.value(ts)[:, :, None])[:, :, 0]
        return self.w_rows[:ts.size]


def _rk4_steps(M: np.ndarray, edges: np.ndarray, run: _Run) -> None:
    """Classical RK4 from ``run``'s row 0 over the segments [a, a + h] of
    ``edges``, each edge's state written into the next row.  Per step, in
    this order and association: k1 = M z + w_a, k2 = M (z + (h/2) k1) + w_mid,
    k3 = M (z + (h/2) k2) + w_mid, k4 = M (z + h k3) + w_b and
    z + (h/6) (((k1 + 2 k2) + 2 k3) + k4).

    One ``value`` call writes every segment's start, midpoint and end input
    into ``run``'s input rows.  Each start is read at its own time a:
    where a equals the previous end a' + h' it is the same float, so
    ``value`` gives it the same bits as that end, and where a' + h' rounds
    off a (as it can where a' and a differ by more than a factor of 2) the
    per-segment loop reads d(a) too.  Each substep looks up its width's
    (h/2, h, h/6) row vectors in ``hvecs``: as vectors they cost half a
    scalar's call and give the same bits.  k2 and k3 are adjacent rows,
    doubled by one multiply: that is still one elementwise 2 * k per entry,
    so the bits are those of two multiplies."""
    a, hs = edges[:-1], np.diff(edges)
    n_seg, widths, hvecs = hs.size, hs.tolist(), run.hvecs
    w = run.inputs(np.concatenate([a, a + 0.5 * hs, a + hs]))
    for h in set(widths) - hvecs.keys():
        hvecs[h] = tuple(np.repeat([[0.5 * h], [h], [h / 6.0]], run.buf.shape[1], axis=1))
    k1, k2, k3, k4, arg, k23, two = run.ks
    add, mul, dot = np.add, np.multiply, M.dot
    for (half, h, sixth), z, dst, w_a, w_mid, w_b in zip(
            map(hvecs.__getitem__, widths), run.rows, run.dsts, w, w[n_seg:], w[2 * n_seg:]):
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
        mul(k23, two, k23)
        add(k2, k1, k2)
        add(k2, k3, k2)
        add(k2, k4, k2)
        mul(k2, sixth, k2)
        add(z, k2, dst)


def _zoh_program(M: np.ndarray, stage: Stage, widths: np.ndarray, w: list,
                 run: _Run) -> tuple[list, list | None]:
    """The substeps of a ZOH interval of segments of ``widths``: each
    substep's ``Phi.dot``, one bound method per distinct width, and its
    constant Psi_h w, or None in place of the constants when all are +0.0
    in every bit.  ``w`` is the input rows at each segment's midpoint, or
    one row for all, and then Psi_h w is formed once per distinct width.
    The pairs of the distinct widths are looked up in ``run`` in order
    of first use, so the run's pairs fill in that order."""
    hs = widths.tolist()
    slot = {h: i for i, h in enumerate(dict.fromkeys(hs))}
    for h in slot:
        if (stage, h) not in run:
            run[(stage, h)] = _zoh_pair(M, h)
    phis, psis = zip(*(run[(stage, h)] for h in slot))
    slots, dots = [slot[h] for h in hs], [Phi.dot for Phi in phis]
    if len(w) == 1:
        consts = [Psi @ w[0] for Psi in psis]
        steps = [consts[i] for i in slots]
    else:
        steps = consts = [psis[i] @ w_seg for i, w_seg in zip(slots, w)]
    autonomous = all(c.tobytes() == run.zero for c in consts)
    return [dots[i] for i in slots], None if autonomous else steps


def _zoh_steps(program: tuple[list, list | None], run: _Run) -> None:
    """ZOH substeps z <- Phi_h z + Psi_h w of a ``_zoh_program`` from
    ``run``'s row 0, each edge's state written into the next row.

    An autonomous interval, whose constants Psi_h w are all +0.0 in every
    bit, steps with the gemv alone and adds +0.0 to all its records once at
    the end, in place.  That is the per-substep chain to the bit.  Adding
    +0.0 keeps every value, NaN and inf included, except -0, which it makes
    +0.  And gemv inputs that differ only in the signs of zero entries give
    outputs that differ only in the signs of zero entries: each product,
    and each partial sum in BLAS's fixed order, is equal on both sides or
    zero on both.  So each deferred record, once normalized, equals the
    record of the chain that normalized after every substep.  A -0 constant
    would keep a -0 that the one +0.0 add turns into +0, so the guard
    compares bytes, not ``== 0``.
    """
    dots, steps = program
    if steps is not None:
        phi_z, add = run.phi_z, np.add
        for phi_dot, c, src, dst in zip(dots, steps, run.rows, run.dsts):
            phi_dot(src, phi_z)
            add(phi_z, c, dst)
    else:
        for phi_dot, src, dst in zip(dots, run.rows, run.dsts):
            phi_dot(src, dst)
        records = run.buf[1:len(dots) + 1]
        np.add(records, 0.0, out=records)


def step_interval(m: PlantModel, x: np.ndarray, xhat: np.ndarray, stage: Stage,
                  sig: Disturbance, t_k: float, substeps: int = DEFAULT_SUBSTEPS,
                  zoh_cache: _Run | None = None):
    """Integrate one sampling period from t_k.

    Returns (x at the end of the period, xhat at the end of the period,
    dense records (t, x, xhat, u) at substep resolution).  ``xhat`` must
    already be reset for the interval.  With ``zoh_cache`` None, ``x``,
    ``xhat`` and t_k are checked and the interval steps as a run of its
    own.  Otherwise ``zoh_cache`` is the state of a run, shared by all its
    intervals: its next interval, which must start at t_k and have the
    run's plant, disturbance and substeps, steps as planned and returns its
    rows of the run's log, with u None, as the log derives it.
    """
    alone = zoh_cache is None
    if alone:
        x, xhat = as_vector(x, "x"), as_vector(xhat, "xhat")
        if x.size != m.n_x or xhat.size != m.n_x:
            raise ValueError(f"x and xhat must have {m.n_x} entries, not {x.size} and {xhat.size}")
        if not t_k + m.dt > t_k:
            raise ValueError(f"t_k must be finite and below t_k + dt, not {t_k!r}")
        if not isinstance(stage, Stage):
            raise ValueError(f"stage must be a Stage, not {stage!r}")
        zoh_cache = _Run(m, sig, np.array([t_k], dtype=float), substeps, (t_k, t_k + m.dt))
    elif not isinstance(zoh_cache, _Run):
        raise TypeError(f"zoh_cache must be None or a _Run, not {type(zoh_cache).__name__}")
    run, i = zoh_cache, zoh_cache.next
    if (run.m is not m or run.sig is not sig or run.substeps != substeps
            or i == len(run.kind) or run.starts[i] != t_k):
        raise ValueError(f"zoh_cache steps only its run's next interval, with the run's plant, "
                         f"disturbance and substeps, not one from t_k = {t_k!r}")
    n, lo, hi, run.next = m.n_x, run.lo[i], run.lo[i + 1], i + 1
    M = run.dynamics[stage]
    np.concatenate((x, xhat), out=run.rows[0])
    ts, kind = run.edges(i), run.kind[i]
    if not sig.piecewise_constant:
        _rk4_steps(M, ts, run)
    elif kind < 0:
        _zoh_steps(_zoh_program(M, stage, ts[1:] - ts[:-1], run.inputs(0.5 * (ts[:-1] + ts[1:])),
                                run), run)
    else:
        # the least recent program leaves once _PROGRAMS are kept
        program = run.programs.pop((stage, kind), None)
        if program is None:
            row = run.kinds[kind]
            program = _zoh_program(M, stage, row[:substeps], [row[substeps:]], run)
            if len(run.programs) == _PROGRAMS:
                del run.programs[next(iter(run.programs))]
        run.programs[(stage, kind)] = program
        _zoh_steps(program, run)

    zs, xs, xhats = run.buf[:hi - lo], run.x[lo:hi], run.xhat[lo:hi]
    xs[...], xhats[...] = zs[:, :n], zs[:, n:]
    us = codec.controller_input(stage, m.K, xhats) if alone else None
    return xs[-1].copy(), xhats[-1].copy(), (ts, xs, xhats, us)


def run_closed_loop(m: PlantModel, p: DesignParams, d: DerivedConstants,
                    sig: Disturbance, x0, horizon: float,
                    substeps: int = DEFAULT_SUBSTEPS) -> TrajectoryLog:
    """Run the full sampled protocol: encode, decode, reset and advance the
    codec state, then integrate the interval in the stage that ``advance``
    decided, logging everything.

    Both endpoints compute the codec state from the symbols alone, so the run
    holds one copy.  Each change of ``stage`` (``symbol >= 1``) is an event.
    The run's state is built first, and ``x0`` is the one state checked.
    """
    x = as_vector(x0, "x0").copy()
    if x.size != m.n_x:
        raise ValueError("x0 dimension mismatch")
    if not (horizon >= m.dt and np.isfinite(horizon / m.dt)):
        raise ValueError(f"horizon must cover a finite number of sampling periods, at least "
                         f"one, not {horizon!r}")
    n_steps = int(np.floor(horizon / m.dt + 1e-9))

    # The breakpoints of the whole run in one call, which also bounds their number.
    run = _Run(m, sig, np.arange(n_steps) * m.dt, substeps, (0.0, n_steps * m.dt))
    state = codec.initial_state(p.radius0, m.n_x)
    # each sample's x, xhat, center, and its symbol, radius and V
    xs, xhats, centers = (np.empty((n_steps + 1, m.n_x)) for _ in range(3))
    symbol, radius, value = np.empty(n_steps + 1, int), np.empty(n_steps + 1), np.empty(n_steps + 1)

    # A state that leaves the float range is reported by the next encode,
    # not by a numpy warning from each product on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            try:
                sym = codec.encode(state, x, m.n_levels)
            except ValueError:
                if np.isfinite(x).all():
                    raise
                # the first record of the log so far with a non-finite entry
                i = int(np.argmin(np.isfinite(run.x[:run.lo[k]]).all(axis=1)))
                j = int(run.lo.searchsorted(i, "right")) - 1
                raise ValueError(f"the state left the float range at t = "
                                 f"{run.edges(j)[i - run.lo[j]]:g}, in the sampling interval "
                                 f"from sample k = {j}") from None
            xhat = codec.decode_center(state, sym, m.n_levels) if sym >= 1 else state.center
            v = codec.quad_value(state.center, state.radius, d.P, p.rho)
            xs[k], xhats[k], centers[k] = x, xhat, state.center
            symbol[k], radius[k], value[k] = sym, state.radius, v

            if k == n_steps:
                break

            state = codec.advance(state, sym, xhat, v, d, p)
            x = step_interval(m, x, xhat, state.stage, sig, k * m.dt, substeps, run)[0]

    t = np.arange(n_steps + 1) * m.dt
    visible = symbol >= 1
    toggles = np.flatnonzero(visible[1:] != visible[:-1]) + 1
    return TrajectoryLog(
        t=t,
        x=xs,
        xhat=xhats,
        symbol=symbol,
        stage=visible.astype(int),
        radius=radius,
        center=centers,
        value=value,
        d_sup_prev=np.concatenate([[0.0], sig.sup_norm(t[:-1], t[1:])]),
        dense_x=run.x, dense_xhat=run.xhat,
        events=[TrajectoryEvent("captured" if visible[k] else "escaped", k, k * m.dt)
                for k in toggles.tolist()],
        K=m.K, lo=run.lo, grid=run.grid, split=np.array(list(run.split), dtype=int),
        split_t=run.split_t,
    )
