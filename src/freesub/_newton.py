"""Guarded Newton over a batch of points: the one loop behind the line's
omega1 (``additive``), the matrix Cauchy transform and F(b)
(``opvalued``) and the disk preimage (``multiplicative``).

``solve`` runs each point of a batch to its own exit.  The caller gives
what is particular to its map, each over the open points ``at`` of the
batch, one row per point:

- ``evaluate(at, w)``: the map at the iterates w, a tuple of fresh
  arrays: each point's residual, then (for a fixed point w = T(w)) T(w),
  then whatever else the caller needs;
- ``newton(w, ev)``: the Newton candidates, a fresh array, NaN where
  a point has no step;
- ``inside(at, w)``: whether each candidate lies in the map's domain,
  False where it is NaN;
- ``limit(at, w, ev, it)``: the residual at which each point stops at
  its ``it``-th iteration.

An iteration checks every open point's residual.  The points that meet
their limit write their iterate, evaluation and iteration count at their
index in the batch and leave, and the working arrays are cut to the
rest, so a point's arithmetic does not depend on what shares its batch.
The rest take one step by one of two rules:

- fixed point: an in-domain Newton candidate is taken when the residual
  is below HANDOFF, or when its own residual is below 0.9 times it;
  otherwise the damped Picard step w + DAMPING * (T(w) - w) is taken and
  evaluated in the same iteration;
- root, on a batch of one point (the disk solves one start at a time,
  F one matrix): the candidate is halved toward w until it lies in the
  domain and lowers the residual, at most _MAX_HALVINGS times.

Only in-domain candidates are evaluated, and the evaluation at an
accepted one is the next iteration's.  A point still open after
``max_iter`` residual checks, or whose halving fails, ends the solve in
NoConvergence for the failed point of largest residual; its ``point`` is
that point's entry of ``points``, the caller's input.
"""

import numpy as np

from .errors import NoConvergence

HANDOFF = 1e-3  # below this residual a Newton candidate is taken untested
DAMPING = 0.5
_MAX_HALVINGS = 40


def scalar_step(w, f, df, floor):
    """The scalar Newton candidate w - f/df, NaN where |df| <= floor."""
    safe = np.abs(df) > floor
    if safe.all():
        return w - f / df
    return np.where(safe, w - f / np.where(safe, df, 1.0), np.nan)


def _stalled(what, why, res, at, points, it):
    """NoConvergence for the point of largest residual among ``at``."""
    worst = np.argmax(res)
    return NoConvergence(
        f"{what} {why} at {at.size} point(s) after {it} iteration(s); "
        f"worst residual {res[worst]:.3e}",
        iterations=it, residual=float(res[worst]),
        point=points[at[worst]].copy())  # not a view of the caller's array


def _fixed_point_step(evaluate, inside, at, w, ev, cand):
    """The next iterates, written over the candidates, and their
    evaluations by the fixed-point rule."""
    def picard(rows):
        return w[rows] + DAMPING * (ev[1][rows] - w[rows])

    ok = inside(at, cand)
    if not ok.all():
        cand[~ok] = picard(~ok)
    new = evaluate(at, cand)
    far = ok & ~(ev[0] < HANDOFF)  # these candidates must cut the residual
    back = far & ~(new[0] < 0.9 * ev[0]) if far.any() else far
    if back.any():
        cand[back] = picard(back)
        for a, b in zip(new, evaluate(at[back], cand[back])):
            a[back] = b
    return cand, new


def _root_step(evaluate, inside, at, w, ev, cand, what, points, it):
    """The candidate of a batch of one point, halved by the root rule,
    and its evaluation; raises NoConvergence if the halving fails."""
    for _ in range(_MAX_HALVINGS):
        if inside(at, cand).all():
            new = evaluate(at, cand)
            if np.all(new[0] < ev[0]):
                return cand, new
        cand = w + 0.5 * (cand - w)
    raise _stalled(what, "found no decrease", ev[0], at, points, it)


def solve(evaluate, newton, inside, limit, w, max_iter, points, what,
          fixed_point):
    """Iterate every point of the batch ``w`` (one row per point) to its
    limit, by the fixed-point rule or else the root rule.

    Returns (w, ev, iterations) at each point's exit, in batch order, ev
    being the evaluation there.
    """
    at = np.arange(w.shape[0])  # each open point's index in the batch
    ev = evaluate(at, w)
    w_out = None  # set at the first exit that leaves points open
    for it in range(1, max_iter + 1):
        # a NaN residual never meets its limit: it ends in NoConvergence
        done = ev[0] <= limit(at, w, ev, it)
        if w_out is None and done.all():  # the whole batch leaves at once
            return w, ev, np.full(at.size, it)
        if done.any():
            if w_out is None:
                w_out = np.empty_like(w)
                ev_out = tuple(np.empty_like(a) for a in ev)
                iters = np.empty(at.size, dtype=int)
            out = at[done]
            w_out[out], iters[out] = w[done], it
            for o, a in zip(ev_out, ev):
                o[out] = a[done]
            if done.all():
                return w_out, ev_out, iters
            keep = ~done
            at, w, ev = at[keep], w[keep], tuple(a[keep] for a in ev)
        if it == max_iter:
            break
        cand = newton(w, ev)
        w, ev = (_fixed_point_step(evaluate, inside, at, w, ev, cand)
                 if fixed_point else
                 _root_step(evaluate, inside, at, w, ev, cand, what, points, it))
    raise _stalled(what, "stalled", ev[0], at, points, max_iter)
