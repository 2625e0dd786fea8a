"""Explicit-arithmetic oracles for the kernel's queue recurrences.

Each one replays the event path's arithmetic request by request, written
out independently of the kernel's busy-run evaluator, so the solver
tests compare against a reference that shares no code with what they
test.  An optional ``restart`` mask concatenates independent chains end
to end; each marked position starts over from ``prev``.
"""

import numpy as np


def _fresh(n, restart):
    first = np.zeros(n, dtype=bool) if restart is None else restart.copy()
    if n:
        first[0] = True
    return first.tolist()


def lindley_scalar(submit, sv, prev, restart=None):
    """FCFS finishes ``finish_k = max(submit_k, finish_{k-1}) + sv_k``."""
    out = np.empty(submit.size, dtype=np.float64)
    cur = prev
    fresh = _fresh(submit.size, restart)
    for i, (t, s) in enumerate(zip(submit.tolist(), sv.tolist())):
        if fresh[i]:
            cur = prev
        start = t if t > cur else cur
        cur = start + s
        out[i] = cur
    return out


def chain_scalar(t, c, p, prev, restart=None):
    """Array controller chain: ``d_k = max(t_k, link_{k-1}) + c`` and
    ``link_k = d_k + p_k``; returns ``(d, link)``."""
    d = np.empty(t.size, dtype=np.float64)
    link = np.empty(t.size, dtype=np.float64)
    cur = prev
    fresh = _fresh(t.size, restart)
    for i, (ti, pi) in enumerate(zip(t.tolist(), p.tolist())):
        if fresh[i]:
            cur = prev
        disp = ti if ti > cur else cur
        disp = disp + c
        d[i] = disp
        cur = disp + pi
        link[i] = cur
    return d, link
