"""Small shared utilities."""

from __future__ import annotations

import gc
import os
import sys
import threading
from contextlib import contextmanager

#: Upper bound for temporary recursion-limit bumps.  Python frames in
#: CPython ≥ 3.11 are cheap, but generator resumption still consumes C
#: stack, so an unbounded limit could fault instead of raising.
MAX_RECURSION_LIMIT = 500_000


@contextmanager
def deep_recursion(estimated_frames: int):
    """Temporarily raise the interpreter recursion limit.

    Deep derivations (a 1000-edge chain explained or solved top-down)
    legitimately recurse proportionally to the data.  ``estimated_frames``
    is the caller's worst-case need; the limit is only ever raised,
    never lowered, and restored afterwards.
    """
    previous = sys.getrecursionlimit()
    target = min(max(previous, estimated_frames), MAX_RECURSION_LIMIT)
    sys.setrecursionlimit(target)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


# -- the cyclic collector across bulk evaluations --------------------------

_collector_lock = threading.Lock()
#: open :func:`collector_paused` blocks, process-wide (all threads).
_collector_depth = 0
#: True while the collector is off because this module turned it off.
_collector_owned = False
#: bumped in a forked child, so pauses opened before the fork do not
#: touch the child's fresh count when they unwind there.
_collector_epoch = 0


@contextmanager
def collector_paused():
    """Run the block with CPython's cyclic garbage collector paused.

    A bulk evaluation allocates hundreds of thousands of long-lived
    containers (ID rows, index buckets, term lanes).  CPython's
    allocation-count heuristic answers with full collections that
    rescan the intern table and the whole model and free nothing.
    Reference counting still frees every acyclic object at once inside
    the block; only the cycle finder waits until the block exits.

    Blocks nest and may overlap across threads: one process-wide depth
    count under a lock.  The first entry disables the collector if it
    was enabled; the last exit re-enables it only if this function
    disabled it, so a caller who turned the collector off keeps it off.
    An exception leaving the block restores it the same way.  A child
    forked inside a block starts with the depth reset and the collector
    as it was before the pause (see :func:`_collector_after_fork`).
    """
    global _collector_depth, _collector_owned
    with _collector_lock:
        epoch = _collector_epoch
        if _collector_depth == 0 and gc.isenabled():
            gc.disable()
            _collector_owned = True
        _collector_depth += 1
    try:
        yield
    finally:
        with _collector_lock:
            if epoch == _collector_epoch:
                _collector_depth -= 1
                if _collector_depth == 0 and _collector_owned:
                    _collector_owned = False
                    gc.enable()


def _collector_after_fork() -> None:
    """Reset the pause state in a freshly forked child.

    The child has one thread, so no pause is open in it; the lock is
    replaced because another parent thread may have held it at fork.
    """
    global _collector_lock, _collector_depth, _collector_owned, _collector_epoch
    _collector_lock = threading.Lock()
    _collector_epoch += 1
    _collector_depth = 0
    if _collector_owned:
        _collector_owned = False
        gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_collector_after_fork)


def collections_run() -> tuple[int, ...]:
    """Collections run so far by the cyclic collector, per generation."""
    return tuple(stats["collections"] for stats in gc.get_stats())
