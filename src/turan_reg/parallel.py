"""Parallel descent of the augmentation tree for ``enumerate_graphs``.

With ``jobs > 1`` the enumeration stops its descent at depth n - 2 and
records the accepted graphs there as seeds.  The subtrees below the
seeds are independent (canonical augmentation decides each child from
the child alone), so a pool of workers descends them, one seed per
task, and sends back each seed's leaf rows with its subtree counts.
The parent merges the counts and emits the leaves in seed order
through the run's own ``emit``: the visitor sees the classes in the
order of a serial run, and stops the scan the same way.  A scan that
runs to the end has the counts of a serial run; one that stops early
also counts the nodes past the stop that were descended before it.

The pool forks, so workers inherit the run and the visitor need not be
picklable.  Results arrive one seed at a time, so the parent holds only
the leaves of seeds it has not emitted yet.
"""

from __future__ import annotations

import multiprocessing as mp

_RUN = None  # the run a worker process descends seeds for


def _init_worker(run):
    global _RUN
    _RUN = run


def _subtree(seed):
    return _RUN.subtree(seed)


def parallel_scan(run, jobs):
    """Descend ``run.seeds`` in ``jobs`` processes and emit their leaves.

    Fewer than two seeds leave nothing to split: they are descended in
    this process, without a pool.
    """
    if len(run.seeds) < 2:
        _emit_all(run, map(run.subtree, run.seeds))
        return
    ctx = mp.get_context("fork")
    with ctx.Pool(jobs, initializer=_init_worker, initargs=(run,)) as pool:
        _emit_all(run, pool.imap(_subtree, run.seeds))


def _emit_all(run, results):
    for leaves, stats in results:
        run.stats.merge(stats)
        for rows in leaves:
            run.emit(rows)
