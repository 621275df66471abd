"""Parallel descent of the augmentation tree for ``enumerate_graphs``.

With ``jobs > 1`` the enumeration stops at depth n - 3 and records the
accepted graphs there as seeds, each with its score.  Their subtrees
are independent (canonical augmentation decides each child from the
child alone), so forked workers may descend them in any order.  The
parent writes seed indices into one task pipe, which the workers read
one index at a time under a lock: the first ``WINDOW`` at the start,
then seed i + ``WINDOW`` once it has emitted seed i.  So no seed is
taken ``WINDOW`` or more places past the next seed to emit, and a
worker never waits on the parent for a seed that the window allows.
For each seed a worker sends back, down a result pipe of its own, the
seed's index, its leaves (each one's parent rows and attachment set,
packed in one ``array``), the leaves' scores and the subtree counts.
The parent keeps the results that come early in a reorder buffer,
which the window bounds, and emits them strictly in seed order: it
merges the counts and hands each leaf with its score to the run's
``emit``, so the main process scores nothing, the leaf call sees the
classes in serial order and stops the scan the same way.  A full scan
has the counts of a serial run; one that stops early also counts the
nodes of the stopping seed's subtree past the stop.

Forked workers inherit the run, so the leaf call need not be picklable.
Every worker is killed and reaped before ``parallel_scan`` returns or
raises, and a worker that dies fails the scan at once with ``EOFError``,
as the parent waits on every result pipe.
"""

import multiprocessing as mp
from array import array

# no seed is taken this many places or more past the next seed to emit,
# which bounds the results the parent holds back for emission in order
WINDOW = 32


def _descend(run, seed):
    """The leaves of one seed, n numbers a leaf (its parent's rows, then
    its attachment set) in one array (a list past 64 vertices), their
    scores, and the counts of its subtree."""
    code = next((c for c in "BHILQ" if array(c).itemsize * 8 >= run.n), None)
    leaves = array(code) if code else []
    scores = []

    def pack(score, rows, s):
        leaves.extend(rows)
        leaves.append(s)
        scores.append(score)

    return leaves, scores, run.subtree(seed, pack)


def _work(run, tasks, lock, conn):
    """A worker: take the next seed index from the task pipe, descend
    that seed and send the index with its result, until the parent kills
    it."""
    while True:
        with lock:
            i = tasks.recv()
        conn.send((i, _descend(run, run.seeds[i])))


def parallel_scan(run, jobs):
    """Descend ``run.seeds`` in ``jobs`` processes and emit their leaves."""
    total = len(run.seeds)
    if total < 2:  # nothing to split: descend here, without forking
        for seed in run.seeds:
            _emit(run, _descend(run, seed))
        return
    from multiprocessing.connection import wait

    ctx = mp.get_context("fork")
    tasks, queue = ctx.Pipe(duplex=False)
    lock = ctx.Lock()
    procs, conns = [], []
    done = {}  # the reorder buffer: results read but not yet emitted
    try:
        for i in range(min(WINDOW, total)):
            queue.send(i)
        for _ in range(min(jobs, total)):
            conn, end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(run, tasks, lock, end))
            with end:  # once started, the worker holds the only copy
                proc.start()
            procs.append(proc)
            conns.append(conn)
        for i in range(total):
            while i not in done:
                for conn in wait(conns):
                    j, result = conn.recv()  # EOFError once its worker is gone
                    done[j] = result
            _emit(run, done.pop(i))
            if i + WINDOW < total:
                queue.send(i + WINDOW)
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for conn in [*conns, tasks, queue]:
            conn.close()


def _emit(run, result):
    leaves, scores, stats = result
    n = run.n
    run.stats.merge(stats)
    for at, score in zip(range(0, len(leaves), n), scores):
        run.emit(score, tuple(leaves[at:at + n - 1]), leaves[at + n - 1])
