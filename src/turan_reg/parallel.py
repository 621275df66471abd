"""Parallel descent of the augmentation tree for ``enumerate_graphs``.

With ``jobs > 1`` the enumeration stops at depth n - 3 and records the
accepted graphs there as seeds, each with its score.  Their subtrees
are independent (canonical augmentation decides each child from the
child alone), so forked workers may descend them in any order.  The
parent deals seed indices on demand, down one duplex pipe per worker:
each worker holds at most ``IN_FLIGHT`` seeds it has not finished, and
no seed is dealt ``WINDOW`` or more places past the next seed to emit.
For each seed a worker sends back the leaves (each one's parent rows
and attachment set, packed in one ``array``), the leaves' scores and
the subtree counts.  The parent keeps the results that come early in a
reorder buffer, which the window bounds, and emits them strictly in seed
order: it merges the counts and hands each leaf with its score to the
run's ``emit``, so the main process scores nothing, the leaf call sees
the classes in serial order and stops the scan the same way.  A full
scan has the counts of a serial run; one that stops early also counts
the nodes of the stopping seed's subtree past the stop.

Forked workers inherit the run, so the leaf call need not be picklable.
Every worker is killed and reaped before ``parallel_scan`` returns or
raises, and a worker that dies fails the scan at once with ``EOFError``,
whether the parent meets the death reading a result or sending a seed.
"""

import multiprocessing as mp
from array import array

# seeds a worker holds unfinished: one to descend, one to start on
# while the parent reads the first one's result
IN_FLIGHT = 2
# no seed is dealt this many places or more past the next seed to emit,
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


def _work(run, conn):
    """A worker: descend each seed index the parent sends, in turn, until
    the parent kills it."""
    while True:
        conn.send(_descend(run, run.seeds[conn.recv()]))


def parallel_scan(run, jobs):
    """Descend ``run.seeds`` in ``jobs`` processes and emit their leaves."""
    total = len(run.seeds)
    if total < 2:  # nothing to split: descend here, without forking
        for seed in run.seeds:
            _emit(run, _descend(run, seed))
        return
    from multiprocessing.connection import wait

    ctx = mp.get_context("fork")
    workers = []
    held = {}  # each worker's connection: the seeds it holds, in order
    done = {}  # the reorder buffer: results read but not yet emitted
    dealt = 0

    def deal(first):
        # top up each worker to IN_FLIGHT seeds, while the window allows
        nonlocal dealt
        stop = min(total, first + WINDOW)
        for conn, queue in held.items():
            while len(queue) < IN_FLIGHT and dealt < stop:
                try:
                    conn.send(dealt)
                except OSError as err:  # the worker has closed its end
                    raise EOFError("a worker died") from err
                queue.append(dealt)
                dealt += 1

    try:
        for _ in range(min(jobs, total)):
            conn, end = ctx.Pipe()
            proc = ctx.Process(target=_work, args=(run, end))
            with end:  # once started, the worker holds the only copy
                proc.start()
            workers.append((proc, conn))
            held[conn] = []
        deal(0)
        for i in range(total):
            while i not in done:
                for conn in wait([conn for conn, queue in held.items() if queue]):
                    try:
                        result = conn.recv()
                    except ConnectionResetError as err:  # died with a seed unread
                        raise EOFError("a worker died") from err
                    done[held[conn].pop(0)] = result
                deal(i)
            _emit(run, done.pop(i))
            deal(i + 1)
    finally:
        for proc, conn in workers:
            proc.kill()
            proc.join()
            conn.close()


def _emit(run, result):
    leaves, scores, stats = result
    n = run.n
    run.stats.merge(stats)
    for at, score in zip(range(0, len(leaves), n), scores):
        run.emit(score, tuple(leaves[at:at + n - 1]), leaves[at + n - 1])
