"""Parallel descent of the augmentation tree for ``enumerate_graphs``.

With ``jobs > 1`` the enumeration stops at depth n - 2 and records the
accepted graphs there as seeds, each with its score.  Their subtrees
are independent (canonical augmentation decides each child from the
child alone), so forked workers descend them, the seeds dealt by index:
worker w of ``jobs`` sends, for each of seeds w, w + jobs, ..., down its
own pipe, the leaves (each one's parent rows and attachment set, packed
in one ``array``), the leaves' scores and the subtree counts, and the
parent reads seed i from pipe i mod jobs.  It merges the counts and
hands each leaf with its score to the run's ``emit``, so the main
process scores nothing: the leaf call sees the classes in serial
order and stops the scan the same way.  A full scan has the counts of a
serial run; one that stops early also counts the nodes past the stop
that were descended before it.

Forked workers inherit the run, so the leaf call need not be picklable.
Every worker is killed and reaped before ``parallel_scan`` returns or
raises, and a dead worker's closed pipe raises ``EOFError`` when read.
"""

import multiprocessing as mp
from array import array


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


def _work(run, seeds, writer):
    for seed in seeds:
        writer.send(_descend(run, seed))


def parallel_scan(run, jobs):
    """Descend ``run.seeds`` in ``jobs`` processes and emit their leaves."""
    if len(run.seeds) < 2:  # nothing to split: descend here, without forking
        _emit_all(run, (_descend(run, seed) for seed in run.seeds))
        return
    ctx = mp.get_context("fork")
    jobs = min(jobs, len(run.seeds))
    workers = []
    try:
        for w in range(jobs):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(run, run.seeds[w::jobs], writer))
            with writer:  # once started, the worker holds the only writer
                proc.start()
            workers.append((proc, reader))
        _emit_all(run, (workers[i % jobs][1].recv() for i in range(len(run.seeds))))
    finally:
        for proc, reader in workers:
            proc.kill()
            proc.join()
            reader.close()


def _emit_all(run, results):
    n = run.n
    for leaves, scores, stats in results:
        run.stats.merge(stats)
        for at, score in zip(range(0, len(leaves), n), scores):
            run.emit(score, tuple(leaves[at:at + n - 1]), leaves[at + n - 1])
