"""Acceptance criteria, one test per criterion, every tolerance exact.

Criteria 1-6 name checks of the suite registry (``suites.json``) by
``suite/id`` glob pattern and run each through ``cli.run_check``, so
each expected value is written once, in the registry.  The checks no
criterion names run in ``test_registry_check``.  No two checks share
their (op, args), so every registry run happens exactly once in this
module.  Criterion 7 (brute
force and dual augmentation orders) is in no suite.

Asymptotic statements (exactness of the odd-cycle degree formula at
large order, the chromatic-threshold behaviour of regular hosts, and
the universal quadratic supersaturation constant) are exercised only
through the exact small-order minima and the construction-side bounds
below; no limit statement is tested as a limit.

Runtime is dominated by the order-9 pentagon search (criterion 5) and
the construction sweeps up to n = 2000 (criterion 6b).
"""

import json
from fnmatch import fnmatchcase

import pytest

from helpers import graph_leaf

from turan_reg.canon import canon_core, canonical_form
from turan_reg.cli import DEFAULT_SEED, load_suites, run_check
from turan_reg.enumeration import GenFilter, enumerate_graphs

CTX = {"jobs": 1, "seed": DEFAULT_SEED}

CHECKS = {
    f"{suite_id}/{check['id']}": check
    for suite_id, suite in load_suites().items()
    for check in suite["checks"]
}

CRITERIA = {
    "1 regular-mantel": ["mantel/exr-k3-n*"],
    "2 table-reproduction": ["table1/*"],
    "3 examples": ["examples/*"],
    "4 supersaturation-equality": ["supersaturation/min-tri-9-4*"],
    "5 c5-propositions": [
        "c5-props/search-n8-r6",
        "c5-props/search-n9-r7",
        "c5-props/closed-r6",
        "c5-props/closed-r7",
    ],
    "6a identity-suites": ["goodman/*", "c5-props/forest-oracle-n10"],
    "6b construction-validators": ["constructions/*", "supersaturation/apex-window-*"],
}


def select(patterns):
    """Registry keys matching the patterns; each pattern must match a check."""
    keys = []
    for pattern in patterns:
        hits = [key for key in CHECKS if fnmatchcase(key, pattern)]
        assert hits, f"no registry check matches {pattern}"
        keys += hits
    return keys


NAMED = [key for patterns in CRITERIA.values() for key in select(patterns)]


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_criterion(name):
    ok = True
    for key in select(CRITERIA[name]):
        actual, passed, seconds = run_check(CHECKS[key], CTX)
        print(f"  {key}: expect={CHECKS[key]['expect']!r} actual={actual!r} [{seconds:.1f}s]")
        ok = ok and passed
    report(name, ok)


def test_criterion_1_regular_mantel_exactness():
    run_criterion("1 regular-mantel")


def test_criterion_2_table_reproduction():
    run_criterion("2 table-reproduction")


def test_criterion_3_examples_reproduction():
    run_criterion("3 examples")


def test_criterion_4_supersaturation_equality():
    run_criterion("4 supersaturation-equality")


def test_criterion_5_c5_propositions():
    run_criterion("5 c5-propositions")


def test_criterion_6_identity_suites():
    run_criterion("6a identity-suites")


def test_criterion_6_construction_validators():
    run_criterion("6b construction-validators")


def test_criterion_7_enumeration_correctness():
    from helpers import all_labeled_graphs

    ok = True
    for n in range(1, 7):
        emitted = set()
        enumerate_graphs(
            GenFilter(n=n), leaf=graph_leaf(lambda g: emitted.add(canon_core(g.rows, g.n)[1]))
        )
        brute = {canon_core(g.rows, g.n)[1] for g in all_labeled_graphs(n)}
        ok = ok and emitted == brute
    print("  n<=6: emitted classes equal brute-force canonicalization")
    asc, desc = [], []
    enumerate_graphs(GenFilter(n=8), leaf=graph_leaf(lambda g: asc.append(canonical_form(g))))
    enumerate_graphs(
        GenFilter(n=8), leaf=graph_leaf(lambda g: desc.append(canonical_form(g))), desc=True
    )
    ok = ok and len(asc) == 12346 and set(asc) == set(desc)
    ok = ok and len(set(asc)) == len(asc) and len(set(desc)) == len(desc)
    print("  n=8: dual augmentation orders agree; 12346 classes, duplicate-free")
    report("7 enumeration-correctness", ok)


def test_criteria_name_each_check_once():
    assert len(NAMED) == len(set(NAMED))


def test_registry_runs_are_distinct():
    """No two registry checks compute the same thing: their (op, args)
    pairs differ."""
    runs = {}
    for key, check in CHECKS.items():
        run = check["op"], json.dumps(check.get("args", {}), sort_keys=True)
        assert runs.setdefault(run, key) == key, f"{key} repeats {runs[run]}"


@pytest.mark.parametrize("key", [key for key in CHECKS if key not in NAMED])
def test_registry_check(key):
    actual, ok, _ = run_check(CHECKS[key], CTX)
    assert ok, f"{key}: expect={CHECKS[key]['expect']!r} actual={actual!r}"
