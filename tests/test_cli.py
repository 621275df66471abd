import inspect
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from helpers import count_complete_bipartite

from turan_reg.cli import (
    CHECK_OPS,
    COMMANDS,
    PROBES,
    SuiteError,
    build_parser,
    emit_table,
    load_suites,
    main,
    run_suite,
)
from turan_reg.constructions import BUILDERS, PARAMS, build, star_partitions
from turan_reg.graphs import graph6_decode, graph6_encode
from turan_reg.search import HSpec

README = Path(__file__).resolve().parent.parent / "README.md"

PAPER_TABLE_CSV = (
    "n\\m,11,12,13,14,15,16\n"
    "6,7,8,,,,\n"
    "7,,8,7,7,,\n"
    "8,,,,8,8,8\n"
)


def test_emit_table_matches_published_layout():
    assert emit_table(4, 6, 8, fmt="csv") == PAPER_TABLE_CSV


def test_emit_table_json():
    payload = json.loads(emit_table(4, 6, 8, fmt="json"))
    assert payload["cells"]["6,11"] == 7
    assert payload["cells"]["7,13"] == 7
    assert "6,13" not in payload["cells"]
    assert payload["provenance"] == "PAPER"


def test_emit_table_flags_new_data():
    text = emit_table(5, 7, 7, fmt="csv")
    assert "DERIVED" in text
    payload = json.loads(emit_table(5, 7, 7, fmt="json"))
    assert payload["provenance"] == "DERIVED"


def test_construct_command(tmp_path, capsys):
    out = tmp_path / "g.g6"
    rc = main(["construct", "pentagon-blowup", "--n", "25", "--out", str(out), "--certify"])
    assert rc == 0
    text = out.read_text()
    g6, rest = text.split("\n", 1)
    g = graph6_decode(g6)
    assert g.n == 25 and g.is_regular(10)
    cert = json.loads(rest)
    assert cert["name"] == "pentagon-blowup"
    assert all(c["ok"] for c in cert["checks"])


def test_construct_options_from_registry(capsys):
    """Each parameter a builder's signature lists is a construct option
    of its name; --parts reads a list of leaf counts."""
    parser = build_parser()
    assert set(PARAMS) == set(BUILDERS)
    for name, (fn, _) in BUILDERS.items():
        params = PARAMS[name]
        assert params == tuple(inspect.signature(fn).parameters), name
        values = {a: [1, 2] if a == "parts" else 1 for a in params}
        argv = [f"--{a}={','.join(map(str, v)) if a == 'parts' else v}" for a, v in values.items()]
        ns = parser.parse_args(["construct", name, *argv])
        assert {a: getattr(ns, a) for a in params} == values, name
    assert main(["construct", "star-forest-complement", "--n", "9", "--parts", "8", "--certify"]) == 0
    cert = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert cert["params"] == {"n": 9, "parts": [8]}


def test_construct_edges_format(capsys):
    rc = main(["construct", "kbe", "--x", "2", "--y", "2", "--format", "edges"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("n 6\n")
    assert len(text.strip().splitlines()) == 11  # header + 10 edges


def test_construct_reports_seconds(capsys):
    """The build time goes to stderr; stdout is the graph alone."""
    assert main(["construct", "pentagon-blowup", "--n", "25"]) == 0
    out, err = capsys.readouterr()
    assert re.fullmatch(r"seconds=\d+\.\d\d\n", err)
    assert out == graph6_encode(build("pentagon-blowup", n=25).graph) + "\n"


def test_enumerate_command(tmp_path, capsys):
    out = tmp_path / "c.g6"
    rc = main(["enumerate", "--n", "5", "--regular-k", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split()
    assert len(lines) == 1
    assert graph6_decode(lines[0]).is_regular(2)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "12"], "beyond enumeration cap 11; pass --force"),
        (["--n", "5", "--jobs", "0"], "jobs must be >= 1"),
        (["--n", "5", "--regular-k", "2", "--max-degree", "1"], "max_degree below regular_k"),
    ],
    ids=["cap", "jobs", "filter"],
)
def test_enumerate_refusal_keeps_out_file(args, message, tmp_path, capsys):
    """A refused run exits 2 and leaves the --out file byte-identical."""
    out = tmp_path / "kept.g6"
    out.write_bytes(b"D?{\nkept\n")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"D?{\nkept\n"


def test_enumerate_command_jobs(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"q{jobs}.g6"
        rc = main(["enumerate", "--n", "7", "--regular-k", "4", "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] and len(outs[0].split()) == 2


def test_exr_command(capsys):
    rc = main(["exr", "--n", "7", "--forbid", "K3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 2
    assert payload["closed_form"] == {"value": 2, "exact": True}
    rc = main(["exr", "--n", "7", "--forbid", "C5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_form"]["exact"] is False


def test_exr_command_jobs(capsys):
    payloads = []
    for jobs in ("1", "2"):
        rc = main(["exr", "--n", "9", "--forbid", "K3", "--all-witnesses", "--jobs", jobs])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["stats"]["seconds"], payload["stats"]["cpu_seconds"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_search_command_reports_cpu_seconds(capsys):
    """Next to the wall seconds, a search reports the CPU seconds of the
    process and of the workers it reaped."""
    rc = main(["max-copies", "--n", "8", "--pattern", "C5", "--max-degree", "4", "--jobs", "2"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert isinstance(stats["cpu_seconds"], float) and stats["cpu_seconds"] > 0


def test_census_triangles_command(capsys):
    rc = main(["census-triangles", "--n", "9", "--k", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 2 and payload["classes"] == 1
    rc = main(["census-triangles", "--n", "7", "--k", "3"])
    assert rc == 1  # handshake infeasibility is flagged via exit status


def test_max_cliques_command(capsys):
    rc = main(["max-cliques", "--n", "6", "--m", "11", "--max-degree", "4", "--t", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 7
    # neither or both of --t and --total: a usage error
    for size in ([], ["--t", "3", "--total"]):
        with pytest.raises(SystemExit) as exc:
            main(["max-cliques", "--n", "6", "--m", "11", "--max-degree", "4", *size])
        assert exc.value.code == 2


def test_max_copies_command(capsys):
    rc = main(["max-copies", "--n", "6", "--pattern", "K1,2", "--max-degree", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 18


def test_biclique_pattern(capsys):
    # K2,3 is a biclique; K1,s stays a star
    rc = main(["max-copies", "--n", "7", "--pattern", "K2,3", "--max-degree", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["extra"]["pattern_kind"] == "biclique"
    best = max(
        count_complete_bipartite(graph6_decode(w), 2, 3) for w in payload["witnesses"]
    )
    assert payload["objective"] == best == 18
    rc = main(["exr", "--n", "10", "--forbid", "K2,2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 3 and payload["extra"]["pattern"] == "K2,2"


def test_max_copies_long_cycle(capsys):
    # a cycle of any length is counted by count_cycles
    rc = main(["max-copies", "--n", "9", "--pattern", "C9", "--max-degree", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 1
    assert payload["classes"] == 1
    assert payload["extra"]["pattern_kind"] == "cycle"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "apex"], "apex needs parameters"),
        (["exr", "--n", "5", "--forbid", "Q7"], "cannot parse pattern 'Q7'"),
        (["enumerate", "--n", "12"], "beyond enumeration cap 11; pass --force"),
        (["probe", "cycle-question", "--m", "2", "--r", "2", "--n", "5"], "cycle length"),
        # a family pattern has several members; max-copies counts one
        (["max-copies", "--n", "5", "--pattern", "C3..C7", "--max-degree", "2"], "C3..C7 has 3"),
        (
            ["max-copies", "--n", "5", "--pattern", "C4", "--max-degree", "-1"],
            "max_degree must be >= 0",
        ),
        (["exr", "--n", "0", "--forbid", "K3"], "order must be >= 1"),
        (["enumerate", "--n", "5", "--jobs", "0"], "jobs must be >= 1"),
        (
            ["max-copies", "--n", "5", "--pattern", "C4", "--max-degree", "2", "--witness-cap", "-1"],
            "witness cap must be >= 0",
        ),
        (["table", "--r", "4", "--n-from", "9", "--n-to", "6"], "empty order range 9..6"),
        (["table", "--r", "4", "--n-from", "0", "--n-to", "2"], "order must be >= 1"),
        (["probe", "gls-critical", "--n", "0", "--r", "4"], "order must be >= 1"),
        # orders below 9 have no degree in the triangle window: no empty report
        (["probe", "triangle-floor", "--n-max", "0"], "n_max must be >= 9"),
        (["probe", "triangle-floor", "--n-max", "8"], "n_max must be >= 9"),
        # a negative clique size is a named graph error, not a shift error
        (
            ["max-cliques", "--n", "6", "--m", "5", "--max-degree", "3", "--t", "-1"],
            "vertex count must be nonnegative",
        ),
        (
            ["probe", "gls-critical", "--n", "8", "--r", "4", "--t", "-2"],
            "vertex count must be nonnegative",
        ),
        # a parameter the builder does not take is refused, not ignored
        (["construct", "kbe", "--x", "2", "--y", "1", "--n", "5"], "kbe takes parameters"),
        (
            ["construct", "star-forest-complement", "--n", "5", "--parts", "1,x"],
            "argument --parts: invalid int_list value: '1,x'",
        ),
    ],
    ids=[
        "construct", "exr", "enumerate", "probe", "max-copies-family", "max-degree", "exr-order",
        "jobs", "witness-cap", "table-empty-range", "table-order", "probe-gls-order",
        "probe-floor-n-max-0", "probe-floor-n-max-8", "max-cliques-negative-t",
        "probe-gls-negative-t",
        "construct-unknown-param", "construct-parts",
    ],
)
def test_named_error_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


BAD_PATTERNS = [(t, f"cannot parse pattern {t!r}") for t in ("K2,x", "Kx", "C5x", "C3..Cx", "K1,x", "C3..C5..C7")]
BAD_PATTERNS += [
    (t, "a clique needs at least 2 vertices") for t in ("K0", "K1", "K-1", "K1,0", "K1,-2", "K2,0")
]
BAD_PATTERNS += [(t, "a cycle needs at least 3 vertices") for t in ("C1", "C3..C1", "C2", "C0", "C-3")]


@pytest.mark.parametrize("text, message", BAD_PATTERNS, ids=[t for t, _ in BAD_PATTERNS])
def test_bad_pattern_is_usage_error(text, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exr", "--n", "6", f"--forbid={text}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_probe_command(capsys):
    rc = main(["probe", "triangle-floor", "--n-max", "9"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probe"] == "triangle-floor"
    assert payload["rows"][0]["consistent"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["gls-critical", "--n", "8", "--r", "4"],
        ["odd-girth-question", "--n", "9", "--pattern", "K3"],
        ["cycle-question", "--m", "4", "--r", "2", "--n", "6"],
    ],
    ids=["gls-critical", "odd-girth-question", "cycle-question"],
)
def test_probe_command_jobs(args, capsys):
    reports = []
    for jobs in ("1", "2"):
        assert main(["probe", *args, "--jobs", jobs]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    payload = json.loads(reports[0])
    assert payload["probe"] == args[0] and payload["rows"]


def test_probe_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, missing",
    [
        (["odd-girth-question", "--n", "7"], "--pattern"),
        (["gls-critical", "--n", "7"], "--r"),
        (["gls-critical", "--r", "3"], "--n"),
        (["cycle-question", "--n", "7"], "--m, --r"),
    ],
    ids=["odd-girth-question", "gls-critical-r", "gls-critical-n", "cycle-question"],
)
def test_probe_missing_option(args, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"probe {args[0]}: error: the following arguments are required: {missing}\n" in err


@pytest.mark.parametrize(
    "args, unread",
    [
        # --n is no abbreviation of --n-max
        (["triangle-floor", "--n", "0"], "--n 0"),
        (
            ["gls-critical", "--n", "8", "--r", "4", "--n-max", "9", "--pattern", "K3"],
            "--n-max 9 --pattern K3",
        ),
        (["cycle-question", "--m", "4", "--r", "2", "--n", "6", "--t", "3"], "--t 3"),
    ],
    ids=["triangle-floor", "gls-critical", "cycle-question"],
)
def test_probe_refuses_unread_option(args, unread, capsys):
    # an option the probe does not read is refused, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["probe", *args])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unread}\n")


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["probe", "triangle-floor", "--n", "0"], "--n 0"),
        (["exr", "--n", "9", "--forbid", "K3", "--bogus"], "--bogus"),
        (["suite", "smoke", "--bogus"], "--bogus"),
    ],
    ids=["probe", "exr", "suite"],
)
def test_unknown_option_is_refused_by_its_subcommand(argv, unread, capsys):
    # the subcommand's own usage and name, not the top-level list of commands
    command = " ".join(argv[:2] if argv[0] == "probe" else argv[:1])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: turan-reg {command} [-h]")
    assert err.endswith(f"turan-reg {command}: error: unrecognized arguments: {unread}\n")


# a value each probe option accepts
PROBE_VALUES = {"pattern": "K3", "n": "9", "n_max": "9", "m": "4", "r": "2", "t": "3"}


def _probe_flag(opt):
    return "--" + opt.replace("_", "-")


def _probe_argv(name, options):
    return ["probe", name] + [a for opt in options for a in (_probe_flag(opt), PROBE_VALUES[opt])]


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_takes_exactly_its_options(name, monkeypatch, capsys):
    """Each probe subcommand passes on every option it takes, requires
    each one it needs, and refuses every option of another probe.  The
    probe itself is replaced, so only the parsing is checked."""
    _, needed, optional = PROBES[name]
    calls = []
    monkeypatch.setitem(PROBES, name, (lambda **kw: calls.append(kw) or {}, needed, optional))
    assert main(_probe_argv(name, needed + optional)) == 0
    expected = {"jobs", *needed, *optional}
    if "pattern" in expected:
        expected ^= {"pattern", "hspec"}
    assert set(calls.pop()) == expected
    for opt in needed:
        with pytest.raises(SystemExit) as exc:
            main(_probe_argv(name, [o for o in needed if o != opt]))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"required: {_probe_flag(opt)}\n")
    taken = set(needed + optional)
    others = {opt for _, n, o in PROBES.values() for opt in n + o} - taken
    assert others
    for opt in sorted(others):
        with pytest.raises(SystemExit) as exc:
            main(_probe_argv(name, needed + (opt,)))
        assert exc.value.code == 2
        refused = f"unrecognized arguments: {_probe_flag(opt)} {PROBE_VALUES[opt]}\n"
        assert capsys.readouterr().err.endswith(refused)
    assert not calls


def test_probe_default_is_the_probes_own(capsys):
    # an option left out keeps the default of the probe function
    assert main(["probe", "gls-critical", "--n", "6", "--r", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["t"] == 3


@pytest.mark.parametrize(
    "argv, remedy",
    [(["enumerate", "--n", "12"], "; pass --force"), (["exr", "--n", "12", "--forbid", "K3"], "")],
    ids=["enumerate", "exr"],
)
def test_cap_message_names_force_only_where_it_exists(argv, remedy, capsys):
    # only enumerate has --force; exr, like exr_exact, has no way round the cap
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("error: order 12 beyond enumeration cap 11" + remedy)


def test_suite_command(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["suite", "table1", "--report", str(report_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "[PAPER]" in text
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["seed"] == 20210831
    assert [c["id"] for c in report["checks"]] == ["cells-n6", "cells-n7", "cells-n8"]


UNWRITABLE = [
    ["construct", "kbe", "--x", "1", "--y", "1", "--out"],
    ["enumerate", "--n", "3", "--out"],
    ["table", "--r", "4", "--n-from", "6", "--n-to", "6", "--out"],
    ["suite", "table1", "--report"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=[a[0] for a in UNWRITABLE])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    """An --out or --report path that cannot be opened is a named error,
    exit 2, raised after the run: the path is a file's child here."""
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    path = blocker / "x"
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path}: Not a directory" in err and "Traceback" not in err
    assert blocker.read_text() == "kept\n"


def test_suite_unknown(capsys):
    with pytest.raises(SuiteError, match="choose from .*'table1'"):
        run_suite("not-a-suite")
    with pytest.raises(SystemExit) as exc:
        main(["suite", "not-a-suite"])
    assert exc.value.code == 2
    assert "unknown suite 'not-a-suite'" in capsys.readouterr().err


def test_table_command(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["table", "--r", "4", "--n-from", "6", "--n-to", "8", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == PAPER_TABLE_CSV


def test_manifest_tags_complete():
    suites = load_suites()
    assert set(suites) == {
        "mantel",
        "odd-girth",
        "supersaturation",
        "table1",
        "examples",
        "goodman",
        "c5-props",
        "constructions",
    }
    ops = set()
    for suite in suites.values():
        ids = [check["id"] for check in suite["checks"]]
        assert len(ids) == len(set(ids))
        for check in suite["checks"]:
            assert check["tag"] in ("PAPER", "TRIVIAL", "DERIVED")
            assert "expect" in check and "op" in check and "id" in check
            ops.add(check["op"])
    assert ops == set(CHECK_OPS)


def test_star_partitions_once_each():
    """Each multiset of leaf counts a_i >= 1 with sum(a_i + 1) = n comes
    out once, nondecreasing: the partitions of n into parts >= 2."""
    total = 0
    for n in range(13):
        lists = [tuple(parts) for parts in star_partitions(n)]
        brute = {
            leaves
            for k in range(n // 2 + 1)
            for leaves in itertools.combinations_with_replacement(range(1, n), k)
            if sum(a + 1 for a in leaves) == n
        }
        assert sorted(lists) == sorted(brute), n
        total += len(lists) if n >= 2 else 0
    assert total == 76  # the star-forest-n12 sweep


def test_readme_commands_parse():
    """Every ``turan-reg`` line in the README's code blocks parses, with
    its patterns and suite ids; the listed pattern names parse too.
    Nothing is run."""
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("turan-reg ")]
    parser, suites = build_parser(), load_suites()
    for argv in commands:
        ns = parser.parse_args(argv)
        for pattern in (getattr(ns, "forbid", None), getattr(ns, "pattern", None)):
            if pattern is not None:
                HSpec.parse(pattern)
        if ns.command == "suite":
            assert ns.id in suites, argv
    assert {argv[0] for argv in commands} == set(COMMANDS)  # every command has an example
    comments = " ".join(line.lstrip("# ") for line in lines if line.startswith("#"))
    listed = re.search(r"patterns: (.*?), g6:<string>\)", comments).group(1).split(", ")
    assert len(listed) > 1
    for pattern in listed:
        HSpec.parse(pattern)
