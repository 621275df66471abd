import json

import pytest

from turan_reg.cli import CHECK_OPS, emit_table, load_suites, main, run_suite
from turan_reg.graphs import graph6_decode

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


def test_construct_edges_format(capsys):
    rc = main(["construct", "kbe", "--x", "2", "--y", "2", "--format", "edges"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("n 6\n")
    assert len(text.strip().splitlines()) == 11  # header + 10 edges


def test_enumerate_command(tmp_path, capsys):
    out = tmp_path / "c.g6"
    rc = main(["enumerate", "--n", "5", "--regular-k", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().split()
    assert len(lines) == 1
    assert graph6_decode(lines[0]).is_regular(2)


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
        del payload["stats"]["seconds"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


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
    with pytest.raises(SystemExit):
        main(["max-cliques", "--n", "6", "--m", "11", "--max-degree", "4"])
    with pytest.raises(SystemExit):
        main(["max-cliques", "--n", "6", "--m", "11", "--max-degree", "4", "--t", "3", "--total"])


def test_max_copies_command(capsys):
    rc = main(["max-copies", "--n", "6", "--pattern", "K1,2", "--max-degree", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 18


def test_max_copies_long_cycle(capsys):
    # past C8 a cycle is counted by embeddings over its 18 automorphisms
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
        (["probe", "cycle-question", "--m", "9", "--r", "2", "--n", "5"], "cycle length"),
        # a family pattern has several members; max-copies counts one
        (["max-copies", "--n", "5", "--pattern", "C3..C7", "--max-degree", "2"], "C3..C7 has 3"),
    ],
    ids=["construct", "exr", "enumerate", "probe", "max-copies-family"],
)
def test_named_error_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


BAD_PATTERNS = [(t, f"cannot parse pattern {t!r}") for t in ("K2,3", "Kx", "C5x", "C3..Cx", "K1,x", "C3..C5..C7")]
BAD_PATTERNS += [(t, "a clique needs at least 2 vertices") for t in ("K0", "K1", "K-1", "K1,0", "K1,-2")]


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


@pytest.mark.parametrize(
    "args, missing",
    [
        (["odd-girth-question", "--n", "7"], "--pattern"),
        (["gls-critical", "--n", "7"], "--r"),
        (["gls-critical", "--r", "3"], "--n"),
        (["cycle-question", "--n", "7"], "--m --r"),
    ],
    ids=["odd-girth-question", "gls-critical-r", "gls-critical-n", "cycle-question"],
)
def test_probe_missing_option(args, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", *args])
    assert exc.value.code == 2
    assert f"probe {args[0]} requires {missing}" in capsys.readouterr().err


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


def test_suite_unknown():
    with pytest.raises(SystemExit):
        run_suite("not-a-suite")


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
