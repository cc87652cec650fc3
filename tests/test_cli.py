"""Command-line interface: subcommands, exit codes, file output."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chromarep.algebra import Signature
from chromarep.cli import DELEGATED_SEARCH_NODES, run
from chromarep.colouring import EdgeColouring, Level

GOLDEN_TABLE = Path(__file__).parent / "golden_table.json"


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_construct_emits_json(tmp_path):
    target = tmp_path / "w.json"
    dot = tmp_path / "w.dot"
    code, _ = run_cli("construct", "--s", "2,3", "--n", "4",
                      "--level", "qualitative",
                      "--out", str(target), "--dot", str(dot))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["vertices"] == 8
    assert doc["signature"] == {"s": [2, 3], "n": 4}
    assert dot.read_text().startswith("graph colouring {")
    # an unwritable DOT path fails before any colouring is printed
    code, out = run_cli("construct", "--s", "2", "--n", "2",
                        "--level", "strong", "--dot", str(tmp_path))
    assert code == 1
    assert out.startswith("error:") and out.count("\n") == 1


def test_construct_to_stdout():
    code, out = run_cli("construct", "--s", "3", "--n", "5",
                        "--level", "qualitative")
    assert code == 0
    assert json.loads(out)["vertices"] == 6


def test_construct_not_constructible():
    code, out = run_cli("construct", "--s", "empty", "--n", "2",
                        "--level", "feeble")
    assert code == 4
    assert "not constructible" in out


def test_construct_delegates_to_search():
    code, out = run_cli("construct", "--s", "1,2", "--n", "2",
                        "--level", "qualitative")
    assert code == 0
    assert "delegated to search" in out


def test_construct_default_budget():
    # a delegated search stops at the fixed node budget instead of running
    # without limit
    code, out = run_cli("construct", "--s", "1,2", "--n", "2",
                        "--level", "strong")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("delegated to search:")
    assert lines[1:] == ["budget exhausted"]


def test_verify_pass_and_fail(tmp_path):
    target = tmp_path / "w.json"
    run_cli("construct", "--s", "2,3", "--n", "3", "--level", "qualitative",
            "--out", str(target))
    code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                        "--level", "qualitative", "--in", str(target))
    assert code == 0 and "pass" in out
    code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                        "--level", "strong", "--in", str(target))
    assert code == 2
    assert out.strip() == "strong: FAIL (66 unwitnessed edge/triple pair(s))"
    # AG(2,3), built and re-read through a file
    plane = tmp_path / "ag3.json"
    run_cli("construct", "--s", "1,3", "--n", "4", "--level", "strong",
            "--out", str(plane))
    code, out = run_cli("verify", "--s", "1,3", "--n", "4",
                        "--level", "strong", "--in", str(plane))
    assert code == 0 and out.strip() == "strong: pass"
    # one colour on K_3: every part of the failure summary
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps({"vertices": 3, "colours": 2,
                                "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}))
    code, out = run_cli("verify", "--s", "2,3", "--n", "2",
                        "--level", "qualitative", "--in", str(mono))
    assert code == 2
    assert out.strip() == (
        "qualitative: FAIL (not surjective; 1 forbidden triangle(s); "
        "missing multisets [(1, 1, 2), (1, 2, 2)])")


def test_verify_rejects_malformed_and_mismatched_files(tmp_path):
    target = tmp_path / "w.json"
    run_cli("construct", "--s", "2,3", "--n", "3", "--level", "qualitative",
            "--out", str(target))
    code, out = run_cli("verify", "--s", "1,3", "--n", "3",
                        "--level", "qualitative", "--in", str(target))
    assert code == 1 and "differs from --s/--n" in out
    doc = json.loads(target.read_text())
    doc["signature"]["s"] = [3, 2]
    target.write_text(json.dumps(doc))
    code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                        "--level", "qualitative", "--in", str(target))
    assert code == 0, out
    # a malformed s is the reader's error, not a mismatch; 2.0 and 2 are
    # one entry in a set, so the file must still be refused
    for s, got in [([[3], 2], "got [3]"), ([2, 2.0, 3], "got 2.0")]:
        doc["signature"]["s"] = s
        target.write_text(json.dumps(doc))
        code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                            "--level", "qualitative", "--in", str(target))
        assert code == 1 and out == (
            f"error: the signature's s {s} entry must be an integer, "
            f"{got}\n"), out
    doc["edges"][0][1] = 99
    target.write_text(json.dumps(doc))
    code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                        "--level", "qualitative", "--in", str(target))
    assert code == 1 and out.startswith("error:")
    # 2.0 and true must not pass as the ints 2 and 1
    for n, s in [(2.0, 2), (True, 1)]:
        target.write_text(json.dumps(
            {"vertices": 2, "edges": [[0, 1, 1]], "colours": int(n),
             "signature": {"s": [s], "n": n}}))
        code, out = run_cli("verify", "--s", str(s), "--n", str(int(n)),
                            "--level", "feeble", "--in", str(target))
        assert code == 1 and "signature's n must be an integer" in out, out
    target.write_text("nope")
    code, out = run_cli("verify", "--s", "2,3", "--n", "3",
                        "--level", "qualitative", "--in", str(target))
    assert code == 1 and out == (
        "error: colouring input is not JSON: "
        "Expecting value: line 1 column 1 (char 0)\n")
    # nesting deeper than the decoder's stack is one error line, too
    target.write_text("[" * 100_000)
    code, out = run_cli("verify", "--s", "2", "--n", "2",
                        "--level", "feeble", "--in", str(target))
    assert code == 1 and out.count("\n") == 1
    assert out.startswith("error: colouring input is not JSON: ")


@pytest.mark.parametrize("entry, message", [
    ({"n": 2}, "is not an object with 's' and 'n'"),
    (5, "is not an object with 's' and 'n'"),
    ([], "is not an object with 's' and 'n'"),
    ({"s": 5, "n": 2}, "the signature's s 5 is not a list"),
    ({"s": "23", "n": 2}, "the signature's s '23' is not a list"),
    ({"s": [4], "n": 2}, "triangle types must lie in {1,2,3}"),
    ({"s": [2, 2.0, 3], "n": 2}, "entry must be an integer, got 2.0"),
], ids=["partial", "number", "list", "s-number", "s-string", "s-4",
        "s-float"])
def test_verify_refuses_malformed_signature_entry(tmp_path, entry, message):
    # the reader checks the entry once, so a malformed one is never reported
    # as differing from --s/--n
    text = json.dumps({"vertices": 2, "colours": 2, "edges": [[0, 1, 1]],
                       "signature": entry})
    with pytest.raises(ValueError) as info:
        EdgeColouring.from_json(text)
    assert message in str(info.value)
    target = tmp_path / "w.json"
    target.write_text(text)
    code, out = run_cli("verify", "--s", "2", "--n", "2",
                        "--level", "feeble", "--in", str(target))
    assert (code, out) == (1, f"error: {info.value}\n")


def test_search_certified_nonexistent(monkeypatch, dichromatic_certificate):
    # the CLI prints the session's one {2}, n=3 exhaustion instead of
    # running it again
    outcome, _ = dichromatic_certificate

    def stub(sig, level, m_range, node_budget):
        assert (sig, level) == (Signature(frozenset({2}), 3),
                                Level.QUALITATIVE)
        assert m_range is None and node_budget is None
        return outcome

    monkeypatch.setattr("chromarep.cli.search", stub)
    code, out = run_cli("search", "--s", "2", "--n", "3",
                        "--level", "qualitative")
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(line)["m"] for line in lines[:-1]] == list(range(2, 13))
    assert lines[-1] == "certified nonexistent up to m=12"


def test_out_of_memory_is_one_error_line(monkeypatch):
    # a huge n can exhaust memory in the search's set-up; that ends in one
    # line, not a traceback
    def stub(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("chromarep.cli.search", stub)
    code, out = run_cli("search", "--s", "2", "--n", "99999999999",
                        "--level", "feeble", "--budget-nodes", "1")
    assert (code, out) == (1, "error: out of memory\n")


def test_search_found_writes_file(tmp_path):
    target = tmp_path / "found.json"
    code, out = run_cli("search", "--s", "3", "--n", "3",
                        "--level", "qualitative", "--out", str(target))
    assert code == 0
    assert "found on m=" in out
    assert json.loads(target.read_text())["vertices"] >= 3


def test_search_budget_exit():
    code, out = run_cli("search", "--s", "2", "--n", "3",
                        "--level", "qualitative", "--budget-nodes", "100")
    assert code == 3
    assert "budget exhausted" in out


def test_search_zero_budget_and_bad_numbers():
    code, out = run_cli("search", "--s", "2", "--n", "3",
                        "--level", "qualitative", "--max-m", "5",
                        "--budget-nodes", "0")
    assert code == 3 and "budget exhausted" in out
    search = ["search", "--s", "2", "--n", "3", "--level", "qualitative"]
    enum = ["enumerate", "--s", "2", "--n", "3"]
    for argv in (search + ["--budget-nodes", "-1"], search + ["--max-m", "0"],
                 search + ["--max-m", "1"], enum + ["--m", "0"],
                 enum + ["--m", "-3"], ["table", "--max-n", "-1"],
                 ["table", "--max-n", "0"]):
        code, out = run_cli(*argv)
        assert code == 1 and "error:" in out, argv


def test_search_transcript_is_line_json():
    _, out = run_cli("search", "--s", "3", "--n", "4",
                     "--level", "qualitative")
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    assert {rec["m"] for rec in records} == set(range(2, 16))


def test_search_range_limited_wording():
    code, out = run_cli("search", "--s", "2", "--n", "3",
                        "--level", "feeble", "--max-m", "3")
    assert code == 0
    assert "range-limited" in out


def test_enumerate():
    code, out = run_cli("enumerate", "--s", "3", "--n", "3", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1 and not doc["partial"]
    # a budget that runs out prints the classes found so far and exits 3
    code, out = run_cli("enumerate", "--s", "1,2", "--n", "2", "--m", "7",
                        "--budget-nodes", "1000")
    assert code == 3
    doc = json.loads(out)
    assert (doc["count"], doc["partial"]) == (32, True)


def test_witness():
    code, out = run_cli("witness", "--walecki-n", "3", "--triple", "1,2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["colours"] == {"xy": 1, "xz": 2, "yz": 3}
    code, out = run_cli("witness", "--walecki-n", "3", "--triple", "1,2")
    assert code == 1
    assert out == "error: triple must be three comma-separated colours\n"
    # reads three edges by the colour rule, without building K_2000000
    code, out = run_cli("witness", "--walecki-n", "1000000",
                        "--triple", "1,2,999999")
    assert code == 0
    assert json.loads(out)["colours"] == {"xy": 1, "xz": 2, "yz": 999999}


def test_deep_searches_finish():
    # K_m with C(m, 2) > 1000 edges: one nested generator per edge would
    # pass the recursion limit; each range reaches 2n, so exhaustion
    # certifies
    for argv, tail in [
            (("--n", "15"), "certified nonexistent up to m=48"),
            (("--n", "15", "--max-m", "60"),
             "certified nonexistent up to m=60"),
            (("--n", "2", "--max-m", "46"),
             "certified nonexistent up to m=46")]:
        code, out = run_cli("search", "--s", "1", "--level", "feeble", *argv)
        assert code == 0 and out.rstrip().endswith(tail), argv
    code, out = run_cli("enumerate", "--s", "1", "--n", "15",
                        "--level", "feeble", "--m", "47")
    assert code == 0 and json.loads(out)["count"] == 0


@pytest.mark.parametrize("s, n, level, budget, construct_code", [
    ("1,2", 2, "qualitative", 2000, 0),                   # found
    ("1,2", 2, "strong", DELEGATED_SEARCH_NODES, 3),      # aborted
    ("1,3", 3, "qualitative", 2000, 4),                   # certified
    ("1,3", 2, "feeble", 2000, 4),                        # by the 2n bound
])
def test_one_verdict_wording(s, n, level, budget, construct_code):
    # a delegating construct and a table cell, both at the fixed budget,
    # word one outcome like a search given ``budget`` nodes: enough to
    # settle the cell, or the fixed budget where it aborts; test_table pins
    # the table to the golden one
    argv = ["--s", s, "--n", str(n), "--level", level]
    _, out = run_cli("search", *argv, "--budget-nodes", str(budget))
    searched = next(line for line in out.splitlines()
                    if not line.startswith('{"m": '))
    code, out = run_cli("construct", *argv)
    lines = out.splitlines()
    assert code == construct_code
    assert lines[0].startswith("delegated to search:")
    cell = json.loads(GOLDEN_TABLE.read_text())["{" + s + "}"][f"n={n}"][level]
    assert searched == lines[1] == cell["detail"]


def test_table():
    # every verdict, reason and search summary up to n = 6; each delegated
    # cell stops at the fixed node budget, so {1,2} strong n=2 ends
    code, out = run_cli("table", "--max-n", "6")
    assert code == 0
    assert out == GOLDEN_TABLE.read_text()


def test_table_deterministic():
    _, a = run_cli("table", "--max-n", "1")
    _, b = run_cli("table", "--max-n", "1")
    assert a == b


def test_usage_errors(capsys):
    assert run_cli()[0] == 1
    assert run_cli("bogus")[0] == 1
    assert run_cli("construct", "--s", "9", "--n", "2",
                   "--level", "feeble")[0] == 1
    assert run_cli("verify", "--s", "2", "--n", "2", "--level", "feeble",
                   "--in", "/nonexistent.json")[0] == 1
    capsys.readouterr()
    assert run_cli("search", "--s", "x", "--n", "2",
                   "--level", "qualitative")[0] == 1
    assert "bad triangle-type set 'x'" in capsys.readouterr().err
    assert run_cli("search", "--s", "2", "--n", "2",
                   "--level", "bogus")[0] == 1
    assert "bad level 'bogus'" in capsys.readouterr().err
    # only search and enumerate take a node budget; the other knobs are gone
    for argv in (["construct", "--s", "1,2", "--n", "2", "--level", "strong",
                  "--budget-nodes", "5"],
                 ["table", "--max-n", "1", "--budget-nodes", "5"],
                 ["search", "--s", "3", "--n", "3", "--level", "qualitative",
                  "--threads", "4"],
                 ["search", "--s", "3", "--n", "3", "--level", "qualitative",
                  "--strict-determinism"]):
        assert run_cli(*argv)[0] == 1, argv


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_skips_dataclasses():
    # building dataclasses, and importing the module, was most of the
    # command's start-up time; the value types are named tuples
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, chromarep.cli; print('dataclasses' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_module_entry_point_runs_without_warning():
    # runpy warns when the package root has already imported chromarep.cli
    env = src_env()
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "chromarep.cli",
         "witness", "--walecki-n", "3", "--triple", "1,2,3"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_feeble_search_setup_is_bounded_by_the_budget():
    # the feeble pair table has (n+1)² entries and no multiset fields, so a
    # budgeted feeble search at n=200 ends at once, in little memory. The
    # child prints its own VmHWM: on Linux ru_maxrss keeps the peak from
    # before exec, which the ballast held here puts above the bound
    env = src_env()
    child = ("import sys\n"
             "from chromarep.cli import run\n"
             "code = run(sys.argv[1:], out=sys.stdout)\n"
             "status = open('/proc/self/status').read()\n"
             "print(status.split('VmHWM:')[1].split()[0])\n"
             "sys.exit(code)\n")
    ballast = bytearray(64 << 20)
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", child, "search", "--s", "1", "--n", "200",
         "--level", "feeble", "--budget-nodes", "10"],
        env=env, capture_output=True, text=True, timeout=60)
    seconds = time.monotonic() - start
    del ballast
    *_, summary, peak_kb = done.stdout.splitlines()
    assert (done.returncode, summary) == (3, "budget exhausted"), done.stderr
    assert seconds < 2
    assert int(peak_kb) < 40 * 1024
