import argparse
import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semlab.cli as cli_mod
import semlab.solver as solver_mod
from semlab import Graph, VerifyResult, make_cycle, serialize_graph
from semlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_obstruction_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "--gen", "two-cycle", "3", "4")
    assert code == 1
    assert "NOT_SEM_OBSTRUCTION" in out and "DEGSEQ_4_2_EVEN_ORDER" in out


def test_solve_sem_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "--gen", "cycle", "5", "--threads", "1")
    assert code == 0
    assert "status: SEM" in out and "valence: 14" in out


def test_solve_budget_exit_code(capsys):
    # C(3,13) is SEM, but its search reaches a witness at node 18,761,717
    code, out, _ = run(capsys, "solve", "--gen", "two-cycle", "3", "13",
                       "--threads", "1", "--no-obstructions", "--budget", "7")
    assert code == 2
    assert "UNKNOWN_BUDGET_EXCEEDED" in out


def test_solve_edgeless(tmp_path, capsys):
    path = tmp_path / "edgeless.txt"
    path.write_text("3\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "trivially super edge-magic" in out


def test_solve_json_config_echo(capsys, monkeypatch):
    # --threads is the one way to set the worker count; the environment
    # variable that once overrode it is ignored
    monkeypatch.setenv("SEMLAB_THREADS", "0")
    code, out, _ = run(capsys, "solve", "--gen", "cycle", "5", "--json",
                       "--threads", "1")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "SEM"
    assert data["config"] == {"use_obstructions": True, "budget": 10**9,
                              "threads": 1, "prefix": None}
    assert data["witness"]["valence"] == 14
    assert data["interval"] == [14, 14]


def test_bad_search_settings_exit_3(capsys):
    # SearchConfig is the one check of budgets and thread counts, whichever
    # command reads them and whether or not the search would start
    graph = ["--gen", "two-cycle", "3", "5"]
    for argv in (["solve", *graph, "--threads", "0"],
                 ["solve", *graph, "--budget", "0"],
                 ["sweep", "two-cycle-grid", "--m", "3..3", "--n", "3..3",
                  "--budget", "0"],
                 ["valences", *graph, "--threads", "0"],
                 ["valences", *graph, "--threads", "-1"],
                 ["valences", *graph, "--budget", "0"],
                 ["perfect", *graph, "--threads", "0"],
                 ["perfect", *graph, "--threads", "-1"],
                 ["perfect", *graph, "--budget", "0"],
                 ["perfect", "--gen", "cycle", "4", "--budget", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: "), argv


def test_usage_errors_exit_3(capsys):
    # argparse's own exit code 2 would read as "budget exceeded"
    for argv in ([], ["teleport"], ["solve", "--budget", "many"],
                 ["valences", "--gen", "cycle", "5", "--frobnicate"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "usage:" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: semlab")


def test_input_errors_exit_3(tmp_path, capsys):
    # one error line, no traceback: int() is the one parser of integers
    comment, dashes = tmp_path / "comment.el", tmp_path / "dashes.el"
    comment.write_text("# nothing but a comment\n")
    dashes.write_text("--5\n0 1\n")
    million = tmp_path / "million.el"  # a graph of a million vertices
    million.write_text("1000000\n")
    cactus = ["solve", "--gen", "cactus", "3", "3", "--attach"]
    # files that are not UTF-8, and certificates that json cannot decode:
    # nesting past the recursion limit, a valence past int()'s 4,300 digits
    latin1, nested = tmp_path / "latin1.el", tmp_path / "nested.json"
    huge = tmp_path / "huge.json"
    latin1.write_bytes(b"3\n0 1 # caf\xe9\n")
    nested.write_text("[" * 100_000)
    huge.write_text('{"vertex_labels": [1, 2, 3], "edge_labels": [], '
                    '"valence": 1' + "0" * 5_000 + "}")
    triangle = ["--gen", "cycle", "3", "--cert"]
    for argv, message in (
            (["solve", "--gen", "cycle", "5", "6"], "takes exactly one length"),
            (["solve", "--gen", "two-cycle", "3"], "takes exactly two lengths"),
            (["solve", "--gen", "cactus"], "at least one cycle length"),
            (["solve", "--gen", "cycle", "x"], "takes integer arguments"),
            (["solve", "--gen", "wheel", "5"], "unknown generator family"),
            (["sweep", "two-cycle-grid", "--m", "a..b"], "bad range 'a..b'"),
            (["check", "--gen", "cycle", "3", "--cert",
              str(tmp_path / "missing.json")], "cannot read"),
            (["solve", str(comment)], "empty edge-list input"),
            ([*cactus, "0:--1"], "bad attachment '0:--1'"),
            ([*cactus, "0:\u00b2"], "bad attachment '0:\u00b2'"),
            ([*cactus, "0"], "bad attachment '0'"),
            (["solve", str(dashes)], "expected vertex count, got '--5'"),
            (["solve", str(million)], "orders beyond 258047"),
            (["solve", "--gen", "cycle", "300000"], "orders beyond 258047"),
            (["solve", str(latin1)], "cannot read"),
            (["check", *triangle, str(latin1)], "cannot read"),
            (["render", *triangle, str(latin1)], "cannot read"),
            (["check", *triangle, str(nested)], "not valid JSON"),
            (["check", *triangle, str(huge)], "not valid JSON")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and message in err, (argv, err)
        assert err.count("\n") == 1, err


def test_cli_leaves_numpy_unimported():
    # only the oracle needs numpy, and no command runs the oracle; no module
    # needs dataclasses, whose import of inspect costs every call start-up,
    # nor typing, fractions (with decimal and numbers), csv or contextlib.
    # The modules are those new since before the import, as a site hook may
    # import some of them first; an in-process main() freezes nothing
    code = ("import gc, sys\n"
            "before = set(sys.modules)\n"
            "import semlab.cli\n"
            "unused = lambda: {'numpy', 'dataclasses', 'inspect', 'typing',\n"
            "                  'fractions', 'decimal', 'numbers', 'csv',\n"
            "                  'contextlib'} & (set(sys.modules) - before)\n"
            "assert not unused(), ('on import', unused())\n"
            "semlab.cli.main(['solve', '--gen', 'cycle', '5', '--threads', '1'])\n"
            "semlab.cli.main(['valences', '--gen', 'two-cycle', '4', '8',"
            " '--threads', '1'])\n"
            "assert not unused(), ('after solve and valences', unused())\n"
            "assert gc.get_freeze_count() == 0\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_the_pool_only_to_start_it():
    # C(3,9) ends at node 32,091, below _INLINE_NODES: at two threads it
    # runs in this process and leaves the pool's modules unimported. A
    # threshold of 0 starts the pool at its first node, and imports them
    pool = ["concurrent.futures", "multiprocessing"]
    code = ("import sys, semlab.cli, semlab.solver\n"
            "semlab.solver._INLINE_NODES = int(sys.argv[1])\n"
            "semlab.cli.main(['solve', '--gen', 'two-cycle', '3', '9',"
            " '--threads', '2'])\n"
            f"print(sorted(set({pool}) & set(sys.modules)))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for at, imported in ((solver_mod._INLINE_NODES, []), (0, pool)):
        proc = subprocess.run([sys.executable, "-c", code, str(at)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "status: SEM" in proc.stdout
        assert proc.stdout.splitlines()[-1] == str(imported), at


def test_perfect_json_traverses_once(capsys, monkeypatch):
    calls = []

    def counting_sem_set(*args, **kwargs):
        calls.append(args)
        return real_sem_set(*args, **kwargs)

    # count the traversals made under either name
    real_sem_set = solver_mod.sem_set
    monkeypatch.setattr(cli_mod, "sem_set", counting_sem_set)
    monkeypatch.setattr(solver_mod, "sem_set", counting_sem_set)
    # the JSON bytes as printed before the single traversal
    for argv, want in (
            (["--gen", "two-cycle", "3", "5"], '{"classification": "perfect", '
             '"interval": [19, 20], "valence_set": [19, 20]}\n'),
            (["--g6", "Cs"], '{"classification": "not-perfect", '
             '"interval": [10, 12], "valence_set": [10, 12]}\n'),
            (["--gen", "cycle", "4"], '{"classification": "vacuous-not-sem", '
             '"interval": [], "valence_set": []}\n'),
            (["--gen", "cycle", "7", "--budget", "10"], '{"classification": '
             '"unknown", "interval": [19, 19], "valence_set": []}\n')):
        calls.clear()
        code, out, _ = run(capsys, "perfect", *argv, "--json", "--threads", "1")
        assert (code, out) == (0, want)
        assert len(calls) == 1, argv


def test_certificate_labels_are_json_integers(tmp_path, capsys):
    # int() would truncate 1.9 and read "1" and true as 1, each making a
    # valid certificate of C3
    good = {"vertex_labels": [1, 2, 3],
            "edge_labels": [[0, 1, 6], [0, 2, 5], [1, 2, 4]], "valence": 9}
    path = tmp_path / "c3.json"
    for cert, code in ((good, 0),
                       ({**good, "vertex_labels": [1.9, 2.9, 3.9],
                         "valence": 9.5}, 3),
                       ({**good, "vertex_labels": ["1", "2", "3"]}, 3),
                       ({**good, "vertex_labels": [True, 2, 3]}, 3),
                       ({**good, "edge_labels": [[0, 1, 6], [0, 2, 5.0],
                                                 [1, 2, 4]]}, 3)):
        path.write_text(json.dumps(cert))
        for command in ("check", "render"):
            got, out, err = run(capsys, command, "--gen", "cycle", "3",
                                "--cert", str(path))
            assert got == code, (cert, command)
            if code:
                assert out == "" and err.startswith("error: bad certificate JSON: ")


def test_certificate_pipeline(tmp_path, capsys):
    cert = tmp_path / "c5.json"
    code, _, _ = run(capsys, "solve", "--gen", "cycle", "5", "--threads", "1",
                     "--cert-out", str(cert))
    assert code == 0

    code, out, _ = run(capsys, "check", "--gen", "cycle", "5",
                       "--cert", str(cert))
    assert code == 0 and "valid" in out

    data = json.loads(cert.read_text())
    data["edge_labels"][0][2], data["edge_labels"][1][2] = (
        data["edge_labels"][1][2], data["edge_labels"][0][2])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", "--gen", "cycle", "5",
                       "--cert", str(tampered))
    assert code == 1 and "non-constant valence" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", "--gen", "cycle", "5", "--cert", str(bad))
    assert code == 3 and "parse" in err


def _no_search(*args, **kwargs):
    raise RuntimeError("searched before every input was checked")


_TEST_PID = os.getpid()


def _exit_at_once(*args):
    # a pool worker dies at once; this process runs no pool task
    if os.getpid() != _TEST_PID:
        os._exit(1)
    raise RuntimeError("a pool task ran in the test process")


def test_solve_unwritable_cert_out_exits_3(tmp_path, capsys, monkeypatch):
    # exit 1 would read as NOT_SEM: a write that fails is an input error,
    # and it is found before the search
    monkeypatch.setattr(cli_mod, "search_sem", _no_search)
    path = tmp_path / "missing" / "c5.json"
    code, out, err = run(capsys, "solve", "--gen", "cycle", "5", "--threads",
                         "1", "--cert-out", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_solve_cert_out_without_witness_writes_nothing(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        code, _, _ = run(capsys, "solve", "--gen", "cycle", "6",
                         "--cert-out", str(path))
        assert code == 1
    assert not new.exists() and old.read_text() == "kept\n"


def test_internal_failure_exits_4(capsys, monkeypatch):
    # exit 1 would read as NOT_SEM: a failed self-check is no verdict
    monkeypatch.setattr(solver_mod, "verify_sem",
                        lambda g, cert: VerifyResult(False, "patched"))
    code, out, err = run(capsys, "solve", "--gen", "cycle", "5", "--threads", "1")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: AssertionError: ")


def test_dead_worker_exits_4(capsys, monkeypatch):
    # a pool worker that dies breaks the pool (six live first labels, two
    # threads and a threshold of 0 nodes start one; an obstruction decides
    # nothing here); the forked workers inherit the patched task
    monkeypatch.setattr(solver_mod, "_pool_task", _exit_at_once)
    monkeypatch.setattr(solver_mod, "_INLINE_NODES", 0)
    code, out, err = run(capsys, "solve", "--gen", "two-cycle", "3", "9",
                         "--threads", "2")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: BrokenProcessPool: ")


def test_unwritable_stdout_exits_3():
    # a full or a closed stdout is an output that cannot be written, with
    # stdout buffered or not: one line on stderr, and no traceback
    code = "import sys, semlab.cli; sys.exit(semlab.cli.main(sys.argv[1:]))"
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    sinks = ["closed pipe"] + ["/dev/full"] * os.path.exists("/dev/full")
    for unbuffered, sink, argv in itertools.product(
            ({}, {"PYTHONUNBUFFERED": "1"}), sinks,
            (["solve", "--gen", "cycle", "5", "--threads", "1"],
             ["sweep", "two-cycle-grid", "--threads", "1"], ["--help"])):
        if sink == "closed pipe":
            read, out = os.pipe()
            os.close(read)
        else:
            out = os.open(sink, os.O_WRONLY)
        try:
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  env={**env, **unbuffered}, stdout=out,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        finally:
            os.close(out)
        assert proc.returncode == 3, (sink, argv, proc.stderr)
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


def _masked(json_text: str) -> dict:
    data = json.loads(json_text)
    data["stats"]["millis"] = None
    return data


def test_module_exit_path(tmp_path, capsys):
    # python -m semlab.cli and the semlab script leave through one function,
    # entry(); each exit code comes with its whole output
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r'^semlab = "semlab\.cli:entry"$',
                     pyproject.read_text(encoding="utf-8"), re.M)
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cert = tmp_path / "c5.json"
    for want, argv in (
            (0, ["--gen", "cycle", "5", "--threads", "1", "--cert-out", str(cert)]),
            (1, ["--gen", "two-cycle", "3", "4"]),
            (2, ["--gen", "two-cycle", "3", "13", "--threads", "1",
                 "--no-obstructions", "--budget", "7"]),
            (3, ["--gen", "cycle", "2"])):
        argv = ["solve", *argv, "--json"]
        proc = subprocess.run([sys.executable, "-m", "semlab.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == want, proc.stderr
        if want == 0:
            check = subprocess.run(
                [sys.executable, "-m", "semlab.cli", "check", "--gen", "cycle",
                 "5", "--cert", str(cert)],
                env=env, capture_output=True, text=True, timeout=120)
            assert (check.returncode, check.stdout) == (
                0, "certificate valid: valence 14\n")
        code, out, err = run(capsys, *argv)
        assert code == want
        if want == 3:
            assert (proc.stdout, proc.stderr) == ("", err)
        else:
            assert _masked(proc.stdout) == _masked(out)


def test_pooled_run_exits_through_the_freeze(capsys):
    # a threshold of 0 starts a pool of two workers at the first node; the
    # run still exits 0 with the in-process answer, once entry() has frozen
    # the heap, and leaves no process in its process group
    argv = ["solve", "--gen", "two-cycle", "3", "9", "--threads", "2", "--json"]
    code = ("import atexit, gc, runpy, sys\n"
            "import semlab.solver\n"
            "semlab.solver._INLINE_NODES = 0\n"
            "atexit.register(lambda: print('multiprocessing' in sys.modules,"
            " gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "runpy.run_module('semlab.cli', run_name='__main__', alter_sys=True)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (0, "True True\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    got, out, _ = run(capsys, *argv)
    assert got == 0 and _masked(stdout) == _masked(out)


def test_graph_inputs(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--g6", "Bw", "--threads", "1")
    assert code == 0 and "order 3" in out

    path = tmp_path / "g.el"
    path.write_text(serialize_graph(make_cycle(5), "edge-list"))
    code, out, _ = run(capsys, "solve", str(path), "--threads", "1")
    assert code == 0

    g6path = tmp_path / "g.g6"
    g6path.write_text(serialize_graph(make_cycle(5), "graph6") + "\n")
    code, out, _ = run(capsys, "solve", str(g6path), "--threads", "1")
    assert code == 0  # sniffed as graph6

    # the format is sniffed from the first line that is not a comment
    g6path.write_text(">>graph6<<" + serialize_graph(make_cycle(5), "graph6"))
    code, out, _ = run(capsys, "solve", str(g6path), "--threads", "1")
    assert code == 0 and "order 5, size 5" in out
    path.write_text("# a triangle\n  # indented comment\n\n"
                    + serialize_graph(make_cycle(3), "edge-list"))
    code, out, _ = run(capsys, "solve", str(path), "--threads", "1")
    assert code == 0 and "order 3, size 3" in out
    # an edge where the order should be is a malformed edge list
    path.write_text("5 6\n0 1\n")
    code, out, err = run(capsys, "solve", str(path), "--threads", "1")
    assert (code, out) == (3, "") and err.startswith("error: ")
    assert "expected vertex count" in err
    # graph6 starts at '>' or above: a signed order is an edge list
    path.write_text("+3\n0 1\n")
    code, out, _ = run(capsys, "solve", str(path), "--threads", "1")
    assert code == 0 and "order 3, size 1" in out
    # graph6 text takes comments and blank lines too, and holds one graph
    g6path.write_text("# a triangle\nBw\n\n")
    code, out, _ = run(capsys, "interval", str(g6path))
    assert code == 0 and out.startswith("interval: [9, 9]")
    g6path.write_text("Bw\nBw\n")
    code, out, err = run(capsys, "interval", str(g6path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "more than one graph" in err

    code, _, err = run(capsys, "solve")
    assert code == 3 and "no graph" in err

    code, _, err = run(capsys, "solve", "--gen", "cycle", "2")
    assert code == 3

    code, _, err = run(capsys, "solve", "--gen", "dodecahedron", "1")
    assert code == 3

    code, _, err = run(capsys, "solve", str(tmp_path / "missing.g6"))
    assert code == 3


# every command's options and every search setting. A setting added or
# removed must change this table, so that it shows up in review
OPTIONS = {
    "check": ["path", "--gen", "--attach", "--g6", "--cert"],
    "solve": ["path", "--gen", "--attach", "--g6", "--no-obstructions",
              "--budget", "--threads", "--json", "--cert-out"],
    "interval": ["path", "--gen", "--attach", "--g6", "--json"],
    "valences": ["path", "--gen", "--attach", "--g6", "--budget", "--threads",
                 "--json"],
    "perfect": ["path", "--gen", "--attach", "--g6", "--budget", "--threads",
                "--json"],
    "sweep": ["family", "--m", "--n", "--k", "--order", "--budget",
              "--threads", "--max-order", "--timing", "--output"],
    "render": ["path", "--gen", "--attach", "--g6", "--cert", "--output"],
}


def test_option_inventory():
    parser = cli_mod.build_parser()
    (subs,) = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    found = {name: [a.option_strings[-1] if a.option_strings else a.dest
                    for a in sub._actions if a.dest != "help"]
             for name, sub in subs.choices.items()}
    assert found == OPTIONS
    assert list(solver_mod.SearchConfig.__slots__) == [
        "use_obstructions", "budget", "threads"]
    # nor does any setting come from the environment
    for module in Path(cli_mod.__file__).parent.glob("*.py"):
        text = module.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, module.name


def test_one_reader_and_one_writer():
    # cli.py opens files in _read and _write alone, so that every file read
    # and written takes one rule for what it cannot decode or write
    text = Path(cli_mod.__file__).read_text(encoding="utf-8")
    chunks = text.split("\ndef ")
    openers = [chunk.partition("(")[0] for chunk in chunks
               if re.search(r"(?<![\w.])open\(", chunk)]
    assert openers == ["_read", "_write"]


def test_gen_cactus(capsys):
    code, out, _ = run(capsys, "solve", "--gen", "cactus", "3", "3", "3",
                       "--threads", "1", "--no-obstructions")
    assert "order 7" in out
    code, out, _ = run(capsys, "solve", "--gen", "cactus", "3", "3", "3",
                       "--attach", "0:0", "0:0", "--threads", "1")
    assert "degree sequence (6, 2," in out
    code, _, err = run(capsys, "solve", "--gen", "cactus", "3", "3",
                       "--attach", "zero:1")
    assert code == 3


def test_attach_needs_gen_cactus(capsys):
    for args in (("solve", "--gen", "cycle", "5", "--attach", "0:0"),
                 ("interval", "--gen", "two-cycle", "3", "5", "--attach", "0:9"),
                 ("solve", "--g6", "Bw", "--attach")):
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, ""), args
        assert "--attach applies only to --gen cactus" in err


def test_interval_valences_perfect(capsys):
    code, out, _ = run(capsys, "interval", "--gen", "two-cycle", "3", "5")
    assert code == 0 and "[19, 20]" in out

    code, out, _ = run(capsys, "interval", "--gen", "cycle", "4")
    assert code == 0 and "empty" in out

    code, out, _ = run(capsys, "valences", "--gen", "two-cycle", "3", "5",
                       "--threads", "1")
    assert code == 0 and "{19, 20}" in out

    code, out, _ = run(capsys, "perfect", "--gen", "cycle", "3", "--threads", "1")
    assert code == 0 and "perfect" in out

    code, out, _ = run(capsys, "perfect", "--gen", "cycle", "4", "--threads", "1")
    assert code == 0 and "vacuous-not-sem" in out

    code, out, _ = run(capsys, "interval", "--gen", "cycle", "4", "--json")
    data = json.loads(out)
    assert data["interval"] == [] and data["min"] == "23/2"


def test_valences_budget_exit_codes(capsys):
    # sem_set on C(4,8) fills its interval [29, 30] at node 26,555: one
    # node short of it the set is partial (exit 2), at it complete (exit 0)
    for budget, code, values in (("26554", 2, []), ("26555", 0, [29, 30])):
        got, out, _ = run(capsys, "valences", "--gen", "two-cycle", "4", "8",
                          "--budget", budget, "--threads", "2", "--json")
        assert got == code
        assert json.loads(out) == {"valence_set": values,
                                   "complete": code == 0}


def test_interval_edgeless(tmp_path, capsys):
    path = tmp_path / "edgeless.txt"
    path.write_text("2\n")
    for cmd in ("interval", "valences", "perfect"):
        code, out, _ = run(capsys, cmd, str(path))
        assert code == 0 and "trivially super edge-magic" in out
        # the keys of a graph with edges, each undefined
        _, edged, _ = run(capsys, cmd, "--gen", "cycle", "5", "--json")
        code, out, _ = run(capsys, cmd, str(path), "--json")
        assert code == 0
        assert json.loads(out) == dict.fromkeys(json.loads(edged))


def test_sweep_grid(capsys):
    code, out, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "3..5",
                       "--n", "3..5", "--threads", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,params,order,size,obstruction,status")
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert len(rows) == 9
    for m in range(3, 6):
        for n in range(3, 6):
            row = rows[f"m={m};n={n}"]
            if (m + n) % 2 == 1:
                assert row[4] == "DEGSEQ_4_2_EVEN_ORDER"
                assert row[5] == "NOT_SEM_OBSTRUCTION"
    assert rows["m=3;n=3"][4] == "EVEN_DEG_Q_MOD4"
    assert rows["m=3;n=5"][5] == "SEM" and rows["m=3;n=5"][8] == "19|20"


def test_sweep_deterministic_across_runs_and_threads(capsys):
    outputs = []
    for threads in ("1", "2", "1"):
        code, out, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "3..5",
                           "--n", "3..5", "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_takes_sigma_from_a_filling_witness(capsys, monkeypatch):
    # each SEM row of the grid has the interval [19, 20], one dual pair,
    # which its witness's valence and that one's dual fill: no sem_set runs
    calls = []

    def counting_sem_set(g, *args):
        calls.append(g)
        return solver_mod.sem_set(g, *args)

    monkeypatch.setattr(cli_mod, "sem_set", counting_sem_set)
    code, out, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "3..5",
                       "--n", "3..5", "--threads", "1")
    assert code == 0 and not calls
    rows = {line.split(",")[1]: line.split(",") for line in out.splitlines()[1:]}
    assert [rows[f"m={m};n={n}"][8] for m, n in ((3, 5), (4, 4), (5, 3))] == [
        "19|20"] * 3
    # the star K(1,3) is no sweep row: its interval [10, 12] is wider than
    # a dual pair, which a sweep takes for its valence set only on a check
    # that survives python -O
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    monkeypatch.setattr(cli_mod, "_sweep_graphs", lambda args: [("star", star)])
    code, out, err = run(capsys, "sweep", "two-cycle-grid", "--threads", "1")
    assert (code, out) == (4, "") and not calls
    assert err.startswith("error: internal: AssertionError: ")


def test_sweep_degseq_family(capsys):
    # a degseq graph name holds commas, so its params cell is quoted
    code, out, _ = run(capsys, "sweep", "degseq-4-2", "--order", "6..8",
                       "--threads", "1")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert len(rows) == 1 + 2 + 3  # orders 6, 7, 8
    assert all(len(row) == len(header) for row in rows)
    params = [row[1] for row in rows]
    assert "order=8;graph=C(3,3)+C3" in params
    assert "order=7;graph=C(4,4)" in params


def test_sweep_three_cycle_series(capsys):
    code, out, _ = run(capsys, "sweep", "three-cycle-series", "--k", "3..3",
                       "--threads", "2")
    assert code == 0
    line = out.strip().splitlines()[1]
    assert line.startswith("three-cycle-series,k=3,11,12,")
    assert line.split(",")[5:9] == ["SEM", "29", "30", "29|30"]

    code, _, err = run(capsys, "sweep", "three-cycle-series", "--k", "5..5")
    assert code == 3 and "max-order" in err
    # k = 1 would make C(3,1): the graph builder rejects it
    code, _, err = run(capsys, "sweep", "three-cycle-series", "--k", "1..1")
    assert code == 3 and "cycle lengths must be >= 3" in err


def test_sweep_rejects_k_below_2_by_name(capsys):
    # k = 0 would make C(3,-3), and the graph builder would name (3, -3)
    # rather than k; no row is searched
    code, out, err = run(capsys, "sweep", "three-cycle-series", "--k", "0..1",
                         "--threads", "1")
    assert (code, out) == (3, "")
    assert "three-cycle-series needs k >= 2: k=0 makes C(3,-3)" in err


def test_sweep_rejects_an_empty_range(capsys):
    # 5..3 holds no value: not a header alone and exit 0
    for argv in (["two-cycle-grid", "--m", "5..3"],
                 ["two-cycle-grid", "--n", "4..3"],
                 ["degseq-4-2", "--order", "9..6"],
                 ["three-cycle-series", "--k", "4..3"]):
        code, out, err = run(capsys, "sweep", *argv, "--threads", "1")
        assert (code, out) == (3, ""), argv
        assert "empty range" in err, argv


def test_sweep_budget_unknown_rows(capsys):
    code, out, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "4..4",
                       "--n", "4..4", "--threads", "1", "--budget", "3")
    assert code == 0
    line = out.strip().splitlines()[1]
    assert "UNKNOWN_BUDGET_EXCEEDED" in line and line.endswith(",3")
    assert ",skipped," in line


def test_sweep_timing_column(capsys):
    code, out, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "3..3",
                       "--n", "3..3", "--threads", "1", "--timing")
    assert code == 0
    assert out.splitlines()[0].endswith(",millis")


def test_sweep_output_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "two-cycle-grid", "--m", "3..3",
                     "--n", "3..4", "--threads", "1", "--output", str(path))
    assert code == 0
    assert path.read_text().count("\n") == 3


def test_sweep_unwritable_output_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "search_sem", _no_search)
    path = tmp_path / "missing" / "sweep.csv"
    code, out, err = run(capsys, "sweep", "two-cycle-grid", "--m", "3..3",
                         "--n", "3..4", "--threads", "1",
                         "--output", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_sweep_checks_every_row_before_searching(capsys, monkeypatch):
    # C(3,15) and the k=5 row exceed --max-order 16; the rows before them
    # (k=4 is an order-15 search) are not searched first
    monkeypatch.setattr(cli_mod, "search_sem", _no_search)
    for argv in (["two-cycle-grid", "--m", "3..3", "--n", "3..20"],
                 ["three-cycle-series", "--k", "3..5"]):
        code, out, err = run(capsys, "sweep", *argv, "--threads", "1")
        assert (code, out) == (3, ""), argv
        assert "max-order" in err, argv


def test_sweep_refuses_a_row_before_building_it(capsys, monkeypatch):
    # a row's order follows from its parameters: degseq-4-2 at order 50
    # would build 89,134 graphs and k = 300,000 a graph on 1.2 M vertices
    # before the cap refused them
    def no_build(*args):
        raise AssertionError("a row over --max-order was built")

    monkeypatch.setattr(cli_mod, "degseq_4_2_realizations", no_build)
    monkeypatch.setattr(cli_mod, "make_two_cycle", no_build)
    for argv in (["degseq-4-2", "--order", "17..17"],
                 ["three-cycle-series", "--k", "300000..300000"],
                 ["two-cycle-grid", "--m", "3..3", "--n", "15..15"]):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (3, ""), argv
        assert "max-order" in err, argv


def test_render_plain(capsys):
    code, out, _ = run(capsys, "render", "--gen", "cycle", "3")
    assert code == 0
    assert out.count("--") == 3
    assert 'label="v0"' in out and out.strip().endswith("}")


def test_render_with_certificate(tmp_path, capsys):
    cert = tmp_path / "c3.json"
    run(capsys, "solve", "--gen", "cycle", "3", "--threads", "1",
        "--cert-out", str(cert))
    code, out, _ = run(capsys, "render", "--gen", "cycle", "3",
                       "--cert", str(cert))
    assert code == 0
    assert 'label="valence 9"' in out
    for lab in (4, 5, 6):
        assert f'[label="{lab}"]' in out


def test_render_mismatched_certificate(tmp_path, capsys):
    cert = tmp_path / "c3.json"
    run(capsys, "solve", "--gen", "cycle", "3", "--threads", "1",
        "--cert-out", str(cert))
    code, _, err = run(capsys, "render", "--gen", "cycle", "4",
                       "--cert", str(cert))
    assert code == 1 and "INVALID" in err


def test_render_unwritable_output_exits_3(tmp_path, capsys):
    code, out, err = run(capsys, "render", "--gen", "cycle", "3",
                         "--output", str(tmp_path))  # a directory
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
