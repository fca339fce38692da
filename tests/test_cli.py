import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dehn
from conftest import (FIG8, HOPF_LINK, NON_ASCII_TREFOILS, NON_PLANAR, PADDED_TREFOILS,
                      TAILLESS_EDGES, TREFOIL, UNKNOT_KINK, alexander_matrix_delta,
                      built_or_refused, pd_components, pd_crossings, replaced, selectable,
                      torus_pd, unit_free)
from dehn.algebra import poly_add
from dehn.cli import _worker_count, main
from dehn.dehngraph import GroupRingTerm, build_d1, build_d2, build_dehn_graph, export_dot
from dehn.diagram import PDCode, build_diagram, parse_pd, wirtinger
from dehn.errors import PDSyntaxError
from dehn.oracle import fox_alexander
from dehn.pipeline import run_pipeline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_trefoil_json(capsys):
    code, out, err = run_cli(capsys, "compute", "--pd", TREFOIL)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["crossings"] == 3
    assert data["torsion"]["normalized"]["display"] == "(t^2-t+1)/(t-1)"
    assert data["torsion"]["normalized"]["num"] == ["1", "-1", "1"]
    assert data["defect"]["representative"]["num"] == ["0", "0", "-2", "1"]
    assert all(data["checks"].values())


def test_compute_text_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "--pd", TREFOIL, "--format", "text")
    assert code == 0
    assert "torsion" in out and "(t^2-t+1)/(t-1)" in out


def test_compute_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "compute", "--pd", FIG8)
    _, out2, _ = run_cli(capsys, "compute", "--pd", FIG8)
    assert out1 == out2


def test_compute_file_input_with_comments(tmp_path, capsys):
    f = tmp_path / "knots.txt"
    f.write_text(f"# corpus\n{TREFOIL}\n\n{UNKNOT_KINK}\n")
    code, out, _ = run_cli(capsys, "compute", "--file", str(f))
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 2
    assert data[0]["crossings"] == 3 and data[1]["crossings"] == 1


def test_file_input_with_a_byte_order_mark(tmp_path, capsys):
    # A UTF-8 byte order mark, as some editors save it, is not part of the
    # first line, whether that line is a knot or a comment.
    for text in (f"{TREFOIL}\n{FIG8}\n", f"# corpus\n{TREFOIL}\n{FIG8}\n"):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run_cli(capsys, "compute", "--file", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, "compute", "--file", str(marked)) == expected


BATCH_CASES = [("compute", "json"), ("compute", "text"), ("graph", "dot"),
               ("graph", "json"), ("check", "json"), ("check", "text"),
               ("oracle", "json"), ("oracle", "text")]


@pytest.mark.parametrize("command, fmt", BATCH_CASES, ids=[f"{c}-{f}" for c, f in BATCH_CASES])
def test_batch_matches_single_knots(tmp_path, capsys, command, fmt):
    # A --file batch prints the same under --parallel 2 as under --parallel 1,
    # and its items are the knots' --pd outputs, in input order.
    knots = (TREFOIL, UNKNOT_KINK, FIG8)
    f = tmp_path / "knots.txt"
    f.write_text("".join(f"{k}\n" for k in knots))
    argv = (command, "--format", fmt)
    singles = [run_cli(capsys, *argv, "--pd", k) for k in knots]
    assert all(code == 0 and out and err == "" for code, out, err in singles)
    batch = run_cli(capsys, *argv, "--file", str(f), "--parallel", "1")
    assert batch[0] == 0 and batch[2] == ""
    assert run_cli(capsys, *argv, "--file", str(f), "--parallel", "2") == batch
    if fmt == "json":
        assert json.loads(batch[1]) == [json.loads(out) for _, out, _ in singles]
    else:
        assert batch[1] == "".join(out for _, out, _ in singles)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    assert run_cli(capsys, "oracle", "--pd", TREFOIL)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "check", "--pd", TREFOIL)[0] == 0
    assert built == []


def test_graph_dot_matches_library(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pd", TREFOIL)
    assert code == 0
    d = build_diagram(parse_pd(TREFOIL))
    expected = export_dot(build_dehn_graph(d, build_d1(d), build_d2(d)))
    assert out == expected


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pd", TREFOIL, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 17


def test_check_command(capsys):
    code, out, _ = run_cli(capsys, "check", "--pd", TREFOIL)
    assert code == 0
    assert out.startswith("PASS")


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--pd", UNKNOT_KINK, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["checks"]["seed_independence"] is True


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--pd", FIG8)
    assert code == 0
    data = json.loads(out)
    assert data["alexander"] == ["1", "-3", "1"]


def test_a_failing_check_exits_1(capsys, monkeypatch):
    import dehn.pipeline
    monkeypatch.setattr(dehn.pipeline, "milnor_check", lambda *args: False)
    code, out, _ = run_cli(capsys, "compute", "--pd", TREFOIL)
    assert code == 1 and json.loads(out)["checks"]["milnor"] is False
    code, out, _ = run_cli(capsys, "check", "--pd", TREFOIL)
    assert code == 1 and out.startswith("FAIL ") and out.endswith("  failing: milnor\n")


@pytest.mark.parametrize("field", ["delta", "numer", "sign"])
def test_a_disagreeing_seed_fails_check(capsys, monkeypatch, field):
    # Every other coordinate's propagator comes back with delta doubled,
    # which doubles its torsion; or its trace numerator comes back moved by
    # t * delta_s, which moves its defect by t, not an integer; or its delta
    # comes back negated, which moves its torsion by the unit -1: the same
    # class up to units, but not the same fraction, which every coordinate
    # gives. The reported propagator and its invariants are built by the
    # pipeline first and left alone. Only seed_independence fails, on 3_1
    # and on T(2,9).
    import dehn.invariants
    build, traces = dehn.invariants.propagator_at, dehn.invariants._traces
    factor = {"delta": 2, "sign": -1}.get(field)

    def scaled(cx, s):
        g = build(cx, s)
        wrong = tuple(factor * c for c in g.delta)
        return g if s == cx.base_coordinate else replaced(g, delta=wrong)

    def moved(g):
        num, cx = traces(g), g.complex
        return lambda s: (num(s) if s == cx.base_coordinate
                          else poly_add(num(s), build(cx, s).delta, shift=1))

    if field == "numer":
        monkeypatch.setattr(dehn.invariants, "_traces", moved)
    else:
        monkeypatch.setattr(dehn.invariants, "propagator_at", scaled)
    for text in (TREFOIL, torus_pd(9)):
        code, out, _ = run_cli(capsys, "check", "--pd", text, "--format", "json")
        checks = json.loads(out)["checks"]
        assert code == 1 and checks.pop("seed_independence") is False, text
        assert all(checks.values()), text


def test_check_compares_every_selectable_coordinate(capsys, monkeypatch):
    # On T(2,15) all 16 coordinates have d1[s] != 0, and the reported
    # propagator selects coordinate 0. Only coordinate 15's trace numerator
    # moves, by t * delta_15, which moves its defect by t, the last one a
    # check reaches: a check that compared a sample of the coordinates could
    # pass, and one that compares every coordinate with d1[s] != 0 fails
    # seed_independence alone.
    import dehn.invariants
    traces, text = dehn.invariants._traces, torus_pd(15)
    cx = run_pipeline(text).propagator.complex
    assert selectable(cx) == list(range(16)) and cx.base_coordinate == 0

    def moved(g):
        num = traces(g)
        delta = dehn.invariants.propagator_at(g.complex, 15).delta
        return lambda s: poly_add(num(s), delta, shift=1) if s == 15 else num(s)

    monkeypatch.setattr(dehn.invariants, "_traces", moved)
    code, out, _ = run_cli(capsys, "check", "--pd", text, "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 1 and checks.pop("seed_independence") is False
    assert all(checks.values())


def test_check_forms_the_trace_sums_once_per_comparison(capsys, monkeypatch):
    # T, the sum of the trace that does not depend on the coordinate, is
    # formed once per check knot: for the reported defect, and read again,
    # not formed again, by the comparison of all 15 other coordinates of
    # T(2,15). Each formation packs w_ij = t d2'[i][j] once for every entry
    # of d2 with a t-power term, so the packs count the formations; u, the
    # other sum, reads those packed weights.
    import dehn.invariants
    cx = run_pipeline(torus_pd(15)).propagator.complex
    weights = sum(len(e) > 1 for col in cx.d2_cols for _, e in col)
    pack, packed = dehn.invariants._pack, []
    monkeypatch.setattr(dehn.invariants, "_pack",
                        lambda p, width: packed.append(width) or pack(p, width))
    code, out, _ = run_cli(capsys, "check", "--pd", torus_pd(15))
    assert code == 0 and out.startswith("PASS")
    assert weights and len(packed) == weights


@pytest.mark.parametrize("edit", ["sign", "word"])
def test_a_corrupted_corner_label_fails_check(capsys, monkeypatch, edit):
    # One corner label of the reported run, its sign flipped or its word
    # lengthened by the crossing's over arc, no longer cancels at its
    # crossing: the labels no longer sum to zero there, and check fails
    # corner_label_sums alone. Nothing else check reads comes from them.
    import dehn.cli
    run_at = dehn.cli.run_pipeline

    def corrupted(*args):
        run = run_at(*args)
        first, *rest = run.graph.d1
        label = first[0]
        label = (GroupRingTerm(-label.sign, label.word) if edit == "sign" else
                 GroupRingTerm(label.sign, label.word + ((0, 1),)))
        return replaced(run, graph=replaced(run.graph, d1=((label, *first[1:]), *rest)))

    monkeypatch.setattr(dehn.cli, "run_pipeline", corrupted)
    for text in (TREFOIL, torus_pd(9)):
        code, out, _ = run_cli(capsys, "check", "--pd", text, "--format", "json")
        checks = json.loads(out)["checks"]
        assert code == 1 and checks.pop("corner_label_sums") is False, text
        assert all(checks.values()), text


# -- error handling --------------------------------------------------------------


@pytest.mark.parametrize("command", ["compute", "graph", "check", "oracle"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_a_batch_error_names_its_line(tmp_path, capsys, command, parallel):
    # A DehnError raised for a --file knot keeps its type, exit code and
    # message, prefixed with the knot's physical line, comments and blank
    # lines counted; stdout stays empty and stderr holds one JSON line.
    _, _, single = run_cli(capsys, command, "--pd", "X(1,2")
    want = json.loads(single)["error"]
    assert want["message"] == "malformed PD X-form syntax"  # --pd names no line
    for text, line in ((f"{TREFOIL}\nX(1,2\n{FIG8}\n", 2),
                       (f"# corpus\n\n{TREFOIL}\nX(1,2\n", 4)):
        f = tmp_path / "knots.txt"
        f.write_text(text)
        code, out, err = run_cli(capsys, command, "--file", str(f), "--parallel", parallel)
        assert code == want["exit_code"] == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == dict(want, message=f"line {line}: {want['message']}")


def refused(capsys, command, text, code):
    """The error a subcommand writes for the PD code `text`, after checking
    how it is written: exit `code`, nothing on stdout, and one JSON line on
    stderr, never a traceback, that carries the same exit code."""
    got, out, err = run_cli(capsys, command, "--pd", text)
    assert (got, out) == (code, ""), command
    assert len(err.splitlines()) == 1 and "Traceback" not in err, command
    error = json.loads(err)["error"]
    assert error["exit_code"] == code, command
    return error


def test_parse_error_exit_code(capsys):
    for text in ("[[1,4,2", "X(1,2", *NON_ASCII_TREFOILS, *PADDED_TREFOILS):
        for command in ("compute", "graph", "check", "oracle"):
            assert refused(capsys, command, text, 2)["type"] == "PDSyntaxError"


@pytest.mark.parametrize("text,message", [
    pytest.param("\u3000[[1,4,2,5],[3,6,4,1],[5,2,6,3]]",
                 "PD text starts with U+3000, outside the ASCII grammar", id="bracket-U+3000"),
    pytest.param("\u00a0X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\u00a0",
                 "PD text starts with U+00A0, outside the ASCII grammar", id="X-form-U+00A0"),
])
def test_a_padded_text_is_refused_by_its_first_character(capsys, text, message):
    # The first character picks the form, so a text that starts with a
    # non-ASCII space is refused by naming that character: a bracket form
    # is not reported as a malformed X form.
    for command in ("compute", "graph", "check", "oracle"):
        assert refused(capsys, command, text, 2) == {
            "type": "PDSyntaxError", "message": message, "exit_code": 2}, command


@pytest.mark.parametrize("command", ["compute", "graph", "check", "oracle"])
def test_a_file_line_padded_with_a_non_ascii_space_is_refused(tmp_path, capsys, command):
    # A --file line is stripped of ASCII whitespace only, so a knot padded
    # with U+00A0 is refused, and a line holding only U+3000 is a knot line
    # that fails, not a blank line that is skipped.
    for text, line in ((f"{TREFOIL}\n\u00a0{TREFOIL}\u00a0\n", 2),
                       (f"# knots\n{TREFOIL}\n\n\u3000\n{TREFOIL}\n", 4)):
        f = tmp_path / "knots.txt"
        f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--file", str(f))
        assert (code, out) == (2, "") and len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "PDSyntaxError"
        assert error["message"].startswith(f"line {line}: ")


def test_multi_component_exit_code(capsys):
    for command in ("compute", "graph", "check", "oracle"):
        assert refused(capsys, command, HOPF_LINK, 2)["type"] == "MultiComponentError"


def test_non_planar_exit_code(capsys):
    for command in ("compute", "graph", "check", "oracle"):
        assert refused(capsys, command, NON_PLANAR, 3)["type"] == "NotPlanarError"


@pytest.mark.parametrize("command", ["compute", "graph", "check", "oracle"])
@pytest.mark.parametrize("text", TAILLESS_EDGES, ids=("tailless-1", "tailless-2"))
def test_edge_entered_at_two_crossings_exit_code(capsys, command, text):
    # Every subcommand refuses the code as a link: no traceback from the
    # region labelling, and no Alexander polynomial from the oracle.
    assert refused(capsys, command, text, 2)["type"] == "MultiComponentError"


def test_bad_outer_region_exit_code(capsys):
    code, out, err = run_cli(capsys, "compute", "--pd", TREFOIL,
                             "--outer-region", "42")
    assert code == 6 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_oracle_bad_outer_region_exit_code(capsys):
    code, out, err = run_cli(capsys, "oracle", "--pd", TREFOIL, "--outer-region", "99")
    assert code == 6 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_region_label_inconsistency_exit_code(capsys, monkeypatch):
    import dehn.pipeline
    violation = {"edge": 1, "arc": "x1", "left_region": 0, "right_region": 1}
    monkeypatch.setattr(dehn.pipeline, "check_d2", lambda *args: [violation])
    code, out, err = run_cli(capsys, "compute", "--pd", TREFOIL)
    assert code == 7 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "RegionLabelError" and error["exit_code"] == 7


def test_missing_input_exit_code(capsys):
    code, out, err = run_cli(capsys, "compute")
    assert code == 6 and out == ""


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("command", ["compute", "graph", "check", "oracle"])
def test_an_unwritable_stdout_is_a_config_error(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    error = refused(capsys, command, TREFOIL, 6)
    assert (error["type"], error["message"]) == (
        "ConfigError", "cannot write output: [Errno 28] No space left on device")


def test_a_closed_pipe_is_a_config_error():
    # The reader closes the pipe before dehn writes: one JSON line on
    # stderr, and no traceback, not even from the flush at exit.
    with subprocess.Popen([sys.executable, "-m", "dehn.cli", "oracle", "--pd", TREFOIL],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 6 and len(err.splitlines()) == 1, err
    assert json.loads(err)["error"]["message"].startswith("cannot write output: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dehn.cli", "oracle", "--pd", TREFOIL],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alexander"] == ["1", "-1", "1"]


def test_import_loads_only_the_standard_library():
    # The package has no runtime dependency beyond the standard library.
    # `__mp_main__` is the name multiprocessing gives the main script.
    script = ("import sys; before = set(sys.modules); import dehn, dehn.cli; "
              "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] "
              "not in sys.stdlib_module_names | {'dehn', '__mp_main__'}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_dataclasses_inspect_or_process_pool():
    # Start-up cost of every fresh process: the value classes use no
    # `dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`), and
    # the process pool, with multiprocessing, is imported only under --parallel.
    src = str(Path(dehn.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
              "import dehn, dehn.cli; new = set(sys.modules) - before; "
              "print(sorted(new & {'dataclasses', 'inspect', 'concurrent.futures'}))")
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_boolean_label_is_a_syntax_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--pd", "[[true,2,2,1]]")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "PDSyntaxError"


_HUGE_LABEL = "1" * 4301  # one digit past CPython's default int-string limit


@pytest.mark.parametrize(
    "text", ["[" * 1000, f"[[{_HUGE_LABEL},1,2,3]]", f"X({_HUGE_LABEL},1,2,3)"],
    ids=["deep-nesting", "huge-bracket-label", "huge-x-form-label"])
@pytest.mark.parametrize("command", ["compute", "graph", "check", "oracle"])
def test_deep_nesting_and_huge_labels_are_pd_errors(capsys, command, text):
    # Nesting past the recursion limit of json.loads, and a label with more
    # digits than int() converts, are syntax errors: exit 2, one JSON line
    # on stderr, no traceback. On an interpreter whose int() has no such
    # limit (before 3.10.7) the huge label parses, and the label check
    # refuses it. The message is the program's own: it names the label's
    # digit count and the limit, not the interpreter's advice on raising it.
    error = refused(capsys, command, text, 2)
    limited = hasattr(sys, "get_int_max_str_digits")
    want = "PDSyntaxError" if text.startswith("[[[") or limited else "PDLabelError"
    assert error["type"] == want
    assert "set_int_max_str_digits" not in error["message"]
    if limited and _HUGE_LABEL in text:
        assert error["message"] == (f"PD label of {len(_HUGE_LABEL)} digits exceeds "
                                    f"the limit of {sys.get_int_max_str_digits()} digits")


def test_missing_file_is_a_config_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--file", str(tmp_path / "missing.txt"))
    assert code == 6 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_parallel_below_one_is_a_config_error(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "compute", "--pd", TREFOIL, "--parallel", value)
        assert code == 6 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"] == f"--parallel must be at least 1, got {value}"


USAGE_ERRORS = {
    "parallel-not-int": ("compute", "--pd", TREFOIL, "--parallel", "abc"),
    "seeds-not-int": ("check", "--pd", TREFOIL, "--seeds", "many"),
    "seeds-removed": ("check", "--pd", TREFOIL, "--seeds", "3"),
    "pivot-seed-removed": ("compute", "--pd", TREFOIL, "--pivot-seed", "1"),
    "outer-region-not-int": ("oracle", "--pd", TREFOIL, "--outer-region", "outer"),
    "unknown-flag": ("graph", "--pd", TREFOIL, "--bogus"),
    "unknown-format": ("graph", "--pd", TREFOIL, "--format", "text"),
    "missing-subcommand": (),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_a_config_error(capsys, argv):
    # argparse alone would print usage text and exit 2, the code of a bad PD.
    code, out, err = run_cli(capsys, *argv)
    assert code == 6 and out == "" and len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError" and error["exit_code"] == 6


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help")], ids=["dehn", "check"])
def test_help_is_plain_text(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: dehn")


def test_worker_count_is_capped_by_tasks_and_cpus():
    assert _worker_count(64, 3, 16) == 3
    assert _worker_count(64, 100, 2) == 2
    assert _worker_count(2, 100, 16) == 2
    assert _worker_count(8, 100, None) == 1
    assert _worker_count(1, 100, 16) == 1


def test_workers_are_capped_by_the_cpus_the_process_may_use(tmp_path, capsys, monkeypatch):
    # A process bound to one CPU of a larger host runs its batch in one
    # process, whatever --parallel asks for.
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    f = tmp_path / "knots.txt"
    f.write_text(f"{TREFOIL}\n{FIG8}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle", "--file", str(f), "--parallel", "8")
    assert (code, err) == (0, "") and len(json.loads(out)) == 2


# -- the CLI on arbitrary label-valid codes -----------------------------------


@st.composite
def label_valid_pd(draw):
    """PD text of k <= 5 crossings whose under-strands chain: crossing i is
    (a_i, b_i, a_i + 1, d_i), labels mod 2k, with the b's and d's the labels
    left over so that each of 1..2k appears exactly twice. Most such codes
    are not knots; all of them pass the label-count check."""
    k = draw(st.integers(1, 5))
    m = 2 * k
    unders = draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
    counts = Counter(unders) + Counter(a % m + 1 for a in unders)
    assume(max(counts.values()) <= 2)
    rest = draw(st.permutations([e for e in range(1, m + 1) for _ in range(2 - counts[e])]))
    return json.dumps([[a, rest[2 * i], a % m + 1, rest[2 * i + 1]]
                       for i, a in enumerate(unders)], separators=(",", ":"))


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(label_valid_pd())
@example(TAILLESS_EDGES[0])
@example(TAILLESS_EDGES[1])
def test_cli_on_label_valid_codes(text):
    # Every code is a knot (exit 0, every check true), a rejected input
    # (exit 2) or a non-planar one (exit 3), and the four subcommands agree
    # on which; a failure is one JSON line on stderr, never a traceback. A
    # code the front end accepts draws one component, and its Delta is that
    # of Alexander's crossing-region matrix, up to units.
    codes = set()
    for command in ("compute", "graph", "check", "oracle"):
        code, out, err = _quiet_main(command, "--pd", text)
        assert code in (0, 2, 3), (command, code, err)
        codes.add(code)
        if code == 0:
            assert out and err == ""
            if command == "compute":
                assert all(json.loads(out)["checks"].values())
        else:
            assert out == "" and len(err.splitlines()) == 1
            assert json.loads(err)["error"]["exit_code"] == code
    assert len(codes) == 1, (text, codes)
    assert_a_knot_if_accepted(text)


# -- the CLI on mutated codes ---------------------------------------------------

_MUTATED = [TREFOIL, FIG8, UNKNOT_KINK, "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
            "PD[X[4,2,5,1], X[8,6,1,5], X[6,3,7,4], X[2,7,3,8]]"]


@st.composite
def mutated_pd(draw):
    """A valid PD text, bracket or X form, after one to four character edits:
    a deletion, a duplication, a swap of two characters, or an insertion of
    a digit, a bracket, `X`, `-` or a newline."""
    text = list(draw(st.sampled_from(_MUTATED)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        if edit == "insert" or i == len(text):
            text.insert(i, draw(st.sampled_from("0123456789[]()X-\n")))
        elif edit == "delete":
            del text[i]
        elif edit == "duplicate":
            text.insert(i, text[i])
        else:
            j = draw(st.integers(0, len(text) - 1))
            text[i], text[j] = text[j], text[i]
    return "".join(text)


def assert_a_knot_if_accepted(text):
    """A text that the front end accepts, `parse_pd` and then
    `build_diagram`, draws one component by conftest's walk of its labels,
    and its Fox Delta is that of Alexander's crossing-region matrix, up to
    units: a link or a misread code is refused, never given a knot's verdict.
    A `PDCode` built from a well-formed text's labels without `parse_pd`
    meets the same refusal in `build_diagram`, or builds an equal diagram."""
    diagram = built_or_refused(lambda: parse_pd(text))
    if isinstance(diagram, tuple) and diagram[0] is PDSyntaxError:
        return
    direct = built_or_refused(lambda: PDCode(tuple(map(tuple, pd_crossings(text)))))
    assert direct == diagram, text
    if isinstance(diagram, tuple):
        return
    assert pd_components(pd_crossings(text)) == 1, text
    delta = fox_alexander(wirtinger(diagram)).coeffs
    assert unit_free(delta) == unit_free(alexander_matrix_delta(text)), text


def obeys_the_contract(command, code, out, err):
    """Check one call's exit code and streams against the error contract and
    return its error, None for a result: every subcommand ends with an exit
    code of the table, and an error writes one JSON line to stderr and
    nothing to stdout. An exception that escaped `main` fails here."""
    assert code in (0, 1, 2, 3, 4, 6, 7), (command, code, err)
    assert "Traceback" not in out + err
    if not err and code in (0, 1):
        assert out, command
        return None
    assert code != 0 and out == "" and len(err.splitlines()) == 1, (command, err)
    error = json.loads(err)["error"]
    assert error["exit_code"] == code
    return error


@settings(max_examples=300, deadline=None)
@given(mutated_pd())
@example(HOPF_LINK)
def test_cli_on_mutated_codes(text):
    for command in ("compute", "graph", "check", "oracle"):
        obeys_the_contract(command, *_quiet_main(command, "--pd", text))
    assert_a_knot_if_accepted(text)


# -- the CLI on mutated batch files ---------------------------------------------

_NON_ASCII_ZEROS = ("\u0660", "\uff10")  # Arabic-Indic and fullwidth digit zero
_SPACES = ("", " ", "\u00a0", "\u3000")
# (crossing, text, separator) of the bracket, X and PD[X[...]] forms.
_FORMS = (("[%s]", "[%s]", ","), ("X(%s)", "%s", " "), ("X[%s]", "PD[%s]", ", "))


@st.composite
def edited_knot(draw):
    """One knot line: a valid knot's crossings after zero to two token
    edits, written in bracket, X or PD[X[...]] form with one separator
    between crossings. An edit drops, duplicates or swaps a crossing, sets a
    label to 0, 2k + 1, 2**64 or a number of 4,301 digits, one past
    CPython's default limit, or writes a label in non-ASCII digits; the
    separator may be a non-ASCII space."""
    crossings = [[str(x) for x in c] for c in json.loads(draw(st.sampled_from(
        (TREFOIL, FIG8, UNKNOT_KINK))))]
    k = len(crossings)
    for _ in range(draw(st.integers(0, 2))):
        if not crossings:
            break
        i = draw(st.integers(0, len(crossings) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "label", "digits")))
        if edit == "drop":
            del crossings[i]
        elif edit == "duplicate":
            crossings.insert(i, list(crossings[i]))
        elif edit == "swap":
            j = draw(st.integers(0, len(crossings) - 1))
            crossings[i], crossings[j] = crossings[j], crossings[i]
        else:
            p = draw(st.integers(0, 3))
            if edit == "label":
                crossings[i][p] = draw(st.sampled_from(
                    ("0", str(2 * k + 1), str(2**64), "9" * 4301)))
            else:
                zero = ord(draw(st.sampled_from(_NON_ASCII_ZEROS)))
                crossings[i][p] = crossings[i][p].translate({48 + d: zero + d for d in range(10)})
    crossing, whole, sep = draw(st.sampled_from(_FORMS))
    sep += draw(st.sampled_from(_SPACES))
    return whole % sep.join(crossing % ",".join(c) for c in crossings)


@st.composite
def batch_file(draw):
    """The lines of a --file batch: one to three edited knots, each after
    zero or more comment and blank lines."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        lines += draw(st.lists(st.sampled_from(("", "# comment", "  ")), max_size=2))
        lines.append(draw(edited_knot()))
    return lines


@pytest.fixture(scope="module")
def batch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("batch") / "knots.txt"


@settings(max_examples=60, deadline=None)
@given(lines=batch_file(), bom=st.booleans(),
       command=st.sampled_from(("compute", "graph", "check", "oracle")))
def test_cli_on_mutated_files(batch_path, lines, bom, command):
    # A batch keeps the error contract of its knots: the first knot that
    # fails alone under --pd fails the batch with the same error, its
    # message prefixed with "line N: ", N its physical line, comments and
    # blank lines counted; with no failing knot the batch's exit code is 1
    # iff some knot's is.
    batch_path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig" if bom else "utf-8")
    got = _quiet_main(command, "--file", str(batch_path))
    error = obeys_the_contract(command, *got)
    knots = [(n, line.strip()) for n, line in enumerate(lines, 1)
             if line.strip() and not line.strip().startswith("#")]
    if not knots:
        assert error["type"] == "ConfigError" and error["message"].startswith("no knots found")
        return
    codes = []
    for n, text in knots:
        assert_a_knot_if_accepted(text)
        alone = _quiet_main(command, "--pd", text)
        first = obeys_the_contract(command, *alone)
        if first is not None:
            assert error == dict(first, message=f"line {n}: {first['message']}"), text
            return
        codes.append(alone[0])
    assert error is None and got[0] == max(codes)
