import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knotlab
from knotlab import cli, diagram, seifert
from knotlab.cli import main
from knotlab.diagram import jones, jones_twist
from knotlab.family import LambdaSpec, lambda_diagram

LEFT_TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == {"command", "input", "result", "paper_check"}
    return code, payload


# ---- jones ----

def test_jones_text(capsys):
    code, out, err = run(capsys, "jones", "--pd", LEFT_TREFOIL)
    assert code == 0
    assert "crossings: 3" in out
    assert "writhe: -3" in out
    assert "jones (t): -t^-4 + t^-3 + t^-1" in out


def test_jones_json(capsys):
    code, payload = run_json(capsys, "jones", "--pd", LEFT_TREFOIL)
    assert code == 0
    assert payload["command"] == "jones"
    assert payload["result"]["jones"] == "-t^-4 + t^-3 + t^-1"
    assert payload["result"]["coefficients"] == {"-4": -1, "-3": 1, "-1": 1}
    assert payload["result"]["writhe"] == -3


def test_jones_sweeps_the_bracket_once(capsys, monkeypatch):
    calls = []
    sweep = diagram.kauffman_bracket

    def counting(d):
        calls.append(d)
        return sweep(d)

    # the command imports the sweep from its module when it runs
    monkeypatch.setattr(diagram, "kauffman_bracket", counting)
    code, out, err = run(capsys, "jones", "--pd", LEFT_TREFOIL)
    assert code == 0
    assert len(calls) == 1


def test_jones_from_file(capsys, tmp_path):
    path = tmp_path / "knot.pd"
    path.write_text(LEFT_TREFOIL + "\n")
    code, payload = run_json(capsys, "jones", "--pd", f"@{path}")
    assert code == 0
    assert payload["result"]["crossings"] == 3


def test_jones_missing_file(capsys):
    code, out, err = run(capsys, "jones", "--pd", "@/no/such/file.pd")
    assert code == 1
    assert err.startswith("error:")
    assert "/no/such/file.pd" in err


def test_oserror_inside_a_computation_propagates(capsys, monkeypatch):
    # only reading an @file turns an OSError into "error:", exit 1; one
    # raised by the computation is a fault, not bad input
    def expire(d):
        raise TimeoutError("still running")

    monkeypatch.setattr(diagram, "kauffman_bracket", expire)
    with pytest.raises(TimeoutError):
        main(["jones", "--pd", LEFT_TREFOIL])


def test_jones_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"X[1,4,2,5] \xff\xfe")
    code, out, err = run(capsys, "jones", "--pd", f"@{path}")
    assert code == 1
    assert err.startswith("error:")
    assert str(path) in err


def test_jones_file_size_limit(capsys, tmp_path):
    path = tmp_path / "padded.pd"
    path.write_text(LEFT_TREFOIL.ljust(cli.MAX_ARG_BYTES))
    code, out, err = run(capsys, "jones", "--pd", f"@{path}")
    assert code == 0
    assert "jones (t): -t^-4 + t^-3 + t^-1" in out
    path.write_text(LEFT_TREFOIL.ljust(cli.MAX_ARG_BYTES + 1))
    code, out, err = run(capsys, "jones", "--pd", f"@{path}")
    assert code == 1
    assert err.startswith("error:") and "longer than" in err
    assert "Traceback" not in err


def test_jones_bad_diagram(capsys):
    code, out, err = run(capsys, "jones", "--pd", "X[1,2,3,4]")
    assert code == 1
    assert "error:" in err


def test_jones_nonplanar_diagram(capsys):
    # every arc appears twice and the strand is one curve, but no planar
    # diagram has this code
    pd = ("X[1,2,4,3] X[4,6,5,3] X[5,10,8,7] X[8,6,9,7] X[10,12,11,9] "
          "X[11,12,14,13] X[14,16,15,13] X[15,16,18,17] X[17,18,2,1]")
    code, out, err = run(capsys, "jones", "--pd", pd)
    assert code == 1
    assert "error:" in err and "planar" in err
    assert "Traceback" not in err


# ---- alexander and signature ----

def test_alexander_text(capsys):
    code, out, err = run(capsys, "alexander", "--seifert", "[[0,2],[1,0]]")
    assert code == 0
    assert "alexander (t): 2 - 5t + 2t^2" in out
    assert "determinant: 9" in out


def test_alexander_computes_the_determinant_once(capsys, monkeypatch):
    calls = []
    det = seifert.knot_determinant

    def counting(m):
        calls.append(m)
        return det(m)

    monkeypatch.setattr(seifert, "knot_determinant", counting)
    for json_flag in ((), ("--json",)):
        calls.clear()
        code, out, err = run(capsys, "alexander", "--seifert", "[[0,2],[1,0]]", *json_flag)
        assert code == 0
        assert len(calls) == 1


def test_alexander_rejects_bad_matrix(capsys):
    code, out, err = run(capsys, "alexander", "--seifert", "[[0,1],[1,0]]")
    assert code == 1
    assert "error:" in err
    # a float entry must not be truncated into a valid matrix
    code, out, err = run(capsys, "alexander", "--seifert", "[[0.5,2],[1,0]]")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_alexander_size_limit(capsys, tmp_path):
    # the block sum of 362 bands, one row per line: the largest matrix an
    # @file holds, refused before any determinant
    n = 724
    path = tmp_path / "bands.txt"
    path.write_text("".join(
        " ".join(str(int(j == i + 1 and i % 2 == 0)) for j in range(n)) + "\n"
        for i in range(n)))
    assert path.stat().st_size <= cli.MAX_ARG_BYTES
    code, out, err = run(capsys, "alexander", "--seifert", f"@{path}")
    assert code == 1 and out == ""
    assert err == f"error: seifert: {n} rows, over the limit of {seifert.MAX_SIZE}\n"


def test_alexander_huge_skew_determinant_is_an_input_error(capsys, tmp_path):
    # 3,001 digits parse, but det(M - M^T) = 10^6000 does not fit the
    # interpreter's int-to-text digit limit: a bad input all the same
    path = tmp_path / "huge.txt"
    path.write_text(f"[[0, {10**3000}], [0, 0]]")
    code, out, err = run(capsys, "alexander", "--seifert", f"@{path}")
    assert code == 1 and out == ""
    assert err == "error: seifert: det(M - M^T) = <19932 bits>, must be 1\n"


def test_alexander_bad_literal_is_an_error_with_one_message(capsys):
    # a long chain of unary signs used to end in a RecursionError
    # traceback from the literal parser, and a malformed literal's message
    # named an AST node by its address
    for text in ("[[" + "-" * 5000 + "1,1],[2,0]]", "[[a,1],[2,0]]", "[[{[1]: 2},1],[2,0]]"):
        messages = set()
        for _ in range(2):
            code, out, err = run(capsys, "alexander", "--seifert", text)
            assert code == 1 and out == ""
            assert err.startswith("error: matrix: bad literal") and "Traceback" not in err
            messages.add(err)
        assert len(messages) == 1 and " at 0x" not in err, err


def test_results_too_long_to_write_out_are_an_error_with_one_message(capsys, tmp_path):
    # an 8 KB Seifert matrix whose Alexander coefficients and determinant
    # have about 8,000 digits, and a twisted entry of 4,301 digits: each
    # passes Python's limit on converting an int to text
    big = 10**4000
    path = tmp_path / "big.txt"
    path.write_text(str([[big, 1], [0, big]]))
    nines = "9" * 4300
    calls = [("alexander", "--seifert", f"@{path}"),
             ("sequiv", "--seifert", f"[[{nines},1],[0,0]]", "--ell", f"-{nines}")]
    for argv in calls:
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *flags)
            assert code == 1 and out == "", argv
            assert err == (f"error: the result holds an integer of over "
                           f"{sys.get_int_max_str_digits()} digits, more than Python "
                           "converts to text\n"), argv


def test_signature_text(capsys):
    code, out, err = run(capsys, "signature", "--seifert", "[[-1,1],[0,-1]]")
    assert code == 0
    assert out.strip() == "signature: -2"


def test_signature_json(capsys):
    code, payload = run_json(capsys, "signature", "--seifert", "[[-1,1],[0,-1]]")
    assert code == 0
    assert payload["result"] == {"signature": -2}


# ---- sequiv ----

def test_sequiv_positive(capsys):
    code, out, err = run(capsys, "sequiv", "--seifert", "[[0,1],[2,0]]",
                         "--ell", "3")
    assert code == 0
    assert "first S-equivalent: yes" in out
    assert "certificate" in out
    assert "[[1, -1], [0, 1]]" in out


def test_sequiv_negative_is_still_exit_zero(capsys):
    code, out, err = run(capsys, "sequiv", "--seifert", "[[0,1],[2,0]]",
                         "--ell", "4")
    assert code == 0
    assert "first S-equivalent: no" in out
    assert "not decided" in out


def test_sequiv_oracle_lines(capsys):
    code, out, err = run(capsys, "sequiv", "--seifert", "[[0,1],[2,0]]",
                         "--ell", "3", "--oracle-bound", "2")
    assert code == 0
    assert "witness" in out
    assert "agrees" in out
    code, out, err = run(capsys, "sequiv", "--seifert", "[[0,1],[2,0]]",
                         "--ell", "1", "--oracle-bound", "2")
    assert code == 0
    assert "no witness, agrees" in out


def test_sequiv_oracle_box_smaller_than_certificate_is_inconclusive(capsys):
    # the certificate ((1, -3), (0, 1)) lies outside the bound-1 search box,
    # so finding no witness there does not contradict the decision
    argv = ("sequiv", "--seifert", "[[0,1],[2,0]]", "--ell", "9")
    code, out, err = run(capsys, *argv, "--oracle-bound", "1")
    assert code == 0
    assert "certificate T with T M T^T = twisted: [[1, -3], [0, 1]]" in out
    assert out.endswith("no witness, inconclusive: the certificate's largest entry, 3, "
                        "is over the bound 1\n")
    code, payload = run_json(capsys, *argv, "--oracle-bound", "1")
    assert payload["result"]["oracle"] == {"bound": 1, "witness": None, "agrees": None}
    # a box that holds the certificate gives a witness
    code, payload = run_json(capsys, *argv, "--oracle-bound", "3")
    assert payload["result"]["oracle"]["agrees"] is True


def test_sequiv_json_shape(capsys):
    code, payload = run_json(capsys, "sequiv", "--seifert", "[[0,1],[2,0]]",
                             "--ell", "3", "--band", "second",
                             "--oracle-bound", "2")
    assert code == 0
    result = payload["result"]
    assert result["first_s_equivalent"] is True
    assert result["certificate"] == [[1, 0], [-1, 1]]
    assert result["oracle"]["agrees"] is True
    assert payload["input"]["band"] == "second"


def test_sequiv_oracle_handles_huge_entries(capsys):
    code, payload = run_json(capsys, "sequiv", "--seifert",
                             "[[18446744073709551616,1],[0,0]]", "--ell", "0",
                             "--oracle-bound", "1")
    assert code == 0
    assert payload["result"]["oracle"]["agrees"] is True


def test_sequiv_rejects_non_genus_one(capsys):
    code, out, err = run(
        capsys, "sequiv", "--seifert",
        "[[0,1,0,0],[0,0,0,0],[0,0,0,1],[0,0,0,0]]", "--ell", "1",
    )
    assert code == 1
    assert "error:" in err


# ---- lambda ----

def test_lambda_seifert(capsys):
    code, out, err = run(capsys, "lambda", "--n", "0", "--m", "0", "--p", "3")
    assert code == 0
    assert "lambda(0,0,3)" in out
    assert "seifert: [[0, 2], [1, 0]]" in out


def test_lambda_jones(capsys):
    code, payload = run_json(capsys, "lambda", "--n", "0", "--m", "0",
                             "--p", "3", "--emit", "jones")
    assert code == 0
    assert payload["result"]["jones"] == (
        "t^-6 - t^-5 + t^-4 - 2t^-3 + t^-2 - t^-1 + 2"
    )
    assert "X[" in payload["result"]["pd"]


def test_lambda_jones_follows_the_paper_sequence(capsys):
    # the paper's S-equivalent sequence; lambda(6k, 0, 3) has 12 + 6k
    # crossings, 36 and 42 here
    v0 = jones(lambda_diagram(LambdaSpec(0, 0, 3)))
    for k in (4, 5):
        code, payload = run_json(capsys, "lambda", "--n", str(6 * k), "--m", "0",
                                 "--p", "3", "--emit", "jones")
        assert code == 0
        assert payload["result"]["jones"] == str(jones_twist(v0, 3 * k)), k


def test_lambda_alexander(capsys):
    code, out, err = run(capsys, "lambda", "--n", "0", "--m", "0", "--p", "3",
                         "--emit", "alexander")
    assert code == 0
    assert "alexander (t): 2 - 5t + 2t^2" in out


def test_lambda_rejects_bad_parameters(capsys):
    code, out, err = run(capsys, "lambda", "--n", "1", "--m", "0", "--p", "3")
    assert code == 1
    assert "error:" in err


def test_lambda_size_limit(capsys):
    # refused by LambdaSpec before any of its 2,000,012 crossings is built
    start = time.perf_counter()
    code, out, err = run(capsys, "lambda", "--n", "2000000", "--m", "0", "--p", "3",
                         "--emit", "pd")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error:") and "2000012 crossings" in err
    assert "Traceback" not in err


# ---- report ----

def test_report_paper(capsys):
    code, out, err = run(capsys, "report", "--paper")
    assert code == 0
    assert "0 mismatches" in out
    assert "KNOWN-DISCREPANCY" in out


def test_report_requires_flag(capsys):
    code, out, err = run(capsys, "report")
    assert code == 1
    assert "error:" in err


def test_report_json(capsys):
    code, payload = run_json(capsys, "report", "--paper")
    assert code == 0
    assert payload["command"] == "report"
    assert payload["input"] == {"paper": True}
    assert payload["paper_check"] is True
    assert set(payload["result"]) == {"lines", "ok"} and payload["result"]["ok"] is True
    statuses = {line["status"] for line in payload["result"]["lines"]}
    assert statuses == {"MATCH", "KNOWN-DISCREPANCY"}


# ---- usage and determinism ----

def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jones"])  # missing --pd
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_output_is_deterministic(capsys):
    _, first = run_json(capsys, "lambda", "--n", "2", "--m", "-2", "--p", "3",
                        "--emit", "jones")
    _, second = run_json(capsys, "lambda", "--n", "2", "--m", "-2", "--p", "3",
                         "--emit", "jones")
    assert first == second


def test_console_script_smoke():
    # the child must import this knotlab even when it is not installed;
    # python -m puts its working directory first on the module path
    src = Path(knotlab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "knotlab.cli", "jones", "--pd", LEFT_TREFOIL],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert proc.returncode == 0
    assert "jones (t): -t^-4 + t^-3 + t^-1" in proc.stdout


@pytest.mark.parametrize("launcher", [
    ["-m", "knotlab.cli"],
    ["-c", "import sys; from knotlab.cli import main; sys.exit(main())"],
], ids=["module", "entry-point"])
def test_closed_stdout_exits_one_without_a_traceback(launcher):
    # about 194 KB of JSON, more than a pipe buffer holds, so the command is
    # still writing when the reader goes away
    src = Path(knotlab.__file__).resolve().parents[1]
    argv = ["lambda", "--n", "0", "--m", "0", "--p", "2001", "--emit", "pd", "--json"]
    proc = subprocess.Popen([sys.executable, *launcher, *argv], cwd=src,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert head.startswith(b"{")
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


# ---- fuzzed arguments ----

SMALL_INTS = st.integers(-40, 40).map(str)
HUGE_INTS = st.sampled_from([2**31, -(2**31), 2**63, -(2**63) - 1, 10**100, -(10**100),
                             10**4000]).map(str)
MALFORMED_INTS = st.sampled_from(["", "x", "1e9", "0x10", "3.0", "-", "9" * 5000])
HOSTILE_INTS = st.one_of(SMALL_INTS, HUGE_INTS, MALFORMED_INTS)
PD_TEXTS = st.sampled_from([
    LEFT_TREFOIL,
    "X[1,2,3]",
    "X[0,1,1,2]",
    "X[1,2,3,4] X[5,6,7,8]",
    "X[%s,1,1,2]" % ("9" * 5000),
    "PD[",
    "",
])
GENUS_ONE = st.sampled_from(["[[0,1],[2,0]]", "[[-1,1],[0,-1]]", "[[0,1],[0,0]]"])
MATRIX_TEXTS = st.sampled_from([
    "[[0,1,0,0],[0,0,0,0],[0,0,0,1],[0,0,0,0]]",
    "[[1,2],[3]]",
    "[[1e400,0],[0,1]]",
    "[[%d,1],[0,0]]" % 10**4000,
    "[[%s,1],[0,0]]" % ("9" * 5000),
    "",
])
# @file arguments, filled in from the hostile_files fixture
FILES = st.sampled_from(["@{devnull}", "@{dir}", "@{missing}", "@{latin1}", "@{pd}",
                         "@{matrix}"])
DEEP = st.integers(1, 100_000).map(lambda depth: "[" * depth)
CALL_SECONDS = 5


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    """A device, a directory, a missing path, non-UTF-8 bytes and two
    readable files."""
    root = tmp_path_factory.mktemp("hostile")
    (root / "dir").mkdir()
    (root / "latin1.txt").write_bytes(b"\xff\xfe[[0,1],[2,0]]")
    (root / "pd.txt").write_text(LEFT_TREFOIL)
    (root / "matrix.txt").write_text("[[0,1],[2,0]]")
    return {"devnull": os.devnull, "dir": root / "dir", "missing": root / "missing",
            "latin1": root / "latin1.txt", "pd": root / "pd.txt",
            "matrix": root / "matrix.txt"}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(["jones", "alexander", "signature", "sequiv", "lambda",
                                    "report"]))
    matrix = st.one_of(GENUS_ONE, MATRIX_TEXTS, FILES, DEEP)
    if command == "jones":
        options = {"--pd": st.one_of(PD_TEXTS, FILES, DEEP)}
    elif command in ("alexander", "signature"):
        options = {"--seifert": matrix}
    elif command == "sequiv":
        options = {"--seifert": matrix, "--ell": HOSTILE_INTS,
                   "--band": st.sampled_from(["first", "second", "third"]),
                   "--oracle-bound": st.one_of(st.integers(0, 6).map(str), HOSTILE_INTS)}
    elif command == "lambda":
        options = {"--n": HOSTILE_INTS, "--m": HOSTILE_INTS, "--p": HOSTILE_INTS,
                   "--emit": st.sampled_from(["seifert", "pd", "jones", "alexander", "all"])}
    else:
        options = {}
    argv = [command]
    for flag, value in options.items():
        # usually given, sometimes missing: a required option left out is
        # a usage error
        if draw(st.integers(0, 9)):
            argv += [flag, draw(value)]
    for flag in ("--paper", "--json"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


class Overtime(Exception):
    """Raised by ``_time_bound``."""


@contextlib.contextmanager
def _time_bound(seconds):
    """Interrupt the block with Overtime once it has run this long."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=400, deadline=None)
@given(argv=hostile_argv())
# inputs that once ran without end or ended in a traceback
@example(argv=["sequiv", "--seifert", "[[0,1],[2,0]]", "--ell", "3",
               "--oracle-bound", str(10**6)])
@example(argv=["jones", "--pd", "X[%s,1,1,2]" % ("9" * 5000)])
@example(argv=["lambda", "--n", "2000000", "--m", "0", "--p", "3", "--emit", "pd"])
@example(argv=["sequiv", "--seifert", "[[0,1],[2,0]]", "--ell", "0",
               "--oracle-bound", "1" + "0" * 4299])
def test_fuzzed_arguments_never_show_a_traceback(hostile_files, argv):
    argv = [a.format(**hostile_files) if a.startswith("@{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _time_bound(CALL_SECONDS):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("error:"), argv


# ---- golden output ----

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
SEQUIV_CASES = [
    ["[[0,1],[2,0]]", "-3", "first"],    # yes: a22 = 0 and s = 3 divides ell
    ["[[0,1],[2,1]]", "3", "first"],     # no: a22 != 0
    ["[[0,1],[2,0]]", "4", "first"],     # no: s does not divide ell
    ["[[0,1],[2,0]]", "6", "second"],    # yes: a11 = 0 and s divides ell
    ["[[-1,1],[2,0]]", "3", "second"],   # no: a11 != 0
    ["[[0,1],[2,0]]", "2", "second"],    # no: s does not divide ell
    ["[[1,1],[0,1]]", "0", "first"],     # yes: ell = 0, with a22 != 0
]
GOLDEN_ARGV = [
    ["jones", "--pd", LEFT_TREFOIL],
    ["alexander", "--seifert", "[[0,2],[1,0]]"],
    ["signature", "--seifert", "[[-1,1],[0,-1]]"],
    *(["lambda", "--n", "2", "--m", "-2", "--p", "3", "--emit", emit]
      for emit in ("seifert", "pd", "jones", "alexander")),
    *(["sequiv", "--seifert", m, "--ell", ell, "--band", band]
      for m, ell, band in SEQUIV_CASES),
    ["sequiv", "--seifert", "[[0,1],[2,0]]", "--ell", "3", "--oracle-bound", "2"],
    ["sequiv", "--seifert", "[[0,1],[2,0]]", "--ell", "1", "--band", "second",
     "--oracle-bound", "1"],
]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=" ".join)
def test_golden_output(capsys, argv, json_flag):
    golden = json.loads(GOLDEN_PATH.read_text())
    code, out, err = run(capsys, *argv, *json_flag)
    assert (code, err) == (0, "")
    assert out == golden[" ".join([*argv, *json_flag])]
