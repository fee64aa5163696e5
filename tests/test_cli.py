import contextlib
import hashlib
import io
import json
import multiprocessing
import re
import subprocess
import sys

import pytest

import sytmaj.verify as V
from sytmaj.cli import main
from sytmaj.qpolys import QPoly


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "sytmaj.cli", *args], capture_output=True, text=True
    )


def test_fakedeg_shape(capsys):
    assert main(["fakedeg", "--shape", "4,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out) == {"offset": 2, "coeffs": ["1", "1", "2", "1", "2", "1", "1"]}
    assert main(["fakedeg", "--shape", "4,2", "--d", "1"]) == 0  # --d 1 is the default
    assert capsys.readouterr().out.strip() == out


def test_fakedeg_blocks(capsys):
    assert main(["fakedeg", "--blocks", "2|3,1", "--m", "2", "--d", "1"]) == 0
    wreath = json.loads(capsys.readouterr().out)
    assert wreath["offset"] == 6
    assert main(["fakedeg", "--blocks", "2|3,1", "--m", "2", "--d", "2"]) == 0
    gmdn = json.loads(capsys.readouterr().out)
    assert gmdn["offset"] == 4
    assert wreath != gmdn


def _run_in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_block_shape_output_golden():
    # sha256 of (argv, exit code, stdout) of fakedeg (json and text), support
    # and support --verify on every block shape with n <= 5 and m <= 3, for
    # every d dividing m: 2,220 invocations, pinned when C_m wr S_n still had
    # its own fake degree, classifier and oracle
    digest = hashlib.sha256()
    count = 0
    for m in range(1, 4):
        for n in range(6):
            for blocks in V.block_shapes(n, m):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    args = ["--blocks", str(blocks), "--m", str(m), "--d", str(d)]
                    for argv in (["fakedeg", *args], ["fakedeg", *args, "--format", "text"],
                                 ["support", *args], ["support", *args, "--verify"]):
                        digest.update(repr((argv, *_run_in_process(argv))).encode())
                        count += 1
    assert count == 2220
    assert digest.hexdigest() == \
        "4ce505b200c494640598f4576b837450f94ac71117ebd7d387e9e05317b00dfb"


def test_fakedeg_text_format(capsys):
    # Text output is str(QPoly), and repr wraps the same terms.
    assert main(["fakedeg", "--shape", "4,2", "--format", "text"]) == 0
    assert capsys.readouterr().out == "q^2 + q^3 + 2*q^4 + q^5 + 2*q^6 + q^7 + q^8\n"
    assert main(["deformed", "--alpha", "2,1,1", "--d", "1", "--format", "text"]) == 0
    assert capsys.readouterr().out == "q^3 + 2*q^6 + 3*q^9 + 3*q^12 + 2*q^15 + q^18\n"
    assert str(QPoly.zero()) == "0" and repr(QPoly.zero()) == "QPoly(0)"
    signed = QPoly(0, [3, -1, 0, 1])
    assert str(signed) == "3 + -1*q + q^3" and repr(signed) == "QPoly(3 + -1*q + q^3)"


def test_deformed(capsys):
    assert main(["deformed", "--alpha", "2,1,1,1", "--d", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["offset"] == 6
    assert obj["coeffs"][::2] == ["1", "1", "3", "3", "6", "5", "8", "6", "8", "5", "6", "3", "3", "1", "1"]


def test_support(capsys):
    assert main(["support", "--shape", "2,2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"degrees": [2, 4]}
    assert main(["support", "--shape", "2,2", "--verify"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["equal"] is True and rep["actual"] == [2, 4]


def test_support_verify_at_the_cell_bound():
    # 20 cells and 1.4e8 standard fillings
    proc = run_cli(["support", "--shape", "6,5,4,3,2", "--verify"])
    assert proc.returncode == 0, proc.stderr
    assert '"equal":true' in proc.stdout


def test_enumerate(capsys):
    assert main(["enumerate", "--shape", "3,2", "--stats", "maj,des"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "1,2,3/4,5 maj=3 des=1"


def test_poset_outputs(capsys):
    # one node per element of the ground set; 2,2 is a big rectangle, whose
    # two fillings are both extremes
    ground = {"4": 1, "3,1": 3, "2,2": 0, "2,1,1": 3, "1,1,1,1": 1}
    for shape, size in ground.items():
        for order in ("strong", "weak"):
            assert main(["poset", "--shape", shape, "--order", order]) == 0
            dot = capsys.readouterr().out
            assert dot.startswith("digraph") and dot.count("[maj=") == size, (shape, order)
    assert main(["poset", "--shape", "3,2,1", "--order", "weak", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("[maj=") == 16
    assert main(["poset", "--shape", "3,2", "--order", "strong", "--format", "json"]) == 0
    adj = json.loads(capsys.readouterr().out)
    assert len(adj) == 5


def test_poset_empty_shape(capsys):
    outs = []
    for order in ("strong", "weak"):
        assert main(["poset", "--shape", "", "--order", order]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("[maj=0]") == 1


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "regression", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_small_bounds(capsys):
    assert main(["verify", "--suite", "phi", "--max-n", "5", "--threads", "1"]) == 0
    assert main(["verify", "--suite", "stanley", "--max-n", "6", "--threads", "2"]) == 0
    capsys.readouterr()


VERIFY_MAX_N_4 = """\
ok   [stanley] 11 checks
ok   [support-a] 11 checks
ok   [phi] 11 checks
ok   [poset] 11 checks
ok   [des] 22 checks
ok   [regression] stanley 4,2
ok   [regression] stanley 4,2,1
ok   [regression] 4,2 symmetric not unimodal
ok   [regression] 4,2,1 symmetric unimodal
ok   [regression] wreath 2|3,1
ok   [regression] wreath |3,3
ok   [regression] gmdn 2|3,1
ok   [regression] gmdn |3,3
ok   [regression] gmdn |3,3 differs from wreath |3,3
ok   [regression] gmdn |3,3 == gmdn 3,3| == wreath 3,3|
ok   [regression] multinomial (2,1,1,1) in q^4
ok   [regression] undeformed multinomial not divisible by 1+q^10
ok   [regression] rotation-sum quotient
ok   [regression] deformed 2,1,1,1 d=2
ok   [regression] 3,2,1 weak dot has 16 nodes  nodes=16
ok   [deformed] 3682 deformed checks
ok   [gmdn] 744 checks
ok   [closed-forms] 74 closed-form checks
ok   [performance] expand 200-cell shape in <t>s  budget 10.0s
ok   [performance] q=1 matches hook-length count
ok   [parity] 11 checks
PASS (26 results)
"""


def test_verify_all_suites_wired(capsys):
    # every suite runs through the CLI at tiny bounds; des counts 11 shapes
    # for the des interval and 11 for maj - des, both capped at n <= 4
    assert main(["verify", "--suite", "all", "--max-n", "4", "--threads", "1"]) == 0
    out = re.sub(r"in \d+\.\d\ds ", "in <t>s ", capsys.readouterr().out)
    assert out == VERIFY_MAX_N_4


def test_argument_errors_exit_2():
    assert run_cli(["fakedeg"]).returncode == 2
    assert run_cli(["fakedeg", "--blocks", "2|3,1", "--m", "2", "--d", "3"]).returncode == 2
    assert run_cli(["deformed", "--alpha", "2,1,1", "--d", "2"]).returncode == 2
    assert run_cli(["enumerate", "--shape", "3,2", "--stats", "bogus"]).returncode == 2
    for args in (
        ["fakedeg", "--shape", "2,3"],
        ["fakedeg", "--shape", "x"],
        ["fakedeg", "--shape", ""],
        ["deformed", "--alpha", "2,x", "--d", "1"],
        ["enumerate", "--shape", "21"],
        ["poset", "--shape", "7,7,7"],
        ["support", "--blocks", "|", "--d", "2"],
        ["support", "--blocks", "|", "--d", "3", "--verify"],
        ["deformed", "--alpha", "2,1,1", "--d", "0"],
        # --m and --d apply to --blocks only
        ["fakedeg", "--shape", "3,2", "--m", "2", "--d", "3"],
        ["fakedeg", "--shape", "3,2", "--d", "2"],
        ["support", "--shape", "2,2", "--m", "3"],
        ["support", "--shape", "2,2", "--m", "1", "--verify"],
        ["verify", "--suite", "regression", "--threads", "-3"],
        ["verify", "--suite", "regression", "--threads", "0"],
        ["verify", "--suite", "regression", "--max-n", "-3"],
    ):
        proc = run_cli(args)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, args


def test_handler_errors_print_the_subcommand_usage():
    for args in (["fakedeg", "--shape", "3,2", "--m", "2"],
                 ["deformed", "--alpha", "2,1,1", "--d", "2"]):
        proc = run_cli(args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith(f"usage: sytmaj {args[0]} "), proc.stderr
        assert f"sytmaj {args[0]}: error: " in proc.stderr, proc.stderr


def test_fakedeg_empty_blocks(capsys):
    assert main(["fakedeg", "--blocks", "|", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"offset": 0, "coeffs": ["1"]}


def test_verify_fails_on_zero_cases(capsys):
    for suite in ("stanley", "support-a", "phi", "poset", "des", "deformed", "gmdn",
                  "closed-forms", "parity"):
        assert main(["verify", "--suite", suite, "--max-n", "0", "--threads", "1"]) == 1, suite
        out = capsys.readouterr().out
        assert out == f"FAIL [{suite}] no cases ran\nFAIL (1 results)\n"


def test_every_bounded_suite_gets_threads(capsys, monkeypatch):
    seen = []
    fan_out = V._map_maybe_parallel

    def spy(fn, items, threads):
        seen.append(threads)
        return fan_out(fn, items, 1)

    monkeypatch.setattr(V, "_map_maybe_parallel", spy)
    for name, suite in V.SUITES.items():
        seen.clear()
        assert main(["verify", "--suite", name, "--max-n", "3", "--threads", "3"]) == 0
        assert seen == ([3] if suite.checks else []), name
    capsys.readouterr()


def test_pool_has_no_more_workers_than_items(monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert V._map_maybe_parallel(abs, [-1, -2], 8) == [1, 2]
    assert V._map_maybe_parallel(abs, range(-5, 0), 3) == [5, 4, 3, 2, 1]
    assert asked == [2, 3]


def test_output_determinism():
    a = run_cli(["fakedeg", "--blocks", "2|3,1", "--m", "2", "--d", "2"])
    b = run_cli(["fakedeg", "--blocks", "2|3,1", "--m", "2", "--d", "2"])
    assert a.stdout == b.stdout and a.returncode == 0
    c = run_cli(["poset", "--shape", "3,2,1", "--order", "weak", "--format", "dot"])
    d = run_cli(["poset", "--shape", "3,2,1", "--order", "weak", "--format", "dot"])
    assert c.stdout == d.stdout


@pytest.mark.parametrize("suite", ["deformed", "closed-forms", "gmdn"])
def test_verify_threads_print_the_threads_1_lines(capsys, monkeypatch, suite):
    pool_sizes = []
    fan_out = V._map_maybe_parallel

    def spy(fn, items, threads):
        pool_sizes.append(threads)
        return fan_out(fn, items, threads)

    monkeypatch.setattr(V, "_map_maybe_parallel", spy)
    outs = []
    for threads in ("1", "2"):
        assert main(["verify", "--suite", suite, "--max-n", "5", "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert pool_sizes == [1, 2]
    assert outs[0] == outs[1]
    assert outs[0].endswith("checks\nPASS (1 results)\n")


def test_parallel_failure_rows_keep_work_order(monkeypatch):
    # the workers inherit the broken oracles only through fork
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs forked workers")
    monkeypatch.setattr(V, "deformed_multinomial_rational", lambda alpha, d: V.QPoly.zero())
    monkeypatch.setattr(V, "type_d_closed_form", lambda lam, mu: V.QPoly.zero())
    for name, max_n in (("deformed", 3), ("closed-forms", 4)):
        serial, ok = V.run_suites([name], max_n=max_n, threads=1)
        assert len(serial) > 10 and not ok and not any(r.ok for r in serial)
        assert V.run_suites([name], max_n=max_n, threads=2) == (serial, ok)
