"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines; every criterion runs one `verify` suite at its default bounds,
which re-checks a closed form against an independent brute-force oracle at
its stated size bound and tolerance (all exact).
"""
import time

from sytmaj import verify as V


def _suite(name: str):
    results, _ = V.run_suites([name], threads=1)
    return results


def _run(criterion: str, results, elapsed: float | None = None, checks: str = "") -> None:
    """`checks` is the summary row of a bounded suite, which pins its bounds."""
    bad = [r for r in results if not r.ok]
    for r in bad:
        print(r.line())
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if not bad else 'FAIL'}{stamp}")
    assert not bad, f"{criterion}: {len(bad)} failing checks"
    if checks:
        assert [r.name for r in results] == [checks]


def test_criterion_01_stanley_oracle_n12():
    t0 = time.perf_counter()
    results = _suite("stanley")
    elapsed = time.perf_counter() - t0
    _run("1 stanley-oracle n<=12", results, elapsed, "271 checks")
    assert elapsed < 120.0


def test_criterion_02_type_a_support_n12():
    _run("2 type-A support n<=12", _suite("support-a"), checks="271 checks")


def test_criterion_03_phi_total_n9():
    _run("3 phi totality n<=9", _suite("phi"), checks="96 checks")


def test_criterion_04_posets_n8():
    _run("4 posets n<=8", _suite("poset"), checks="66 checks")


def test_criterion_05_des_interval():
    _run("5 des interval n<=12, maj-des n<=10", _suite("des"), checks="409 checks")


def test_criterion_06_worked_example_regressions():
    _run("6 worked-example regressions", _suite("regression"))


def test_criterion_07_deformed_equivalences():
    _run("7 deformed multinomials n<=8 m<=6", _suite("deformed"),
         checks="43492 deformed checks")


def test_criterion_08_gmdn_oracle():
    _run("8 G(m,d,n) oracle n<=6 m<=4", _suite("gmdn"), checks="4100 checks")


def test_criterion_09_closed_forms():
    _run("9 hyperoctahedral/even closed forms n<=6", _suite("closed-forms"),
         checks="276 closed-form checks")


def test_criterion_10_performance_200_cells():
    _run("10 exact expansion at 200 cells", _suite("performance"))


def test_criterion_11_parity_unimodal_n20():
    t0 = time.perf_counter()
    results = _suite("parity")
    elapsed = time.perf_counter() - t0
    _run("11 parity-unimodality n<=20", results, elapsed, "2713 checks")
    assert elapsed < 300.0
