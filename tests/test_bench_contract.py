"""The names the benchmark's tracer looks up in the package.

`bench/tracer.py` wraps every public function of each layer, plus the
methods it lists in METHODS, and reads some of them back by name:
`tableaux.enumerate_tableaux`, `tableaux.canonical_orbit_tableaux` and the
METHODS of QPoly, Tableau and BlockShape.  Deleting one of them, or making
it private, makes every traced run raise KeyError.

`bench/run.py` clears every functools cache of the loaded sytmaj modules
before each round, so that each round starts cold.
"""
import json
import sys
from pathlib import Path

import sytmaj.genfun
import sytmaj.tableaux
from sytmaj import mutations
from sytmaj.shapes import parse_partition

ROOT = Path(__file__).resolve().parents[1]
BENCH = str(ROOT / "bench")


def test_tracer_installs_and_reports_every_metric():
    stanley, enumerate_tableaux = sytmaj.genfun.stanley, sytmaj.tableaux.enumerate_tableaux
    sys.path.insert(0, BENCH)
    try:
        import tracer

        t = tracer.Tracer()
        t.install()
        try:
            assert sytmaj.genfun.stanley is not stanley
            out = t.metrics(1)
        finally:
            t.uninstall()
    finally:
        sys.path.remove(BENCH)
    assert sytmaj.genfun.stanley is stanley
    assert sytmaj.tableaux.enumerate_tableaux is enumerate_tableaux
    assert len(out) == 48
    # the rest of BENCHMARK.json's per-layer metrics time the run as a whole
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(out) <= declared
    assert all(name.startswith("trace.") for name in declared - set(out))


def test_bench_rounds_clear_the_rotation_move_caches():
    sys.path.insert(0, BENCH)
    try:
        import run
    finally:
        sys.path.remove(BENCH)
    caches = run.sytmaj_caches()
    moves = [mutations._positive_move, mutations._negative_move, mutations._ground,
             *(getattr(mutations, f"_b{k}_move") for k in range(1, 6))]
    assert all(c in caches for c in moves)
    mutations.build_poset(parse_partition("4,2,1"), "strong")
    assert mutations._positive_move.cache_info().currsize > 0
    assert mutations._ground.cache_info().currsize > 0
    for c in caches:
        c.cache_clear()
    assert all(c.cache_info().currsize == 0 for c in moves)
