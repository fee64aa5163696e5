"""Smoke tests: the scripts run and print what the library computes."""
import json
import os
import subprocess
import sys
from pathlib import Path

from sytmaj.qpolys import QPoly
from sytmaj.shapes import parse_blocks
from sytmaj.verify import block_shapes, gmdn_gf_oracle

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()


def test_fake_degree_table_prints_oracle_polynomials():
    lines = run_script("fake_degree_table.py", "4", "2", "2")
    # G(2,2,4): a rotation orbit is {lam|mu, mu|lam}
    orbits = {frozenset({b.blocks, b.blocks[::-1]}) for b in block_shapes(4, 2)}
    assert lines[-1] == f"# {len(orbits)} orbits"
    rows = [line.split() for line in lines[:-1]]
    assert len(rows) == len(orbits)
    shapes = [parse_blocks(shape) for shape, _ in rows]
    assert {frozenset({b.blocks, b.blocks[::-1]}) for b in shapes} == orbits
    for blocks, (_, poly) in zip(shapes, rows):
        assert QPoly.from_json(json.loads(poly)) == gmdn_gf_oracle(blocks, 2, 2), blocks
