"""The CLI at the largest sizes it is run at, in fresh processes.

These run ``python -m latentforest.cli`` on the biggest lattice walks
and zero parts the suite builds: the m = 10 and m = 12 trivalent
lattices, the certificate LPs of the m = 16 and m = 32 zero parts, and
the refusal of a star whose lattice is too large.
"""
import json

import pytest

from latentforest import build_forest, random_trivalent_tree, zero_part_monomials
from conftest import python_process, run_python


def cli(*argv) -> list[str]:
    return ["-m", "latentforest.cli", *argv]


def write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("m, seed, count, covers", [
    (10, 10, 4181, None),
    (12, 0, 28657, 221016),
])
def test_lattice_counts(tmp_path, m, seed, count, covers):
    tree = write(tmp_path, "tree.json", random_trivalent_tree(m, seed).to_json())
    doc = json.loads(run_python(cli("lattice", "--tree", tree, "--json"), 0))
    assert doc["count"] == count
    if covers is not None:
        assert len(doc["covers"]) == covers


@pytest.mark.parametrize("m, lam", [(16, "8"), (32, "16")])
def test_rlct_mono_zero_part(tmp_path, m, lam):
    """A zero part beyond the hull's reach (dimension 2m - 3), solved by
    the certificate LP; at m = 32 it has 496 generators."""
    t = random_trivalent_tree(m, m)
    empty = build_forest({v: False for v in t.observed}, [])
    mono = write(tmp_path, "mono.json", zero_part_monomials(t, empty).to_json())
    out = run_python(cli("rlct", "mono", "--in", mono, "--json"), 0)
    assert json.loads(out) == {"lambda": lam, "mult": 1}


def test_oversized_star_refused(tmp_path):
    star = build_forest({**{str(i): False for i in range(24)}, "h": True},
                        [("h", str(i)) for i in range(24)])
    tree = write(tmp_path, "star24.json", star.to_json())
    proc = python_process(cli("lattice", "--tree", tree), 0)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
