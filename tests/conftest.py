import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latentforest import build_forest


@pytest.fixture
def quartet():
    """Four leaves, two inner nodes, edge order ab, a1, a2, b3, b4."""
    return build_forest(
        [(str(i), False) for i in range(1, 5)]
        + [("a", True), ("b", True)],
        [("a", "b"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
    )


@pytest.fixture
def quartet_sub():
    """The 1-2 cherry with leaves 3, 4 isolated (q-forest of rho_12 != 0)."""
    return build_forest(
        [(str(i), False) for i in range(1, 5)] + [("a", True)],
        [("a", "1"), ("a", "2")],
    )


@pytest.fixture
def three_star():
    return build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )


@pytest.fixture
def five_tree():
    """The five leaf tree whose subforest lattice has the 34 classes."""
    return build_forest(
        [(str(i), False) for i in range(1, 6)]
        + [("a", True), ("b", True), ("c", True)],
        [
            ("a", "b"),
            ("a", "5"),
            ("a", "1"),
            ("b", "4"),
            ("b", "c"),
            ("3", "c"),
            ("2", "c"),
        ],
    )


def random_forest(rng: np.random.Generator):
    """Small random forest: nodes attach to earlier nodes or stay isolated.

    Observed nodes are leaves (degree at most one), as the model class
    requires.
    """
    n_obs = int(rng.integers(1, 7))
    n_lat = int(rng.integers(0, 5))
    names = [f"x{i}" for i in range(n_obs)] + [f"z{i}" for i in range(n_lat)]
    latent = set(names[n_obs:])
    order = list(names)
    rng.shuffle(order)
    degree = {v: 0 for v in names}
    edges = []
    for i, v in enumerate(order[1:], start=1):
        if rng.random() < 0.75:
            hosts = [
                u
                for u in order[:i]
                if u in latent or degree[u] == 0
            ]
            if v not in latent and degree[v] > 0:
                continue
            if hosts:
                u = hosts[int(rng.integers(len(hosts)))]
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return build_forest([(v, v in latent) for v in names], edges)


def subdivide_leaf_edge(tree, tag, rng):
    """Insert the latent node ``s<tag>`` on the edge of a leaf drawn by
    ``rng.choice`` (a ``random.Random`` or a numpy Generator)."""
    leaf = str(rng.choice(sorted(tree.observed)))
    (other,) = tree.neighbors[leaf]
    w = f"s{tag}"
    edges = [tuple(sorted(e)) for e in tree.edges if leaf not in e]
    edges += [(leaf, w), tuple(sorted((w, other)))]
    nodes = [(v, v in tree.latent) for v in tree.nodes] + [(w, True)]
    return build_forest(nodes, edges)


def latent_leaf_free_masks(host):
    """Every edge mask of ``host`` in which no latent node has exactly
    one edge, by testing all 2^|E| subsets in increasing order."""
    incident = [
        sum(1 << b for b, e in enumerate(host.edges) if v in e)
        for v in host.latent
    ]
    return [
        mask
        for mask in range(1 << len(host.edges))
        if not any((h := mask & inc) and not h & (h - 1) for inc in incident)
    ]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python_process(args, hash_seed: int) -> subprocess.CompletedProcess:
    """``python3 args`` run to the end in a fresh process with a fixed
    hash seed, its stdout and stderr captured as text.

    The process imports the library from this checkout's ``src`` and
    runs OpenBLAS single threaded, so only the hash seed varies.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def run_python(args, hash_seed: int) -> str:
    """Stdout of ``python3 args`` (see python_process), which must exit 0."""
    proc = python_process(args, hash_seed)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
