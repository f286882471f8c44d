"""Fuzzed CLI inputs end in a result or a typed error, never a traceback.

Each example starts from small valid input files for one subcommand,
mutates one of them (a JSON value replaced, deleted or retyped, a CSV
cell, row or header changed, a file truncated) or, for the EM commands,
one EM flag, and runs the command in process, plain and with
``--json``.  A run must return 0, or return 1 with an ``error:`` line
or the JSON error document on stderr; an exception escaping ``main``
fails the test.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from latentforest import ModelParams, build_forest, sample
from latentforest.cli import main


def _star():
    return build_forest(
        [("1", False), ("2", False), ("3", False), ("h", True)],
        [("h", "1"), ("h", "2"), ("h", "3")],
    )


def _quartet():
    return build_forest(
        [(str(i), False) for i in range(1, 5)] + [("a", True), ("b", True)],
        [("a", "b"), ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
    )


def _cherry():
    return build_forest(
        [(str(i), False) for i in range(1, 5)] + [("a", True)],
        [("a", "1"), ("a", "2")],
    )


def _samples(f, n=40):
    params = ModelParams(
        leaf_var={v: 1.0 for v in f.observed},
        edge_corr={e: 0.6 for e in f.edges},
    )
    x = sample(f, params, n, seed=1)
    return [list(f.observed)] + [[repr(float(v)) for v in row] for row in x]


MONO = {
    "dim": 3,
    "terms": [{"u": [1, 1, 0], "c": 0.5}, {"u": [0, 1, 1], "c": 0.0},
              {"u": [2, 0, 0], "c": 0.0}],
    "domain": [[-1.0, 1.0], [0.0, None], [-2.0, 2.0]],
}
LATTICE5 = {"kind": "lattice5", "n_values": [50], "replicates": 1}
DEPTH = {"kind": "depth_comparison", "n_values": [50], "replicates": 1,
         "m": [4]}
# every run stops EM early, so a mutated input stays cheap
EM_FLAGS = ["--restarts", "1", "--max-iter", "15"]
# values an EM flag may be given instead, appended after EM_FLAGS so
# they override them: integer strings for the integer flags, so argparse
# accepts them and EmConfig decides, and small, so no run grows long
EM_MUTATIONS = {
    "--restarts": ["-3", "-1", "0", "2"],
    "--max-iter": ["-1", "0", "1", "3"],
    "--tol": ["nan", "inf", "-inf", "-0.5", "0", "0.001"],
    "--seed": ["-1", "0", "5"],
}

# (argv with {name} placeholders, the valid inputs by name)
CASES = {
    "rlct-forest": (["rlct", "forest", "--host", "{host}", "--sub", "{sub}"],
                    {"host": _quartet(), "sub": _cherry()}),
    "rlct-mono": (["rlct", "mono", "--in", "{mono}"], {"mono": MONO}),
    "fit": (["fit", "--forest", "{forest}", "--data", "{data}", *EM_FLAGS],
            {"forest": _star(), "data": _samples(_star())}),
    "select-exhaustive": (
        ["select", "--tree", "{tree}", "--data", "{data}", *EM_FLAGS],
        {"tree": _quartet(), "data": _samples(_quartet())},
    ),
    "select-chain": (
        ["select", "--tree", "{tree}", "--data", "{data}", "--lattice",
         "chain", *EM_FLAGS],
        {"tree": _quartet(), "data": _samples(_quartet())},
    ),
    "simulate-lattice5": (
        ["simulate", "--config", "{config}", "--edges-out", "{edges}",
         *EM_FLAGS],
        {"config": LATTICE5},
    ),
    "simulate-depth": (["simulate", "--config", "{config}", *EM_FLAGS],
                       {"config": DEPTH}),
    "lattice": (["lattice", "--tree", "{tree}"], {"tree": _quartet()}),
}

# examples per case: the simulate runs fit EM, the others are cheap
EXAMPLES = {name: 40 if name.startswith("simulate") else 150 for name in CASES}

# values of every JSON type: counts stay small, so no mutation asks for
# a long run, while types, signs and non-finite numbers vary
ODD_VALUES = st.sampled_from([
    None, True, False, "", "x", "1", "h", [], [1], [[]], [None, None],
    ["1", "x"], {}, {"id": "x"}, {"u": [1], "c": 0},
])
NUMBERS = st.sampled_from([
    0, 1, -1, 2, 3, 0.5, -0.5, 2.5, 1e-300, 1e300, float("nan"),
    float("inf"), -float("inf"),
])
# an integer beyond float range; a config may ask for any number of
# replicates, so configs are not given it
HUGE = 10**400
ODD_CELLS = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1e400", "1e308", "0", "-0", " 1", "1,2"]
)


def _paths(doc, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _paths(value, path + (key,))


def _mutate_json(draw, doc, numbers):
    """doc with one number changed, or one value retyped or deleted."""
    doc = copy.deepcopy(doc)
    spots = [p for p in _paths(doc) if p and _is_number(_get(doc, p))]
    op = draw(st.sampled_from(["number", "number", "retype", "delete"]))
    if op == "number" and spots:
        value = draw(numbers)
    else:
        spots = [p for p in _paths(doc) if p or op != "delete"]
        value = draw(ODD_VALUES)
    path = draw(st.sampled_from(spots))
    if not path:
        return value
    parent = _get(doc, path[:-1])
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate_csv(draw, rows):
    """rows (header first) with one cell, row or header changed."""
    rows = [list(r) for r in rows]
    op = draw(st.sampled_from(
        ["cell"] * 4 + ["header", "drop-row", "drop-cell", "add-column",
                        "constant-column", "header-only", "empty"]
    ))
    r = draw(st.integers(1, len(rows) - 1))
    c = draw(st.integers(0, len(rows[0]) - 1))
    if op == "cell":
        rows[r][c] = draw(ODD_CELLS)
    elif op == "header":
        rows[0][c] = draw(st.sampled_from(["", "x", "h", rows[0][0], "1 "]))
    elif op == "drop-row":
        del rows[r]
    elif op == "drop-cell":
        del rows[r][c]
    elif op == "add-column":
        rows = [row + [cell] for row, cell in zip(rows, ["x"] + ["0.5"] * len(rows))]
    elif op == "constant-column":
        for row in rows[1:]:
            row[c] = "1.0"
    elif op == "header-only":
        rows = rows[:1]
    else:
        rows = []
    return "".join(",".join(row) + "\n" for row in rows)


def _text(value) -> str:
    if isinstance(value, list) and value and isinstance(value[0], list):
        return "".join(",".join(row) + "\n" for row in value)  # CSV rows
    if hasattr(value, "to_json"):
        return value.to_json()
    return json.dumps(value)


@st.composite
def mutated_inputs(draw, name):
    """The file texts of one case and flags to append to its argv, with
    one input or one EM flag mutated."""
    argv, inputs = CASES[name]
    texts = {key: _text(value) for key, value in inputs.items()}
    if "--restarts" in argv and draw(st.integers(0, 4)) == 0:
        flag = draw(st.sampled_from(sorted(EM_MUTATIONS)))
        # one --flag=value word, so argparse reads "-inf" as a value
        return texts, [f"{flag}={draw(st.sampled_from(EM_MUTATIONS[flag]))}"]
    key = draw(st.sampled_from(sorted(inputs)))
    value = inputs[key]
    if draw(st.integers(0, 5)) == 0:
        text = texts[key]
        texts[key] = text[: draw(st.integers(0, len(text) - 1))]
    elif key == "data":
        texts[key] = _mutate_csv(draw, value)
    else:
        numbers = NUMBERS if key == "config" else NUMBERS | st.just(HUGE)
        doc = _mutate_json(draw, json.loads(texts[key]), numbers)
        texts[key] = json.dumps(doc)
    return texts, []


def _run(argv):
    """Exit code, stdout and stderr of one run; warnings are written to
    stderr first, as the installed command would print them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_inputs_end_cleanly(name):
    argv_template, _ = CASES[name]

    @settings(max_examples=EXAMPLES[name], deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated=mutated_inputs(name))
    def check(mutated):
        texts, flags = mutated
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: str(Path(tmp, key)) for key in (*texts, "edges")}
            for key, text in texts.items():
                Path(paths[key]).write_text(text)
            argv = [a.format(**paths) for a in argv_template] + flags
            code, _, err = _run(argv)
            assert code in (0, 1), (argv, err)
            if code == 1:
                assert err.startswith("error: "), err
            code_json, out, err = _run(argv + ["--json"])
            assert code_json == code, err
            if code == 0:
                json.loads(out)
            else:
                assert set(json.loads(err)) == {"error"}, err

    check()
