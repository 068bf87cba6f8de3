"""Config fuzzer: every command ends in a documented exit code.

Each example mutates one to three values of a valid 8x4 config, or the
rows of the profile CSV its weight reads, to values at the edges of what
JSON and CSV can carry: null, integers beyond float range, +-1e308, the
smallest subnormal, strings and nested lists.  Every config command runs
through ``cli.main`` in process; ``verify`` reads no config and is left
out.  A call must return an exit code in {0, 2, 3, 4, 5}, raise nothing
(pytest turns RuntimeWarning into an error), finish within
``BUDGET_S``, and write no NaN or infinity when it exits 0.
"""

import copy
import json
import re
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenweight.cli import main

#: seconds one CLI call on the 8x4 grid may take
BUDGET_S = 5.0

COMMANDS = ("solve", "optimize", "rearrange", "simulate")

EXIT_CODES = {0, 2, 3, 4, 5}

#: a NaN or infinity as ``repr`` writes it into a CSV or ``json`` into JSON
NOT_FINITE = re.compile(r"(?<![\w.])-?(nan|inf|NaN|Infinity)(?!\w)")

#: +1 on 8 of the 32 cells of [2, 1] (measure 0.5), -2 on the rest
PROFILE_ROWS = (("1.0", "0.5"), ("-2.0", "1.5"))

WEIGHTS = (
    {"kind": "bang_bang", "positive_value": 1.0, "negative_value": -2.0,
     "positive_fraction": 0.25},
    {"kind": "explicit", "values": [1.0] * 8 + [-2.0] * 24},
    {"kind": "profile", "path": "profile.csv"},
)


def valid_config(weight: dict, solver: str = "iterative") -> dict:
    return {
        "version": 1,
        "domain": {"type": "rectangle", "extents": [2.0, 1.0],
                   "shape": [8, 4]},
        "weight": copy.deepcopy(weight),
        "solve": {"solver": solver, "tol": 1e-12, "spectrum": 2,
                  "dump_stiffness": True},
        "optimize": {"solver": solver, "tol": 1e-12, "max_iters": 50,
                     "restarts": 2, "seed": 0},
        "rearrange": {"direction": "decreasing", "stripes": [1, 2, 4]},
        "simulate": {"v0": 0.01, "gamma": 3.0, "dt": 0.05, "t_end": 1.0},
        "output_dir": "out",
    }


EXTREMES = st.one_of(
    st.sampled_from([None, 2 ** 70, 10 ** 400, 1e308, -1e308, 5e-324,
                     -5e-324, 0, -1, 0.5, True]),
    st.text(max_size=4),
    st.lists(st.lists(st.floats(), max_size=2), max_size=2),
)


def paths(node, prefix=()):
    """The key path of every value inside a config, objects and lists
    included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def csv_text(value) -> str:
    """How a drawn value reads as one CSV field."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    return json.dumps(value)


def run_commands(doc: dict, profile_rows) -> None:
    doc = copy.deepcopy(doc)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "profile.csv").write_text("value,measure\n" + "".join(
            f"{value},{measure}\n" for value, measure in profile_rows))
        weight = doc.get("weight")
        if isinstance(weight, dict) and weight.get("path") == "profile.csv":
            weight["path"] = str(tmp / "profile.csv")
        config = tmp / "config.json"
        config.write_text(json.dumps(doc))
        for command in COMMANDS:
            out = tmp / command
            start = time.perf_counter()
            code = main([command, "--config", str(config), "--out", str(out),
                         "--quiet"])
            elapsed = time.perf_counter() - start
            assert code in EXIT_CODES, (command, code)
            assert elapsed < BUDGET_S, (command, elapsed)
            if code == 0:
                for written in out.iterdir():
                    text = written.read_text()
                    assert not NOT_FINITE.search(text), (command,
                                                         written.name)


@st.composite
def mutated_configs(draw):
    doc = valid_config(draw(st.sampled_from(WEIGHTS)),
                       draw(st.sampled_from(["dense", "iterative"])))
    every = list(paths(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(every))
        try:
            mutated(doc, path, draw(EXTREMES))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced a parent of this path
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=mutated_configs())
def test_mutated_config_exits_documented(doc):
    run_commands(doc, PROFILE_ROWS)


@st.composite
def mutated_rows(draw):
    rows = [list(row) for row in PROFILE_ROWS]
    fields = st.one_of(EXTREMES.map(csv_text),
                       st.sampled_from(["1.0", "-2.0", "0.5", "-0.5", "1.5",
                                        "nan", "inf", "-inf"]))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rows.append([draw(fields), draw(fields)])
        else:
            rows[draw(st.integers(0, len(rows) - 1))][
                draw(st.integers(0, 1))] = draw(fields)
    return rows


@settings(max_examples=40, deadline=None)
@given(rows=mutated_rows())
# a negative measure whose row still sums to the domain measure, and
# values that are not finite
@example(rows=[["1.0", "-0.5"], ["1.0", "1.0"], ["-2.0", "1.5"]])
@example(rows=[["nan", "0.5"], ["-2.0", "1.5"]])
@example(rows=[["1.0", "0.5"], ["-inf", "1.5"]])
def test_mutated_profile_exits_documented(rows):
    run_commands(valid_config(WEIGHTS[2]), rows)
