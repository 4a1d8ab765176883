"""Any single malformed config field ends as exit 0, 2 or 3, never a traceback.

Each subcommand has a small valid config.  One field of it, at any depth, is
replaced by an arbitrary JSON value and the command is run in-process.
Numbers stay within [-16, 16] (plus NaN and the infinities) because sample
counts, n_grid and k have no resource cap yet, so a large value would only
make a valid run slow or large.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot.cli import main

PARABOLOID = {"kind": "param", "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
              "domain": [[-1, 1], [-1, 1]]}
LEVELSET = {"kind": "levelset", "expr": {"f": "x - y**2"}, "domain": [[0, 1], [0, 1]]}

BASE = {
    "check-group": {"group": {"step": 2, "layer_dims": [2, 1], "bracket": [[3, 1, 2, 1]]},
                    "samples": 50, "seed": 1},
    "check-distance": {"group": "heisenberg1",
                       "distance": {"family": "dinf", "params": {"c": 2}}, "samples": 50},
    "beta": {"group": "abelian:2", "distance": "euclidean", "subspace": [[1, 0]],
             "samples": 1000, "n_starts": 1},
    "sweep": {"group": "abelian:2", "distance": {"family": "euclidean"},
              "signature": [1], "k": 1, "samples": 1000, "n_starts": 1},
    "blowup": {"group": "heisenberg1",
               "distance": {"family": "profile", "params": {"expr": "max(t1, 2*sqrt(t2))"}},
               "surface": PARABOLOID, "point": [0, 0], "radii": [0.4, 0.2], "n_grid": 8},
    "graph-area": {"group": "heisenberg1", "distance": "hebisch_sikora",
                   "surface": LEVELSET, "n_grid": 8},
}


def _paths(node, prefix=()):
    """Every key or index path inside a config tree."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


# names and formulas the parsers know, so that mutations also reach past them
WORDS = ["heisenberg1", "engel", "abelian:3", "dinf", "koranyi", "hebisch_sikora",
         "euclidean", "profile", "param", "levelset", "center", "horizontal_x_axis",
         "vertical_plane_x0", "0", "u", "v", "x", "t1", "t2", "sqrt(t1)", "max(t1, t2)",
         "u*v", "x - t"]
SCALARS = (st.none() | st.booleans() | st.integers(-3, 16) | st.floats(-16, 16)
           | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6)
           | st.sampled_from(WORDS))
JSON = SCALARS | st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                              | st.dictionaries(st.text(max_size=4), kids, max_size=2),
                              max_leaves=5)


@pytest.mark.parametrize("command", sorted(BASE))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_single_field_mutation_fails_closed(command, data):
    base = BASE[command]
    path = data.draw(st.sampled_from(sorted(_paths(base), key=repr)), label="path")
    cfg = _replaced(base, path, data.draw(JSON, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "c.json")
        with open(name, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", name])
    assert code in (0, 2, 3)
