"""Property test: a mutated preset config runs or exits with a documented code.

Each example takes the ion-cage preset, shrunk so that every command is
quick, changes one or two of its values (any node: a leaf, a section, the
whole of a vector) or deletes them, and runs every config-driven command
in-process. Any uncaught exception, and so any traceback, fails the
example, as does any warning: the suite turns warnings into errors.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from disd.cli import main

PRESET = json.loads((Path(__file__).resolve().parent.parent / "presets" / "ion-cage.json")
                    .read_text())
BASE = copy.deepcopy(PRESET)
BASE["time"]["steps"] = 5
BASE["locality"]["n_samples"] = 2
BASE["sweep"] = {"ratio_values": [0.01, 0.02]}
BASE["initial"]["normalize"] = False
del BASE["output"]

COMMANDS = ("simulate", "locality", "sweep", "make-model")
EXIT_CODES = {0, 1, 2, 3}

VALUES = [
    None, True, False, 0, 1, -1, 3, 10**30, 0.5, -2.5, 1e308, 1e-10, 1e-310, 5e-324,
    float("inf"), float("nan"), "", "explicit", [], {}, [0, 0], [1e200, 1e200], [1e-200, 1e-200], [[1, 0], [0, 1]],
    [[1e200, 0], [1e200, 0]], {"a": 2, "c": 2, "b": 2},
]
DELETE = object()


def _paths(node, prefix=()):
    """Every path from the root to a node below it, in document order."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))


def _mutate(doc, path, value):
    """Set (or delete) the node at ``path`` if it still exists after earlier mutations."""
    parent = doc
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(parent, list) and not (type(key) is int and key < len(parent)):
        return
    if isinstance(parent, (dict, list)):
        if value is not DELETE:
            parent[key] = copy.deepcopy(value)
        elif isinstance(parent, list) or key in parent:
            del parent[key]


mutations = st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES + [DELETE])),
                     min_size=1, max_size=2)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutations)
# the derandomized draws miss these pairs; each reaches a guard of its own
@example([(("time", "t_max"), 5e-324)])
@example([(("couplings", "c1"), 1e-10)])
def test_mutated_preset_exits_with_a_documented_code(changes):
    doc = copy.deepcopy(BASE)
    for path, value in changes:
        _mutate(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", cfg, "--out", os.path.join(tmp, "out")])
            assert code in EXIT_CODES, (command, code)
