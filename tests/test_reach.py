"""``scripts/reach.py`` on a toy module: which statements a run never reaches."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY = '''\
"""A module docstring is no statement."""

import os


def used(x):
    """Nor is a function's."""
    if x > 0:
        return "positive"
    else:
        return "other"


def unused():
    y = 1
    return y


class Box:
    def get(self):
        return 1

    def put(self, x):
        global LAST
        try:
            LAST = x
        except TypeError:
            pass
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_it_lists_per_function_the_statements_a_run_never_reaches(tmp_path):
    # the tracer sees compound headers that ran (put's try) and module bodies
    reach = _load("reach", os.path.join(ROOT, "scripts", "reach.py"))
    toy = tmp_path / "toy.py"
    toy.write_text(TOY)

    def run():
        module = _load("toy", toy)
        module.used(1)
        module.Box().get()
        module.Box().put(2)

    (path, (count, missed)), = reach.unreached([toy], run).items()
    assert path == toy.resolve()
    # the import, the class and 4 defs; used's if and 2 returns; unused's 2;
    # get's return; put's try, assignment and pass: no docstring, no global
    assert count == 15
    assert missed == {"used": [11], "unused": [15, 16], "Box.put": [28]}
