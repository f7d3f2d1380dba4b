"""The package's public surface: the names the README documents, its example, and a fuzz of
the library entries, each of which must return finite output or raise a TpsError."""

import argparse
import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tpspp
from tpspp import cli, errors, network, synth
from tpspp.errors import TpsError
from tpspp.rectify import rectify_map, rectify_with_network
from tpspp.tps import ControlPointGrid, make_grid, output_lattice, solve_transform
from tpspp.warp import AttentionMatrix, SamplingGrid, map_point

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_all_is_the_documented_list():
    section = README.split("## Library entry points")[1].split("\n## ")[0]
    documented = re.findall(r"^\| `(\w+)`", section, flags=re.M)
    assert sorted(tpspp.__all__) == sorted(documented)
    assert all(hasattr(tpspp, name) for name in tpspp.__all__)


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["p"].shape == (2,) and np.all(np.isfinite(scope["p"]))


def test_readme_cli_flags_are_parser_options():
    # a flag the parser no longer has must not linger in the docs
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    assert "--points" in named and named <= options, named - options


# every kind of entry a caller might pass where real numbers are expected
ENTRIES = (st.floats() | st.integers() | st.booleans() | st.none() | st.complex_numbers()
           | st.text(max_size=2) | st.binary(max_size=2))
SCALARS = ENTRIES | st.just(10**400)  # an integer past float64's range
DTYPES = st.sampled_from([np.float64, np.float32, np.float16, np.longdouble, np.int64, np.uint8,
                          np.bool_, np.complex128, "U2", "S2"])


def values(shape):
    """Arrays of `shape` or a neighbouring one, of every dtype (NaN and inf included), mixed
    object arrays, nested lists, ragged lists and scalars."""
    shapes = st.sampled_from([shape, shape[:-1], (1,) + shape, shape[:-1] + (shape[-1] + 1,)])
    typed = st.tuples(DTYPES, shapes).flatmap(lambda ds: hnp.arrays(*ds))
    mixed = shapes.flatmap(lambda s: st.lists(ENTRIES, min_size=int(np.prod(s)),
                                              max_size=int(np.prod(s))).map(
        lambda v, s=s: np.array(v + [None], dtype=object)[:-1].reshape(s)))
    ragged = st.lists(st.lists(st.floats(), max_size=3), min_size=1, max_size=4)
    return typed | typed.map(np.ndarray.tolist) | mixed | ragged | SCALARS


GRID = make_grid(2, 2).with_offsets(np.full((4, 2), 0.05))
TRANSFORM = solve_transform(GRID)


def _call(entry, draw):
    if entry == "with_offsets":
        return make_grid(2, 2).with_offsets(draw(values((4, 2)))).offsets
    if entry == "ControlPointGrid":
        extents = st.integers(-1, 5) | st.sampled_from([2.0, 4.5, "2", None, np.int32(2), 10**5])
        rows, cols = draw(extents), draw(extents)
        ints = all(isinstance(n, (int, np.integer)) for n in (rows, cols))
        k = int(rows * cols) if ints and 0 < rows * cols <= 25 else 4  # never K = 10^10
        return solve_transform(ControlPointGrid(rows, cols, draw(values((k, 2))))).t_matrix
    if entry == "AttentionMatrix":
        return AttentionMatrix(draw(values((3, 4)))).scores
    if entry == "SamplingGrid":
        extents = st.sampled_from([2, 4.5, "2", None, np.int32(2)])
        return SamplingGrid(draw(extents), 2, draw(values((4, 2)))).coords
    if entry == "output_lattice":
        extents = st.integers(-1, 5) | st.sampled_from([2.5, "2", None, True, np.int32(2)])
        return output_lattice(draw(extents), draw(extents))
    if entry == "solve_transform":
        return solve_transform(GRID, draw(SCALARS), draw(SCALARS)).t_matrix
    if entry == "map_point":
        return map_point(draw(values((2,))), TRANSFORM, draw(values((4,))))
    scores = draw(st.none() | values((24, 4)))
    attention = None if scores is None else AttentionMatrix(scores)
    warped, sampling = rectify_map(draw(values((1, 3, 5))), GRID, attention, draw(SCALARS),
                                   draw(SCALARS), 4, 6)
    return warped, sampling.coords


def _finite_or_typed(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, cast or complex warning either
        try:
            out = call()
        except TpsError:
            return
    for arr in out if isinstance(out, tuple) else (out,):
        assert np.all(np.isfinite(arr))


@settings(max_examples=400, deadline=None)
@given(entry=st.sampled_from(["ControlPointGrid", "with_offsets", "AttentionMatrix",
                              "SamplingGrid", "output_lattice", "solve_transform", "map_point",
                              "rectify_map"]),
       data=st.data())
def test_library_entries_finite_or_typed(entry, data):
    _finite_or_typed(lambda: _call(entry, data.draw))


WEIGHTS = network.init_weights(0)
STRIPE = synth.make_stripe_image(3)


@settings(max_examples=30, deadline=None)
@given(image=st.just(STRIPE) | values((1, 32, 128)), lam=SCALARS, beta=SCALARS,
       grid=st.sampled_from([(4, 16), (2, 32), (3, 16)]))
def test_network_entry_finite_or_typed(image, lam, beta, grid):
    def call():
        warped, sampling, regressed, attention = rectify_with_network(
            image, WEIGHTS, make_grid(*grid), lam, beta, 16, 64)
        return warped, sampling.coords, regressed.offsets, attention.scores

    _finite_or_typed(call)


@pytest.mark.parametrize("grid, attention", [(None, None), (GRID, np.zeros((16, 4)))],
                         ids=["grid-None", "bare-ndarray-attention"])
def test_programming_errors_stay_python_exceptions(grid, attention):
    # an argument of the wrong package type is a programming error: the library does not check it
    with pytest.raises(AttributeError):
        rectify_map(np.ones((1, 4, 4)), grid, attention, 0.5, 1.0, 4, 4)


@pytest.mark.parametrize("build, dtype", [
    (lambda a: make_grid(2, 2).with_offsets(a).offsets, np.float64),
    (lambda a: AttentionMatrix(a).scores, np.float64),
    (lambda a: SamplingGrid(2, 2, a).coords, np.float64),
    (lambda a: network.WeightStore({"w": a})["w"], np.float32)],
    ids=["with_offsets", "AttentionMatrix", "SamplingGrid", "WeightStore"])
def test_callers_array_stays_writeable(build, dtype):
    # an array that needs no conversion is copied before it is frozen, unless it is read-only
    mine = np.zeros((4, 2), dtype)
    kept = build(mine)
    mine[0, 0] = 0.5
    assert kept[0, 0] == 0.0 and not kept.flags.writeable
    frozen = np.zeros((4, 2), dtype)
    frozen.flags.writeable = False
    assert build(frozen) is frozen


ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and cls.__module__ == errors.__name__]
SOURCES = sorted(Path(tpspp.__file__).parent.glob("*.py"))


def _names(node):
    """The class names `node` (a raised expression or an except clause's type) refers to."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    node = node.func if isinstance(node, ast.Call) else node
    return {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)}


def test_every_error_class_is_raised():
    # a class of tpspp.errors that src/ neither raises nor subclasses into a raised one is dead
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _names(node.exc)
    live = [cls for cls in ERROR_CLASSES if cls.__name__ in raised]
    assert {"ShapeError", "ValidationError"} <= raised
    assert [cls.__name__ for cls in ERROR_CLASSES
            if not any(issubclass(sub, cls) for sub in live)] == []


def test_no_error_class_is_translated_into_another():
    # an except that catches one tpspp.errors class and raises another makes two classes for
    # one outcome: the code that detects the fault raises the class of its outcome instead
    ours = {cls.__name__ for cls in ERROR_CLASSES}
    translations = []
    for path in SOURCES:
        for handler in ast.walk(ast.parse(path.read_text())):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            caught = _names(handler.type) & ours
            translations += [f"{path.name}:{node.lineno} catches {sorted(caught)}"
                             for stmt in handler.body for node in ast.walk(stmt)
                             if caught and isinstance(node, ast.Raise) and node.exc is not None
                             and _names(node.exc) & (ours - caught)]
    assert translations == []
