import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pydantic_core import from_json

from tpspp import cli, errors, fileio, network, synth
from tpspp.cli import main
from tpspp.errors import DegenerateGridError, ShapeError, ValidationError
from tpspp.rectify import rectify_with_network
from tpspp.tps import make_grid, output_lattice
from tpspp.warp import AttentionMatrix


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The process exit code: main's return value, or argparse's on an unparsable value."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


UNUSABLE_PATHS = ["under-a-file", "name-too-long"]


def unusable_path(tmp_path, kind):
    """A path with a regular file as a directory component, or a name too long to open."""
    if kind == "under-a-file":
        (tmp_path / "plain").write_bytes(b"")
        return str(tmp_path / "plain" / "x.pgm")
    return str(tmp_path / ("x" * 300 + ".pgm"))


@pytest.fixture()
def stripe(tmp_path):
    p = tmp_path / "in.pgm"
    assert run("synth", "--out", str(p), "--seed", "7") == 0
    return p


class TestSynth:
    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run("synth", "--out", str(p1), "--seed", "5") == 0
        assert run("synth", "--out", str(p2), "--seed", "5") == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_amplitude_is_flat(self, tmp_path):
        p = tmp_path / "a.pgm"
        assert run("synth", "--out", str(p), "--seed", "1", "--amplitude", "0",
                   "--noise", "0") == 0
        img = fileio.load_image(p)
        assert synth.straightness(img) <= 0.5

    def test_seed7_golden_checksum(self, stripe):
        import hashlib
        digest = hashlib.sha256(stripe.read_bytes()).hexdigest()
        # recorded from the first verified run
        assert digest == "57907b21bd8068191cacca849805f67026250def6185c61c91826ebeb40b3736"

    @pytest.mark.parametrize("arg", ["--seed=-1", "--noise=1e308", "--noise=nan",
                                     "--amplitude=nan"])
    def test_rejected_without_output(self, tmp_path, capsys, arg):
        out = tmp_path / "s.pgm"
        assert run("synth", "--out", str(out), arg) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind", UNUSABLE_PATHS)
    def test_unusable_out_path(self, tmp_path, capsys, kind):
        assert run("synth", "--out", unusable_path(tmp_path, kind)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("*.pgm"))

    def test_negative_zero_noise_is_no_noise(self, tmp_path):
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run("synth", "--out", str(p1), "--noise=-0.0") == 0
        assert run("synth", "--out", str(p2), "--noise=0") == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestRectify:
    def test_identity_points(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(make_grid(4, 16), None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts),
                   "--out", str(out)) == 0
        a = fileio.load_image(stripe)
        b = fileio.load_image(out)
        assert np.abs(a - b).max() <= 1.0 / 255.0 + 1e-9

    def test_zero_weights_identity(self, tmp_path, stripe):
        wpath = tmp_path / "w.tpsw"
        fileio.save_weights(network.init_weights(0), wpath)  # offset head is zero
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--weights", str(wpath),
                   "--out", str(out)) == 0
        a = fileio.load_image(stripe)
        b = fileio.load_image(out)
        assert np.abs(a - b).max() <= 1.0 / 255.0 + 1e-9

    def test_counter_sinusoid_straightens(self, tmp_path, stripe):
        grid = synth.counter_offsets(make_grid(4, 16))
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(grid, None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts),
                   "--out", str(out), "--border", "clamp") == 0
        before = synth.straightness(fileio.load_image(stripe))
        after = synth.straightness(fileio.load_image(out))
        assert after <= 0.5 * before

    def test_overlay_outputs(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(make_grid(4, 16), None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts),
                   "--out", str(out), "--overlay") == 0
        assert (tmp_path / "out_points.pgm").exists()
        assert (tmp_path / "out_grid.pgm").exists()

    def test_both_sources_rejected(self, tmp_path, stripe):
        assert run("rectify", "--image", str(stripe), "--out", str(tmp_path / "o.pgm")) == 2
        assert run("rectify", "--image", str(stripe), "--points", "x", "--weights", "y",
                   "--out", str(tmp_path / "o.pgm")) == 2

    def test_validation_exit_code(self, tmp_path, stripe):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("rectify", "--image", str(stripe), "--points", str(bad),
                   "--out", str(tmp_path / "o.pgm")) == 2

    def test_degenerate_exit_code(self, tmp_path, stripe):
        # a single-row lattice is collinear, so the solve must fail
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(make_grid(1, 4), None, pts)
        assert run("rectify", "--image", str(stripe), "--points", str(pts),
                   "--out", str(tmp_path / "o.pgm")) == 3

    def test_missing_image(self, tmp_path):
        assert run("rectify", "--image", str(tmp_path / "none.pgm"), "--points", "x",
                   "--out", str(tmp_path / "o.pgm")) == 2

    def test_out_size(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(make_grid(4, 16), None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts),
                   "--out", str(out), "--out-size", "16x64") == 0
        assert fileio.load_image(out).shape == (1, 16, 64)

    @pytest.mark.parametrize("source", ["--points", "--weights"])
    @pytest.mark.parametrize("args", [
        ["--lambda", "nan"], ["--beta", "inf"], ["--beta=-inf"],
        ["--out-size", "0x5"], ["--out-size", "5x0"],
        ["--out-size", "100000x100000"],  # over the M x K budget, never allocated
    ])
    def test_rejected_without_output(self, tmp_path, stripe, source, args):
        if source == "--points":
            path = tmp_path / "pts.json"
            fileio.export_grid_json(synth.counter_offsets(make_grid(4, 16)), None, path)
        else:
            path = tmp_path / "w.tpsw"
            fileio.save_weights(network.init_weights(0), path)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), source, str(path), "--out", str(out),
                   "--overlay", *args) == 2
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("kind", UNUSABLE_PATHS)
    @pytest.mark.parametrize("flag", ["--image", "--points", "--weights", "--out"])
    def test_unusable_path(self, tmp_path, stripe, capsys, flag, kind):
        pts, wpath = tmp_path / "pts.json", tmp_path / "w.tpsw"
        fileio.export_grid_json(make_grid(4, 16), None, pts)
        fileio.save_weights(network.init_weights(0), wpath)
        source = "--weights" if flag == "--weights" else "--points"
        paths = {"--image": str(stripe), source: str(wpath if source == "--weights" else pts),
                 "--out": str(tmp_path / "out.pgm")}
        paths[flag] = unusable_path(tmp_path, kind)
        assert run("rectify", *[a for item in paths.items() for a in item], "--overlay") == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("out*")) and not list(tmp_path.rglob("x*"))

    def test_non_finite_regressed_offsets_exit_2(self, tmp_path, stripe):
        tensors = dict(network.init_weights(0).items())
        tensors["aipe.offset2.bias"] = np.array([0.0, np.nan], np.float32)
        weights = network.WeightStore(tensors)
        with pytest.raises(ValidationError):
            rectify_with_network(fileio.load_image(stripe), weights, make_grid(4, 16),
                                 0.5, 1.0, 32, 128)
        wpath = tmp_path / "w.tpsw"
        fileio.save_weights(weights, wpath)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--weights", str(wpath), "--out", str(out),
                   "--overlay") == 2
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("name", sorted(network.WEIGHT_MANIFEST))
    def test_misshaped_weight_exit_2(self, tmp_path, stripe, name):
        tensors = dict(network.init_weights(0).items())
        tensors[name] = np.zeros(tuple(n + 1 for n in tensors[name].shape), np.float32)
        weights = network.WeightStore(tensors)
        with pytest.raises(ShapeError):
            rectify_with_network(fileio.load_image(stripe), weights, make_grid(4, 16),
                                 0.5, 1.0, 32, 128)
        wpath = tmp_path / "w.tpsw"
        fileio.save_weights(weights, wpath)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--weights", str(wpath), "--out", str(out),
                   "--overlay") == 2
        assert not list(tmp_path.glob("out*"))

    def test_too_many_control_points_exit_2(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        base = output_lattice(150, 150).tolist()  # written by hand: no grid holds 22500 points
        pts.write_text(json.dumps({"rows": 150, "cols": 150, "base": base,
                                   "offsets": np.zeros((22500, 2)).tolist(), "lambda": 0.5,
                                   "beta": 1.0, "attention": None}))
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts), "--out", str(out),
                   "--overlay") == 2
        assert not list(tmp_path.glob("out*"))

    def test_non_finite_transform_exit_3(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        signs = np.random.default_rng(0).choice([-1.0, 1.0], (64, 2))
        fileio.export_grid_json(make_grid(4, 16).with_offsets(1e308 * signs), None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts), "--out", str(out),
                   "--overlay") == 3
        assert not list(tmp_path.glob("out*"))

    def test_overlay_points_far_outside(self, tmp_path, stripe):
        # every control point lands far outside the image: the warp reads only the zero
        # border and neither overlay marks anything
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(make_grid(4, 16).with_offsets(np.full((64, 2), 1e308)), None, pts)
        out = tmp_path / "out.pgm"
        assert run("rectify", "--image", str(stripe), "--points", str(pts), "--out", str(out),
                   "--overlay") == 0
        assert not fileio.load_image(out).any()
        assert np.array_equal(fileio.load_image(tmp_path / "out_points.pgm"),
                              fileio.load_image(stripe))
        assert not fileio.load_image(tmp_path / "out_grid.pgm").any()

    def test_reproducible(self, tmp_path, stripe):
        pts = tmp_path / "pts.json"
        fileio.export_grid_json(synth.counter_offsets(make_grid(4, 16)), None, pts)
        o1, o2 = tmp_path / "o1.pgm", tmp_path / "o2.pgm"
        for o in (o1, o2):
            assert run("rectify", "--image", str(stripe), "--points", str(pts),
                       "--out", str(o)) == 0
        assert o1.read_bytes() == o2.read_bytes()


# any JSON document: scalars (NaN and infinities included), lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)
POINTS_FIELDS = ("rows", "cols", "base", "offsets", "lambda", "beta", "attention")


def _typed(value):
    """`value` with every scalar tagged by its type and every float replaced by its bytes."""
    if isinstance(value, list):
        return [_typed(v) for v in value]
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    return type(value).__name__, struct.pack("<d", value) if type(value) is float else value


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, ensure_ascii=st.booleans())
def test_points_parser_matches_json(value, ensure_ascii):
    # fileio reads points files with pydantic_core, which must give what Python's json gives
    text = json.dumps(value, ensure_ascii=ensure_ascii)
    assert _typed(from_json(text.encode())) == _typed(json.loads(text))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    fileio.save_image(np.zeros((1, 4, 6), np.float32), d / "in.pgm")
    fileio.export_grid_json(make_grid(2, 2), None, d / "valid.json")
    # attention on the 4x6 source lattice, so lambda reaches the kernel terms
    scores = np.random.default_rng(0).uniform(-0.9, 0.9, (24, 4))
    fileio.export_grid_json(make_grid(2, 2), AttentionMatrix(scores), d / "att.json")
    return d


@settings(max_examples=150, deadline=2000)
@given(field=st.sampled_from(POINTS_FIELDS), value=JSON_VALUES, overlay=st.booleans())
def test_points_fuzz_exit_codes(fuzz_dir, field, value, overlay):
    doc = json.loads((fuzz_dir / "valid.json").read_text())
    doc[field] = value
    (fuzz_dir / "pts.json").write_text(json.dumps(doc))
    code = run("rectify", "--image", str(fuzz_dir / "in.pgm"), "--points",
               str(fuzz_dir / "pts.json"), "--out", str(fuzz_dir / "o.pgm"),
               *(["--overlay"] if overlay else []))
    assert code in (0, 2, 3)
    if field in ("rows", "cols"):  # the valid file's 2x2 extents, as JSON integers, or exit 2
        assert code == (0 if type(value) is int and value == 2 else 2)


# HxW strings: well-formed small and over-budget extents, and arbitrary text; each large
# extent is over the M x K budget at K = 4 on its own, so no example allocates it
OUT_SIZES = st.none() | st.text(max_size=8) | st.builds(
    "{}x{}".format, st.integers(-2, 40) | st.sampled_from([10**8, 2**32, 10**12]),
    st.integers(-2, 40) | st.sampled_from([10**8, 2**32, 10**12]))


@settings(max_examples=150, deadline=2000)
@given(lam=st.floats(), beta=st.floats(), out_size=OUT_SIZES, overlay=st.booleans())
def test_parameter_fuzz_exit_codes(fuzz_dir, lam, beta, out_size, overlay):
    for old in fuzz_dir.glob("p*.pgm"):
        old.unlink()
    argv = ["rectify", "--image", str(fuzz_dir / "in.pgm"), "--points", str(fuzz_dir / "att.json"),
            "--out", str(fuzz_dir / "p.pgm"), f"--lambda={lam!r}", f"--beta={beta!r}"]
    code = run(*argv, *([f"--out-size={out_size}"] if out_size is not None else []),
               *(["--overlay"] if overlay else []))
    assert code in (0, 2, 3)
    assert (fuzz_dir / "p.pgm").exists() == (code == 0)


NUMBERS = st.integers() | st.floats()


@settings(max_examples=150, deadline=2000)
@given(seed=NUMBERS, amplitude=NUMBERS, noise=NUMBERS)
def test_synth_fuzz_exit_codes(fuzz_dir, seed, amplitude, noise):
    out = fuzz_dir / "s.pgm"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or cast warnings either
        code = exit_code("synth", "--out", str(out), f"--seed={seed!r}",
                         f"--amplitude={amplitude!r}", f"--noise={noise!r}")
    assert code in (0, 2, 3)
    assert out.exists() == (code == 0)


class TestInspect:
    def test_manifest(self, capsys):
        assert run("inspect") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "TPSW"
        names = {t["name"] for t in doc["tensors"]}
        assert names == set(network.WEIGHT_MANIFEST)

    def test_weights_listing(self, tmp_path, capsys):
        wpath = tmp_path / "w.tpsw"
        fileio.save_weights(network.init_weights(0), wpath)
        assert run("inspect", "--weights", str(wpath)) == 0
        out = capsys.readouterr().out
        assert "msfa.layer7.weight" in out
        assert f"total parameters: {network.init_weights(0).parameter_count()}" in out

    def test_bad_file(self, tmp_path):
        p = tmp_path / "w.tpsw"
        p.write_bytes(b"junkjunk")
        assert run("inspect", "--weights", str(p)) == 2


# every class of tpspp.errors, found by introspection so a class added later is covered, and
# OSError for a path that cannot be read or written
RAISED = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and cls.__module__ == errors.__name__] + [OSError]


@pytest.mark.parametrize("cls", RAISED, ids=lambda cls: cls.__name__)
def test_exit_code_per_error_class(monkeypatch, capsys, cls):
    def fail(args):
        raise cls("planted")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert main(["inspect"]) == (3 if issubclass(cls, DegenerateGridError) else 2)
    assert capsys.readouterr().err == "error: planted\n"  # one line, no traceback
