"""Command-line front end.

Subcommands:
  rectify  - warp an image using explicit point/attention JSON or a
             weights file driving the forward networks
  synth    - generate a deterministic distorted-stripe test image
  selftest - run every built-in invariant suite
  inspect  - list a weights file, or emit the expected weight manifest

Exit codes: 0 success, 1 self-test failure, 2 input validation,
3 numeric degeneracy.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import fileio, network, selftest, synth
from .errors import DegenerateGridError, TpsError, ValidationError
from .rectify import annotate_points, deformation_grid_image, rectify_map, rectify_with_network
from .tps import DEFAULT_BETA, DEFAULT_LAMBDA, make_grid

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def _parse_pair(text, what):
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}, expected e.g. 4x16") from None


def _sibling(path, suffix):
    stem, ext = os.path.splitext(path)
    return f"{stem}{suffix}{ext or '.pgm'}"


def cmd_rectify(args):
    if (args.points is None) == (args.weights is None):
        raise ValidationError("exactly one of --points / --weights is required")
    image = fileio.load_image(args.image)
    src_h, src_w = image.shape[1], image.shape[2]
    out_h, out_w = (src_h, src_w) if args.out_size is None \
        else _parse_pair(args.out_size, "--out-size")

    if args.points is not None:
        grid, attention, lam, beta = fileio.import_grid_json(args.points)
    else:
        grid, lam, beta = make_grid(network.ENC_H, network.ENC_W), DEFAULT_LAMBDA, DEFAULT_BETA
        weights = fileio.load_weights(args.weights)
    lam = lam if args.lam is None else args.lam
    beta = beta if args.beta is None else args.beta
    if args.points is not None:
        out, sampling = rectify_map(image, grid, attention, lam, beta,
                                    out_h, out_w, border=args.border)
    else:
        out, sampling, grid, _ = rectify_with_network(
            image, weights, grid, lam, beta, out_h, out_w, border=args.border)

    fileio.save_image(out, args.out)
    if args.overlay:
        fileio.save_image(annotate_points(image, grid), _sibling(args.out, "_points"))
        fileio.save_image(deformation_grid_image(sampling, src_h, src_w),
                          _sibling(args.out, "_grid"))
    return EXIT_OK


def cmd_synth(args):
    # pixels are clipped to [0, 1], so a larger noise only saturates them
    if args.seed < 0 or not np.isfinite(args.amplitude) or not 0.0 <= args.noise <= 1.0:
        raise ValidationError(f"need --seed >= 0, a finite --amplitude and --noise in [0, 1], "
                              f"got {args.seed}, {args.amplitude} and {args.noise}")
    # abs: -0.0 passes the range check, but the noise draw would read it as low > high
    img = synth.make_stripe_image(args.seed, amplitude=args.amplitude, noise=abs(args.noise))
    fileio.save_image(img, args.out)
    return EXIT_OK


def cmd_selftest(args):
    return EXIT_OK if selftest.run_all() else EXIT_SELFTEST


def cmd_inspect(args):
    if args.weights is None:
        manifest = [{"name": name, "shape": list(shape)}
                    for name, shape in sorted(network.WEIGHT_MANIFEST.items())]
        print(json.dumps({"format": fileio.MAGIC.decode("ascii"), "version": fileio.VERSION,
                          "tensors": manifest}, indent=2))
        return EXIT_OK
    w = fileio.load_weights(args.weights)
    for name, arr in w.items():
        print(f"{name}  {'x'.join(map(str, arr.shape))}")
    print(f"total parameters: {w.parameter_count()}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="tpspp",
                                     description="Thin-plate spline rectification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rectify", help="rectify an image")
    p.add_argument("--image", required=True, help="input PGM/PPM image")
    p.add_argument("--points", help="grid/attention JSON driving the transform")
    p.add_argument("--weights", help="TPSW weights file driving the transform")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--overlay", action="store_true",
                   help="also write control-point and deformation-grid images")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="attention weighting strength (default 0.5)")
    p.add_argument("--beta", type=float, default=None, help="kernel bias term (default 1.0)")
    p.add_argument("--border", choices=["zeros", "clamp"], default="zeros")
    p.add_argument("--out-size", help="output extents as HxW (default: source extents)")
    p.set_defaults(fn=cmd_rectify)

    p = sub.add_parser("synth", help="generate a distorted test image")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=synth.DEFAULT_AMPLITUDE)
    p.add_argument("--noise", type=float, default=synth.DEFAULT_NOISE)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("inspect", help="list a weights file or print the weight manifest")
    p.add_argument("--weights", help="TPSW file to list; omit for the manifest")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateGridError as exc:  # checked first: it is a TpsError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (TpsError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
