"""Command-line harness.

Subcommands: gen-crossbar, gen-keys, train-text, encrypt, decrypt, eval,
grid, table1, image-demo, report. Exit codes: 0 success, 2 configuration
error (a size or dimension too large for memory included), 3 data or
file-format error.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .crossbar import Crossbar, CrossbarConfig
from .datasets import load_digits, synthetic_natural_image
from .decoder import load_model, save_model
from .errors import (ConfigError, DataFormatError, DegenerateStatisticError,
                     DimensionError, require_finite, require_int)
from .experiments import (DESK_SIZES, ExperimentReport, ExperimentSpec,
                          run_grid, run_image_cell, run_table1,
                          train_text_system)
from .imagecrypto import (GrayImage, adjacency_stats, bits_to_plane,
                          pixel_histogram)
from .imageio import read_pgm, write_pgm
from .rng import derive_seed, spawn_rng
from .textcrypto import CipherText, SecretKeyTable, decrypt_text, encrypt_text


# the gen-crossbar flag that sets each CrossbarConfig field
_CROSSBAR_FLAGS = {"rows": "--rows", "cols": "--cols", "r_lrs": "--r-lrs",
                   "r_hrs": "--r-hrs", "sigma_frac": "--sigma", "p_stuck_on": "--p-on",
                   "p_stuck_off": "--p-off", "seed": "--seed"}


def _cmd_gen_crossbar(args):
    try:
        cfg = CrossbarConfig(rows=args.rows, cols=args.cols, r_lrs=args.r_lrs,
                             r_hrs=args.r_hrs, sigma_frac=args.sigma,
                             p_stuck_on=args.p_on, p_stuck_off=args.p_off,
                             seed=args.seed)
    except ConfigError as exc:
        # name the flags; the field is what a crossbar file calls the value
        message = str(exc).removeprefix(f"{exc.field}: ")
        for field, flag in _CROSSBAR_FLAGS.items():
            message = re.sub(rf"\b{field}\b", flag, message)
        raise ConfigError(_CROSSBAR_FLAGS[exc.field],
                          f"{message} (crossbar field {exc.field})") from None
    Crossbar.new_random(cfg).save(args.out)
    print(f"wrote crossbar {cfg.rows}x{cfg.cols} to {args.out}")


def _cmd_gen_keys(args):
    SecretKeyTable.new_random(args.key_dim, args.seed).save(args.out)
    print(f"wrote {args.key_dim}-dimensional key table to {args.out}")


_SIZE_FLAGS = ("--train-size", "--val-size", "--test-size")


def _add_size_flags(parser):
    """Train / val / test character counts, desk-scale by default; the
    paper's are --train-size 100000 --val-size 100000 --test-size 10000."""
    for flag, default in zip(_SIZE_FLAGS, DESK_SIZES):
        parser.add_argument(flag, type=int, default=default)


def _sizes(args):
    sizes = (args.train_size, args.val_size, args.test_size)
    for flag, n in zip(_SIZE_FLAGS, sizes):
        require_int(flag, n, low=1)
    return sizes


def _cmd_train_text(args):
    xbar = Crossbar.load(args.crossbar)
    keys = SecretKeyTable.load(args.keys)
    model, epsilon, accuracy = train_text_system(xbar, keys, _sizes(args), args.seed)
    save_model(args.out, model, epsilon=epsilon, seed=args.seed)
    print(json.dumps({"model": args.out, "epsilon": epsilon,
                      "test_accuracy": round(accuracy, 4)}))


def _load_model_for(xbar, path):
    """load_model(path), checked to decode the ciphertext width of `xbar`."""
    model, meta = load_model(path)
    if xbar.cols != model.in_dim:
        raise DimensionError(f"--crossbar has {xbar.cols} columns, "
                             f"--model expects {model.in_dim} inputs")
    return model, meta


def _threshold(args, meta):
    """--epsilon, else the threshold in `meta`, the --model metadata or None."""
    if args.epsilon is not None:
        return args.epsilon
    if meta is None:
        raise ConfigError("epsilon", "need --epsilon or --model to fix the threshold")
    if meta["epsilon"] is None:
        raise DataFormatError(f"model file {args.model} carries no threshold; pass --epsilon")
    return meta["epsilon"]


def _cmd_encrypt(args):
    xbar = Crossbar.load(args.crossbar)
    keys = SecretKeyTable.load(args.keys)
    meta = None if args.model is None else _load_model_for(xbar, args.model)[1]
    epsilon = _threshold(args, meta)
    # latin-1 maps bytes one to one; out-of-charset bytes are rejected
    # by the encoder with the offending index
    with open(args.infile, "r", encoding="latin-1") as fh:
        text = fh.read()
    ct = encrypt_text(text, keys, xbar, epsilon, spawn_rng(args.seed, "encrypt"))
    ct.save(args.out)
    print(f"encrypted {len(ct)} characters to {args.out}")


def _cmd_decrypt(args):
    model, _ = load_model(args.model)
    ct = CipherText.load(args.infile)
    text = decrypt_text(ct, model)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"decrypted {len(ct)} characters to {args.out}")


def _cmd_eval(args):
    from .textcrypto import build_dataset, evaluate_accuracy
    require_int("--n", args.n, low=1)
    xbar = Crossbar.load(args.crossbar)
    keys = SecretKeyTable.load(args.keys)
    model, meta = _load_model_for(xbar, args.model)
    test = build_dataset(args.n, keys, xbar, _threshold(args, meta),
                         spawn_rng(args.seed, "eval-data"))
    print(json.dumps({"n": args.n, "accuracy": round(evaluate_accuracy(model, test), 4)}))


def _write_report(report, out_dir, stem):
    import os
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.json")
    report.save(csv_path=csv_path, json_path=json_path)
    print(f"wrote {csv_path} and {json_path}")
    return csv_path


def _cmd_table1(args):
    require_int("--jobs", args.jobs, low=1)
    report = run_table1(sizes=_sizes(args), master_seed=args.seed, jobs=args.jobs)
    _write_report(report, args.out, "table1")
    for row in report.rows:
        print(f"  {row.rows}x{row.cols} sigma={row.sigma}: "
              f"accuracy={row.test_accuracy} [{row.status}]")


def _cmd_grid(args):
    require_int("--jobs", args.jobs, low=1)
    spec = ExperimentSpec.load(args.config) if args.config else ExperimentSpec()
    if args.seed is not None:
        from dataclasses import replace
        spec = replace(spec, master_seed=args.seed)
    report = run_grid(spec, jobs=args.jobs)
    _write_report(report, args.out, "grid")
    good = sum(1 for r in report.rows if r.good_flag)
    print(f"{good}/{len(report.rows)} cells reach the 99.9% accuracy bar")


def _cmd_image_demo(args):
    require_finite("--noise-sigma", args.noise_sigma, low=0)
    require_int("--multiplier", args.multiplier, low=1)
    if not args.image:
        require_int("--size", args.size, low=2)
    if args.reconstruct:
        require_int("--digits", args.digits, low=2)
    import os
    os.makedirs(args.out, exist_ok=True)
    if args.image:
        pixels = read_pgm(args.image)
        if min(pixels.shape) < 2:
            raise DataFormatError(f"{args.image}: image is {pixels.shape[1]}x{pixels.shape[0]}"
                                  " pixels, need at least 2x2 for adjacent pixel pairs")
        img = GrayImage.from_array(pixels)
    else:
        img = synthetic_natural_image(args.size, args.seed)
        write_pgm(os.path.join(args.out, "original.pgm"), img.pixels)
    from .encoder import calibrate_epsilon, project_streamed, threshold_binarize
    rng = spawn_rng(args.seed, "image-demo")
    pre = project_streamed(img.flatten(), img.width * img.height * args.multiplier,
                           args.noise_sigma, derive_seed(args.seed, "encoder"), rng)
    bits = threshold_binarize(pre, calibrate_epsilon(pre))

    stages = [
        ("original", img.pixels),
        ("expanded", bits_to_plane(pre, img.height, img.width, args.multiplier)),
        ("ciphertext", bits_to_plane(bits, img.height, img.width, args.multiplier)),
    ]
    lines = ["stage,direction,correlation,c00,c01,c10,c11"]
    for name, plane in stages:
        for direction in ("horizontal", "vertical", "diagonal"):
            st = adjacency_stats(plane, direction)
            counts = st.pair_counts or {}
            lines.append(
                f"{name},{direction},{st.correlation:.6f},"
                + ",".join(str(counts.get(k, "")) for k in ((0, 0), (0, 1), (1, 0), (1, 1))))
        hist = pixel_histogram(plane)
        np.savetxt(os.path.join(args.out, f"hist_{name}.csv"),
                   hist[None], fmt="%d", delimiter=",")
    stats_path = os.path.join(args.out, "adjacency.csv")
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write_pgm(os.path.join(args.out, "ciphertext.pgm"), stages[-1][1].astype(float))
    print(f"wrote stage statistics to {stats_path}")

    if args.reconstruct:
        images = load_digits(args.digits + 400, args.seed, idx_images_path=args.idx_images)
        result, _, _ = run_image_cell(images[:args.digits], images[args.digits:],
                                      args.noise_sigma, None, args.seed,
                                      multiplier=args.multiplier)
        print(json.dumps({"digit_reconstruction_rmse": round(result.rmse, 5)}))


def _cmd_report(args):
    report = ExperimentReport.load_json(args.infile)
    _write_report(report, args.out, args.stem)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdcrypt",
        description="Stochastic crossbar encryption: simulate, train, sweep.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-crossbar", help="sample a random crossbar to JSON")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--r-lrs", type=float, default=1e3)
    p.add_argument("--r-hrs", type=float, default=1e4)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--p-on", type=float, default=0.0)
    p.add_argument("--p-off", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_crossbar)

    p = sub.add_parser("gen-keys", help="sample a secret key table to JSON")
    p.add_argument("--key-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_keys)

    p = sub.add_parser("train-text", help="fit a character decoder")
    p.add_argument("--crossbar", required=True)
    p.add_argument("--keys", required=True)
    _add_size_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_text)

    p = sub.add_parser("encrypt", help="plaintext file -> ciphertext file")
    p.add_argument("--crossbar", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--model", help="model file carrying the threshold")
    p.add_argument("--epsilon", type=float, help="explicit threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="ciphertext file -> plaintext file")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("eval", help="measure decryption accuracy")
    p.add_argument("--crossbar", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table1", help="run the sample hyperparameter rows")
    _add_size_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("grid", help="multiplier x noise sweep")
    p.add_argument("--config", help="experiment spec JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("image-demo", help="encrypt an image and emit pixel statistics")
    p.add_argument("--image", help="input PGM; synthesized when omitted")
    p.add_argument("--size", type=int, default=150)
    p.add_argument("--multiplier", type=int, default=4)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--reconstruct", action="store_true",
                   help="also fit a digit-reconstruction decoder")
    p.add_argument("--digits", type=int, default=600)
    p.add_argument("--idx-images", help="IDX image file for the digit corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_image_demo)

    p = sub.add_parser("report", help="re-emit CSV/JSON from a report JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stem", default="report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, DegenerateStatisticError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the sizes and dimensions that flags and files ask for are the cause
        detail = " ".join(str(exc).split())
        print(f"configuration error: out of memory{': ' + detail if detail else ''}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
