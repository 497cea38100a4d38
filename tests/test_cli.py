import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import hdcrypt
from hdcrypt import cli
from hdcrypt.cli import main
from hdcrypt.decoder import HEAD_SOFTMAX, LinearDecoder, load_model, save_model
from hdcrypt.experiments import ExperimentReport, ExperimentSpec, ReportRow
from hdcrypt.imageio import IDX_IMAGES_MAGIC, write_pgm
from hdcrypt.textcrypto import SecretKeyTable


@pytest.fixture()
def artifacts(tmp_path):
    """A tiny trained system built through the CLI itself."""
    xbar = tmp_path / "xbar.json"
    keys = tmp_path / "keys.json"
    model = tmp_path / "model.json"
    assert main(["gen-crossbar", "--rows", "6", "--cols", "96", "--sigma", "0.0",
                 "--seed", "11", "--out", str(xbar)]) == 0
    assert main(["gen-keys", "--key-dim", "6", "--seed", "12", "--out", str(keys)]) == 0
    assert main(["train-text", "--crossbar", str(xbar), "--keys", str(keys),
                 "--train-size", "2500", "--val-size", "600", "--test-size", "800",
                 "--seed", "13", "--out", str(model)]) == 0
    return dict(xbar=xbar, keys=keys, model=model, dir=tmp_path)


def test_round_trip_through_files(artifacts, tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("Hello, World!", encoding="ascii")
    ct = tmp_path / "msg.hlct"
    out = tmp_path / "out.txt"
    assert main(["encrypt", "--crossbar", str(artifacts["xbar"]),
                 "--keys", str(artifacts["keys"]), "--model", str(artifacts["model"]),
                 "--in", str(plain), "--out", str(ct), "--seed", "1"]) == 0
    assert main(["decrypt", "--model", str(artifacts["model"]),
                 "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == "Hello, World!"


def test_resaved_train_text_model_keeps_every_byte(artifacts, tmp_path):
    copy = tmp_path / "resaved.json"
    save_model(copy, *load_model(artifacts["model"]))
    assert copy.read_bytes() == artifacts["model"].read_bytes()
    assert json.loads(copy.read_text())["seed"] == 13


def test_round_trip_empty_file(artifacts, tmp_path):
    plain = tmp_path / "empty.txt"
    plain.write_text("", encoding="ascii")
    ct = tmp_path / "empty.hlct"
    out = tmp_path / "empty-out.txt"
    assert main(["encrypt", "--crossbar", str(artifacts["xbar"]),
                 "--keys", str(artifacts["keys"]), "--model", str(artifacts["model"]),
                 "--in", str(plain), "--out", str(ct), "--seed", "2"]) == 0
    assert ct.stat().st_size == 20    # header only
    assert main(["decrypt", "--model", str(artifacts["model"]),
                 "--in", str(ct), "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == ""


def test_eval_reports_perfect_accuracy(artifacts, capsys):
    assert main(["eval", "--crossbar", str(artifacts["xbar"]),
                 "--keys", str(artifacts["keys"]), "--model", str(artifacts["model"]),
                 "--n", "500", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["accuracy"] == 1.0


def test_truncated_ciphertext_exits_3(artifacts, tmp_path, capsys):
    plain = tmp_path / "p.txt"
    plain.write_text("abc", encoding="ascii")
    ct = tmp_path / "c.hlct"
    main(["encrypt", "--crossbar", str(artifacts["xbar"]), "--keys",
          str(artifacts["keys"]), "--model", str(artifacts["model"]),
          "--in", str(plain), "--out", str(ct), "--seed", "4"])
    ct.write_bytes(ct.read_bytes()[:-2])
    out = tmp_path / "o.txt"
    assert main(["decrypt", "--model", str(artifacts["model"]),
                 "--in", str(ct), "--out", str(out)]) == 3
    assert "data error" in capsys.readouterr().err


def test_out_of_charset_plaintext_exits_3(artifacts, tmp_path):
    plain = tmp_path / "bad.txt"
    plain.write_text("tab\там", encoding="utf-8")
    ct = tmp_path / "bad.hlct"
    code = main(["encrypt", "--crossbar", str(artifacts["xbar"]),
                 "--keys", str(artifacts["keys"]), "--model", str(artifacts["model"]),
                 "--in", str(plain), "--out", str(ct), "--seed", "5"])
    assert code == 3


def test_invalid_crossbar_config_exits_2(tmp_path, capsys):
    code = main(["gen-crossbar", "--rows", "4", "--cols", "8",
                 "--r-lrs", "1e6", "--r-hrs", "1e3",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path):
    code = main(["decrypt", "--model", str(tmp_path / "nope.json"),
                 "--in", str(tmp_path / "nope.hlct"),
                 "--out", str(tmp_path / "o.txt")])
    assert code == 3


def test_grid_cli_writes_reports(tmp_path, capsys):
    spec = ExperimentSpec(key_dim=4, multipliers=(8,), sigmas=(0.0,),
                          train_size=600, val_size=200, test_size=300, master_seed=5)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    out_dir = tmp_path / "results"
    assert main(["grid", "--config", str(spec_path), "--out", str(out_dir)]) == 0
    csv_text = (out_dir / "grid.csv").read_text()
    assert csv_text.startswith("task,cell,")
    assert len(csv_text.splitlines()) == 2
    assert (out_dir / "grid.json").exists()


def test_report_reemit_matches(tmp_path):
    spec = ExperimentSpec(key_dim=4, multipliers=(8,), sigmas=(0.0,),
                          train_size=600, val_size=200, test_size=300, master_seed=5)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    first = tmp_path / "a"
    assert main(["grid", "--config", str(spec_path), "--out", str(first)]) == 0
    second = tmp_path / "b"
    assert main(["report", "--in", str(first / "grid.json"),
                 "--stem", "grid", "--out", str(second)]) == 0
    assert (second / "grid.csv").read_bytes() == (first / "grid.csv").read_bytes()


def test_image_demo_writes_stats(tmp_path):
    out_dir = tmp_path / "demo"
    assert main(["image-demo", "--size", "48", "--multiplier", "4",
                 "--noise-sigma", "1.0", "--seed", "6", "--out", str(out_dir)]) == 0
    lines = (out_dir / "adjacency.csv").read_text().splitlines()
    assert lines[0] == "stage,direction,correlation,c00,c01,c10,c11"
    assert len(lines) == 10    # 3 stages x 3 directions
    ciphertext_rows = [l for l in lines if l.startswith("ciphertext,")]
    for row in ciphertext_rows:
        assert abs(float(row.split(",")[2])) < 0.2
    assert (out_dir / "ciphertext.pgm").exists()
    assert (out_dir / "original.pgm").exists()


@pytest.mark.parametrize("flags, named", [
    (["--noise-sigma", "nan"], "sigma"),
    (["--noise-sigma", "inf"], "sigma"),
    (["--noise-sigma", "-1"], "sigma"),
    (["--multiplier", "0"], "--multiplier"),
    (["--size", "1"], "--size"),
    (["--reconstruct", "--digits", "1"], "--digits"),
    (["--reconstruct", "--digits", "-5"], "--digits"),
])
def test_image_demo_bad_flag_exits_2(tmp_path, capsys, flags, named):
    code = main(["image-demo", "--size", "16", *flags, "--out", str(tmp_path / "demo")])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["image-demo", "--size", "16", "--noise-sigma", "nan"], "--noise-sigma"),
    (["image-demo", "--size", "16", "--noise-sigma", "-0.5"], "--noise-sigma"),
    (["gen-crossbar", "--sigma", "nan"], "--sigma"),
    (["gen-crossbar", "--sigma", "-0.1"], "--sigma"),
    (["gen-crossbar", "--p-on", "-1"], "--p-on"),
    (["gen-crossbar", "--p-off", "-1"], "--p-off"),
    (["gen-crossbar", "--p-off", "2"], "--p-off"),
    (["gen-crossbar", "--r-lrs", "0"], "--r-lrs"),
    (["gen-crossbar", "--r-hrs", "1"], "--r-hrs"),
])
def test_bad_flag_message_names_the_flag(tmp_path, capsys, argv, flag):
    if argv[0] == "gen-crossbar":
        argv = [*argv, "--rows", "4", "--cols", "8"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --" in err and flag in err
    assert not out.exists()


def test_image_demo_reconstruct_prints_rmse_only(tmp_path, capsys):
    assert main(["image-demo", "--size", "16", "--reconstruct", "--digits", "20",
                 "--multiplier", "1", "--out", str(tmp_path / "demo")]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(doc) == ["digit_reconstruction_rmse"]
    assert 0.0 < doc["digit_reconstruction_rmse"] < 0.5


def test_image_demo_small_idx_corpus_exits_3(tmp_path, capsys):
    idx = tmp_path / "digits.idx"
    idx.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 50, 28, 28) + bytes(50 * 28 * 28))
    code = main(["image-demo", "--size", "16", "--reconstruct", "--digits", "10",
                 "--idx-images", str(idx), "--out", str(tmp_path / "demo")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{idx}: corpus holds 50 images, need 410" in err


@pytest.mark.parametrize("height, width, pixels, problem", [
    (1, 8, 0.5, "8x1"),     # width x height: no vertical or diagonal pairs
    (8, 1, 0.5, "1x8"),
    (6, 6, 0.5, "zero variance"),
])
def test_image_demo_unusable_pgm_exits_3(tmp_path, capsys, height, width, pixels, problem):
    image = tmp_path / "in.pgm"
    write_pgm(image, np.full((height, width), pixels))
    code = main(["image-demo", "--image", str(image), "--out", str(tmp_path / "demo")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and problem in err
    if min(height, width) < 2:
        assert str(image) in err


def test_image_demo_negative_pgm_width_exits_3(tmp_path, capsys):
    image = tmp_path / "in.pgm"
    # six varied pixels: read as a 3x2 image, the demo would encrypt it
    image.write_bytes(b"P5\n-2 3\n255\n" + bytes(range(0, 60, 10)))
    code = main(["image-demo", "--image", str(image), "--out", str(tmp_path / "demo")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "PGM width -2 is below 1" in err


@pytest.fixture()
def key_material(tmp_path):
    """Crossbar and key files from the CLI, plus a short plaintext."""
    xbar = tmp_path / "xbar.json"
    keys = tmp_path / "keys.json"
    plain = tmp_path / "plain.txt"
    assert main(["gen-crossbar", "--rows", "4", "--cols", "40", "--seed", "21",
                 "--out", str(xbar)]) == 0
    assert main(["gen-keys", "--key-dim", "4", "--seed", "22", "--out", str(keys)]) == 0
    plain.write_text("Hello", encoding="ascii")
    return dict(xbar=xbar, keys=keys, plain=plain, dir=tmp_path)


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_non_finite_epsilon_exits_2(key_material, epsilon, capsys):
    ct = key_material["dir"] / "msg.hlct"
    code = main(["encrypt", "--crossbar", str(key_material["xbar"]),
                 "--keys", str(key_material["keys"]), f"--epsilon={epsilon}",
                 "--in", str(key_material["plain"]), "--out", str(ct)])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err
    assert not ct.exists()


def test_non_finite_epsilon_on_empty_plaintext_exits_2(key_material, capsys):
    plain = key_material["dir"] / "empty.txt"
    plain.write_text("", encoding="ascii")
    ct = key_material["dir"] / "msg.hlct"
    code = main(["encrypt", "--crossbar", str(key_material["xbar"]),
                 "--keys", str(key_material["keys"]), "--epsilon=nan",
                 "--in", str(plain), "--out", str(ct)])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err
    assert not ct.exists()


def test_grid_config_directory_exits_3(tmp_path, capsys):
    config_dir = tmp_path / "spec-dir"
    config_dir.mkdir()
    assert main(["grid", "--config", str(config_dir), "--out", str(tmp_path / "o")]) == 3
    assert str(config_dir) in capsys.readouterr().err


def _document_argv(fmt, path, key_material):
    """A subcommand whose first file read is the `fmt` document at `path`."""
    m = {k: str(v) for k, v in key_material.items()}
    return {
        "crossbar": ["encrypt", "--crossbar", path, "--keys", m["keys"],
                     "--epsilon", "0", "--in", m["plain"], "--out", m["dir"] + "/c"],
        "secret-keys": ["encrypt", "--crossbar", m["xbar"], "--keys", path,
                        "--epsilon", "0", "--in", m["plain"], "--out", m["dir"] + "/c"],
        "linear-decoder": ["decrypt", "--model", path, "--in", m["dir"] + "/c",
                           "--out", m["dir"] + "/p"],
        "experiment-spec": ["grid", "--config", path, "--out", m["dir"] + "/g"],
        "experiment-report": ["report", "--in", path, "--out", m["dir"] + "/r"],
    }[fmt]


def _valid_document(fmt, key_material):
    """The document of a valid `fmt` file, as the CLI or the format's save wrote it."""
    path = key_material["dir"] / f"{fmt}.json"
    if fmt == "crossbar":
        path = key_material["xbar"]
    elif fmt == "secret-keys":
        path = key_material["keys"]
    elif fmt == "linear-decoder":
        save_model(path, LinearDecoder(np.zeros((94, 40)), np.zeros(94), HEAD_SOFTMAX),
                   epsilon=0.0)
    elif fmt == "experiment-spec":
        ExperimentSpec().save(path)
    else:
        ExperimentReport().save(json_path=path)
    return json.loads(path.read_text())


FORMATS = ("crossbar", "secret-keys", "linear-decoder", "experiment-spec",
           "experiment-report")
# field dropped for the missing-field case; every spec field has a default
REQUIRED_FIELD = {"crossbar": "config", "secret-keys": "vectors",
                  "linear-decoder": "weights", "experiment-report": "rows"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", ["non-utf8", "non-json", "list", "deeply-nested"])
def test_malformed_json_document_exits_3(key_material, fmt, case, capsys):
    bad = key_material["dir"] / "bad.json"
    if case == "deeply-nested":
        # deeper than the parser's recursion limit
        bad.write_text("[" * 200_000 + "]" * 200_000)
        problem = f"{bad}: JSON nested too deeply"
    elif case == "non-utf8":
        bad.write_bytes(b'{"format": "\xff"}')
        problem = "not UTF-8"
    elif case == "non-json":
        bad.write_bytes(b"{'format': 1}")
        problem = "not JSON"
    else:
        bad.write_text(json.dumps([_valid_document(fmt, key_material)]))
        problem = "must be a JSON object"
    assert main(_document_argv(fmt, str(bad), key_material)) == 3
    err = capsys.readouterr().err
    assert "data error" in err and problem in err


@pytest.mark.parametrize("fmt, field", REQUIRED_FIELD.items())
def test_json_document_missing_field_exits_3(key_material, fmt, field, capsys):
    doc = _valid_document(fmt, key_material)
    del doc[field]
    bad = key_material["dir"] / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_document_argv(fmt, str(bad), key_material)) == 3
    err = capsys.readouterr().err
    assert "data error" in err and repr(field) in err


# a well-formed envelope around a malformed nested object: (format, edit, field named)
NESTED_CASES = {
    "crossbar-config-empty": ("crossbar", lambda doc: doc.update(config={}), "rows"),
    "crossbar-config-unknown": ("crossbar", lambda doc: doc["config"].update(mystery=1),
                                "mystery"),
    "crossbar-g-target-string": ("crossbar", lambda doc: doc.update(g_target="x"), "g_target"),
    "crossbar-g-target-object": ("crossbar", lambda doc: doc.update(g_target={}), "g_target"),
    "crossbar-g-target-ragged": ("crossbar",
                                 lambda doc: doc["g_target"].__setitem__(0, [1e-4, 1e-4]),
                                 "g_target"),
    "crossbar-g-target-nan": ("crossbar",
                              lambda doc: doc["g_target"].__setitem__(0, float("nan")),
                              "g_target"),
    "crossbar-g-target-short": ("crossbar", lambda doc: doc["g_target"].pop(), "g_target"),
    "crossbar-stuck-mask-number": ("crossbar", lambda doc: doc.update(stuck_mask=5),
                                   "stuck_mask"),
    "crossbar-stuck-mask-short": ("crossbar",
                                  lambda doc: doc.update(stuck_mask=doc["stuck_mask"][1:]),
                                  "stuck_mask"),
    "crossbar-stuck-mask-unknown-code": ("crossbar",
                                         lambda doc: doc.update(stuck_mask="X" * 160),
                                         "stuck_mask"),
    "report-row-unknown": ("experiment-report", lambda doc: doc.update(rows=[{"x": 1}]), "x"),
    "report-row-empty": ("experiment-report", lambda doc: doc.update(rows=[{}]), "task"),
    "report-rows-not-list": ("experiment-report", lambda doc: doc.update(rows=5), "rows"),
    "keys-ragged-vector": ("secret-keys", lambda doc: doc["vectors"].update(A=[0.5]),
                           "vectors"),
    "keys-wider-than-key-dim": ("secret-keys", lambda doc: doc.update(key_dim=3), "vectors"),
    "keys-entry-out-of-range": ("secret-keys",
                                lambda doc: doc["vectors"]["A"].__setitem__(0, 2.0), "vectors"),
    "keys-entry-nan": ("secret-keys",
                       lambda doc: doc["vectors"]["A"].__setitem__(0, float("nan")), "vectors"),
    "keys-repeated-vector": ("secret-keys",
                             lambda doc: doc["vectors"].update(B=doc["vectors"]["A"]), "vectors"),
    "keys-vectors-not-object": ("secret-keys", lambda doc: doc.update(vectors=5), "vectors"),
    "keys-unknown-character": ("secret-keys",
                               lambda doc: doc["vectors"].update({"~": [0.0] * 4}), "~"),
    "keys-key-dim-string": ("secret-keys", lambda doc: doc.update(key_dim="x"), "key_dim"),
    "keys-key-dim-fraction": ("secret-keys", lambda doc: doc.update(key_dim=4.5), "key_dim"),
    "keys-seed-string": ("secret-keys", lambda doc: doc.update(seed="x"), "seed"),
    "model-bias-short": ("linear-decoder", lambda doc: doc["bias"].pop(), "bias"),
    "model-weights-short": ("linear-decoder", lambda doc: doc["weights"].pop(), "weights"),
    "model-weights-ragged": ("linear-decoder",
                             lambda doc: doc["weights"].__setitem__(0, [0.0, 1.0]), "weights"),
    "model-weights-inf": ("linear-decoder",
                          lambda doc: doc["weights"].__setitem__(0, float("inf")), "weights"),
    "model-in-dim-string": ("linear-decoder", lambda doc: doc.update(in_dim="x"), "in_dim"),
    "model-out-dim-true": ("linear-decoder", lambda doc: doc.update(out_dim=True), "out_dim"),
    "model-in-dim-zero": ("linear-decoder", lambda doc: doc.update(in_dim=0), "in_dim"),
    "model-epsilon-string": ("linear-decoder", lambda doc: doc.update(epsilon="x"), "epsilon"),
    "spec-train-size-string": ("experiment-spec", lambda doc: doc.update(train_size="10"),
                               "train_size"),
    "spec-multipliers-not-list": ("experiment-spec", lambda doc: doc.update(multipliers=5),
                                  "multipliers"),
}


@pytest.mark.parametrize("case", NESTED_CASES)
def test_malformed_nested_field_exits_3(key_material, case, capsys):
    fmt, edit, field = NESTED_CASES[case]
    doc = _valid_document(fmt, key_material)
    edit(doc)
    bad = key_material["dir"] / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_document_argv(fmt, str(bad), key_material)) == 3
    err = capsys.readouterr().err
    assert "data error" in err and repr(field) in err


def _run_grid_spec(tmp_path, **fields):
    """`hdcrypt grid` on the default spec with `fields` replaced."""
    spec = tmp_path / "spec.json"
    ExperimentSpec().save(spec)
    spec.write_text(json.dumps({**json.loads(spec.read_text()), **fields}))
    return main(["grid", "--config", str(spec), "--out", str(tmp_path / "g")])


@pytest.mark.parametrize("field, entries", [
    ("multipliers", [2.5]), ("multipliers", [4, 2.0]), ("multipliers", [True]),
    ("sigmas", [True]), ("sigmas", ["a"]),
], ids=["multipliers-fraction", "multipliers-float", "multipliers-true",
        "sigmas-true", "sigmas-string"])
def test_grid_spec_wrong_typed_list_entry_exits_3(tmp_path, capsys, field, entries):
    # as the same value in a scalar field does; JSON true is no number,
    # though Python counts it as 1
    assert _run_grid_spec(tmp_path, **{field: entries}) == 3
    entry = len(entries) - 1
    assert (f"data error: experiment-spec document field {field!r} entry {entry} must be"
            in capsys.readouterr().err)
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("field", ["multipliers", "sigmas"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_grid_spec_non_finite_list_entry_exits_2(tmp_path, capsys, field, value):
    assert _run_grid_spec(tmp_path, **{field: [4, value]}) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("version", [True, 1.0])
def test_grid_spec_of_a_non_integer_version_exits_3(tmp_path, capsys, version):
    assert _run_grid_spec(tmp_path, version=version) == 3
    assert "not a version-1 experiment-spec document" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 PiB for an array", ""])
def test_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_table1", exhausted)
    assert main(["table1", "--out", str(tmp_path / "t")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: out of memory: {message}\n" if message
                            else "configuration error: out of memory\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train-text", "table1"])
def test_size_flags_set_every_size(command):
    files = ["--crossbar", "x.json", "--keys", "k.json"] if command == "train-text" else []
    argv = [command, *files, "--out", "o"]
    sizes = ["--train-size", "100000", "--val-size", "100000", "--test-size", "10000"]
    assert cli._sizes(cli.build_parser().parse_args(argv + sizes)) == (100_000, 100_000, 10_000)
    assert cli._sizes(cli.build_parser().parse_args(argv)) == (20_000, 5_000, 10_000)


def test_model_with_unknown_head_exits_2(key_material, capsys):
    doc = _valid_document("linear-decoder", key_material)
    doc["head"] = "mystery"
    bad = key_material["dir"] / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(_document_argv("linear-decoder", str(bad), key_material)) == 2
    assert "configuration error: head:" in capsys.readouterr().err


def _zero_model(path, in_dim):
    save_model(path, LinearDecoder(np.zeros((94, in_dim)), np.zeros(94), HEAD_SOFTMAX),
               epsilon=0.0)
    return str(path)


def _wide_keys(path):
    SecretKeyTable.new_random(10, 1).save(path)
    return str(path)


def _ciphertext(km):
    """A 40-bit ciphertext of the key material's plaintext."""
    path = km["dir"] / "msg.hlct"
    assert main(["encrypt", "--crossbar", str(km["xbar"]), "--keys", str(km["keys"]),
                 "--epsilon", "0", "--in", str(km["plain"]), "--out", str(path)]) == 0
    return str(path)


# subcommands whose flags or files disagree on a dimension, with what the
# message must name; the key material is a 4x40 crossbar and 4-dimensional keys
DIMENSION_CASES = {
    "zero-key-dim": (lambda km: ["gen-keys", "--key-dim", "0", "--out", str(km["dir"] / "k")],
                     ("key_dim",)),
    "zero-train-size": (lambda km: ["train-text", "--crossbar", str(km["xbar"]),
                                    "--keys", str(km["keys"]), "--train-size", "0",
                                    "--out", str(km["dir"] / "m")],
                        ("--train-size",)),
    "zero-val-size": (lambda km: ["train-text", "--crossbar", str(km["xbar"]),
                                  "--keys", str(km["keys"]), "--val-size", "0",
                                  "--out", str(km["dir"] / "m")],
                      ("--val-size",)),
    "zero-test-size": (lambda km: ["train-text", "--crossbar", str(km["xbar"]),
                                   "--keys", str(km["keys"]), "--test-size", "0",
                                   "--out", str(km["dir"] / "m")],
                       ("--test-size",)),
    "zero-eval-size": (lambda km: ["eval", "--crossbar", str(km["xbar"]),
                                   "--keys", str(km["keys"]), "--n", "0",
                                   "--model", _zero_model(km["dir"] / "m.json", 40)],
                       ("--n",)),
    "keys-wider-than-crossbar": (lambda km: ["encrypt", "--crossbar", str(km["xbar"]),
                                             "--keys", _wide_keys(km["dir"] / "k.json"),
                                             "--epsilon", "0", "--in", str(km["plain"]),
                                             "--out", str(km["dir"] / "c")],
                                 ("key_dim 10", "crossbar rows 4")),
    "keys-wider-than-crossbar-train": (lambda km: ["train-text", "--crossbar", str(km["xbar"]),
                                                   "--keys", _wide_keys(km["dir"] / "k.json"),
                                                   "--out", str(km["dir"] / "k")],
                                       ("key_dim 10", "crossbar rows 4")),
    "ciphertext-wider-than-model": (lambda km: ["decrypt", "--in", _ciphertext(km),
                                                "--model", _zero_model(km["dir"] / "m.json", 30),
                                                "--out", str(km["dir"] / "p")],
                                    ("ciphertext dim 40", "30")),
    "crossbar-wider-than-model": (lambda km: ["eval", "--crossbar", str(km["xbar"]),
                                              "--keys", str(km["keys"]), "--n", "50",
                                              "--model", _zero_model(km["dir"] / "m.json", 30)],
                                  ("--crossbar", "40", "--model", "30")),
    "crossbar-wider-than-model-encrypt": (
        lambda km: ["encrypt", "--crossbar", str(km["xbar"]), "--keys", str(km["keys"]),
                    "--model", _zero_model(km["dir"] / "m.json", 30), "--in", str(km["plain"]),
                    "--out", str(km["dir"] / "k")],
        ("--crossbar", "40", "--model", "30")),
}


@pytest.mark.parametrize("case", DIMENSION_CASES)
def test_dimension_mismatch_exits_2(key_material, case, capsys):
    build_argv, names = DIMENSION_CASES[case]
    argv = build_argv(key_material)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(name in err for name in names)
    assert not (key_material["dir"] / "k").exists()


@pytest.mark.parametrize("command", ["encrypt", "eval"])
def test_model_without_threshold_exits_3_with_one_message(key_material, command, capsys):
    model = key_material["dir"] / "m.json"
    save_model(model, LinearDecoder(np.zeros((94, 40)), np.zeros(94), HEAD_SOFTMAX))
    argv = [command, "--crossbar", str(key_material["xbar"]), "--keys",
            str(key_material["keys"]), "--model", str(model)]
    if command == "encrypt":
        argv += ["--in", str(key_material["plain"]), "--out", str(key_material["dir"] / "k")]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"data error: model file {model} carries no threshold; "
                                       "pass --epsilon\n")
    assert not (key_material["dir"] / "k").exists()


def _report_with_row(tmp_path, **changes):
    row = asdict(ReportRow(task="text", cell="m50-s0.1", multiplier=50.0, sigma=0.1,
                           p_on=0.02, p_off=0.02, rows=10, cols=500, test_accuracy=1.0,
                           epochs=3, good_flag=True))
    path = tmp_path / "r.json"
    ExperimentReport().save(json_path=path)
    doc = json.loads(path.read_text())
    doc["rows"] = [row | changes]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("field, value", [
    ("test_accuracy", "high"), ("rows", "ten"), ("epochs", 2.5), ("rows", True),
    ("multiplier", None), ("good_flag", 1), ("cell", 7), ("wall_time_s", False),
])
def test_wrong_typed_report_row_exits_3(tmp_path, field, value, capsys):
    path = _report_with_row(tmp_path, **{field: value})
    out = tmp_path / "o"
    assert main(["report", "--in", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "row 0" in err and repr(field) in err
    assert not (out / "report.csv").exists()


def test_report_row_accepts_integral_numbers_and_nulls(tmp_path):
    path = _report_with_row(tmp_path, multiplier=50, sigma=0, test_accuracy=None,
                            good_flag=None, rmse=0.25)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "report.csv").read_text().splitlines()[1].startswith(
        "text,m50-s0.1,")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_crossbar_flag_exits_2(tmp_path, value, capsys):
    out = tmp_path / "x.json"
    code = main(["gen-crossbar", "--rows", "4", "--cols", "8", f"--sigma={value}",
                 "--out", str(out)])
    assert code == 2
    assert "sigma_frac" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("seed", "abc"), ("seed", 1.5), ("rows", True),
                                          ("sigma_frac", True)])
def test_wrong_typed_crossbar_config_exits_2(key_material, field, value, capsys):
    doc = json.loads(key_material["xbar"].read_text())
    doc["config"][field] = value
    bad = key_material["dir"] / "bad.json"
    bad.write_text(json.dumps(doc))
    out = key_material["dir"] / "c"
    assert main(_document_argv("crossbar", str(bad), key_material)) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_ciphertext_padding_bits_exit_3(artifacts, tmp_path, capsys):
    ct = tmp_path / "c.hlct"
    # one 96-bit block whose last byte sets bit 95 of a 95-bit ciphertext
    ct.write_bytes(b"HLCT" + (1).to_bytes(8, "little") + (95).to_bytes(8, "little")
                   + b"\x00" * 11 + b"\x80")
    assert main(["decrypt", "--model", str(artifacts["model"]),
                 "--in", str(ct), "--out", str(tmp_path / "o.txt")]) == 3
    err = capsys.readouterr().err
    assert "padding bits" in err and "byte offset 31" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(hdcrypt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "hdcrypt", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == hdcrypt.__version__


def test_train_text_prints_model_threshold_and_accuracy_only(artifacts, tmp_path, capsys):
    capsys.readouterr()
    model = tmp_path / "again.json"
    assert main(["train-text", "--crossbar", str(artifacts["xbar"]),
                 "--keys", str(artifacts["keys"]), "--train-size", "2500",
                 "--val-size", "600", "--test-size", "800", "--seed", "13",
                 "--out", str(model)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(doc) == ["epsilon", "model", "test_accuracy"]
    assert doc["model"] == str(model) and doc["test_accuracy"] == 1.0
    # the closed-form fit is deterministic: the same flags write the same file
    assert model.read_bytes() == artifacts["model"].read_bytes()
    assert json.loads(model.read_text())["train_config"] is None


@pytest.mark.parametrize("field", ["learning_rate", "batch_size", "max_epochs",
                                   "patience", "min_delta"])
def test_grid_config_naming_a_removed_sgd_field_exits_3(tmp_path, field, capsys,
                                                        saved_document):
    path, doc = saved_document(ExperimentSpec().save)
    doc[field] = {"learning_rate": 0.05, "batch_size": 64, "max_epochs": 120,
                  "patience": 5, "min_delta": 1e-4}[field]
    path.write_text(json.dumps(doc))
    assert main(["grid", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert f"unknown field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["table1", "grid"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, capsys, command, jobs):
    assert main([command, "--jobs", jobs, "--out", str(tmp_path / "o")]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
