import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import hdcrypt
from hdcrypt.cli import main
from hdcrypt.decoder import HEAD_SOFTMAX, LinearDecoder, save_model
from hdcrypt.experiments import ExperimentReport, ExperimentSpec, ReportRow
from hdcrypt.imageio import write_pgm
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
                          train_size=600, val_size=200, test_size=300,
                          max_epochs=12, master_seed=5)
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
                          train_size=600, val_size=200, test_size=300,
                          max_epochs=12, master_seed=5)
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
    if fmt == "crossbar":
        return json.loads(key_material["xbar"].read_text())
    if fmt == "secret-keys":
        return json.loads(key_material["keys"].read_text())
    if fmt == "linear-decoder":
        path = key_material["dir"] / "model.json"
        save_model(path, LinearDecoder(np.zeros((94, 40)), np.zeros(94), HEAD_SOFTMAX),
                   epsilon=0.0)
        return json.loads(path.read_text())
    if fmt == "experiment-spec":
        return ExperimentSpec().to_json_dict()
    return ExperimentReport().to_json_dict()


FORMATS = ("crossbar", "secret-keys", "linear-decoder", "experiment-spec",
           "experiment-report")
# field dropped for the missing-field case; every spec field has a default
REQUIRED_FIELD = {"crossbar": "config", "secret-keys": "vectors",
                  "linear-decoder": "weights", "experiment-report": "rows"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", ["non-utf8", "non-json", "list"])
def test_malformed_json_document_exits_3(key_material, fmt, case, capsys):
    bad = key_material["dir"] / "bad.json"
    if case == "non-utf8":
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


def _report_with_row(tmp_path, **changes):
    row = asdict(ReportRow(task="text", cell="m50-s0.1", multiplier=50.0, sigma=0.1,
                           p_on=0.02, p_off=0.02, rows=10, cols=500, test_accuracy=1.0,
                           epochs=3, good_flag=True))
    doc = ExperimentReport().to_json_dict()
    doc["rows"] = [row | changes]
    path = tmp_path / "r.json"
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


@pytest.mark.parametrize("field, value", [("seed", "abc"), ("seed", 1.5), ("rows", True)])
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


def test_train_text_prints_init_loss_and_best_epoch(tmp_path, capsys):
    xbar, keys, model = (tmp_path / n for n in ("xbar.json", "keys.json", "model.json"))
    assert main(["gen-crossbar", "--rows", "6", "--cols", "96", "--sigma", "0.0",
                 "--seed", "11", "--out", str(xbar)]) == 0
    assert main(["gen-keys", "--key-dim", "6", "--seed", "12", "--out", str(keys)]) == 0
    capsys.readouterr()
    assert main(["train-text", "--crossbar", str(xbar), "--keys", str(keys),
                 "--train-size", "2500", "--val-size", "600", "--test-size", "800",
                 "--seed", "13", "--out", str(model)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # noiseless codes: the closed-form fit is nearly exact, so no epoch
    # improves on it by min_delta and training stops after `patience`
    assert isinstance(doc["init_val_loss"], float)
    assert 0.0 <= doc["init_val_loss"] < 1e-4
    assert doc["epochs"] == 5
    assert -1 <= doc["best_epoch"] < doc["epochs"]
