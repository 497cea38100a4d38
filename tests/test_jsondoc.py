import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.decoder import HEAD_REGRESSION, LinearDecoder, load_model, save_model
from hdcrypt.errors import DataFormatError, HdcryptError
from hdcrypt.experiments import ExperimentReport, ExperimentSpec, ReportRow
from hdcrypt.textcrypto import CipherText, SecretKeyTable


def test_save_writes_the_bytes_json_dump_writes(tmp_path):
    weights = np.array([[-0.0, 5e-324, 1e308], [0.1, -1.7976931348623157e308, 1 / 3]])
    model = LinearDecoder(weights, np.array([2.5e-8, -0.0]), HEAD_REGRESSION)
    save_model(tmp_path / "m.json", model, epsilon=-0.0, seed=7)
    row = ReportRow(task="text", cell="m10_s0.1", multiplier=10.0, sigma=0.1, p_on=0.02,
                    p_off=0.02, rows=10, cols=100, test_accuracy=0.99999, rmse=None,
                    wall_time_s=1e-7, good_flag=True, reason="tab\there, quote \" and é")
    report = ExperimentReport(rows=[row], spec_echo={"sigmas": [0.1, 5e-324]})
    report.save(json_path=tmp_path / "r.json")
    for path, indent in ((tmp_path / "m.json", None), (tmp_path / "r.json", 2)):
        doc = json.loads(path.read_text(encoding="utf-8"))
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=indent)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
    # the awkward floats come back exactly, the sign of zero included
    back, epsilon, _ = load_model(tmp_path / "m.json")
    assert back.weights.tobytes() == weights.tobytes()
    assert back.bias.tobytes() == model.bias.tobytes()
    assert np.copysign(1.0, epsilon) == -1.0


def _small_artifacts():
    """One small artifact of each format: a `save(path)` that writes it,
    the format's `load(path)`, and a `resave(loaded, path)` that writes
    what `load` returned."""
    xbar = Crossbar.new_random(CrossbarConfig(rows=2, cols=3, r_lrs=1e3, r_hrs=1e4,
                                              sigma_frac=0.1, p_stuck_on=0.1,
                                              p_stuck_off=0.1, seed=1))
    keys = SecretKeyTable.new_random(1, 2)
    weights = np.array([[-0.0, 5e-324, 1e308], [0.1, -1.7976931348623157e308, 1 / 3]])
    model = LinearDecoder(weights, np.zeros(2), HEAD_REGRESSION)
    spec = ExperimentSpec(multipliers=(4,), sigmas=(0.1,))
    row = ReportRow(task="text", cell="c", multiplier=4.0, sigma=0.1, p_on=0.0, p_off=0.0,
                    rows=2, cols=8, test_accuracy=1.0, good_flag=True)
    report = ExperimentReport(rows=[row], spec_echo={"kind": "grid"})
    ct = CipherText(21, np.array([[1, 2, 3], [255, 0, 0x1F]], dtype=np.uint8))
    return {
        "crossbar": (xbar.save, Crossbar.load, Crossbar.save),
        "secret-keys": (keys.save, SecretKeyTable.load, SecretKeyTable.save),
        "linear-decoder": (lambda path: save_model(path, model, epsilon=0.5, seed=3), load_model,
                           lambda loaded, path: save_model(path, *loaded)),
        "experiment-spec": (spec.save, ExperimentSpec.load, ExperimentSpec.save),
        "experiment-report": (lambda path: report.save(json_path=path), ExperimentReport.load,
                              lambda loaded, path: loaded.save(json_path=path)),
        "hlct": (ct.save, CipherText.load, CipherText.save),
    }


ARTIFACTS = _small_artifacts()
JSON_FORMATS = sorted(fmt for fmt in ARTIFACTS if fmt != "hlct")


@pytest.fixture(scope="session")
def documents(saved_document):
    """Each JSON format's small document, as its save writes it, and its loader."""
    return {fmt: (saved_document(ARTIFACTS[fmt][0])[1], ARTIFACTS[fmt][1])
            for fmt in JSON_FORMATS}


@pytest.mark.parametrize("fmt", sorted(ARTIFACTS))
def test_load_then_save_rewrites_the_file_byte_for_byte(tmp_path, fmt):
    save, load, resave = ARTIFACTS[fmt]
    save(tmp_path / "saved")
    resave(load(tmp_path / "saved"), tmp_path / "resaved")
    assert (tmp_path / "resaved").read_bytes() == (tmp_path / "saved").read_bytes()


# --- fuzzed files: every input loads or raises HdcryptError --------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 2**70).map(lambda i: 10**400 * i)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def _mutated_json(draw, doc):
    """`doc` with one field, or one field of an object nested in it (a
    crossbar's config, a report's row), replaced by any JSON value or
    dropped, encoded as JSON."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    nested = [v for v in doc.values() if isinstance(v, dict)]
    nested += [v[0] for v in doc.values() if isinstance(v, list) and v and isinstance(v[0], dict)]
    if nested and draw(st.booleans()):
        owner = draw(st.sampled_from(nested))
    key = draw(st.sampled_from(sorted(owner)) | st.text(max_size=3))
    if draw(st.integers(0, 3)) == 0:
        owner.pop(key, None)
    else:
        owner[key] = draw(_json_values)
    return json.dumps(doc).encode()


@st.composite
def _spliced_bytes(draw, doc):
    """The document's bytes with one span replaced by arbitrary bytes."""
    data = json.dumps(doc).encode()
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 8)))
    return data[:start] + draw(st.binary(max_size=8)) + data[stop:]


@pytest.mark.parametrize("fmt", JSON_FORMATS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_json_files_load_or_raise_hdcrypt_error(tmp_path_factory, documents, fmt, data):
    doc, loader = documents[fmt]
    raw = data.draw(_mutated_json(doc) | _spliced_bytes(doc) | st.binary(max_size=64))
    path = tmp_path_factory.getbasetemp() / f"fuzzed-{fmt}.json"
    path.write_bytes(raw)
    try:
        loader(path)
    except HdcryptError:
        pass


@pytest.mark.parametrize("fmt", JSON_FORMATS)
@pytest.mark.parametrize("version", [True, 1.0])
def test_version_must_be_the_json_integer_1(tmp_path, documents, fmt, version):
    # true and 1.0 compare equal to 1 in Python
    doc, loader = documents[fmt]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loader(path)
    path.write_text(json.dumps({**doc, "version": version}))
    with pytest.raises(DataFormatError, match=f"not a version-1 {fmt} document"):
        loader(path)


@pytest.mark.parametrize("fmt, place", [
    ("experiment-spec", lambda doc: doc.update(r_lrs=10**400)),
    ("experiment-spec", lambda doc: doc.update(sigmas=[0.1, -10**400])),
    ("experiment-spec", lambda doc: doc.update(multipliers=[25, 10**400])),
    ("crossbar", lambda doc: doc["config"].update(sigma_frac=10**400)),
    ("crossbar", lambda doc: doc["g_target"].__setitem__(0, 10**400)),
    ("linear-decoder", lambda doc: doc["weights"].__setitem__(0, 10**400)),
    ("linear-decoder", lambda doc: doc.update(epsilon=-10**400)),
], ids=["spec-r_lrs", "spec-sigmas", "spec-multipliers", "crossbar-sigma_frac",
        "crossbar-g_target", "model-weights", "model-epsilon"])
def test_integers_beyond_float_range_raise_hdcrypt_error(tmp_path, documents, fmt, place):
    # json reads such an integer exactly; float() of it overflows
    doc, loader = documents[fmt]
    doc = json.loads(json.dumps(doc))
    place(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(HdcryptError, match="finite"):
        loader(path)
