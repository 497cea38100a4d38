import json

import numpy as np

from hdcrypt.decoder import HEAD_REGRESSION, LinearDecoder, load_model, save_model
from hdcrypt.experiments import ExperimentReport, ReportRow


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
    back, meta = load_model(tmp_path / "m.json")
    assert back.weights.tobytes() == weights.tobytes()
    assert back.bias.tobytes() == model.bias.tobytes()
    assert np.copysign(1.0, meta["epsilon"]) == -1.0
