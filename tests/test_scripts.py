"""The README's command sequence, as `scripts/synthetic_end_to_end.py` runs it:
synth, featurize, train, evaluate and plot through the public CLI."""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_end_to_end.py"


def test_synthetic_end_to_end_replays_train(tmp_path, monkeypatch):
    script = runpy.run_path(str(SCRIPT))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--workdir", str(tmp_path),
                                      "--n-trials", "30", "--epochs", "1"])
    assert script["main"]() == 0
    for task in ("uw", "nasal"):
        assert (tmp_path / "replay" / task / "predictions.csv").read_bytes() == \
               (tmp_path / "models" / task / "predictions.csv").read_bytes()
    assert (tmp_path / "features" / "features.tensors").is_file()
    assert (tmp_path / "plots" / "metrics.svg").is_file()
