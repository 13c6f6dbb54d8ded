"""The README's library quick start, run as written, and its config."""

import json
import re
from pathlib import Path

from degenstein.cli import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    residual, arrival = capsys.readouterr().out.split()
    assert 1.58e-2 < float(residual) < 2.38e-2   # "~1.9e-2"
    assert arrival == "inf"                      # "the ball stays clean"


def test_config_is_valid():
    # every key of the documented config is in the CLI's schema
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    cfg = ExperimentConfig.from_dict(json.loads(blocks[0]))
    assert cfg.profile["kind"] == "power" and cfg.grid["n"] == [401]
