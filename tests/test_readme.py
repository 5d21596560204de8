"""The README's examples run as written, so a renamed API or a schema change cannot leave them stale."""

import json
import re
from pathlib import Path

from credal.harness import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # later blocks use names that earlier ones define (``spec``, ``Gaussian``), as a reader's session would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert namespace["cert"].penalty_upper == namespace["cert"].eta_hat + namespace["cert"].epsilon


def test_json_blocks_are_valid_configs():
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))
