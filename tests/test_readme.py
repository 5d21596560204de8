"""The README's Python examples run as written, so a renamed API cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # later blocks use names that earlier ones define (``spec``, ``Gaussian``), as a reader's session would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert namespace["cert"].penalty_upper == namespace["cert"].eta_hat + namespace["cert"].epsilon
