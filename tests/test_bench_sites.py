"""Every import site the layered benchmark wraps must exist in the program.

``perfbench/run.py --trace 1`` wraps each ``workloads.LAYER_SITES`` entry
and exits 1 on a missing one; this test makes a refactor that drops or
renames a site fail here instead.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import _resolve  # noqa: E402


@pytest.mark.parametrize("site", workloads.LAYER_SITES, ids=lambda s: f"{s.module}.{s.attr}")
def test_layer_site_resolves(site):
    owner, leaf = _resolve(site.module, site.attr)
    assert callable(owner.__dict__[leaf])
