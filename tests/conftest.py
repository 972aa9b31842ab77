import sys

import pytest

from mulfree import tensor


@pytest.fixture(params=[None, 1, 3], ids=["default-workers", "1-worker", "3-workers"])
def row_workers(request, monkeypatch):
    """Runs a test with the row-split kernels at the default worker count, on
    one worker, and on three slices with a short thread switch interval, so a
    result that depends on the split or on thread interleaving shows."""
    if request.param is None:
        yield tensor._WORKERS
        return
    monkeypatch.setattr(tensor, "_WORKERS", request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
