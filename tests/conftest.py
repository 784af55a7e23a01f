import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Return ``peak(fn, *args)``: the call's result and its tracemalloc peak in bytes.

    Only allocations made during the call count, so arrays built beforehand
    (such as the input state) are excluded; the result is included.
    """

    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
