import sys
from functools import lru_cache
from pathlib import Path

import pytest

# Allow running the suite from a checkout without installing the package.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def cold_known(monkeypatch):
    """Give each check module fresh, empty memos for this test only.

    The recursion and divisor-sum checks read their counts through
    private memos, one per size, that live as long as the process.  A warm memo would
    hide a patched count from the checks, and a patched count's values
    would outlive the test; a fresh memo does neither.
    """
    from relprime import counting, setphi

    for module in (counting, setphi):
        monkeypatch.setattr(module, "_known", lru_cache(maxsize=None)(module._known.__wrapped__))
