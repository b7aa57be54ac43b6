import os
from pathlib import Path

import pytest
from hypothesis import settings

# the tests' subprocesses import the package from this checkout, as the
# tests do through pyproject's pythonpath
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_PATHS = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _PATHS:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, *_PATHS]))

settings.register_profile("ci", max_examples=300, deadline=None)
settings.register_profile("dev", max_examples=25, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture
def fail_lapack(monkeypatch):
    """fail_lapack(name) makes spectrum's dstebz or dstein report info = 1
    after doing its work."""
    from multiwell import spectrum

    def fail(name):
        spectrum._load_lapack()    # bound first, so the patch stays
        real = getattr(spectrum, name)
        monkeypatch.setattr(spectrum, name,
                            lambda *args: (*real(*args)[:-1], 1))
    return fail
