import os
from pathlib import Path

import pytest
from hypothesis import settings

import damagekit

# Every property test draws the same examples on every run, so Tier-1 is
# deterministic; tests set only their own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def cli_env():
    """Environment for a child ``python -m damagekit`` process.

    The tree these tests imported goes first on the child's PYTHONPATH, as
    an absolute path, so the child runs the same code even when another
    damagekit is installed or a relative PYTHONPATH does not resolve from
    the child's working directory.
    """
    src = str(Path(damagekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env
