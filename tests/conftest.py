import sys
from pathlib import Path

import pytest

# the checkout under test (never a fixed path: a copy of the repo must
# test its own tree)
REPO_ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, REPO_ROOT)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()
