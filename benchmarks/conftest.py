"""Shared benchmark fixtures and the artifact sink.

Every benchmark regenerates a paper artifact (figure or worked example)
and measures the operation behind it.  Regenerated artifacts are written
to ``benchmarks/artifacts/<exp-id>.txt`` so EXPERIMENTS.md can point at
concrete output, and also printed (visible with ``pytest -s``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from tests.conftest import make_guide_db, make_guide_history  # noqa: E402

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    """The artifacts directory (created on first use)."""
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "bench_artifact(name): the BENCH_*.json file a gated "
        "bench writes (see the bench_artifact fixture)")


@pytest.fixture
def bench_artifact(request, artifact_dir) -> Path:
    """The gated bench's ``BENCH_*.json`` path, deleted before the body runs.

    Name the file with ``@pytest.mark.bench_artifact("BENCH_x.json")``.
    A bench that fails before writing then leaves no artifact behind,
    so ``scripts/check_bench_baseline.py`` fails with "not found"
    instead of passing on a stale file from an earlier run.
    """
    marker = request.node.get_closest_marker("bench_artifact")
    if marker is None:
        raise pytest.UsageError(
            "bench_artifact needs @pytest.mark.bench_artifact(name)")
    path = artifact_dir / marker.args[0]
    path.unlink(missing_ok=True)
    return path


@pytest.fixture
def record_artifact(artifact_dir):
    """Write (and echo) one named artifact."""

    def write(exp_id: str, text: str) -> None:
        path = artifact_dir / f"{exp_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== artifact {exp_id} ({path}) =====")
        print(text)

    return write


@pytest.fixture
def guide_db():
    """The Figure 2 OEM database."""
    return make_guide_db()


@pytest.fixture
def guide_history():
    """The Example 2.3 history."""
    return make_guide_history()


@pytest.fixture
def guide_doem(guide_db, guide_history):
    """The Figure 4 DOEM database."""
    from repro import build_doem
    return build_doem(guide_db, guide_history)
