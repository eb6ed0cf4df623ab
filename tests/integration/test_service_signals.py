"""``python -m repro serve`` stops on SIGTERM and leaves no worker behind.

The server runs in its own process group, so once it has exited the group
must empty: a pool worker reparented away from the server would keep it
alive.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.service import CampaignSpec
from repro.service.client import ServiceClient
from repro.service.spec import CellSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="POSIX process groups")
def test_sigterm_stops_serve_and_its_workers(tmp_path):
    socket_path = tmp_path / "service.sock"
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--socket", str(socket_path)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    pgid = server.pid
    try:
        client = ServiceClient(socket_path=str(socket_path), timeout_s=120.0)
        client.wait_until_ready(120.0)
        spec = CampaignSpec(
            kind="cells",
            cells=(
                CellSpec(system="baseline", location="Newark",
                         sample_every_days=365),
            ),
        )
        with client:
            job_id = client.submit(spec)["job_id"]
            job = client.wait_for_job(job_id, poll_s=0.1, timeout_s=300.0)
        assert job["state"] == "completed"

        server.send_signal(signal.SIGTERM)
        server.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _group_alive(pgid), "a pool worker outlived serve"
        assert not socket_path.exists()
    finally:
        if _group_alive(pgid):
            os.killpg(pgid, signal.SIGKILL)
        server.wait(timeout=10)
