"""Two writers, one registry: the flock must serialise index appends."""

import json
import subprocess
import sys
from pathlib import Path

from repro.registry.store import StressmarkRegistry

#: Runs in a subprocess: publish COUNT synthetic records, offset by START
#: so the two writers interleave distinct ids plus a shared overlap band.
_WORKER = """
import sys
sys.path.insert(0, {src!r})
from repro.registry.provenance import platform_descriptor
from repro.registry.record import RegistryRecord
from repro.registry.store import StressmarkRegistry

registry = StressmarkRegistry({directory!r})
start, count = {start}, {count}
for n in range(start, start + count):
    record = RegistryRecord(
        kind="qualify",
        name=f"mark-{{n}}",
        program={{"source": "canned", "stressmark": "a-res"}},
        platform=platform_descriptor("bulldozer"),
        platform_hash=f"hash-{{n:04d}}",
        threads=2,
        droop_v=0.030 + n * 0.001,
        provenance={{"campaign": "contention", "created_at": float(n)}},
    )
    registry.publish(record)
print("done")
"""


def _spawn(directory: Path, start: int, count: int) -> subprocess.Popen:
    src = str(Path(__file__).resolve().parents[2] / "src")
    code = _WORKER.format(src=src, directory=str(directory),
                          start=start, count=count)
    return subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


class TestTwoProcessContention:
    def test_concurrent_publishes_leave_consistent_store(self, tmp_path):
        directory = tmp_path / "reg"
        # 15 distinct ids each plus a 10-record overlap band both race on.
        first = _spawn(directory, start=0, count=25)
        second = _spawn(directory, start=15, count=25)
        for proc in (first, second):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out

        registry = StressmarkRegistry(directory)
        entries, skipped = registry._read_index()
        # Every index line parsed — interleaved appends would have torn
        # JSON — and no id appears twice despite the overlap band.
        assert skipped == 0
        ids = [entry["record_id"] for entry in entries]
        assert len(ids) == len(set(ids)) == 40
        assert set(ids) == set(registry._object_ids())
        # Each stored object still passes its content hash.
        assert len(registry.records()) == 40
