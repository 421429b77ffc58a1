"""A perturbed result or response is counted as a failed operation."""

from __future__ import annotations

import copy
import http.server
import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

import checks
import lane
import mix
import service_mix

GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "golden"


def test_fingerprint_compare_tolerances():
    golden = json.loads((GOLDEN / "fig4.json").read_text())
    assert checks.compare(copy.deepcopy(golden), golden) == []

    key = next(iter(golden["summary"]))
    close = copy.deepcopy(golden)
    close["summary"][key] *= 1 + 1e-12
    assert checks.compare(close, golden) == []

    drifted = copy.deepcopy(golden)
    drifted["summary"][key] *= 1 + 1e-6
    assert len(checks.compare(drifted, golden)) == 1

    series = next(iter(golden["series"]))
    shifted = copy.deepcopy(golden)
    shifted["series"][series]["max"] += 1.0
    assert checks.compare(shifted, golden) == [
        f"series {series!r}.max {shifted['series'][series]['max']!r} != "
        f"{golden['series'][series]['max']!r}"
    ]


def test_shape_errors_name_the_failed_assertion():
    assert checks.shape_errors("fig4", {}) == []
    assert checks.shape_errors("ablations", {}) == ["shape: summary lacks 'reduction_monotonic_up_to_deployed'"]


def _lane_report(monkeypatch, capsys, golden_dir: Path) -> dict:
    monkeypatch.setattr(lane, "GOLDEN_DIR", golden_dir)
    monkeypatch.setattr(sys, "argv", ["lane.py", "--ids", "table1,table2"])
    assert lane.main() == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_perturbed_golden_counts_as_failed_experiment(tmp_path, monkeypatch, capsys):
    for name in ("table1", "table2"):
        shutil.copy(GOLDEN / f"{name}.json", tmp_path / f"{name}.json")
    report = _lane_report(monkeypatch, capsys, tmp_path)
    assert [row["errors"] for row in report["experiments"]] == [[], []]

    golden = json.loads((tmp_path / "table2.json").read_text())
    key = next(iter(golden["summary"]))
    golden["summary"][key] += 1.0
    (tmp_path / "table2.json").write_text(json.dumps(golden))
    report = _lane_report(monkeypatch, capsys, tmp_path)
    assert report["experiments"][0]["errors"] == []
    assert len(report["experiments"][1]["errors"]) == 1


class _CannedService(http.server.BaseHTTPRequestHandler):
    """Answers each request with the reply queued for its body."""

    replies: dict[bytes, tuple[int, dict]] = {}

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status, payload = self.replies[body]
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Trace-Id", "t")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def canned_service():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _CannedService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_perturbed_response_fingerprint_counts_as_failed_request(canned_service):
    sequence = [r for r in mix.generate(0) if not r.repeat][:4]
    table = {key: f"fp-{i}-{j}" for i, r in enumerate(sequence) for j, key in enumerate(r.members)}

    def reply(request, perturb=False):
        results = [
            {"event": "result", "cached": False, "fingerprint": table[key] + ("x" if perturb else "")}
            for key in request.members
        ]
        return 200, {"results": results}

    _CannedService.replies = {
        sequence[0].body: reply(sequence[0]),
        sequence[1].body: reply(sequence[1], perturb=True),
        sequence[2].body: (500, {"error": "boom"}),
        sequence[3].body: reply(sequence[3]),
    }
    outcomes = service_mix.drive(canned_service.server_address[1], sequence, table)
    assert [bool(o.errors) for o in outcomes] == [False, True, True, False]
    assert outcomes[1].errors[0].endswith("fingerprint differs from direct solve")
    assert outcomes[2].errors == ["status 500"]
