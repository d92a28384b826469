import contextlib
import io
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import fixture_docs
from tosaudit import cli, corpus, inputs, interface_assess, pipeline
from tosaudit.errors import AssessmentError


class CliRun:
    """What one CLI run printed, and its exit code."""

    def __init__(self, exit_code, stdout, stderr):
        self.exit_code, self.stdout, self.stderr = exit_code, stdout, stderr


def run_cli(argv):
    """Run `tosaudit.cli.main(argv)` in this process; returns a CliRun.

    stdout and stderr are strict UTF-8 streams, as in a real process, so
    a line they cannot encode raises here. So does any exception other
    than SystemExit, which gives the exit code.
    """
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                for _ in range(2))
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code
    out.flush()
    err.flush()
    return CliRun(exit_code, out.buffer.getvalue().decode("utf-8"),
                  err.buffer.getvalue().decode("utf-8"))


def store_assessment(dir_path, assessment, overwrite=False):
    """Write an assessment file; refuses silent replacement."""
    os.makedirs(dir_path, exist_ok=True)
    path = os.path.join(dir_path, f"{assessment.platform}.json")
    if os.path.exists(path) and not overwrite:
        raise AssessmentError(
            f"assessment for {assessment.platform!r} already exists "
            "(pass overwrite to replace)")
    inputs.write_atomic(path, [inputs.canonical_json(
        interface_assess.assessment_to_dict(assessment))])
    return path


def build_fixture_corpus(root):
    """Materialize the synthetic corpus under root; returns root."""
    manifest = corpus.CorpusManifest(created_at="2025-11-01T00:00:00Z")
    for platform in fixture_docs.PLATFORMS:
        media_kind, text = fixture_docs.DOCS[platform]
        payload = text.encode("utf-8")
        entry = corpus.SnapshotEntry(
            platform=platform,
            source_url=f"https://example.org/{platform}/terms",
            retrieved_at="2025-11-01T00:00:00Z",
            content_digest=corpus.digest_bytes(payload),
            payload_path="",
            media_kind=media_kind,
        )
        manifest, stored = corpus.store_snapshot(
            manifest, entry, payload, str(root))
        assert stored
    cfg_path = root / pipeline.EXTRACTION_CONFIG_NAME
    cfg_path.write_text(
        json.dumps(fixture_docs.EXTRACTION_CONFIG, indent=2) + "\n",
        encoding="utf-8")
    adir = root / pipeline.ASSESSMENTS_DIR
    for platform in fixture_docs.PLATFORMS:
        assessment = interface_assess.assessment_from_dict(
            fixture_docs.assessment_dict(platform))
        store_assessment(str(adir), assessment)
    return root


@pytest.fixture(scope="session")
def fixture_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return build_fixture_corpus(root)


# path: (status, body, headers) of answers that do not change.
_FIXED_ANSWERS = {
    "/redirect": (302, b"", {"Location": "/tos/bluesky"}),
    "/redirect308": (308, b"", {"Location": "/tos/bluesky"}),
    "/t%C3%A9rminos%20de%20uso": (200, b"encoded path",
                                  {"Content-Type": "text/plain"}),
    "/no-type": (200, b"no content type", {}),
    "/truncated": (200, b"cut short",
                   {"Content-Type": "text/plain", "Content-Length": "1000"}),
}


class _FixtureHandler(BaseHTTPRequestHandler):
    """Serves the fixture documents at /tos/<platform>.

    The headers of the latest request are kept in last_headers.
    """

    last_headers = {}

    def do_GET(self):
        type(self).last_headers = dict(self.headers)
        if self.path in _FIXED_ANSWERS:
            self._send(*_FIXED_ANSWERS[self.path])
            return
        if self.path == "/slow":
            time.sleep(2)
            self._send(200, b"finally", {"Content-Type": "text/plain"})
            return
        if self.path.startswith("/tos/"):
            platform = self.path[len("/tos/"):]
            doc = fixture_docs.DOCS.get(platform)
            if doc is not None:
                media_kind, text = doc
                ctype = ("text/html; charset=utf-8" if media_kind == "html"
                         else "text/plain; charset=utf-8")
                self._send(200, text.encode("utf-8"), {"Content-Type": ctype})
                return
        self._send(404, b"not found", {"Content-Type": "text/plain"})

    def _send(self, status, body, headers):
        # A client that times out (see test_timeout) has hung up by the
        # time /slow answers; the late write is expected to fail.
        try:
            self.send_response(status)
            for name, value in {"Content-Length": str(len(body)),
                                **headers}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


@pytest.fixture(scope="session")
def http_base():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    server.server_close()


@pytest.fixture(scope="session")
def pipeline_run(fixture_corpus):
    """(records, failures) of the fixture corpus, shared by every test.

    The records are encoded bytes, as run_pipeline returns them.
    """
    return pipeline.run_pipeline(str(fixture_corpus))


@pytest.fixture
def run_payload(pipeline_run):
    """The fixture corpus's results payload as load_results reads it."""
    payload = pipeline.results_payload(*pipeline_run)
    return {**payload, "results": [json.loads(r) for r in payload["results"]]}


@pytest.fixture
def results_by_platform(run_payload):
    return {r["platform"]: r for r in run_payload["results"]}
