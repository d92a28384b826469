import json
import socket
import urllib.request
from urllib.error import URLError

import pytest

import fixture_docs
from conftest import _FixtureHandler
from tosaudit import corpus
from tosaudit.corpus import (
    CorpusManifest, SnapshotEntry, digest_bytes, fetch_all,
    fetch_snapshot, load_corpus_config, load_manifest, manifest_from_dict,
    manifest_to_dict, new_manifest, read_payload, save_manifest,
    store_snapshot,
)
from tosaudit.errors import CorpusError, FetchError, TosAuditError

# sha-256 of the ASCII bytes "hello", a widely published reference value
HELLO_SHA256 = (
    "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824")


def make_entry(platform="demo", payload=b"hello", retrieved_at="2025-01-01T00:00:00Z",
               media_kind="plain_text"):
    return SnapshotEntry(
        platform=platform,
        source_url=f"https://example.org/{platform}",
        retrieved_at=retrieved_at,
        content_digest=digest_bytes(payload),
        payload_path="",
        media_kind=media_kind,
    )


class TestDigest:
    def test_known_value(self):
        assert digest_bytes(b"hello") == HELLO_SHA256

    def test_empty_payload(self):
        assert digest_bytes(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


class TestManifestSerialization:
    def test_round_trip_preserves_unknown_fields(self):
        data = {
            "schema_version": 1,
            "created_at": "2025-01-01T00:00:00Z",
            "curator": "someone",
            "entries": [{
                "platform": "demo",
                "source_url": "https://example.org/demo",
                "retrieved_at": "2025-01-01T00:00:00Z",
                "content_digest": HELLO_SHA256,
                "payload_path": "payloads/demo/x.txt",
                "media_kind": "plain_text",
                "etag": "abc123",
            }],
        }
        manifest = manifest_from_dict(data)
        assert manifest.extra == {"curator": "someone"}
        assert manifest.entries[0].extra == {"etag": "abc123"}
        assert manifest_to_dict(manifest) == data

    def test_missing_entry_field_raises(self):
        data = {"entries": [{"platform": "demo"}]}
        with pytest.raises(CorpusError, match="manifest entry missing field"):
            manifest_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"entries": {"demo": {}}}, "entries that are a list of objects"),
        ({"entries": ["demo"]}, "entries that are a list of objects"),
        ({"schema_version": "one", "entries": []}, "integer schema_version"),
        ({"entries": [{"platform": "demo", "source_url": "u",
                       "retrieved_at": "t", "content_digest": "d",
                       "payload_path": 5, "media_kind": "plain_text"}]},
         "missing field 'payload_path' as a string"),
    ], ids=["entries_object", "entry_string", "schema_version_string",
            "field_not_string"])
    def test_wrong_shape_raises(self, data, message):
        with pytest.raises(CorpusError, match=message):
            manifest_from_dict(data)

    def test_duplicate_platform_raises(self):
        entry = {
            "platform": "demo",
            "source_url": "u", "retrieved_at": "t",
            "content_digest": "d", "payload_path": "p",
            "media_kind": "plain_text",
        }
        with pytest.raises(CorpusError, match="duplicate platform"):
            manifest_from_dict({"entries": [entry, dict(entry)]})

    def test_save_and_load(self, tmp_path):
        # A loaded manifest holds {} where a new one's extra is None.
        manifest = CorpusManifest(
            entries=(make_entry()._replace(
                payload_path="payloads/demo/x.txt", extra={}),),
            created_at="2025-01-01T00:00:00Z", extra={})
        path = str(tmp_path / "manifest.json")
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest not found"):
            load_manifest(str(tmp_path / "nope.json"))

    def test_load_malformed_raises(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{broken")
        with pytest.raises(CorpusError, match="malformed manifest"):
            load_manifest(str(path))


class TestStoreSnapshot:
    def test_first_store(self, tmp_path):
        manifest = new_manifest()
        entry = make_entry()
        manifest, stored = store_snapshot(
            manifest, entry, b"hello", str(tmp_path))
        assert stored
        entry = manifest.entry_for("demo")
        assert entry.payload_path == f"payloads/demo/{HELLO_SHA256}.txt"
        assert (tmp_path / entry.payload_path).read_bytes() == b"hello"
        assert (tmp_path / "manifest.json").exists()

    def test_same_digest_is_noop(self, tmp_path):
        manifest = new_manifest()
        manifest, _ = store_snapshot(
            manifest, make_entry(), b"hello", str(tmp_path))
        again = make_entry(retrieved_at="2025-06-01T00:00:00Z")
        manifest, stored = store_snapshot(
            manifest, again, b"hello", str(tmp_path))
        assert not stored
        assert len(manifest.entries) == 1
        assert manifest.entries[0].retrieved_at == "2025-01-01T00:00:00Z"

    def test_new_digest_replaces_entry_keeps_old_payload(self, tmp_path):
        manifest = new_manifest()
        first = make_entry()
        manifest, _ = store_snapshot(manifest, first, b"hello", str(tmp_path))
        first = manifest.entry_for("demo")
        second = make_entry(payload=b"changed",
                            retrieved_at="2025-06-01T00:00:00Z")
        manifest, stored = store_snapshot(
            manifest, second, b"changed", str(tmp_path))
        assert stored
        assert len(manifest.entries) == 1
        second = manifest.entry_for("demo")
        assert second.content_digest == digest_bytes(b"changed")
        assert (tmp_path / first.payload_path).read_bytes() == b"hello"
        assert (tmp_path / second.payload_path).read_bytes() == b"changed"

    def test_digest_mismatch_raises(self, tmp_path):
        entry = make_entry()
        with pytest.raises(CorpusError, match="digest mismatch"):
            store_snapshot(new_manifest(), entry, b"other", str(tmp_path))

    def test_clock_regression_raises(self, tmp_path):
        manifest = new_manifest()
        manifest, _ = store_snapshot(
            manifest, make_entry(retrieved_at="2025-06-01T00:00:00Z"),
            b"hello", str(tmp_path))
        stale = make_entry(payload=b"changed",
                           retrieved_at="2025-01-01T00:00:00Z")
        with pytest.raises(CorpusError,
                           match="retrieved_at regresses for platform 'demo'"):
            store_snapshot(manifest, stale, b"changed", str(tmp_path))

    def test_unwritable_manifest_text_leaves_manifest(self, tmp_path):
        # "\ud800" is valid JSON and loads, but UTF-8 cannot encode it.
        store_snapshot(new_manifest(), make_entry(), b"hello", str(tmp_path))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {**json.loads(path.read_text()), "\ud800": 1}))
        before = path.read_bytes()
        with pytest.raises(TosAuditError, match=(
                f"cannot write {path}: surrogates not allowed")):
            store_snapshot(load_manifest(str(path)),
                           make_entry("other", b"other"), b"other",
                           str(tmp_path))
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("manifest.json*.tmp"))


class TestReadAndVerify:
    def build(self, tmp_path):
        manifest = new_manifest()
        entry = make_entry()
        manifest, _ = store_snapshot(manifest, entry, b"hello", str(tmp_path))
        return manifest, manifest.entry_for("demo")

    def test_read_payload(self, tmp_path):
        manifest, entry = self.build(tmp_path)
        assert read_payload(str(tmp_path), entry) == b"hello"

    def test_read_missing_raises(self, tmp_path):
        manifest, entry = self.build(tmp_path)
        (tmp_path / entry.payload_path).unlink()
        with pytest.raises(CorpusError, match="payload missing"):
            read_payload(str(tmp_path), entry)

    def test_unreadable_payload_raises(self, tmp_path):
        manifest, entry = self.build(tmp_path)
        entry = entry._replace(payload_path="payloads")
        with pytest.raises(CorpusError, match="cannot read payload"):
            read_payload(str(tmp_path), entry)

    def test_read_tampered_raises(self, tmp_path):
        manifest, entry = self.build(tmp_path)
        (tmp_path / entry.payload_path).write_bytes(b"tampered")
        with pytest.raises(CorpusError, match="payload digest mismatch"):
            read_payload(str(tmp_path), entry)


class TestFetchSnapshot:
    def test_html_fetch(self, http_base):
        entry, payload = fetch_snapshot(
            f"{http_base}/tos/instagram", platform="instagram")
        assert entry.media_kind == "html"
        assert entry.platform == "instagram"
        assert entry.content_digest == digest_bytes(payload)
        assert payload == fixture_docs.DOCS["instagram"][1].encode("utf-8")

    def test_plain_text_fetch(self, http_base):
        entry, _ = fetch_snapshot(f"{http_base}/tos/bluesky")
        assert entry.media_kind == "plain_text"

    def test_default_platform_from_host(self, http_base):
        entry, _ = fetch_snapshot(f"{http_base}/tos/bluesky")
        # falls back to the netloc with dots flattened (port varies)
        assert entry.platform.startswith("127_0_0_1")

    def test_http_error_status(self, http_base):
        with pytest.raises(FetchError, match="http status 404"):
            fetch_snapshot(f"{http_base}/tos/unknown")

    @pytest.mark.parametrize("url", ["not a url", "ftp://example.org/x", "http://",
                                     "http://[::1/x", "http://\u00e9..b/x",
                                     "http://127.0.0.1:9/tos.txt?x=\ud800"])
    def test_invalid_url(self, url):
        with pytest.raises(FetchError, match="invalid url"):
            fetch_snapshot(url)

    def test_timeout(self, http_base):
        with pytest.raises(FetchError, match="timeout"):
            fetch_snapshot(f"{http_base}/slow", timeout=0.2)

    def test_connect_timeout(self, monkeypatch):
        # urllib reports a timeout while connecting as URLError(reason=...).
        def timed_out(*args, **kwargs):
            raise URLError(TimeoutError())
        monkeypatch.setattr(urllib.request, "urlopen", timed_out)
        with pytest.raises(FetchError) as excinfo:
            fetch_snapshot("http://127.0.0.1/x")
        assert excinfo.value.cause == "timeout"

    def test_connection_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(FetchError, match="network failure"):
            fetch_snapshot(f"http://127.0.0.1:{port}/x", timeout=2)

    def test_user_agent_sent(self, http_base):
        fetch_snapshot(f"{http_base}/tos/bluesky", user_agent="audit-bot/1")
        assert _FixtureHandler.last_headers["User-Agent"] == "audit-bot/1"

    def test_asks_for_uncompressed_body(self, http_base):
        fetch_snapshot(f"{http_base}/tos/bluesky")
        assert _FixtureHandler.last_headers.get(
            "Accept-Encoding", "identity") == "identity"

    @pytest.mark.parametrize("path", ["/redirect", "/redirect308"])
    def test_redirect_followed(self, http_base, path):
        entry, payload = fetch_snapshot(f"{http_base}{path}")
        assert payload == fixture_docs.DOCS["bluesky"][1].encode("utf-8")
        assert entry.source_url == f"{http_base}{path}"

    @pytest.mark.parametrize("path", ["/t\u00e9rminos de uso",
                                      "/t%C3%A9rminos%20de%20uso"])
    def test_path_is_percent_encoded_once(self, http_base, path):
        entry, payload = fetch_snapshot(f"{http_base}{path}")
        assert payload == b"encoded path"
        assert entry.source_url == f"{http_base}{path}"

    def test_no_content_type_is_plain_text(self, http_base):
        entry, payload = fetch_snapshot(f"{http_base}/no-type")
        assert entry.media_kind == "plain_text"
        assert payload == b"no content type"

    def test_truncated_body_is_network_failure(self, http_base):
        with pytest.raises(FetchError) as excinfo:
            fetch_snapshot(f"{http_base}/truncated", timeout=5)
        assert excinfo.value.cause == "network failure"

    def test_error_carries_url_and_cause(self, http_base):
        url = f"{http_base}/tos/unknown"
        with pytest.raises(FetchError) as excinfo:
            fetch_snapshot(url)
        assert excinfo.value.url == url
        assert excinfo.value.cause == "http status 404"


class TestFetchAll:
    def make_config(self, http_base, platforms=None, delay=0):
        platforms = platforms or fixture_docs.PLATFORMS
        return {
            "request_delay_s": delay,
            "timeout_s": 5,
            "platforms": [
                {"platform": p, "url": f"{http_base}/tos/{p}"}
                for p in platforms
            ],
        }

    def test_full_fetch_then_unchanged(self, http_base, tmp_path):
        config = self.make_config(http_base)
        outcomes = fetch_all(config, str(tmp_path))
        assert [(p, s) for p, s, _ in outcomes] == \
            [(p, "stored") for p in fixture_docs.PLATFORMS]
        again = fetch_all(config, str(tmp_path))
        assert {s for _, s, _ in again} == {"unchanged"}

    def test_single_platform_filter(self, http_base, tmp_path):
        config = self.make_config(http_base)
        outcomes = fetch_all(config, str(tmp_path), platform="bluesky")
        assert len(outcomes) == 1
        assert outcomes[0][0] == "bluesky"

    def test_unknown_platform_raises(self, http_base, tmp_path):
        config = self.make_config(http_base)
        with pytest.raises(CorpusError, match="platform not in config: nope"):
            fetch_all(config, str(tmp_path), platform="nope")

    def test_error_recorded_not_raised(self, http_base, tmp_path):
        config = self.make_config(http_base, platforms=["bluesky"])
        config["platforms"].append(
            {"platform": "ghost", "url": f"{http_base}/tos/ghost-absent"})
        outcomes = fetch_all(config, str(tmp_path))
        assert outcomes[0][1] == "stored"
        assert outcomes[1][0] == "ghost"
        assert outcomes[1][1] == "error"
        assert "http status 404" in outcomes[1][2]

    def test_politeness_delay_between_requests(self, http_base, tmp_path):
        config = self.make_config(
            http_base, platforms=["bluesky", "mastodon", "x"], delay=0.5)
        sleeps = []
        fetch_all(config, str(tmp_path), sleeper=sleeps.append)
        assert sleeps == [0.5, 0.5]


class TestCorpusConfig:
    def test_missing_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="corpus config not found"):
            load_corpus_config(str(tmp_path / "nope.json"))

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(CorpusError, match="malformed corpus config"):
            load_corpus_config(str(path))

    def test_no_platforms_raises(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": []}))
        with pytest.raises(CorpusError, match="corpus config has no platforms"):
            load_corpus_config(str(path))

    def test_platforms_not_a_list_raises(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": 5}))
        with pytest.raises(CorpusError, match="corpus config has no platforms"):
            load_corpus_config(str(path))

    def test_valid_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"platforms": [{"platform": "demo", "url": "https://x.org"}]}))
        config = load_corpus_config(str(path))
        assert config["platforms"][0]["platform"] == "demo"

    def test_platform_entry_needs_platform_and_url(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": [
            {"platform": "demo", "url": "https://x.org"},
            {"name": "example", "url": "https://example.org/terms"}]}))
        with pytest.raises(CorpusError, match=r"platforms\[1\]"):
            load_corpus_config(str(path))

    def test_shipped_default_config(self):
        from importlib import resources
        raw = resources.files("tosaudit.data").joinpath(
            "corpus_default.json").read_text(encoding="utf-8")
        config = json.loads(raw)
        names = [p["platform"] for p in config["platforms"]]
        assert len(names) == 13
        assert names == sorted(names)
        assert all(p["url"].startswith("https://")
                   for p in config["platforms"])
        assert load_corpus_config() == config
