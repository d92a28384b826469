"""Snapshot acquisition and the reproducibility manifest.

Payloads are stored verbatim under a content digest and never
rewritten; the manifest holds the current entry per platform, so any
analysis can be pinned to exact bytes. Re-fetching a changed page
writes a new payload file and swaps the manifest entry; the old
payload stays on disk for longitudinal diffs.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from urllib.parse import urlparse

import requests

from . import inputs
from .errors import CorpusError, FetchError

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
PAYLOADS_DIR = "payloads"

_ENTRY_FIELDS = ("platform", "source_url", "retrieved_at", "content_digest",
                 "payload_path", "media_kind")


@dataclass
class SnapshotEntry:
    platform: str
    source_url: str
    retrieved_at: str
    content_digest: str
    payload_path: str
    media_kind: str
    extra: dict = field(default_factory=dict)


@dataclass
class CorpusManifest:
    entries: list = field(default_factory=list)
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    def entry_for(self, platform):
        for entry in self.entries:
            if entry.platform == platform:
                return entry
        return None


def digest_bytes(payload):
    return hashlib.sha256(payload).hexdigest()


def utc_now_iso():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_manifest():
    return CorpusManifest(created_at=utc_now_iso())


def _atomic_write(path, data):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def fetch_snapshot(url, timeout=30, platform=None, user_agent=None,
                   session=None):
    """Fetch a URL; returns (SnapshotEntry, payload bytes).

    The entry's payload_path is empty until store_snapshot assigns it.
    """
    parsed = urlparse(url)
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise FetchError(url, "invalid url")
    headers = {}
    if user_agent:
        headers["User-Agent"] = user_agent
    getter = session.get if session is not None else requests.get
    try:
        response = getter(url, timeout=timeout, headers=headers)
    except requests.Timeout:
        raise FetchError(url, "timeout") from None
    except requests.RequestException as exc:
        raise FetchError(url, "network failure", str(exc)) from None
    if not 200 <= response.status_code < 300:
        raise FetchError(url, f"http status {response.status_code}")
    payload = response.content
    content_type = response.headers.get("Content-Type", "")
    media_kind = "html" if "html" in content_type.lower() else "plain_text"
    if platform is None:
        platform = parsed.netloc.replace(".", "_")
    entry = SnapshotEntry(
        platform=platform,
        source_url=url,
        retrieved_at=utc_now_iso(),
        content_digest=digest_bytes(payload),
        payload_path="",
        media_kind=media_kind,
    )
    return entry, payload


def payload_relpath(entry):
    ext = "html" if entry.media_kind == "html" else "txt"
    return os.path.join(PAYLOADS_DIR, entry.platform,
                        f"{entry.content_digest}.{ext}")


def store_snapshot(manifest, entry, payload, corpus_dir):
    """Persist a snapshot; returns (manifest, stored).

    stored is False when this (platform, digest) pair is already in
    the manifest, which makes re-runs no-ops. A new digest for an
    existing platform replaces that platform's manifest entry; the
    superseded payload file is left untouched on disk.
    """
    if digest_bytes(payload) != entry.content_digest:
        raise CorpusError("digest mismatch")
    current = manifest.entry_for(entry.platform)
    if current is not None:
        if current.content_digest == entry.content_digest:
            return manifest, False
        if entry.retrieved_at < current.retrieved_at:
            raise CorpusError(
                f"retrieved_at regresses for platform {entry.platform!r}")
    entry.payload_path = payload_relpath(entry)
    _atomic_write(os.path.join(corpus_dir, entry.payload_path), payload)
    if current is not None:
        manifest.entries = [e for e in manifest.entries
                            if e.platform != entry.platform]
    manifest.entries.append(entry)
    save_manifest(manifest, os.path.join(corpus_dir, MANIFEST_NAME))
    return manifest, True


def manifest_to_dict(manifest):
    d = dict(manifest.extra)
    d["schema_version"] = manifest.schema_version
    d["created_at"] = manifest.created_at
    d["entries"] = []
    for entry in manifest.entries:
        ed = dict(entry.extra)
        for name in _ENTRY_FIELDS:
            ed[name] = getattr(entry, name)
        d["entries"].append(ed)
    return d


def manifest_from_dict(data):
    extra = {k: v for k, v in data.items()
             if k not in ("schema_version", "created_at", "entries")}
    raw_entries = data.get("entries", [])
    schema_version = data.get("schema_version", SCHEMA_VERSION)
    if not (isinstance(schema_version, int) and isinstance(raw_entries, list)
            and all(isinstance(ed, dict) for ed in raw_entries)):
        raise CorpusError("manifest needs an integer schema_version and "
                          "entries that are a list of objects")
    entries = []
    for ed in raw_entries:
        entry_extra = {k: v for k, v in ed.items() if k not in _ENTRY_FIELDS}
        for name in _ENTRY_FIELDS:
            if not isinstance(ed.get(name), str):
                raise CorpusError(
                    f"manifest entry missing field {name!r} as a string")
        entries.append(SnapshotEntry(
            **{name: ed[name] for name in _ENTRY_FIELDS}, extra=entry_extra))
    seen = set()
    for entry in entries:
        if entry.platform in seen:
            raise CorpusError(f"duplicate platform in manifest: {entry.platform}")
        seen.add(entry.platform)
    return CorpusManifest(
        entries=entries,
        created_at=data.get("created_at", ""),
        schema_version=schema_version,
        extra=extra,
    )


def save_manifest(manifest, path):
    _atomic_write(path, inputs.canonical_json(
        manifest_to_dict(manifest)).encode("utf-8"))


def load_manifest(path):
    return manifest_from_dict(inputs.read_json(path, CorpusError, "manifest"))


def load_or_create_manifest(corpus_dir):
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    if os.path.exists(path):
        return load_manifest(path)
    return new_manifest()


def read_payload(corpus_dir, entry):
    path = os.path.join(corpus_dir, entry.payload_path)
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except FileNotFoundError:
        raise CorpusError(f"payload missing: {path}") from None
    except OSError as exc:
        raise CorpusError(
            f"cannot read payload {path}: {exc.strerror}") from None
    if digest_bytes(payload) != entry.content_digest:
        raise CorpusError(
            f"payload digest mismatch for platform {entry.platform!r}")
    return payload


def verify_corpus(manifest, corpus_dir):
    """Digest-check every entry; returns a list of problem strings."""
    problems = []
    for entry in manifest.entries:
        try:
            read_payload(corpus_dir, entry)
        except CorpusError as exc:
            problems.append(str(exc))
    return problems


def load_corpus_config(path=None):
    """Load and check a fetch config; defaults to the shipped one."""
    config = inputs.read_json(path or inputs.shipped("corpus_default.json"),
                              CorpusError, "corpus config")
    if not (isinstance(config.get("platforms"), list) and config["platforms"]):
        raise CorpusError("corpus config has no platforms")
    for i, target in enumerate(config["platforms"]):
        if not (isinstance(target, dict) and all(
                isinstance(target.get(k), str) for k in ("platform", "url"))):
            raise CorpusError(f"corpus config platforms[{i}]: "
                              "needs string 'platform' and 'url'")
    return config


def fetch_all(config, corpus_dir, platform=None, sleeper=time.sleep):
    """Fetch configured platforms into the corpus.

    Returns a list of (platform, status, detail) where status is one
    of stored, unchanged, or error. A per-host politeness delay runs
    between consecutive requests.
    """
    manifest = load_or_create_manifest(corpus_dir)
    user_agent = config.get("user_agent")
    delay = float(config.get("request_delay_s", 1.0))
    timeout = float(config.get("timeout_s", 30))
    targets = [p for p in config["platforms"]
               if platform is None or p["platform"] == platform]
    if platform is not None and not targets:
        raise CorpusError(f"platform not in config: {platform}")
    outcomes = []
    for i, target in enumerate(targets):
        if i > 0 and delay > 0:
            sleeper(delay)
        name = target["platform"]
        try:
            entry, payload = fetch_snapshot(
                target["url"], timeout=timeout, platform=name,
                user_agent=user_agent)
            manifest, stored = store_snapshot(
                manifest, entry, payload, corpus_dir)
            status = "stored" if stored else "unchanged"
            outcomes.append((name, status, entry.content_digest))
        except (FetchError, CorpusError) as exc:
            outcomes.append((name, "error", str(exc)))
    return outcomes
