"""Snapshot acquisition and the reproducibility manifest.

Payloads are stored verbatim under a content digest and never
rewritten; the manifest holds the current entry per platform, so any
analysis can be pinned to exact bytes. Re-fetching a changed page
writes a new payload file and swaps the manifest entry; the old
payload stays on disk for longitudinal diffs.
"""

import hashlib
import ntpath
import os
import time
from typing import NamedTuple

from . import inputs
from .errors import CorpusError, FetchError

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
PAYLOADS_DIR = "payloads"

_ENTRY_FIELDS = ("platform", "source_url", "retrieved_at", "content_digest",
                 "payload_path", "media_kind")

# Longer waits overflow the C time types behind time.sleep and sockets.
MAX_SECONDS = 86400


class SnapshotEntry(NamedTuple):
    platform: str
    source_url: str
    retrieved_at: str
    content_digest: str
    payload_path: str
    media_kind: str
    extra: dict = None


class CorpusManifest(NamedTuple):
    entries: tuple = ()
    created_at: str = ""
    extra: dict = None

    def entry_for(self, platform):
        for entry in self.entries:
            if entry.platform == platform:
                return entry
        return None


def _check_platform(platform, where):
    """Raise CorpusError unless platform is one path component, so
    payloads/<platform>/ and assessments/<platform>.json stay inside
    the corpus."""
    if platform in ("", ".", "..") or any(
            c and c in platform for c in (os.sep, os.altsep, "\0")):
        raise CorpusError(f"{where}: platform {platform!r} is not "
                          "one path component")


def digest_bytes(payload):
    return hashlib.sha256(payload).hexdigest()


def utc_now_iso():
    # Imported here: only fetch and a new manifest stamp a time.
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_manifest():
    return CorpusManifest(created_at=utc_now_iso())


def fetch_snapshot(url, timeout=30, platform=None, user_agent=None):
    """Fetch a URL, following redirects; returns (SnapshotEntry, payload).

    The entry's payload_path is empty; store_snapshot stores a copy
    of the entry with it set.
    """
    # Imported here: http.client pulls in email and ssl, which no other
    # command needs.
    import http.client
    from urllib.error import HTTPError
    from urllib.parse import quote, urlparse
    from urllib.request import Request, urlopen

    try:
        parsed = urlparse(url)
    except ValueError:
        raise FetchError(url, "invalid url") from None
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise FetchError(url, "invalid url")
    headers = {"User-Agent": user_agent} if user_agent else {}
    # Percent-encode spaces and non-ASCII characters as requests did,
    # keeping escapes and reserved characters; urllib IDNA-encodes the host.
    # urlopen raises HTTPError for each non-2xx status it does not redirect.
    try:
        request = Request(parsed._replace(**{
            part: quote(getattr(parsed, part), safe="!#$%&'()*+,/:;=?@[]~")
            for part in ("path", "params", "query")}).geturl(),
            headers=headers)
        with urlopen(request, timeout=timeout) as response:
            payload = response.read()
            content_type = response.headers.get("Content-Type", "")
    except HTTPError as exc:
        exc.close()
        raise FetchError(url, f"http status {exc.code}") from None
    except (ValueError, http.client.InvalidURL):
        # A bad IDNA host, or a lone surrogate that quote cannot encode.
        raise FetchError(url, "invalid url") from None
    except (OSError, http.client.HTTPException) as exc:
        timed_out = isinstance(getattr(exc, "reason", exc), TimeoutError)
        raise FetchError(url, "timeout" if timed_out else "network failure",
                         str(exc)) from None
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
    the manifest, which makes re-runs no-ops, and manifest is the one
    given. Otherwise manifest is a new one, without any earlier entry
    for the platform and with a copy of entry, payload_path set, last.
    The superseded payload file is left untouched on disk.
    """
    _check_platform(entry.platform, "snapshot")
    if digest_bytes(payload) != entry.content_digest:
        raise CorpusError("digest mismatch")
    current = manifest.entry_for(entry.platform)
    if current is not None:
        if current.content_digest == entry.content_digest:
            return manifest, False
        if entry.retrieved_at < current.retrieved_at:
            raise CorpusError(
                f"retrieved_at regresses for platform {entry.platform!r}")
    entry = entry._replace(payload_path=payload_relpath(entry))
    inputs.write_atomic(os.path.join(corpus_dir, entry.payload_path),
                        [payload], make_parents=True)
    others = tuple(e for e in manifest.entries if e.platform != entry.platform)
    manifest = manifest._replace(entries=others + (entry,))
    save_manifest(manifest, os.path.join(corpus_dir, MANIFEST_NAME))
    return manifest, True


def manifest_to_dict(manifest):
    d = dict(manifest.extra or {})
    d["schema_version"] = SCHEMA_VERSION
    d["created_at"] = manifest.created_at
    d["entries"] = []
    for entry in manifest.entries:
        ed = dict(entry.extra or {})
        for name in _ENTRY_FIELDS:
            ed[name] = getattr(entry, name)
        d["entries"].append(ed)
    return d


def manifest_from_dict(data):
    extra = {k: v for k, v in data.items()
             if k not in ("schema_version", "created_at", "entries")}
    raw_entries = data.get("entries", [])
    schema_version = data.get("schema_version", SCHEMA_VERSION)
    if not (type(schema_version) is int and schema_version == SCHEMA_VERSION
            and isinstance(raw_entries, list)
            and all(isinstance(ed, dict) for ed in raw_entries)):
        raise CorpusError(f"manifest needs integer schema_version "
                          f"{SCHEMA_VERSION} and entries that are a list of "
                          "objects")
    entries = []
    for ed in raw_entries:
        entry_extra = {k: v for k, v in ed.items() if k not in _ENTRY_FIELDS}
        for name in _ENTRY_FIELDS:
            if not isinstance(ed.get(name), str):
                raise CorpusError(
                    f"manifest entry missing field {name!r} as a string")
        _check_platform(ed["platform"], "manifest entry")
        path = ed["payload_path"]
        if not path or os.path.isabs(path) or ntpath.splitdrive(path)[0] or (
                "\0" in path or ".." in path.replace("\\", "/").split("/")):
            raise CorpusError(f"manifest entry: payload_path {path!r} is "
                              "not a relative path inside the corpus")
        entries.append(SnapshotEntry(
            **{name: ed[name] for name in _ENTRY_FIELDS}, extra=entry_extra))
    seen = set()
    for entry in entries:
        if entry.platform in seen:
            raise CorpusError(f"duplicate platform in manifest: {entry.platform}")
        seen.add(entry.platform)
    return CorpusManifest(
        entries=tuple(entries),
        created_at=data.get("created_at", ""),
        extra=extra,
    )


def save_manifest(manifest, path):
    inputs.write_atomic(path, [inputs.canonical_json(
        manifest_to_dict(manifest))])


def load_manifest(path):
    return manifest_from_dict(inputs.read_json(path, CorpusError, "manifest"))


def load_or_create_manifest(corpus_dir):
    path = os.path.join(corpus_dir, MANIFEST_NAME)
    if os.path.lexists(path):
        return load_manifest(path)
    return new_manifest()


def read_payload(corpus_dir, entry):
    """The payload's bytes; one that cannot be read, resolves to a path
    outside the corpus or fails its digest check raises CorpusError.

    The file read is the one the checked path names: a symlink swapped
    between the open and the check is refused, not read."""
    path = os.path.join(corpus_dir, entry.payload_path)
    with inputs._reading(path, CorpusError, "payload") as fh:
        root = os.path.realpath(corpus_dir)
        real = os.path.realpath(path)
        if os.path.commonpath([root, real]) != root:
            raise CorpusError(
                f"cannot read payload {path}: resolves outside the corpus")
        opened, named = os.fstat(fh.fileno()), os.stat(real)
        if (opened.st_dev, opened.st_ino) != (named.st_dev, named.st_ino):
            raise CorpusError(
                f"cannot read payload {path}: changed while it was opened")
        payload = fh.read()
    if digest_bytes(payload) != entry.content_digest:
        raise CorpusError(
            f"payload digest mismatch for platform {entry.platform!r}")
    return payload


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
        _check_platform(target["platform"], f"corpus config platforms[{i}]")
    # type() in (int, float) rules out the JSON booleans.
    delay = config.setdefault("request_delay_s", 1.0)
    if not (type(delay) in (int, float) and 0 <= delay <= MAX_SECONDS):
        raise CorpusError("corpus config request_delay_s: must be a number "
                          f"of seconds from 0 to {MAX_SECONDS}")
    timeout = config.setdefault("timeout_s", 30)
    if not (type(timeout) in (int, float) and 0 < timeout <= MAX_SECONDS):
        raise CorpusError("corpus config timeout_s: must be a number of "
                          f"seconds above 0 and at most {MAX_SECONDS}")
    ua = config.get("user_agent", "")
    if not (isinstance(ua, str) and ua.isascii() and ua.isprintable()):
        raise CorpusError("corpus config user_agent: must be a string of "
                          "printable ASCII characters")
    return config


def fetch_all(config, corpus_dir, platform=None, sleeper=time.sleep):
    """Fetch the platforms of a load_corpus_config config into the corpus.

    Returns a list of (platform, status, detail) where status is one
    of stored, unchanged, or error. A per-host politeness delay runs
    between consecutive requests.
    """
    manifest = load_or_create_manifest(corpus_dir)
    user_agent = config.get("user_agent")
    delay = config["request_delay_s"]
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
                target["url"], timeout=config["timeout_s"], platform=name,
                user_agent=user_agent)
            manifest, stored = store_snapshot(
                manifest, entry, payload, corpus_dir)
            status = "stored" if stored else "unchanged"
            outcomes.append((name, status, entry.content_digest))
        except (FetchError, CorpusError) as exc:
            outcomes.append((name, "error", str(exc)))
    return outcomes
