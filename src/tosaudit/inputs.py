"""Files from outside the program: shipped data, reading and writing.

A file that is missing, unreadable, not UTF-8 or not JSON raises the
caller's TosAuditError subclass, never OSError or a decoding error.
"""

import contextlib
import json
import os
from importlib import resources

from .errors import LexiconError, TosAuditError


def shipped(name):
    """Path of a data file that ships inside the package."""
    return resources.files("tosaudit.data").joinpath(name)


def lexicon_file(lexicons_dir, name):
    """name in lexicons_dir when present there, else the shipped file."""
    if lexicons_dir is None:
        return shipped(name)
    if not os.path.isdir(lexicons_dir):
        raise LexiconError(f"lexicon not found: {lexicons_dir}")
    path = os.path.join(lexicons_dir, name)
    return path if os.path.exists(path) else shipped(name)


@contextlib.contextmanager
def _reading(path, error, what):
    """path open as UTF-8 text; a failure raises error naming what and path."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    # ValueError: not UTF-8, not JSON, or an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what} file {path}: {exc}") from None


def read_lines(path, error, what):
    """The lines of a UTF-8 text file, read as they are consumed."""
    with _reading(path, error, what) as fh:
        yield from fh


def read_json(path, error, what, top=dict):
    """Parsed JSON of path, whose top level must be an instance of top."""
    with _reading(path, error, what) as fh:
        data = json.load(fh)
    if not isinstance(data, top):
        raise error(f"malformed {what} file: {path} is not a JSON object")
    return data


def is_phrase_list(value):
    """True for a list of strings that are not blank."""
    return isinstance(value, list) and all(
        isinstance(v, str) and v.strip() for v in value)


def canonical_json(obj):
    """The package's JSON file text: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_text(path, text):
    """Write text to path as UTF-8, replacing any existing file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise TosAuditError(f"cannot write {path}: {exc.strerror}") from None


def write_atomic(path, data):
    """Write bytes to path through a .tmp file and a rename, making parents."""
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise TosAuditError(f"cannot write {path}: {exc.strerror}") from None
