"""Files from outside the program: shipped data, reading and writing.

A file that is missing, unreadable, neither a regular file nor a pipe,
not UTF-8 or not JSON raises the caller's TosAuditError subclass, never
OSError or a decoding error.
"""

import contextlib
import io
import json
import os
import stat

from .errors import LexiconError, TosAuditError


def shipped(name):
    """Path of a data file that ships inside the package."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def lexicon_file(lexicons_dir, name):
    """name in lexicons_dir when present there, else the shipped file."""
    if lexicons_dir is None:
        return shipped(name)
    if not os.path.isdir(lexicons_dir):
        raise LexiconError(f"lexicon not found: {lexicons_dir}")
    path = os.path.join(lexicons_dir, name)
    return path if os.path.lexists(path) else shipped(name)


@contextlib.contextmanager
def _reading(path, error, what):
    """path open as a binary file; a failure raises error naming what and
    path. Every input is read here. A FIFO opens without a writer; what
    is neither a regular file nor a pipe is refused before it is read."""
    try:
        try:
            fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        except ValueError:  # a NUL byte or a lone surrogate in the path
            raise error(f"cannot read {what} {path!r}: invalid path") from None
        try:
            mode = os.fstat(fd).st_mode
            if not (stat.S_ISREG(mode) or stat.S_ISFIFO(mode)):
                raise error(f"cannot read {what} {path}: "
                            "not a regular file or a pipe")
            os.set_blocking(fd, True)
            with open(fd, "rb", closefd=False) as fh:
                yield fh
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    # ValueError: not UTF-8, not JSON, or an integer past the digit limit.
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what} file {path}: {exc}") from None


def read_lines(path, error, what):
    """The lines of a UTF-8 text file, read as they are consumed."""
    with _reading(path, error, what) as fh, \
            io.TextIOWrapper(fh, encoding="utf-8") as text:
        yield from text


def read_json(path, error, what, top=dict):
    """Parsed JSON of path, whose top level must be an instance of top."""
    with _reading(path, error, what) as fh:
        data = json.loads(fh.read().decode("utf-8"))
    if not isinstance(data, top):
        raise error(f"malformed {what} file: {path} is not a JSON object")
    return data


def is_phrase_list(value):
    """True for a list of strings that are not blank."""
    return isinstance(value, list) and all(
        isinstance(v, str) and v.strip() for v in value)


def canonical_json(obj):
    """The JSON file text of the small files: sorted keys, two-space indent.

    For the manifest, assessments and report JSON; a results file is
    written by results.save_results.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@contextlib.contextmanager
def encoding_for(path):
    """Text that UTF-8 cannot hold raises TosAuditError naming path.

    Wrap the code that encodes text bound for path in it: a lone
    surrogate from a JSON escape, for example, cannot be written.
    """
    try:
        yield
    except UnicodeEncodeError as exc:
        raise TosAuditError(f"cannot write {path}: {exc.reason}: "
                            f"{exc.object[exc.start:exc.end]!r}") from None


def check_writable(path):
    """Refuse a path that holds neither a regular file nor a symlink."""
    if os.path.lexists(path) and not (
            os.path.islink(path) or os.path.isfile(path)):
        raise TosAuditError(f"cannot write {path}: not a regular file")


def write_atomic(path, chunks, make_parents=False):
    """Write chunks, str as UTF-8 or bytes, to path.

    They go to a new file, path.<pid>.tmp, which is then renamed onto
    path. Any failure removes that file and leaves an existing file at
    path as it was; check_writable's paths are refused.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    made = False
    try:
        check_writable(path)
        if make_parents:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with encoding_for(path):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made = True
            with open(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk if isinstance(chunk, bytes)
                             else chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as exc:
        if made:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise TosAuditError(
                f"cannot write {path}: {exc.strerror}") from None
        raise
