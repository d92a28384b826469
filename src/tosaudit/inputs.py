"""Files from outside the program: shipped data, reading and writing.

A file that is missing, unreadable, not UTF-8 or not JSON raises the
caller's TosAuditError subclass, never OSError or a decoding error.
"""

import contextlib
import json
import os
from importlib import resources
from json.encoder import encode_basestring

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


def canonical_json(obj, depth=0):
    """The package's JSON file text: sorted keys, two-space indent.

    The text is exactly json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n", and a value or key that JSON cannot hold
    raises TypeError as there. CPython's C encoder takes no indent, so
    json.dumps would run its generator-based Python encoder; this writer
    appends whole lines to one list instead, in about 40% of the time.
    obj must not contain itself.

    At a depth above 0 the text is obj as it sits that many containers
    deep in such a file: its inner lines carry that depth's indent, and
    no newline ends it.
    """
    if isinstance(obj, (dict, list, tuple)):
        out = []
        _write(obj, out, depth, {})
    else:
        # A scalar's text is the same at any depth.
        out = [json.dumps(obj, ensure_ascii=False)]
    if not depth:
        out.append("\n")
    return "".join(out)


_INF = float("inf")


def _float_text(value):
    """A float as json writes it, NaN and the infinities included."""
    if -_INF < value < _INF:
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _key_text(key):
    """A dict key that is not a str, as the string json makes of it."""
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write(value, out, depth, rows):
    """Append the JSON text of a dict, list or tuple at depth to out.

    rows[d] holds the strings that start or end a line inside a
    container at depth d: "[" or "{" with the first item's indent, ","
    with the next item's indent, and the closing indent with "]" or "}".
    They are built once per depth, not once per item; so is each key's
    head (separator, quoted key and ": "), kept by key in one dict for a
    first item and one for the rest. A scalar item is appended as one
    string with its head. The dict loop and the list loop each test for
    scalars inline: a call per item took about 8% more time.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")
    elif not value:
        out.append("[]")
        return
    row = rows.get(depth)
    if row is None:
        indent = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth
        row = rows[depth] = ("[" + indent, "{" + indent, "," + indent,
                             close + "]", close + "}", {}, {})
    (open_list, open_dict, comma, close_list, close_dict,
     first_heads, next_heads) = row
    append = out.append
    if isinstance(value, dict):
        heads = first_heads
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                key = _key_text(key)
            head = heads.get(key)
            if head is None:
                sep = open_dict if heads is first_heads else comma
                head = heads[key] = sep + encode_basestring(key) + ": "
            heads = next_heads
            if isinstance(item, str):
                append(head + encode_basestring(item))
            elif isinstance(item, int):
                append(head + ("true" if item is True else "false"
                               if item is False else int.__repr__(item)))
            elif isinstance(item, float):
                append(head + _float_text(item))
            elif item is None:
                append(head + "null")
            else:
                append(head)
                _write(item, out, depth + 1, rows)
        append(close_dict)
    else:
        sep = open_list
        for item in value:
            if isinstance(item, str):
                append(sep + encode_basestring(item))
            elif isinstance(item, int):
                append(sep + ("true" if item is True else "false"
                              if item is False else int.__repr__(item)))
            elif isinstance(item, float):
                append(sep + _float_text(item))
            elif item is None:
                append(sep + "null")
            else:
                append(sep)
                _write(item, out, depth + 1, rows)
            sep = comma
        append(close_list)


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


def write_atomic(path, chunks, make_parents=False):
    """Write chunks, str as UTF-8 or bytes, to path.

    They go to path.tmp, which is then renamed onto path. Any failure
    removes path.tmp and leaves an existing file at path as it was.
    """
    tmp = path + ".tmp"
    try:
        if make_parents:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with encoding_for(path), open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk if isinstance(chunk, bytes)
                         else chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise TosAuditError(
                f"cannot write {path}: {exc.strerror}") from None
        raise
