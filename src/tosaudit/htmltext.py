"""HTML to plain text conversion with one compiled-regex tokenizer.

Text is emitted while the markup is tokenized: no tree is built and
nothing recurses, so nesting depth is unbounded. The tokenizer
reproduces the token boundaries of Python 3.11's html.parser fed the
whole markup and closed. A clean tag and the text before it take one
match of one regex, as does text before the end or any other '<', which
a port of that parser's rule for the one construct there reads. A start
tag's match also takes the text after it, plus its own end tag when that
comes next, so an element such as <b>may</b> takes one loop turn. An end
tag with no open element of its name is ignored without walking the open
elements. Script/style/navigation boilerplate is dropped, block elements
become paragraph breaks, and a deliberately small selector subset (tag,
.class, #id, tag.class, tag#id) serves per-platform include/exclude rules.
"""

import re
from collections import Counter
from html import unescape

from .errors import ExtractionError

VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})

BLOCK_TAGS = frozenset({
    "address", "article", "aside", "blockquote", "dd", "div", "dl", "dt",
    "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2", "h3",
    "h4", "h5", "h6", "header", "hr", "li", "main", "nav", "ol", "p", "pre",
    "section", "table", "td", "th", "tr", "ul",
})

# Subtrees that never contribute main text.
DROP_TAGS = frozenset({
    "script", "style", "noscript", "template", "head", "title", "nav",
    "header", "footer", "aside", "button", "select", "option", "iframe",
    "svg", "canvas", "object", "embed", "audio", "video",
})

_SELECTOR_RE = re.compile(
    r"([a-zA-Z][a-zA-Z0-9-]*)?(?:\.([\w-]+)|#([\w-]+))?"
)

# A text run (1) and what follows it: nothing (at the end, or a '<' for
# _construct), an end tag, html.parser's endtagfind, whose name is 7, or a
# start tag whose name (2) and attributes (3) html.parser reads exactly so,
# with 4 the '/' of '/>'. A start tag takes the text after it (5) and, when
# not '/>', its own end tag written exactly '</name>' (6) if that comes
# next, so that one match reads a whole inline element. Attributes are bare
# or double-quoted after ASCII space, so its tolerant patterns end the tag
# at the same '>'. The possessive repeats never backtrack, so a failed tag
# or end tag never rescans a text run.
_TOKEN = re.compile(
    r'([^<]*+)(?:<([a-zA-Z][-.:\w]*+)'
    r'((?:[ \t\n\r\f]++[a-zA-Z_:][-.:\w]*+(?:="[^"]*+")?)*+)[ \t\n\r\f]*(/)?>'
    r'([^<]*+)(?(4)|(</\2>)?)|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|)')
_ATTR = re.compile(r'([a-zA-Z_:][-.:\w]*)(?:="([^"]*)")?')
# html.parser's raw-text elements and the end tag it searches for.
_RAW_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I)
            for tag in ("script", "style")}

# html.parser (3.11) patterns for what _TOKEN does not take, compiled
# (and cached by re) on first use: most documents never need them.
_LOCATE_END = (
    r"""<[a-zA-Z][^\t\n\r\f />\x00]*(?:[\s/]*(?:(?<=['"\s/])[^\s/>]"""
    r"""[^\s/=>]*(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?"""
    r"""(?:\s|/(?!>))*)*)?\s*""")
_TAGFIND = r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*"
_ATTRFIND = (r"""((?<=['"\s/])[^\s/>][^\s/=>]*)"""
             r"""(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_DECL_NAME = r"[a-zA-Z][-_.a-zA-Z0-9]*\s*"
_SECTION_END = dict.fromkeys(("if", "else", "endif"), r"]\s*>")
_SECTION_END.update(dict.fromkeys(
    ("temp", "cdata", "ignore", "include", "rcdata"), r"]\s*]\s*>"))
_NAME_OR_VALUE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ="

# What an open element does with the text inside it.
_MUTED = 0    # excluded, or a DROP_TAGS element that would emit: no text,
              # and nothing inside is matched against a selector
_OUTSIDE = 1  # include rules given, and not inside an included element
_EMIT = 2     # text goes to the output


def parse_selector(selector):
    """Parse one selector into (tag, class, id); unused parts are None."""
    m = _SELECTOR_RE.fullmatch(selector.strip())
    if not m or not m.group(0):
        raise ValueError(f"unsupported selector: {selector!r}")
    tag, cls, node_id = m.groups()
    return (tag.lower() if tag else None, cls, node_id)


def _matches_any(attrs, selectors):
    """Whether attrs satisfy one of the (class, id) pairs of selectors."""
    for cls, node_id in selectors:
        if ((cls is None or cls in (attrs.get("class") or "").split())
                and (node_id is None or attrs.get("id") == node_id)):
            return True
    return False


def _action(tag, exclude, include):
    """What a start tag does: (tag, selectors, its state where it would
    emit, opening and closing text, whether it is void, its raw-text end
    tag or None). selectors is empty if none can match the tag, else
    (exclude, include, their class and id values); each of the first two
    is True if a bare tag selector matches, else (class, id) pairs."""
    ex, inc = ([s[1:] for s in group if s[0] in (None, tag)]
               for group in (exclude, include))
    block = tag in BLOCK_TAGS and tag not in DROP_TAGS
    return (tag, (ex or inc) and (
                (None, None) in ex or ex, (None, None) in inc or inc,
                [v for pair in ex + inc for v in pair if v]),
            _MUTED if tag in DROP_TAGS else _EMIT,
            "\n" if tag == "br" else "\n\n" if block else "",
            "\n\n" if block else "", tag in VOID_TAGS, _RAW_END.get(tag))


def _construct(s, i):
    """Read the construct at s[i] == '<' that _TOKEN did not match.

    This is html.parser's rule for it, with the whole input fed and
    closed. Returns (end, kind, value, attrs, empty): kind 1 is text
    (value), 4 a start tag and 5 an end tag (value is the tag name), and
    0 something that yields nothing (a comment, declaration or the like).
    """
    c = s[i + 1:i + 2]
    k = -1
    if c.isascii() and c.isalpha():
        j = re.compile(_LOCATE_END).match(s, i).end()
        c = s[j:j + 1]
        if c == ">":
            k = j + 1
        elif c == "/":
            k = j + 2 if s.startswith("/>", j) else -1
        elif c and c not in _NAME_OR_VALUE:
            k = j
        if k >= 0:
            m = re.compile(_TAGFIND).match(s, i + 1)
            tag, j = m[1].lower(), m.end()
            attrs = {}
            while j < k and (m := re.compile(_ATTRFIND).match(s, j)):
                name, rest, value = m.group(1, 2, 3)
                if not rest:
                    value = None
                elif (value[:1] == "'" == value[-1:]
                      or value[:1] == '"' == value[-1:]):
                    value = value[1:-1]
                attrs[name.lower()] = unescape(value) if value else value
                j = m.end()
            end = s[j:k].strip()
            if end == ">" or end == "/>":
                return k, 4, tag, attrs, end == "/>"
            return k, 1, s[i:k], None, False
    elif c == "/":
        k = s.find(">", i + 2)
        if k >= 0:
            # _TOKEN took every end tag that endtagfind matches.
            m = re.compile(_TAGFIND).match(s, i + 2)
            return k + 1, 5 if m else 0, m and m[1].lower(), None, False
    elif s.startswith("<!--", i):
        m = re.compile(r"--\s*>").search(s, i + 4)
        k = m.end() if m else -1
    elif s.startswith("<![", i):
        m = re.compile(_DECL_NAME).match(s, i + 3)
        if m is None and i + 3 < len(s):
            raise ExtractionError(
                f"unparseable HTML: expected name token at {s[i:i + 20]!r}")
        if m and m.end() < len(s):
            end = _SECTION_END.get(m[0].strip().lower())
            if end is None:
                raise ExtractionError(
                    f"unparseable HTML: unknown status keyword "
                    f"{s[i + 3:m.end()]!r} in marked section")
            m = re.compile(end).search(s, i + 3)
            k = m.end() if m else -1
    elif c == "!" or c == "?":
        # A declaration (<!doctype too), a bogus comment or a processing
        # instruction ends at the next '>'.
        k = s.find(">", i + 2) + 1 or -1
    else:
        return i + 1, 1, "<", None, False
    if k >= 0:
        return k, 0, None, None, False
    # Unterminated: text up to and including the next '>', or else up to
    # the next '<', or else the '<' alone.
    k = s.find(">", i + 1) + 1 or s.find("<", i + 1)
    if k < 0:
        k = i + 1
    return k, 1, unescape(s[i:k]), None, False


def html_to_text(markup, include=None, exclude=None):
    """Extract main text from HTML markup.

    Raw text keeps '\n\n' around block elements and '\n' for <br>.
    include: optional selectors; when given, only matching subtrees
    contribute text (subtrees nested in an already included one are
    skipped so text is never duplicated).
    exclude: optional selectors whose subtrees never contribute text
    and are never included.
    A close tag closes every element up to the nearest open one with
    its name; one with no open match is ignored. Markup that
    html.parser cannot read (a marked section such as "<![x]>") raises
    ExtractionError.
    """
    exclude = [parse_selector(s) for s in exclude or ()]
    include = [parse_selector(s) for s in include or ()]
    # Each open element is a (tag, state, closing) frame, closing being the
    # text emitted when it closes; top and state are the last frame's.
    top, state = "#root", _OUTSIDE if include else _EMIT
    stack = [(top, state, "")]
    out = []
    append = out.append
    parts = 0
    actions = {}  # tag name as written -> its _action
    # Open elements per tag, counted from the first end tag that does not
    # close the top one, so that an end tag with none open costs O(1).
    counts = None
    # Pattern.scanner (as re.Scanner uses it) matches where the last ended.
    scan = _TOKEN.scanner(markup).match
    while True:
        m = scan()
        text, name, attrs, empty, after, pair, end = m.groups()
        if text and state == _EMIT:
            append(unescape(text) if "&" in text else text)
        if name is None:
            if end is None:
                if m.end() == len(markup):
                    break
                pos, kind, name, attrs, empty = _construct(markup, m.end())
                scan = _TOKEN.scanner(markup, pos).match
                m = None  # the tag, if any, ends at pos
                if kind == 5:
                    end = name
                elif kind != 4:
                    if kind == 1 and state == _EMIT:
                        append(name)
                    continue
            if end is not None:
                tag = end.lower()
                if tag != top:
                    if counts is None:
                        counts = Counter(frame[0] for frame in stack)
                    if not counts[tag]:
                        continue
                    while stack[-1][0] != tag:
                        frame = stack.pop()
                        append(frame[2])
                        counts[frame[0]] -= 1
                append(stack.pop()[2])
                if counts is not None:
                    counts[tag] -= 1
                top, state, _ = stack[-1]
                continue
        action = actions.get(name)
        if action is None:
            action = actions[name] = _action(name.lower(), exclude, include)
        tag, sels, emitted, opening, closing, void, raw = action
        new = state
        if state != _MUTED and sels:
            ex, inc, values = sels
            if isinstance(attrs, str):
                # No '&': a class or id can match only if its value occurs.
                attrs = {name.lower(): unescape(value) for name, value
                         in _ATTR.findall(attrs)} if values and (
                    "&" in attrs or any(map(attrs.__contains__, values))
                ) else {}
            if ex is True or attrs and _matches_any(attrs, ex):
                new = _MUTED
            elif state == _OUTSIDE and (
                    inc is True or attrs and _matches_any(attrs, inc)):
                # An included element starts a part; parts are joined by a
                # blank line and nested matches stay in their part.
                if parts:
                    append("\n\n")
                parts += 1
                new = _EMIT
        if new == _EMIT:
            new = emitted
            append(opening)
        else:
            closing = ""
        if empty or void:
            # It closes at once, so the text after it is its parent's; the
            # end tag of a void element closes nothing.
            append(closing)
            if after and state == _EMIT:
                append(unescape(after) if "&" in after else after)
        elif raw is not None:
            # Raw text that no frame of a DROP_TAGS element emits: skip to
            # the end tag, or drop the rest if there is none.
            if pair is None:
                m = raw.search(markup, m.end() if m else pos)
                if m is None:
                    break
                scan = _TOKEN.scanner(markup, m.end()).match
        else:
            if after and new == _EMIT:
                append(unescape(after) if "&" in after else after)
            if pair is None:
                stack.append((tag, new, closing))
                top, state = tag, new
                if counts is not None:
                    counts[tag] += 1
            else:
                append(closing)
    out.extend([frame[2] for frame in reversed(stack[1:])])
    return "".join(out)
