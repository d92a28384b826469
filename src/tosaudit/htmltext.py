"""HTML to plain text conversion with one compiled-regex tokenizer.

Text is emitted while the markup is tokenized: no tree is built and
nothing recurses, so nesting depth is unbounded. The tokenizer
reproduces the token boundaries of Python 3.11's html.parser fed the
whole markup and closed. A clean tag and the text before it take one
match of one regex, as does text before the end or any other '<', which
a port of that parser's rule for the one construct there reads.
Script/style/navigation boilerplate is dropped, block elements become
paragraph breaks, and a deliberately small selector subset (tag, .class,
#id, tag.class, tag#id) serves per-platform include/exclude rules.
"""

import re
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

# A text run (1) and the clean tag after it, by m.lastindex: 1 none (at the
# end or a '<' for _construct); 4 a start tag whose name (2) and attributes
# (3) html.parser reads exactly so, with 4 the '/' of '/>'; 5 an end tag,
# html.parser's endtagfind. Attributes are bare or double-quoted after ASCII
# space, so its tolerant patterns end the tag at the same '>'. The possessive
# repeats never backtrack, so a failed tag never rescans the text run.
_TOKEN = re.compile(
    r'([^<]*+)(?:<([a-zA-Z][-.:\w]*+)'
    r'((?:[ \t\n\r\f]++[a-zA-Z_:][-.:\w]*+(?:="[^"]*+")?)*+)[ \t\n\r\f]*(/?)>'
    r'|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|)')
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
    # Each open element is a (tag, state, closing) frame; closing is the
    # text emitted when the element closes.
    stack = [("#root", _OUTSIDE if include else _EMIT, "")]
    out = []
    parts = 0
    # tag -> (exclude, include, their class and id values), each of the
    # first two True if a bare tag selector matches, else (class, id) pairs
    selectors = {}
    # Pattern.scanner (as re.Scanner uses it) matches where the last ended.
    scan = _TOKEN.scanner(markup).match
    while True:
        m = scan()
        kind = m.lastindex
        if stack[-1][1] == _EMIT and m[1]:
            out.append(unescape(m[1]))
        if kind == 1:
            if m.end() == len(markup):
                break
            pos, kind, tag, attrs, empty = _construct(markup, m.end())
            scan = _TOKEN.scanner(markup, pos).match
            m = None  # the tag, if any, ends at pos
            if kind == 1:
                if stack[-1][1] == _EMIT:
                    out.append(tag)
                continue
        elif kind == 5:
            tag = m[5].lower()
        else:
            tag, attrs, empty = m[2].lower(), m[3], m[4]
        if kind == 5:
            if stack[-1][0] == tag:
                out.append(stack.pop()[2])
                continue
            for i in range(len(stack) - 2, 0, -1):
                if stack[i][0] == tag:
                    out.extend([frame[2] for frame in reversed(stack[i:])])
                    del stack[i:]
                    break
        elif kind == 4:
            state = stack[-1][1]
            closing = ""
            if state != _MUTED:
                sels = selectors.get(tag)
                if sels is None:
                    ex, inc = ([s[1:] for s in group if s[0] in (None, tag)]
                               for group in (exclude, include))
                    sels = selectors[tag] = (
                        (None, None) in ex or ex, (None, None) in inc or inc,
                        [v for pair in ex + inc for v in pair if v])
                ex, inc, values = sels
                if isinstance(attrs, str):
                    # No '&': a class or id can match only if its value occurs.
                    attrs = {name.lower(): unescape(value) for name, value
                             in _ATTR.findall(attrs)} if values and (
                        "&" in attrs or any(map(attrs.__contains__, values))
                    ) else {}
                if ex is True or attrs and _matches_any(attrs, ex):
                    state = _MUTED
                elif state == _OUTSIDE and (
                        inc is True or attrs and _matches_any(attrs, inc)):
                    # An included element starts a part; parts are joined
                    # by a blank line and nested matches stay in their part.
                    if parts:
                        out.append("\n\n")
                    parts += 1
                    state = _EMIT
                if state == _EMIT:
                    if tag in DROP_TAGS:
                        state = _MUTED
                    elif tag == "br":
                        out.append("\n")
                    elif tag in BLOCK_TAGS:
                        out.append("\n\n")
                        closing = "\n\n"
            if empty or tag in VOID_TAGS:
                out.append(closing)
            elif tag in _RAW_END:
                # Raw text that no frame of a DROP_TAGS element emits:
                # skip to the end tag, or drop the rest if there is none.
                m = _RAW_END[tag].search(markup, m.end() if m else pos)
                if m is None:
                    break
                scan = _TOKEN.scanner(markup, m.end()).match
            else:
                stack.append((tag, state, closing))
    out.extend([frame[2] for frame in reversed(stack[1:])])
    return "".join(out)
