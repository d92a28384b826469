"""HTML to plain text conversion built on the stdlib parser.

Text is emitted while the markup is parsed: no tree is built and
nothing recurses, so nesting depth is unbounded. Script/style/navigation
boilerplate is dropped, block elements become paragraph breaks, and a
deliberately small selector subset (tag, .class, #id, tag.class, tag#id)
serves per-platform include/exclude rules.
"""

import re
from html.parser import HTMLParser

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
    if tag is None and cls is None and node_id is None:
        raise ValueError(f"unsupported selector: {selector!r}")
    return (tag.lower() if tag else None, cls, node_id)


def _matches_any(tag, attrs, selectors):
    for sel_tag, cls, node_id in selectors:
        if ((sel_tag is None or sel_tag == tag)
                and (cls is None
                     or cls in (attrs.get("class") or "").split())
                and (node_id is None or attrs.get("id") == node_id)):
            return True
    return False


class _TextExtractor(HTMLParser):
    """Emits text into self.out as the markup is fed.

    Each open element is a (tag, state, closing) frame; closing is the
    text emitted when the element closes. A close tag closes every
    element up to the nearest open one with its name, and a close tag
    with no open match is ignored.
    """

    def __init__(self, include, exclude):
        super().__init__(convert_charrefs=True)
        self._include = include
        self._exclude = exclude
        self._stack = [("#root", _OUTSIDE if include else _EMIT, "")]
        self._parts = 0
        self.out = []

    def _open(self, tag, attrs):
        state = self._stack[-1][1]
        if state == _MUTED:
            return (tag, _MUTED, "")
        if self._exclude or state == _OUTSIDE:
            attrs = dict(attrs)
            if self._exclude and _matches_any(tag, attrs, self._exclude):
                return (tag, _MUTED, "")
            if state == _OUTSIDE:
                if not _matches_any(tag, attrs, self._include):
                    return (tag, _OUTSIDE, "")
                # An included element starts a part; parts are joined
                # by a blank line and nested matches stay in their part.
                if self._parts:
                    self.out.append("\n\n")
                self._parts += 1
        if tag in DROP_TAGS:
            return (tag, _MUTED, "")
        if tag == "br":
            self.out.append("\n")
        elif tag in BLOCK_TAGS:
            self.out.append("\n\n")
            return (tag, _EMIT, "\n\n")
        return (tag, _EMIT, "")

    def _close_from(self, i):
        stack = self._stack
        self.out.extend(frame[2] for frame in reversed(stack[i:]))
        del stack[i:]

    def handle_starttag(self, tag, attrs):
        frame = self._open(tag, attrs)
        if tag in VOID_TAGS:
            self.out.append(frame[2])
        else:
            self._stack.append(frame)

    def handle_startendtag(self, tag, attrs):
        self.out.append(self._open(tag, attrs)[2])

    def handle_endtag(self, tag):
        stack = self._stack
        for i in range(len(stack) - 1, 0, -1):
            if stack[i][0] == tag:
                self._close_from(i)
                return

    def handle_data(self, data):
        if self._stack[-1][1] == _EMIT:
            self.out.append(data)

    def close(self):
        super().close()
        self._close_from(1)


def html_to_text(markup, include=None, exclude=None):
    """Extract main text from HTML markup.

    Raw text keeps '\n\n' around block elements and '\n' for <br>.
    include: optional selectors; when given, only matching subtrees
    contribute text (subtrees nested in an already included one are
    skipped so text is never duplicated).
    exclude: optional selectors whose subtrees never contribute text
    and are never included.
    Markup the stdlib parser cannot read raises ExtractionError.
    """
    exclude = [parse_selector(s) for s in exclude or ()]
    include = [parse_selector(s) for s in include or ()]
    extractor = _TextExtractor(include, exclude)
    try:
        extractor.feed(markup)
        extractor.close()
    except AssertionError as exc:
        # html.parser raises this on some broken declarations ("<![x").
        raise ExtractionError(f"unparseable HTML: {exc}") from None
    return "".join(extractor.out)
