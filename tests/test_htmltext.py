"""html_to_text emits raw block markers; assertions compare the
normalized form that extract_text feeds into segmentation."""

from html.parser import HTMLParser

import pytest
from hypothesis import example, given, settings, strategies as st

from tosaudit.errors import ExtractionError
from tosaudit.htmltext import (
    BLOCK_TAGS, DROP_TAGS, VOID_TAGS, html_to_text, parse_selector,
)
from tosaudit.textprep import normalize_text


def norm(markup, **kwargs):
    return normalize_text(html_to_text(markup, **kwargs))


class TestHtmlToText:
    def test_plain_paragraphs(self):
        assert norm("<p>One.</p><p>Two.</p>") == "One.\n\nTwo."

    def test_script_and_style_dropped(self):
        markup = ("<html><head><script>var x = 1;</script>"
                  "<style>p { color: red }</style></head>"
                  "<body><p>Visible.</p></body></html>")
        assert norm(markup) == "Visible."

    def test_boilerplate_containers_dropped(self):
        markup = ("<body><nav>Menu items</nav><header>Site head</header>"
                  "<main><p>Body text.</p></main>"
                  "<footer>Footer text</footer><aside>Side</aside></body>")
        assert norm(markup) == "Body text."

    def test_br_becomes_single_break(self):
        raw = html_to_text("<p>one<br>two</p>")
        assert "one\ntwo" in raw
        assert norm("<p>one<br>two</p>") == "one two"

    def test_inline_tags_keep_flow(self):
        assert norm("<p>We <b>may</b> share <i>some</i> data.</p>") == \
            "We may share some data."

    def test_block_boundaries_split_paragraphs(self):
        assert norm("<div>first</div><div>second</div>") == "first\n\nsecond"

    def test_entities_decoded(self):
        assert norm("<p>Terms &amp; Conditions</p>") == "Terms & Conditions"

    def test_include_tag(self):
        markup = "<body><div>noise</div><main><p>signal</p></main></body>"
        assert norm(markup, include=["main"]) == "signal"

    def test_include_class(self):
        markup = ('<body><div class="tos"><p>keep</p></div>'
                  "<div><p>drop</p></div></body>")
        assert norm(markup, include=[".tos"]) == "keep"

    def test_include_id(self):
        markup = ('<body><div id="content"><p>keep</p></div>'
                  "<p>drop</p></body>")
        assert norm(markup, include=["#content"]) == "keep"

    def test_include_tag_with_class(self):
        markup = ('<body><section class="legal"><p>keep</p></section>'
                  '<div class="legal"><p>drop</p></div></body>')
        assert norm(markup, include=["section.legal"]) == "keep"

    def test_exclude_removes_subtree(self):
        markup = ('<main><p>keep</p><div class="promo">drop this</div>'
                  "<p>also keep</p></main>")
        assert norm(markup, exclude=[".promo"]) == "keep\n\nalso keep"

    def test_include_then_exclude(self):
        markup = ('<body><main><p>keep</p><div class="ad">drop</div></main>'
                  "<p>outside</p></body>")
        assert norm(markup, include=["main"], exclude=[".ad"]) == "keep"

    def test_nested_include_matches_counted_once(self):
        markup = ('<body><div class="a"><div class="a"><p>once</p></div>'
                  "</div></body>")
        assert norm(markup, include=[".a"]) == "once"

    def test_two_include_targets_in_document_order(self):
        markup = ('<body><div class="a"><p>first</p></div><p>skip</p>'
                  '<div class="a"><p>second</p></div></body>')
        assert norm(markup, include=[".a"]) == "first\n\nsecond"

    def test_include_with_no_match_yields_empty(self):
        assert norm("<p>text</p>", include=["#nope"]) == ""

    def test_unclosed_tags_tolerated(self):
        text = norm("<body><p>first<p>second</body>")
        assert "first" in text and "second" in text

    def test_headings_are_blocks(self):
        assert norm("<h1>Title</h1><p>Body.</p>") == "Title\n\nBody."

    def test_list_items_are_blocks(self):
        text = norm("<ul><li>one</li><li>two</li></ul>")
        assert text == "one\n\ntwo"

    def test_void_tags_do_not_swallow_content(self):
        text = norm('<p>before <img src="x.png"> after</p>')
        assert text == "before after"

    def test_self_closed_block_breaks_but_closes_nothing(self):
        assert html_to_text("one<p/>two") == "one\n\n\n\ntwo"
        # The excluded <p> stays open across <p/>, so "two" stays out.
        markup = '<p class="ad">one<p/>two</p>three'
        assert norm(markup, exclude=[".ad"]) == "three"

    def test_self_closed_script_is_not_raw_text(self):
        assert norm("<script/>kept<p>also</p>") == "kept\n\nalso"

    def test_unterminated_script_drops_the_rest(self):
        assert html_to_text("<div>a<script>b</div><p>c</p>") == \
            "\n\na\n\n"

    @pytest.mark.parametrize("markup", ["<![x]>", "a<![xyz b", "<![ x]>"])
    def test_unreadable_marked_section_raises(self, markup):
        with pytest.raises(ExtractionError, match="unparseable HTML"):
            html_to_text(markup)


class TestParseSelector:
    def test_tag(self):
        assert parse_selector("main") == ("main", None, None)

    def test_class(self):
        assert parse_selector(".tos-body") == (None, "tos-body", None)

    def test_id(self):
        assert parse_selector("#content") == (None, None, "content")

    def test_tag_class(self):
        assert parse_selector("div.legal") == ("div", "legal", None)

    def test_tag_id(self):
        assert parse_selector("section#terms") == ("section", None, "terms")

    def test_unsupported_raises(self):
        with pytest.raises(ValueError):
            parse_selector("div > p")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            parse_selector("")


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag, attrs):
        self.tag = tag
        self.attrs = dict(attrs)
        self.children = []


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", ())
        self._stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = _Node(tag, attrs)
        self._stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self._stack[-1].children.append(_Node(tag, attrs))

    def handle_endtag(self, tag):
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

    def handle_data(self, data):
        if data:
            self._stack[-1].children.append(data)


def _node_matches(node, parsed):
    tag, cls, node_id = parsed
    return ((tag is None or node.tag == tag)
            and (cls is None
                 or cls in (node.attrs.get("class") or "").split())
            and (node_id is None or node.attrs.get("id") == node_id))


def reference_html_to_text(markup, include=None, exclude=None):
    """The node-tree extractor that the streaming one replaced.

    It builds the whole tree, detaches excluded subtrees, collects the
    outermost included nodes in document order and renders each with a
    recursive walk. (The old code collected every included node and then
    skipped those inside an earlier one, which keeps the same nodes.)
    html_to_text must return exactly what this returns.
    """
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    root = builder.root

    def remove(node, parsed):
        node.children = [
            child for child in node.children
            if isinstance(child, str)
            or not any(_node_matches(child, p) for p in parsed)]
        for child in node.children:
            if isinstance(child, _Node):
                remove(child, parsed)

    def outermost(node, parsed, found):
        for child in node.children:
            if isinstance(child, _Node):
                if any(_node_matches(child, p) for p in parsed):
                    found.append(child)
                else:
                    outermost(child, parsed, found)
        return found

    def render(node, out):
        if isinstance(node, str):
            out.append(node)
        elif node.tag == "br":
            out.append("\n")
        elif node.tag not in DROP_TAGS:
            block = node.tag in BLOCK_TAGS
            if block:
                out.append("\n\n")
            for child in node.children:
                render(child, out)
            if block:
                out.append("\n\n")
        return out

    if exclude:
        remove(root, [parse_selector(s) for s in exclude])
    if include:
        targets = outermost(root, [parse_selector(s) for s in include], [])
        return "\n\n".join("".join(render(t, [])) for t in targets)
    return "".join(render(root, []))


# Quoted, bare, unquoted, single-quoted, upper-case and malformed
# attributes, so that start tags reach both the one-regex path and the
# port of html.parser's tolerant rules. Some hold a selector's value where
# no selector reads it (data-k="a", class="ab") or a value that matches
# only once unescaped, so that the check on whether a tag's attributes
# need reading at all goes both ways.
_CLASSES = ["", ' class="a"', ' class="b a"', " class", ' id="x"',
            ' class="b" id="x"', ' class="a" class="b"', " class=a",
            " class='b a'", ' CLASS="a"', " ID=x", ' class="x&amp;a"',
            ' class="x&#32;a"', ' class="a"id="x"', " \xa0class=a",
            "\x0b", " id=x/", ' class = "a"', ' class="a',
            ' data-k="a"', ' class="ab"', ' id="xa"', ' class="&#97;"',
            ' class="&#98;"', ' id="&#120;"']
_TAGS = ["div", "p", "span", "section", "b", "li", "nav", "script",
         "br", "img", "hr", "main", "style", "DIV", "Script"]
_PIECES = st.one_of(
    st.builds("<{}{}>".format, st.sampled_from(_TAGS),
              st.sampled_from(_CLASSES)),
    st.builds("<{}{}/>".format, st.sampled_from(_TAGS),
              st.sampled_from(_CLASSES)),
    st.builds("</{}>".format, st.sampled_from(_TAGS)),
    st.sampled_from(["t", "u v", " ", "\n", "a&amp;b", "&lt;p&gt;",
                     "<!--c-->", "<!DOCTYPE html>", "<", "</", "&",
                     "</SCRIPT >", "</script x>", "</style\n>", "<a/b>",
                     "<p =x>", "</ x>", "</>", "<![CDATA[x]]>", "<![if x]>",
                     "<![x", "<?pi>", "-->", "<!-- c", "\xa0", "a < b",
                     "<3", "<a ", '<p a="']),
)
_SELECTORS = st.lists(
    st.sampled_from(["div", ".a", ".b", "#x", "p.a", "span#x", "section",
                     "nav", "br", "hr.b", "script", "li"]),
    max_size=3)


class TestStreamingMatchesReference:
    @settings(deadline=None, max_examples=500)
    @given(pieces=st.lists(_PIECES, max_size=30),
           last=st.sampled_from(["", "&", "<", "&am"]),
           include=st.one_of(st.none(), _SELECTORS),
           exclude=st.one_of(st.none(), _SELECTORS))
    @example(pieces=['<div class="a">', "t", '<div class="a">', "u v",
                     "</div>", "</div>"],
             last="", include=[".a"], exclude=None)
    @example(pieces=["<main>", "t", '<p class="b">', "u v", "</p>", "<p>",
                     "t"], last="&", include=["main"], exclude=[".b"])
    @example(pieces=["<nav>", '<div class="a"/>', '<span class>', "t",
                     '<p class="a">', "u v", "<br>", "</b>", "t"],
             last="<", include=[".a", "nav"], exclude=None)
    @example(pieces=['<p class="a', "t", "</p>", "u v"], last="",
             include=None, exclude=None)
    @example(pieces=["t", '<div class="&#97;">', "u v", "</div>", "t"],
             last="", include=[".a"], exclude=None)
    # "a" occurs in the name "class", "b" and "x" only once unescaped.
    @example(pieces=['<p class="&#98;">', "t", "</p>", '<b id="&#120;">',
                     "u v", "</b>", "t"],
             last="", include=None, exclude=[".b", "#x"])
    def test_same_text_as_reference(self, pieces, last, include, exclude):
        markup = "".join(pieces) + last
        try:
            expected = reference_html_to_text(
                markup, include=include, exclude=exclude)
        except AssertionError:  # html.parser on "<![x" and the like
            with pytest.raises(ExtractionError):
                html_to_text(markup, include=include, exclude=exclude)
        else:
            assert html_to_text(
                markup, include=include, exclude=exclude) == expected


@pytest.mark.parametrize("include", [None, [".a"]])
def test_deep_nesting_does_not_recurse(include):
    depth = 5000
    # A quoted class takes the one-regex path, an unquoted one the port.
    for opening in ('<div class="a">', "<div class=a>"):
        markup = opening * depth + "<p>deep</p>" + "</div>" * depth
        assert normalize_text(html_to_text(markup, include=include)) == \
            "deep"
