"""Seeded corpus generator for the benchmark workloads.

Every corpus is a pure function of (workload, seed): the same seed
writes byte-identical files. The program under test only ever sees the
files written here: a snapshot manifest, payloads, an extraction config
and, for ``small_corpus``, interface assessments.

Text is built from the shipped lexicons plus filler words so that every
detector fires at a steady rate, while filler keeps most sentences
unique. How much text repeats is set per workload (see README.md).
"""

import hashlib
import html
import importlib.util
import json
import os
import random
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "src", "tosaudit", "data")
FIXTURE_DOCS = os.path.join(ROOT, "tests", "fixture_docs.py")

WORKLOADS = ("long_docs", "html_pages", "small_corpus", "review_cycle")

RETRIEVED_AT = "2025-11-01T00:00:00Z"

# Same token rule as the program's tokenizer; used to size documents.
WORD_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

LONG_DOCS_PLATFORMS = 13
LONG_DOCS_HTML = 2
LONG_DOCS_WORDS = 12_000
LONG_DOCS_BOILERPLATE = 0.05

HTML_PAGES_PLATFORMS = 40
HTML_PAGES_CLAUSES = 50
HTML_PAGES_BOILERPLATE = 0.30

COMMON_WORDS = """
account agreement apply area article balance basis benefit board body
brief broad building calm card careful case chance change choice clear
close common community complete content context control copy country
course court current customer daily date decision default degree detail
direct dispute document draft duty early easy effect effort entire event
example fair feature field final first form formal forward free full
future given global good group guide help high hold home idea include
interest issue item job join key kind later law lead legal level light
limit line link list local long main manner market matter meaning member
method minor mode model moment month note notice number offer office open
order owner page paper part party path place plan point policy position
power practice present price prior product program public purpose quality
question quick rate reason record region regular release remote report
request respect response result review right role room rule safe section
sense series set short side sign simple single site small source space
special standard start state status step subject summary support system
table team term test text theme thing title today tool topic total track
trade trust type unit update user value version view visit volume way
week whole window work world year young zone about above across after
against along among around before behind below beside between beyond
during except inside into near onto over past since through toward under
until upon within without the a an and or but nor yet so of to in on at
by for with from as is are was were be been this that these those it its
our their his her they we you your
""".split()

SYLLABLES = ("ba be bi bo bu da de di do du fa fe fi fo ka ke ki ko la le li lo"
             " lu ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa"
             " se si so ta te ti to tu va ve vi vo za ze zo").split()
CODAS = ("", "", "n", "r", "l", "s", "t", "x", "nd", "rt")

SECTION_HEADINGS = (
    "Information We Collect", "How We Use Information", "Sharing and Disclosure",
    "Data Retention", "Your Choices", "Security Practices", "Changes to Terms",
    "Account Termination", "Dispute Resolution", "Contact Details",
)


def _read_json(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _inflections(verb):
    return {verb, verb + "s", verb + "es", verb + "d", verb + "ed",
            verb + "ing", verb[:-1] + "ing"}


class Vocabulary:
    """Lexicon phrases to plant and filler words that plant nothing."""

    def __init__(self, rng):
        data_types = _read_json("data_types.json")["categories"]
        entities = _read_json("entities.json")
        retention = _read_json("retention.json")
        sharing = _read_json("sharing.json")
        vague = _read_json("vague_terms.json")["terms"]
        self.data_types = sorted(p for ps in data_types.values() for p in ps)
        # "X" is a curated entity; a bare capital X is kept out of filler
        # by construction, and planting it would read oddly.
        self.entities = [e for e in entities["curated"] if e != "X"]
        # Suffixes that are also the segmenter's abbreviations ("Inc.")
        # are left out, so a planted name never moves a sentence split.
        self.suffixes = [s for s in entities["corporate_suffixes"]
                         if s not in ("Inc", "Ltd", "Corp")]
        self.descriptors = entities["generic_descriptors"]
        self.retention_verbs = retention["retention_verbs"]
        self.units = retention["duration_units"]
        self.vague_retention = retention["vague_phrases"]
        self.sharing_verbs = sharing["sharing_verbs"]
        self.specific_cues = sharing["specific_cues"]
        self.generic_cues = sharing["generic_cues"]
        self.negation_cues = sharing["negation_cues"]
        self.vague_terms = sorted(
            s for t in vague for s in [t["canonical"]] + t["variants"])

        banned = set()
        phrases = (self.data_types + self.descriptors + self.vague_retention
                   + self.specific_cues + self.generic_cues
                   + self.negation_cues + self.vague_terms + self.units)
        for phrase in phrases:
            banned.update(w.lower() for w in WORD_RE.findall(phrase))
        for verb in self.retention_verbs + self.sharing_verbs + ["keep"]:
            banned.update(_inflections(verb))
        banned.update({"kept", "twelve", "one", "two", "ten"})
        self.common = [w for w in COMMON_WORDS if w not in banned]
        pseudo = set()
        while len(pseudo) < 900:
            word = "".join(rng.choice(SYLLABLES)
                           for _ in range(rng.choice((2, 2, 3, 3, 4))))
            word += rng.choice(CODAS)
            if word not in banned:
                pseudo.add(word)
        self.pseudo = sorted(pseudo)

    def filler(self, rng, n):
        words = []
        for _ in range(n):
            pool = self.pseudo if rng.random() < 0.35 else self.common
            words.append(rng.choice(pool))
        return words

    def name(self, rng):
        return "".join(rng.choice(SYLLABLES) for _ in range(3)).capitalize()


class SentenceMaker:
    """Draws one sentence at a time; the mix sets detector hit rates."""

    KINDS = (("collect", 28), ("partner", 12), ("retain_explicit", 6),
             ("retain_vague", 5), ("share_specific", 9),
             ("share_generic", 6), ("share_negated", 3), ("vague", 12),
             ("plain", 19))

    def __init__(self, vocab, rng):
        self.v = vocab
        self.rng = rng
        self.deck = []

    def _kind(self):
        # Deal kinds from a shuffled deck holding each kind `weight` times,
        # so every 100 sentences carry the exact mix whatever the seed.
        if not self.deck:
            self.deck = [k for k, weight in self.KINDS for _ in range(weight)]
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def _tail(self, lo=4, hi=11):
        words = self.v.filler(self.rng, self.rng.randint(lo, hi))
        if self.rng.random() < 0.25:
            words.insert(self.rng.randrange(len(words) + 1),
                         self.rng.choice(self.v.vague_terms))
        return " ".join(words)

    def _duration(self):
        rng = self.rng
        number = (str(rng.randint(2, 120)) if rng.random() < 0.7
                  else rng.choice(("three", "six", "thirty", "ninety")))
        return f"{number} {rng.choice(self.v.units)}"

    def make(self):
        rng, v = self.rng, self.v
        kind = self._kind()
        if kind == "collect":
            items = rng.sample(v.data_types, rng.randint(1, 4))
            body = (f"We {rng.choice(('collect', 'gather', 'receive'))} "
                    f"your {', '.join(items[:-1])}"
                    f"{' and ' if len(items) > 1 else ''}{items[-1]} "
                    f"{self._tail()}")
        elif kind == "partner":
            corp = f"{v.name(rng)} {v.name(rng)} {rng.choice(v.suffixes)}"
            body = (f"{' '.join(v.filler(rng, rng.randint(3, 6))).capitalize()} "
                    f"with {rng.choice(v.entities)} and {corp} {self._tail()}")
        elif kind == "retain_explicit":
            body = (f"We {rng.choice(v.retention_verbs)} "
                    f"{' '.join(v.filler(rng, rng.randint(1, 4)))} for "
                    f"{self._duration()} {self._tail()}")
        elif kind == "retain_vague":
            body = (f"We {rng.choice(v.retention_verbs)} "
                    f"{' '.join(v.filler(rng, rng.randint(1, 4)))} "
                    f"{rng.choice(v.vague_retention)} {self._tail()}")
        elif kind == "share_specific":
            body = (f"We {rng.choice(v.sharing_verbs)} "
                    f"{' '.join(v.filler(rng, rng.randint(1, 4)))} with "
                    f"{rng.choice(v.descriptors)} for "
                    f"{rng.choice(v.specific_cues)} {self._tail()}")
        elif kind == "share_generic":
            body = (f"We {rng.choice(v.sharing_verbs)} "
                    f"{' '.join(v.filler(rng, rng.randint(1, 4)))} "
                    f"{rng.choice(v.generic_cues)} {self._tail()}")
        elif kind == "share_negated":
            body = (f"We {rng.choice(v.negation_cues)} "
                    f"{' '.join(v.filler(rng, rng.randint(2, 5)))} "
                    f"{self._tail()}")
        elif kind == "vague":
            words = v.filler(rng, rng.randint(10, 18))
            for _ in range(rng.randint(1, 3)):
                words.insert(rng.randrange(1, len(words)),
                             rng.choice(v.vague_terms))
            body = " ".join(words).capitalize()
        else:
            body = " ".join(v.filler(rng, rng.randint(12, 24))).capitalize()
        return body + "."


def _count_words(text):
    return len(WORD_RE.findall(text))


def _sentences_with_boilerplate(maker, rng, pool, share):
    """Fresh sentences, with `share` of every 100 drawn from the pool."""
    while True:
        slots = [True] * round(100 * share) + [False] * round(100 * (1 - share))
        rng.shuffle(slots)
        for boilerplate in slots:
            yield rng.choice(pool) if boilerplate else maker.make()


def plain_document(title, sentences, rng, words):
    """Paragraphs of 3-7 sentences until the document reaches `words`."""
    paragraphs = [title]
    count = _count_words(title)
    while count < words:
        para = []
        for _ in range(rng.randint(3, 7)):
            sentence = next(sentences)
            para.append(sentence)
            count += _count_words(sentence)
        paragraphs.append(" ".join(para))
    return paragraphs


def fixture_html(title, paragraphs, rng, vocab):
    """A page shaped like the fixture HTML documents: boilerplate around
    <main>, one promo block inside it, selected with include/exclude."""
    body = [f"<h1>{html.escape(paragraphs[0])}</h1>"]
    promo_at = rng.randrange(1, len(paragraphs))
    for i, para in enumerate(paragraphs[1:], start=1):
        if i == promo_at:
            body.append('<div class="promo">Try '
                        f'{" ".join(vocab.filler(rng, 6))} today.</div>')
        body.append(f"<p>{html.escape(para)}</p>")
    main = "\n".join(body)
    return (f"<!DOCTYPE html>\n<html><head><title>{html.escape(title)}</title>"
            '<script>var bootstrap = "x9";</script>'
            "<style>.nav { color: red; }</style></head>\n<body>\n"
            f"<nav>{' '.join(vocab.filler(rng, 8))}</nav>\n"
            f'<div id="banner">{" ".join(vocab.filler(rng, 5))}</div>\n'
            f"<main>\n{main}\n</main>\n"
            f"<footer>{' '.join(vocab.filler(rng, 6))}</footer>\n"
            "</body></html>\n")


def _link_list(rng, vocab, n):
    items = []
    for _ in range(n):
        label = " ".join(vocab.filler(rng, rng.randint(1, 3)))
        href = "/" + "/".join(vocab.filler(rng, 2))
        items.append(f'<li><a href="{href}">{label}</a></li>')
    return "<ul class=\"menu-list\">" + "".join(items) + "</ul>"


def _svg_sprite(rng, n):
    symbols = []
    for i in range(n):
        paths = "".join(
            f'<path d="M{rng.randint(0, 24)} {rng.randint(0, 24)}'
            f'L{rng.randint(0, 24)} {rng.randint(0, 24)}Z"/>'
            for _ in range(4))
        symbols.append(f'<symbol id="i{i}" viewBox="0 0 24 24">{paths}</symbol>')
    return ('<svg xmlns="http://www.w3.org/2000/svg" style="display:none">'
            + "".join(symbols) + "</svg>")


def _spanned(text, rng):
    """Wrap each run of 1-3 words in its own span, as export tools do."""
    words = text.split(" ")
    runs = []
    i = 0
    while i < len(words):
        n = rng.randint(1, 3)
        runs.append(f'<span class="r">{html.escape(" ".join(words[i:i + n]))}'
                    "</span>")
        i += n
    return " ".join(runs)


def markup_page(title, clauses, rng, vocab, style):
    """A markup-heavy terms page; `style` picks the selectors used."""
    sections = []
    for n, (heading, sentences) in enumerate(clauses, start=1):
        sections.append(
            f'<section class="terms" id="clause-{n}" data-clause="{n}">'
            f'<h3 class="clause-title"><span>{heading}</span></h3>'
            f'<div class="clause-body"><p class="clause">'
            f"{_spanned(' '.join(sentences), rng)}</p></div></section>")
    toc = ('<div class="toc">'
           + _link_list(rng, vocab, len(clauses)) + "</div>")
    share_bar = ('<div class="share-bar">' + " ".join(
        f'<a href="#s{i}">{w}</a>' for i, w in
        enumerate(vocab.filler(rng, 8))) + "</div>")
    content = (f"<h1>{html.escape(title)}</h1>{toc}"
               + "".join(sections) + share_bar)
    for depth in range(30):
        content = (f'<div class="layout-{depth} container" '
                   f'data-depth="{depth}">{content}</div>')
    nav = ('<nav class="mega-menu">' + "".join(
        f'<div class="menu-column">{_link_list(rng, vocab, 16)}</div>'
        for _ in range(12)) + "</nav>")
    footer = ("<footer>" + "".join(
        f'<div class="footer-column">{_link_list(rng, vocab, 15)}</div>'
        for _ in range(8)) + "</footer>")
    cookie = ('<div class="cookie-banner" id="cookies"><p>'
              f'{" ".join(vocab.filler(rng, 18)).capitalize()}.</p>'
              "<button>Accept all</button></div>")
    skip = '<a id="skip" href="#main">Skip to content</a>'
    page = ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            f"<title>{html.escape(title)}</title>"
            "<style>" + " ".join(
                f".layout-{i}{{margin:0 auto;padding:{i}px}}"
                for i in range(30)) + "</style>"
            "<script>window.dataLayer=window.dataLayer||[];</script>"
            f"</head><body>{skip}{_svg_sprite(rng, 100)}{nav}{cookie}"
            f'<main id="main">{content}</main>{footer}</body></html>\n')
    if style == "sections":
        config = {"include": ["section.terms"]}
    elif style == "main":
        config = {"include": ["main"], "exclude": [".toc", ".share-bar"]}
    else:
        config = {"exclude": [".cookie-banner", ".toc", ".share-bar",
                              "#skip"]}
    return page, config


def _write_corpus(root, docs, extraction_config, assessments=None):
    """docs: list of (platform, media_kind, payload bytes)."""
    entries = []
    for platform, media_kind, payload in docs:
        digest = hashlib.sha256(payload).hexdigest()
        ext = "html" if media_kind == "html" else "txt"
        rel = os.path.join("payloads", platform, f"{digest}.{ext}")
        os.makedirs(os.path.join(root, os.path.dirname(rel)), exist_ok=True)
        with open(os.path.join(root, rel), "wb") as fh:
            fh.write(payload)
        entries.append({
            "platform": platform,
            "source_url": f"https://example.org/{platform}/terms",
            "retrieved_at": RETRIEVED_AT,
            "content_digest": digest,
            "payload_path": rel,
            "media_kind": media_kind,
        })
    manifest = {"schema_version": 1, "created_at": RETRIEVED_AT,
                "entries": entries}
    _write_json(os.path.join(root, "manifest.json"), manifest)
    if extraction_config:
        _write_json(os.path.join(root, "extraction_config.json"),
                    extraction_config)
    for platform, data in (assessments or {}).items():
        _write_json(os.path.join(root, "assessments", f"{platform}.json"),
                    data)


def _write_json(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2,
                            ensure_ascii=False) + "\n")


def _platform_names(rng, vocab, n):
    names = set()
    while len(names) < n:
        names.add(vocab.name(rng).lower())
    return sorted(names)


def build_long_docs(root, seed):
    rng = random.Random(f"long_docs:{seed}")
    vocab = Vocabulary(rng)
    maker = SentenceMaker(vocab, rng)
    pool = [maker.make() for _ in range(25)]
    sentences = _sentences_with_boilerplate(
        maker, rng, pool, LONG_DOCS_BOILERPLATE)
    platforms = _platform_names(rng, vocab, LONG_DOCS_PLATFORMS)
    html_platforms = set(rng.sample(platforms, LONG_DOCS_HTML))
    docs = []
    config = {}
    for platform in platforms:
        title = f"{platform.capitalize()} Terms of Service"
        paragraphs = plain_document(title, sentences, rng, LONG_DOCS_WORDS)
        if platform in html_platforms:
            payload = fixture_html(title, paragraphs, rng, vocab)
            docs.append((platform, "html", payload.encode("utf-8")))
            config[platform] = {"include": ["main"], "exclude": [".promo"]}
        else:
            payload = "\n\n".join(paragraphs) + "\n"
            docs.append((platform, "plain_text", payload.encode("utf-8")))
    _write_corpus(root, docs, config)


def build_html_pages(root, seed):
    rng = random.Random(f"html_pages:{seed}")
    vocab = Vocabulary(rng)
    maker = SentenceMaker(vocab, rng)
    pool = [maker.make() for _ in range(100)]
    sentences = _sentences_with_boilerplate(
        maker, rng, pool, HTML_PAGES_BOILERPLATE)
    platforms = _platform_names(rng, vocab, HTML_PAGES_PLATFORMS)
    styles = ["sections"] * 20 + ["main"] * 10 + ["body"] * 10
    rng.shuffle(styles)
    docs = []
    config = {}
    for platform, style in zip(platforms, styles):
        clauses = [(rng.choice(SECTION_HEADINGS),
                    [next(sentences)])
                   for _ in range(HTML_PAGES_CLAUSES)]
        title = f"{platform.capitalize()} Terms of Service"
        page, config[platform] = markup_page(title, clauses, rng, vocab, style)
        docs.append((platform, "html", page.encode("utf-8")))
    _write_corpus(root, docs, config)


def load_fixture_docs():
    """The repository's hand-counted fixture corpus (tests/fixture_docs.py)."""
    spec = importlib.util.spec_from_file_location("fixture_docs", FIXTURE_DOCS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_small_corpus(root, seed):
    """The 13 shipped fixture documents, as tests/conftest.py builds them.

    The seed is accepted for a uniform interface and ignored: this
    workload is pinned to the hand-counted oracle EXPECTED_AUTO.
    """
    fixture = load_fixture_docs()
    docs = [(p, fixture.DOCS[p][0], fixture.DOCS[p][1].encode("utf-8"))
            for p in fixture.PLATFORMS]
    assessments = {p: fixture.assessment_dict(p) for p in fixture.PLATFORMS}
    _write_corpus(root, docs, fixture.EXTRACTION_CONFIG, assessments)


BUILDERS = {
    "long_docs": build_long_docs,
    "html_pages": build_html_pages,
    "small_corpus": build_small_corpus,
    # review_cycle reviews the results of the long_docs corpus.
    "review_cycle": build_long_docs,
}


def build_corpus(workload, root, seed):
    os.makedirs(root, exist_ok=True)
    BUILDERS[workload](root, seed)
    return root


def make_review_file(exported_path, out_path, seed, share=0.3):
    """Relabel or reject about `share` of retention and sharing findings.

    Returns {(platform, sentence_index, detector, start, end): label}
    for every record the benchmark changed, so the expected post-review
    counts can be derived without the program.
    """
    rng = random.Random(f"review:{seed}")
    alternatives = {
        "retention": ("explicit", "vague", "rejected"),
        "sharing": ("specific", "generic", "negated", "rejected"),
    }
    labels = {}
    with open(exported_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(json.dumps(lines[0], sort_keys=True) + "\n")
        for rec in lines[1:]:
            choices = alternatives.get(rec["detector"])
            if choices and rng.random() < share:
                label = rng.choice(
                    [c for c in choices if c != rec["auto_label"]])
                rec["human_label"] = label
                rec["reviewer_note"] = "benchmark relabel"
                labels[finding_key(rec)] = label
            out.write(json.dumps(rec, sort_keys=True, ensure_ascii=False)
                      + "\n")
    return labels


def finding_key(rec):
    span = rec["evidence_span"]
    return (rec["platform"], rec["sentence_index"], rec["detector"],
            span["start"], span["end"])
