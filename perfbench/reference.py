"""Fixed reference work that measures how fast the host is right now.

run.py starts this script as a fresh process between ops and divides
each op's time by the time of the reference runs beside it, so a host
whose speed drifts does not move the reported figures. It imports only
the standard library, never tosaudit, so no change to the program can
change its cost. Its mix follows an op's: interpreter start, regex
tokenizing, dict counting and JSON round trips.
"""

import json
import re

WORDS = ("we may share your personal data with our partners for as long as "
         "necessary including location contacts and device identifiers to "
         "provide improve and secure the service under applicable law").split()
WORD = re.compile(r"[^\W_]+")
SENTENCE = re.compile(r"(?<=[.!?])\s+")

state = 12345
parts = []
for _ in range(24000):
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    parts.append(WORDS[state % len(WORDS)] + ("." if state % 13 == 0 else ""))
records = []
for i, sentence in enumerate(SENTENCE.split(" ".join(parts))):
    tokens = WORD.findall(sentence.lower())
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    records.append({"index": i, "words": len(tokens), "counts": counts,
                    "hits": [t for t in tokens if t in ("share", "data")]})
blob = json.dumps({"records": records}, sort_keys=True, indent=2)
if len(json.loads(blob)["records"]) != len(records):
    raise SystemExit("reference work lost records")
