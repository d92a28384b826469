"""Output checks applied to every op's results.

Each check returns a list of problem strings; an empty list means the
output is correct. The benchmark counts an op with any problem as
failed, prints the problems, and reports the run as not correct.
"""

import json

COUNT_KEYS = ("dt", "en", "re_explicit", "re_vague", "sg", "ss")


def load_payload(raw):
    """Parse results bytes; a parse error is a problem, not a crash."""
    try:
        return json.loads(raw), []
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, [f"results are not valid JSON: {exc}"]


def check_results(payload, texts):
    """Structure and span checks shared by every workload.

    texts maps platform -> the document text the program indexes, so
    every clarity match and every finding's sentence must lie inside it.
    """
    problems = []
    if payload.get("failures"):
        problems.append(f"failed platforms: {payload['failures']}")
    results = payload.get("results", [])
    platforms = [r.get("platform") for r in results]
    if sorted(platforms) != sorted(texts):
        problems.append(f"platforms {platforms} != corpus {sorted(texts)}")
        return problems
    for result in results:
        platform = result["platform"]
        text = texts[platform]
        sentence_count = result["doc_stats"]["sentence_count"]
        for idx, (start, end), term in result["clarity"]["matches"]:
            if not (0 <= idx < sentence_count and 0 <= start < end <= len(text)):
                problems.append(
                    f"{platform}: clarity match {term!r} at {start}:{end} "
                    f"(sentence {idx}) outside the text")
        for f in result["specificity"]["findings"]:
            sentence = f["sentence_text"]
            span = f["evidence_span"]
            if not 0 <= span["start"] < span["end"] <= len(sentence):
                problems.append(
                    f"{platform}: {f['detector']} evidence "
                    f"{span['start']}:{span['end']} outside its sentence")
            if not 0 <= f["sentence_index"] < sentence_count \
                    or sentence not in text:
                problems.append(
                    f"{platform}: {f['detector']} finding sentence "
                    f"{f['sentence_index']} is not in the document")
    return problems[:20]


def counts_tuple(counts):
    return tuple(counts[k] for k in COUNT_KEYS)


def check_expected_auto(payload, expected):
    """small_corpus: auto counts equal the hand-counted fixture oracle."""
    problems = []
    for result in payload["results"]:
        got = counts_tuple(result["specificity"]["auto"]["counts"])
        want = tuple(expected[result["platform"]])
        if got != want:
            problems.append(
                f"{result['platform']}: auto counts {got} != expected {want}")
    return problems


def expected_post_counts(base_result, labels):
    """Retention and sharing counts implied by the benchmark's labels.

    Data-type and entity records are exported but never relabelled, so
    their post-review counts stay as they were before review.
    """
    counts = dict(base_result["specificity"]["post_review"]["counts"])
    for key in ("re_explicit", "re_vague", "sg", "ss"):
        counts[key] = 0
    to_key = {("retention", "explicit"): "re_explicit",
              ("retention", "vague"): "re_vague",
              ("sharing", "generic"): "sg",
              ("sharing", "specific"): "ss"}
    for f in base_result["specificity"]["findings"]:
        span = f["evidence_span"]
        key = (f["platform"], f["sentence_index"], f["detector"],
               span["start"], span["end"])
        label = labels.get(key, f["human_label"] or f["auto_label"])
        target = to_key.get((f["detector"], label))
        if target:
            counts[target] += 1
    return counts


def check_review(payload, base, labels):
    """review_cycle: auto blocks unchanged, post counts as labelled."""
    problems = []
    base_by_platform = {r["platform"]: r for r in base["results"]}
    for result in payload["results"]:
        platform = result["platform"]
        before = base_by_platform[platform]
        if result["specificity"]["auto"] != before["specificity"]["auto"]:
            problems.append(f"{platform}: review changed the auto block")
        got = result["specificity"]["post_review"]["counts"]
        want = expected_post_counts(before, labels)
        if got != want:
            problems.append(
                f"{platform}: post-review counts {counts_tuple(got)} != "
                f"labelled {counts_tuple(want)}")
    return problems
