"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import checks
import run
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", ["long_docs", "html_pages"])
def test_same_seed_same_corpus_other_seed_differs(tmp_path, workload):
    first = workloads.build_corpus(workload, str(tmp_path / "a"), 3)
    again = workloads.build_corpus(workload, str(tmp_path / "b"), 3)
    other = workloads.build_corpus(workload, str(tmp_path / "c"), 4)
    assert tree_digest(first) == tree_digest(again)
    assert tree_digest(first) != tree_digest(other)


def test_small_corpus_is_the_fixture_corpus_for_every_seed(tmp_path):
    one = workloads.build_corpus("small_corpus", str(tmp_path / "a"), 1)
    two = workloads.build_corpus("small_corpus", str(tmp_path / "b"), 2)
    assert tree_digest(one) == tree_digest(two)
    with open(os.path.join(one, "manifest.json"), encoding="utf-8") as fh:
        platforms = [e["platform"] for e in json.load(fh)["entries"]]
    assert platforms == list(workloads.load_fixture_docs().PLATFORMS)


@pytest.fixture(scope="module")
def small_runner(tmp_path_factory):
    runner = run.Runner("small_corpus", 1, str(tmp_path_factory.mktemp("sc")))
    op = runner.run_op(0, traced=False)
    assert op["problems"] == []
    with open(runner.steps[0][1], "rb") as fh:
        return runner, fh.read()


def corrupt(raw, edit):
    payload = json.loads(raw)
    edit(payload["results"][0])
    return json.dumps(payload).encode()


def test_clean_results_pass(small_runner):
    runner, raw = small_runner
    assert runner.check_content(raw) == []


@pytest.mark.parametrize("edit", [
    lambda r: r["specificity"]["auto"]["counts"].update(dt=99),
    lambda r: r["specificity"]["findings"][0]["evidence_span"].update(
        end=10_000),
    lambda r: r["specificity"]["findings"][0].update(
        sentence_text="A sentence the document never had."),
    lambda r: r["clarity"]["matches"].append([0, [10_000, 10_004], "may"]),
    lambda r: r.update(platform="nobody"),
], ids=["auto-count", "evidence-span", "sentence", "clarity-span",
        "platform"])
def test_corrupted_results_fail(small_runner, edit):
    runner, raw = small_runner
    assert runner.check_content(corrupt(raw, edit))


def test_truncated_results_fail(small_runner):
    runner, raw = small_runner
    assert runner.check_content(raw[: len(raw) // 2])


def test_changed_results_bytes_fail_the_digest_check(small_runner):
    runner, raw = small_runner
    output = runner.steps[0][1]
    with open(output, "wb") as fh:
        fh.write(raw.replace(b'"schema_version": 1', b'"schema_version":1'))
    assert runner._check_output(0, output)


def test_review_labels_drive_expected_counts():
    finding = {"platform": "p", "sentence_index": 0, "detector": "retention",
               "auto_label": "explicit", "human_label": "",
               "evidence_span": {"start": 0, "end": 3}}
    base = {"specificity": {
        "findings": [finding],
        "post_review": {"counts": {"dt": 2, "en": 1, "re_explicit": 1,
                                   "re_vague": 0, "sg": 0, "ss": 0}}}}
    key = workloads.finding_key(finding)
    assert checks.expected_post_counts(base, {})["re_explicit"] == 1
    relabelled = checks.expected_post_counts(base, {key: "vague"})
    assert (relabelled["re_explicit"], relabelled["re_vague"]) == (0, 1)
    assert relabelled["dt"] == 2
    rejected = checks.expected_post_counts(base, {key: "rejected"})
    assert (rejected["re_explicit"], rejected["re_vague"]) == (0, 0)


def test_self_time_subtracts_children():
    spans = [["root", 0, 100, -1], ["a", 10, 40, 0], ["b", 30, 60, 0],
             ["c", 15, 20, 1]]
    assert run.self_times(spans) == [50, 25, 30, 5]


def test_tail_needs_ten_samples_beyond():
    assert run.percentile_tail(list(range(10))) == (0.0, 0)
    assert run.percentile_tail(list(range(100))) == (89, 90)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def run_bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, cwd=workloads.ROOT, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_smoke_all_workloads():
    result = run_bench("--workload", "all", "--seed", "5", "--seconds", "1",
                       "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    for workload in workloads.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0


@pytest.mark.parametrize("workload", ["small_corpus", "review_cycle"])
def test_smoke_traced(workload):
    result = run_bench("--workload", workload, "--seed", "5", "--seconds",
                       "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    if workload == "review_cycle":
        assert metrics["specificity.detect_s"] == 0
        assert metrics["pipeline.review_apply_s"] > 0
    else:
        assert metrics["interface_assess.assessments"] == 13
        assert metrics["specificity.detect_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "traced_cli.py",
                 "reference.py"):
        (bench / name).write_bytes(
            open(os.path.join(BENCH_DIR, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_docs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
