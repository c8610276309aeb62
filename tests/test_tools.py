"""The scripts under tools/: code_lines.py counts the lines that hold code
(not blank lines, comment lines or the lines of a docstring), and
bench_pairs.py summarizes alternated benchmark runs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    assigned, not a docstring"""
    return (x +
            1)
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    code_lines = _load_tool("code_lines")
    # import; def; the assigned string's two lines; return over two lines
    assert code_lines.code_lines(SNIPPET) == 6
    (tmp_path / "b.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     6  b.py", "     7  total", ""]


END_TO_END = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "f1", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def _result(job_s, f1, failed=0):
    return {"correct": True, "attempted": 3, "failed": failed,
            "metrics": {"job_s": {"value": job_s, "unit": "s"},
                        "f1": {"value": f1, "unit": "ratio"}}}


def test_bench_pairs_summary_on_canned_results():
    """Medians, quartiles and better-pair counts per side; the bound flag
    reads the change's median against the parent's in the metric's own
    direction; a pair with a failed run is left out."""
    summarize = _load_tool("bench_pairs").summarize
    # parent job_s 1..5 and change job_s 1.3x the parent's: worse by 0.3;
    # change f1 above the parent's in 4 of 5 pairs
    pairs = [{"seed": i, "parent": _result(i, 0.5), "change":
              _result(1.3 * i, 0.6 if i < 5 else 0.4)} for i in range(1, 6)]
    pairs.append({"seed": 6, "parent": _result(0.1, 0.0),
                  "change": {"returncode": 1, "stderr": "failed"}})
    summary = summarize(pairs, END_TO_END)
    job = summary["job_s"]
    assert job["pairs"] == 5
    assert job["parent"] == {"median": 3, "q1": 2, "q3": 4}
    assert job["change"]["median"] == 1.3 * 3
    assert job["change_better_pairs"] == 0
    assert abs(job["worse_by"] - 0.3) < 1e-12 and job["beyond_bound"]
    f1 = summary["f1"]
    assert f1["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert f1["change"]["median"] == 0.6
    assert f1["change_better_pairs"] == 4
    assert abs(f1["worse_by"] + 0.2) < 1e-12 and not f1["beyond_bound"]
    # a higher-is-better metric whose change falls by more than its bound
    pairs = [{"seed": 1, "parent": _result(1.0, 0.8),
              "change": _result(0.9, 0.5)}]
    summary = summarize(pairs, END_TO_END)
    assert summary["f1"]["beyond_bound"]
    assert summary["f1"]["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert not summary["job_s"]["beyond_bound"]
    assert summary["job_s"]["change_better_pairs"] == 1


def _pairs(parent_job_s, change_job_s, change_failed=0):
    return [{"seed": i, "parent": _result(p, 0.5),
             "change": _result(c, 0.5, change_failed if i == 1 else 0)}
            for i, (p, c) in enumerate(zip(parent_job_s, change_job_s),
                                       start=1)]


def test_bench_pairs_resolves_a_gain_as_the_simplicity_review_does():
    """A gain is resolved when the change is better in at least 9 of 10
    pairs run and its median beats the parent's by more than the parent's
    interquartile distance, with no more failed operations."""
    summarize = _load_tool("bench_pairs").summarize
    # parent 1.0..1.9 s: quartiles 1.225 and 1.675, median 1.45
    parent = [1.0 + i / 10 for i in range(10)]
    faster = [p - 0.5 for p in parent]
    summary = summarize(_pairs(parent, faster), END_TO_END)
    assert summary["job_s"]["change_better_pairs"] == 10
    assert summary["job_s"]["gain_resolved"]
    # equal f1 in every pair: no gain
    assert not summary["f1"]["gain_resolved"]
    # better in 9 of 10, the tenth a tie: resolved
    tie = faster[:9] + [parent[9]]
    assert summarize(_pairs(parent, tie), END_TO_END)["job_s"]["gain_resolved"]
    # better in 8 of 10: not resolved, however large the median gain
    eight = faster[:8] + parent[8:]
    assert not summarize(_pairs(parent, eight),
                         END_TO_END)["job_s"]["gain_resolved"]
    # better in every pair, by less than the parent's quartile distance
    slight = [p - 0.4 for p in parent]
    assert not summarize(_pairs(parent, slight),
                         END_TO_END)["job_s"]["gain_resolved"]
    # a failed operation the parent did not have
    assert not summarize(_pairs(parent, faster, change_failed=1),
                         END_TO_END)["job_s"]["gain_resolved"]
    # a failed run is a failure too, and its pair counts for neither side
    pairs = _pairs(parent, faster)
    pairs[0]["change"] = {"returncode": 1, "stderr": "failed"}
    summary = summarize(pairs, END_TO_END)
    assert summary["job_s"]["pairs"] == 9
    assert summary["job_s"]["change_better_pairs"] == 9
    assert not summary["job_s"]["gain_resolved"]
    pairs[0]["parent"] = {"returncode": 1, "stderr": "failed"}
    assert summarize(pairs, END_TO_END)["job_s"]["gain_resolved"]
    pairs[1]["parent"] = pairs[1]["change"] = pairs[0]["change"]
    assert not summarize(pairs, END_TO_END)["job_s"]["gain_resolved"]
    # higher is better: f1 up by more than the parent's spread
    pairs = [{"seed": i, "parent": _result(1.0, 0.5 + i / 100),
              "change": _result(1.0, 0.8)} for i in range(10)]
    assert summarize(pairs, END_TO_END)["f1"]["gain_resolved"]


def test_bench_pairs_regression_verdict_per_metric():
    """worse beyond the bound; unresolved where the parent's quartile
    distance exceeds the bound, as a fraction of its median, unless every
    change run beats every parent run; none otherwise."""
    summarize = _load_tool("bench_pairs").summarize
    # parent 1.0..1.9 s: quartile distance 0.45, 31% of the 1.45 median
    wide = [1.0 + i / 10 for i in range(10)]
    narrow = [1.0 + i / 100 for i in range(10)]

    def verdict(parent, change):
        return summarize(_pairs(parent, change), END_TO_END)["job_s"]["verdict"]

    assert verdict(narrow, [1.3 * p for p in narrow]) == "worse"
    assert verdict(wide, [1.3 * p for p in wide]) == "worse"
    assert verdict(wide, wide) == "unresolved"
    # better in every pair, yet the change's slowest run is slower than
    # the parent's fastest
    assert verdict(wide, [p - 0.05 for p in wide]) == "unresolved"
    # every change run faster than every parent run
    assert verdict(wide, [p - 1.0 for p in wide]) == "none"
    assert verdict(narrow, narrow) == "none"
    assert verdict(narrow, [1.2 * p for p in narrow]) == "none"
    # higher is better: a wide f1 spread is unresolved until every change
    # run is above every parent run; equal zero medians are none
    pairs = [{"seed": i, "parent": _result(1.0, 0.5 + i / 20),
              "change": _result(1.0, 0.5 + i / 20)} for i in range(10)]
    summary = summarize(pairs, END_TO_END)
    assert summary["f1"]["verdict"] == "unresolved"
    assert summary["job_s"]["verdict"] == "none"
    for pair in pairs:
        pair["change"] = _result(1.0, 1.0)
    assert summarize(pairs, END_TO_END)["f1"]["verdict"] == "none"
    zero = [{"seed": 1, "parent": _result(1.0, 0.0),
             "change": _result(1.0, 0.0)}]
    assert summarize(zero, END_TO_END)["f1"]["verdict"] == "none"
