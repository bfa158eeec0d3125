"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench/tests"""

import json
import time

import numpy as np
import pytest

import child
import run
import spans
import workloads as W


def span(sid, name, t0, t1, parent=None, n=None, exc=None):
    return {"id": sid, "name": name, "parent": parent, "cmd": "0:0", "t0": t0, "t1": t1,
            "exc": exc, "n": n}


def test_self_time_subtracts_nested_children():
    spans_ = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 4.0, parent=0),
              span(2, "d", 2.0, 3.0, parent=1), span(3, "c", 5.0, 6.0, parent=0)]
    assert spans.self_times(spans_) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_clips_and_merges_child_intervals():
    spans_ = [span(0, "a", 0.0, 10.0), span(1, "b", 2.0, 5.0, parent=0),
              span(2, "b", 4.0, 6.0, parent=0), span(3, "c", 9.0, 12.0, parent=0)]
    # covered: [2, 6] and [9, 10]
    assert spans.self_times(spans_)[0] == pytest.approx(5.0)


def test_layer_totals_count_outermost_spans_and_derive_ratios():
    spans_ = [
        span(0, "booster.fit", 0.0, 10.0, n=4),
        span(1, "tree.grow", 1.0, 5.0, parent=0, n=100),
        span(2, "tree.quantile_candidates", 1.0, 2.0, parent=1),
        span(3, "tree.grow", 5.0, 9.0, parent=0, n=100),
        span(4, "tree.predict", 9.0, 9.5, parent=0, n=7),
        # a recursive call: its time is inside the outer span already
        span(5, "tree.predict", 9.1, 9.2, parent=4, n=3),
        span(6, "losses.dgpd_mean", 11.0, 12.0, n=50, exc="MemoryError"),
    ]
    m = spans.layer_metrics(spans_)
    assert m["tree.grow_s"] == pytest.approx(8.0)
    assert m["tree.grow_calls"] == 2
    assert m["tree.grow_self_s"] == pytest.approx(7.0)
    assert m["tree.grow_cells"] == 200
    assert m["tree.grow_cells_per_s"] == pytest.approx(25.0)
    assert m["booster.fit_self_s"] == pytest.approx(1.5)
    assert m["tree.predict_s"] == pytest.approx(0.5)
    assert m["tree.predict_calls"] == 2
    assert m["tree.candidate_sets_per_fit"] == pytest.approx(0.25)
    assert m["losses.dgpd_mean_errors"] == 1
    assert m["mixture.raw_passes_per_call"] == 0.0  # no threshold_probs: base is zero


def test_pass_shares_add_child_start_up_and_count_nested_reading_once():
    spans_ = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "mixture.threshold_probs", 1.0, 5.0, parent=0),
        span(2, "tree.predict", 2.0, 3.0, parent=1),
        span(3, "dataset.load_csv", 5.0, 6.0, parent=0),
    ]
    shares = spans.pass_shares(spans_, import_s=2.5)
    assert shares["pass_s"] == pytest.approx(12.5)
    assert shares["cold_start"] == pytest.approx(0.2)
    assert shares["model_reading"] == pytest.approx(4.0 / 12.5)
    assert shares["load_csv"] == pytest.approx(1.0 / 12.5)
    assert shares["tree_grow"] == 0.0
    assert shares["other"] == pytest.approx(0.4)


def test_merge_renumbers_parents():
    a = [span(0, "x", 0.0, 1.0)]
    b = [span(0, "y", 0.0, 2.0), span(1, "z", 0.5, 1.0, parent=0)]
    merged = spans.merge(a, b)
    assert [s["id"] for s in merged] == [0, 1, 2]
    assert merged[2]["parent"] == 1


def test_recorder_marks_the_exception_and_keeps_nesting():
    rec = spans.Recorder()

    def boom():
        raise MemoryError

    def outer():
        with pytest.raises(MemoryError):
            rec.call("inner", boom, (), {})
        return 3

    assert rec.call("outer", outer, (), {}, size=lambda a, k, r: r) == 3
    outer_span, inner_span = rec.spans
    assert inner_span["parent"] == outer_span["id"]
    assert inner_span["exc"] == "MemoryError" and outer_span["exc"] is None
    assert outer_span["n"] == 3


def test_wide_generator_is_deterministic_in_its_seed():
    a, b, c = W.wide_dataset(5), W.wide_dataset(5), W.wide_dataset(6)
    for name in ("cnt", "ba", "covariates"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    assert not np.array_equal(a.covariates, c.covariates, equal_nan=True)
    assert a.covariates.shape == (W.WIDE_ROWS, 2 + W.WIDE_NOISE)
    assert 0.03 < np.isnan(a.covariates).mean() < 0.07
    assert 0.07 < np.isnan(a.cnt).mean() < 0.13


def test_setup_writes_identical_inputs_for_one_seed(tmp_path):
    digests = []
    for k, seed in enumerate((4, 4, 5)):
        d = tmp_path / str(k)
        d.mkdir()
        W.setup_fit_wide(d, seed)
        digests.append({p.name: W.sha256(p) for p in d.iterdir()})
    assert digests[0] == digests[1]
    assert digests[0]["wide.csv"] != digests[2]["wide.csv"]


def test_failing_command_is_counted_and_adds_no_sample(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)

    def setup(workdir, seed):
        (workdir / "bad.ini").write_text("[train]\nno_such_key = 1\n", encoding="utf-8")
        argv = ["train", "--config", "bad.ini", "--out", "m.json"]
        check = W.check_model("m.json", 1)
        # predict_full is the step of the known MemoryError, failing here for
        # another reason, so the failure must not be reported as the known one
        return [W.Step("predict_full", argv, None, ("m.json",), check, probe=True),
                W.Step("train_bad", argv, "train_s", ("m.json",), check)]

    bench_run = run.Run("predict_wide")
    summaries = run.run_untraced(setup, 0, 0.0, 1024 * 2 ** 20, time.perf_counter() + 120,
                                 tmp_path, bench_run)
    assert bench_run.attempted == 2
    assert [f["step"] for f in bench_run.failures] == ["predict_full", "train_bad"]
    for failure in bench_run.failures:
        assert failure["known"] is None
        assert failure["reason"] == "exit 1" and "unknown keys" in failure["stderr_tail"]
    assert "pipeline_s" not in summaries and "train_s" not in summaries
    # the probe's memory is recorded apart and does not feed peak_rss_mb
    assert len(bench_run.probe_rss_mb) == 1 and len(bench_run.rss_mb) == 1
    assert summaries["peak_rss_mb"]["median"] == bench_run.rss_mb[0]
    assert bench_run.correct  # a failed command is a failure, not a wrong output


def test_probe_runs_in_every_pass(tmp_path, monkeypatch):
    # failed / attempted must not depend on how many passes fit into a run
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "reference_s", lambda: run.REFERENCE_NOMINAL_S)

    def fake_child(argv, cwd, mem_cap, timeout_s):
        code = 1 if "probe" in argv else 0
        return child.ChildResult(code, 0.001, 0.001, 10.0, "", "MemoryError")

    monkeypatch.setattr(run, "run_child", fake_child)

    def setup(workdir, seed):
        return [W.Step("probe", ["probe"], None, (), lambda d, out: {}, probe=True),
                W.Step("ok", ["ok"], "train_s", (), lambda d, out: {})]

    bench_run = run.Run("unit")
    summaries = run.run_untraced(setup, 0, 0.05, 1024 * 2 ** 20, time.perf_counter() + 60,
                                 tmp_path, bench_run)
    passes = summaries["pipeline_s"]["n"]
    assert passes > 1
    assert bench_run.attempted == 2 * passes and len(bench_run.failures) == passes


def test_a_failure_is_known_only_when_it_is_the_expected_error():
    tail = "numpy._core._exceptions._ArrayMemoryError: Unable to allocate 394. MiB"
    assert W.known_failure("predict_wide", "predict_full", None, tail).startswith("MemoryError")
    assert W.known_failure("predict_wide", "predict_full", "MemoryError", "") is not None
    assert W.known_failure("predict_wide", "predict_full", "timeout", "") is None
    assert W.known_failure("predict_wide", "predict_full", None, "DataError: bad") is None
    assert W.known_failure("fit_wide", "predict_full", "MemoryError", tail) is None


def test_scaled_time_uses_the_reference_timings_around_it(monkeypatch):
    timings = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "reference_s", lambda: next(timings))
    bench_run = run.Run("unit")
    assert bench_run.scaled(2.0) == 2.0  # no reference kept: unscaled
    bench_run.reference = [run.reference_s()]
    assert bench_run.scaled(2.0) == pytest.approx(2.0 * run.REFERENCE_NOMINAL_S / 0.2)
    assert bench_run.scaled(1.0) == pytest.approx(1.0 * run.REFERENCE_NOMINAL_S / 0.25)


def test_output_check_rejects_decreasing_mixture_probabilities(tmp_path):
    (tmp_path / "p.csv").write_text("cell,year,month,p_le_0,p_le_5\n1,2001,3,0.5,0.4\n",
                                    encoding="utf-8")
    with pytest.raises(W.CheckError, match="decrease"):
        W.check_mixture_predict("p.csv", 1, 2)(tmp_path, "")


def test_stdout_value_reads_numpy_scalar_reprs():
    assert W.stdout_value("min_mean_score=np.float64(0.25)\n", "min_mean_score") == 0.25
    with pytest.raises(W.CheckError):
        W.stdout_value("score=nan\n", "score")


def test_benchmark_json_names_every_metric_the_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    layer = set(spans.layer_metrics([])) | {"cli.import_s", "trace.overhead_frac"}
    assert {m["name"] for m in doc["per_layer"]} == layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
    assert {w["name"] for w in doc["workloads"]} == set(W.WORKLOADS)


def test_output_that_changes_between_passes_makes_the_run_incorrect(tmp_path):
    step = W.Step("write", [], None, ("out.txt",), lambda workdir, stdout: {})
    bench_run = run.Run("unit")
    for content in ("a", "a", "b"):
        (tmp_path / "out.txt").write_text(content, encoding="utf-8")
        assert bench_run.record_step(step, tmp_path, 0, None, "", "")
    assert not bench_run.correct
    assert bench_run.check_errors == ["write:out.txt: output differs between passes"]
