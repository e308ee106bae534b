"""Tests of the campaign benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/campaign``; the
campaigns here are ``table1`` + ``fig21`` at smoke scale, so the whole
file takes a few seconds.
"""

import hashlib
import json

import pytest

import bench_campaign
import layer_trace
from bench_campaign import Workload, main, result_digest, verdict
from layer_trace import (
    TAILS,
    TARGETS,
    Target,
    TraceTargetError,
    Tracer,
    aggregate,
    percentile,
    tail_percentile,
)
import repro.experiments
from repro.core import session as session_module
from repro.core.scale import ExperimentScale
from repro.experiments.base import ExperimentResult
from repro.obs import Obs


# -- spans -------------------------------------------------------------
def test_self_time_subtracts_child_spans():
    spans = [
        ("a", None, 0.0, 10.0, -1),
        ("b", None, 1.0, 4.0, 0),
        ("c", None, 2.0, 3.0, 1),
        ("b", None, 5.0, 7.0, 0),
        ("a", None, 5.5, 6.5, 3),  # an "a" nested inside the outer "a"
    ]
    stats = aggregate(spans)
    assert stats["a"].calls == 2
    assert stats["a"].self_s == pytest.approx((10 - 3 - 2) + 1)
    # the nested "a" is already inside its ancestor's duration
    assert stats["a"].total_s == pytest.approx(10)
    assert stats["b"].self_s == pytest.approx((3 - 1) + (2 - 1))
    assert stats["b"].total_s == pytest.approx(5)
    assert stats["c"].self_s == pytest.approx(1)
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(10)  # self times partition the root


# -- percentiles -------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (49, 50.0), (50, 80.0), (52, 80.0),
    (99, 80.0), (100, 90.0), (135, 90.0), (200, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_above(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [5, 52, 135, 1000])
def test_declared_tail_names_do_not_depend_on_sample_count(n):
    assert TAILS == {"attack.cell_s": 80.0, "memsys.run_s": 90.0}
    spans = [("memsys.run", None, float(i), i + 0.5, -1) for i in range(n)]
    metrics = layer_trace.layer_metrics(spans, Obs(), 0)
    tails = sorted(k for k in metrics if k.startswith("memsys.run_s.p"))
    assert tails == ["memsys.run_s.p50", "memsys.run_s.p90"]
    assert metrics["memsys.run_s.p90"] == pytest.approx(0.5)
    declared = {m["name"] for m in bench_campaign.load_spec()["per_layer"]}
    assert {"attack.cell_s.p80", "memsys.run_s.p90"} <= declared


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 50.0) == pytest.approx(5.5)
    assert percentile(values, 80.0) == pytest.approx(8.2)
    assert percentile([3.0], 90.0) == 3.0


# -- digests -----------------------------------------------------------
def test_digest_is_canonical_json_sha256():
    result = ExperimentResult(
        "x", "title", rows=[{"b": 1, "a": 2.5}], checks={"z": 1.0, "y": 2.0}
    )
    same = ExperimentResult(
        "x", "title", rows=[{"a": 2.5, "b": 1}], checks={"y": 2.0, "z": 1.0}
    )
    digest = result_digest(result.to_dict())
    assert digest == result_digest(same.to_dict())
    assert digest == hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    # a store artifact holds the result as parsed JSON: same digest
    assert digest == result_digest(json.loads(json.dumps(result.to_dict())))
    same.rows[0]["a"] = 2.5000001
    assert result_digest(same.to_dict()) != digest


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """The suite reduced to one small workload, writing under tmp_path."""
    monkeypatch.setattr(bench_campaign, "WORKLOADS",
                        {"tiny": Workload("smoke", ("table1", "fig21"))})
    monkeypatch.setattr(bench_campaign, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(bench_campaign, "DIGESTS_PATH", tmp_path / "digests.json")
    monkeypatch.setattr(bench_campaign, "SETUP_PROBES", 1)
    assert main(["--write-digests", "--reps", "1"]) == 0
    return tmp_path


def test_tampered_digest_is_a_failed_operation(tiny, capsys):
    path = tiny / "digests.json"
    digests = json.loads(path.read_text())
    assert sorted(digests["tiny"]) == ["fig21", "table1"]
    digests["tiny"]["fig21"] = "0" * 64
    path.write_text(json.dumps(digests))

    assert main(["--reps", "1", "--out", str(tiny / "out")]) != 0
    record = json.loads((tiny / "out" / "results.json").read_text())
    record = record["workloads"]["tiny"]
    # one untraced and one traced campaign, two experiments each
    assert record["attempted"] == 4
    assert record["failed_frac"] == pytest.approx(0.5)
    assert all(f.startswith("fig21: digest") for f in record["failures"])
    assert "FAILED tiny fig21" in capsys.readouterr().err
    assert (tiny / "out" / "trace-tiny.json").exists()

    # a timed run completes and reports the failure in its result line
    assert main(["--workload", "tiny", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 2, 1)


def test_timed_run_prints_one_json_result(tiny, capsys):
    assert main(["--workload", "tiny", "--seed", "7", "--seconds", "0",
                 "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    spec = bench_campaign.load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# -- trace targets -----------------------------------------------------
def test_missing_target_aborts_the_install_and_names_it():
    original = session_module.run_batched_searches
    renamed = Target("session", "repro.core.session",
                     "CharacterizationSession.measure_renamed_*")
    tracer = Tracer(Obs())
    with pytest.raises(TraceTargetError, match="measure_renamed_"):
        tracer.install(TARGETS + (renamed,))
    # all or nothing: the valid targets before it were not wrapped either
    assert session_module.run_batched_searches is original


def test_target_without_a_repro_binding_aborts():
    with pytest.raises(TraceTargetError, match="json:dumps.*no binding"):
        Tracer(Obs()).install((Target("x", "json", "dumps"),))


def test_tracer_records_layers_and_restores_bindings():
    original = session_module.run_batched_searches
    tracer = Tracer(Obs())
    tracer.install()
    try:
        assert session_module.run_batched_searches is not original
        # through the module attribute, which the tracer rebinds
        repro.experiments.run_experiment("fig21", ExperimentScale.smoke())
    finally:
        tracer.uninstall()
    assert session_module.run_batched_searches is original
    metrics = layer_trace.layer_metrics(tracer.spans, tracer.obs, tracer.acts)
    assert metrics["experiment.fig21.s"] > 0
    assert metrics["session.calls"] > 0
    assert metrics["hcfirst.searches"] > 0
    assert metrics["dram.modules"] > 0
    # the registry handed to each host saw the host's own loop counters
    assert metrics["host.loops.scaled"] > 0
    assert metrics["host.acts"] > 0


# -- compare -----------------------------------------------------------
@pytest.mark.parametrize("base, new, expected", [
    ([10.0, 10.1, 10.2], [10.1, 10.2, 10.3], "same"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "worse"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "better"),
    ([8.0, 10.0, 12.0], [10.0, 10.1, 10.2], "unresolved"),
    ([8.0, 10.0, 12.0], [4.0, 5.0, 7.9], "better"),
])
def test_verdict(base, new, expected):
    assert verdict(base, new, 0.10) == expected
