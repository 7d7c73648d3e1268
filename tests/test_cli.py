import hashlib
import json
import math
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from cluster_consensus import (
    BoundReport,
    ScenarioSpec,
    bound_params,
    build_clustered_network,
    envelopes,
    preset_small,
    run_until,
)
from cluster_consensus.cli import _fmt, main, write_trace

R = 3   # cluster count of the tiny scenario below


def tiny_config(tmp_path, name="config.json", **overrides):
    base = dict(family="ring", cluster_sizes=(5, 5, 5), gamma=0.5, beta=0.06,
                tau=3, seed=31, max_iters=3000)
    base.update(overrides)
    spec = ScenarioSpec(**base)
    path = tmp_path / name
    path.write_text(spec.to_json())
    return path, spec


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------
# preset / spectral
# ---------------------------------------------------------------------

def test_preset_prints_config(capsys):
    assert main(["preset", "small"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == preset_small().to_dict()


def test_preset_writes_config(tmp_path):
    out = tmp_path / "small.json"
    assert main(["preset", "small", "--config", str(out)]) == 0
    assert json.loads(out.read_text())["cluster_sizes"] == [20, 20, 20]


def test_preset_large_with_seed(tmp_path, capsys):
    assert main(["preset", "large", "--seed", "77"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 77
    assert data["family"] == "geometric"


def test_spectral_reports_quantities(tmp_path, capsys):
    config, _ = tiny_config(tmp_path)
    assert main(["spectral", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "sigma_1" in out and "sigma_3" in out
    assert "delta_c = 0.66666666666666674" in out
    assert "verdict: admissible" in out


def test_spectral_flags_inadmissible(tmp_path, capsys):
    config, _ = tiny_config(tmp_path, beta=0.9)
    assert main(["spectral", "--config", str(config)]) == 0
    assert "verdict: inadmissible" in capsys.readouterr().out


@pytest.mark.parametrize("beta,tau,lines", [
    (1.0, 3, ["delta_c = 0", "beta_max = 1", "eta(beta=1.0) = n/a (beta = 1)",
              "verdict: inadmissible"]),
    (0.3, 0, ["delta_c = 0", "beta_max = 1", "eta(beta=0.3) = 0.69999999999999996",
              "verdict: admissible"]),
], ids=["unit_beta", "no_delay"])
def test_spectral_single_leader(tmp_path, capsys, beta, tau, lines):
    """One leader: delta_c = 0 and beta_max = 1, so beta = 1 is not below
    it and has no rate, while any smaller beta is admissible."""
    config, _ = tiny_config(tmp_path, cluster_sizes=(6,), seed=1, tau=tau, beta=beta)
    assert main(["spectral", "--config", str(config)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sigma_1 = ")
    assert out[1:] == lines


def test_disconnected_leader_graph_is_topology_error(tmp_path, capsys):
    config, _ = tiny_config(tmp_path, leader_graph="explicit", leader_edges=[(0, 1)])
    assert main(["spectral", "--config", str(config)]) == 4
    assert "connected" in capsys.readouterr().err


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------

def test_run_writes_trace_and_manifest(tmp_path):
    config, spec = tiny_config(tmp_path)
    trace_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(config),
                 "--trace", str(trace_path)]) == 0

    header, rows = read_csv(trace_path)
    assert header == (["k"]
                      + [f"follower_dis_{a}" for a in (1, 2, 3)]
                      + ["leader_dis"]
                      + [f"gap_{a}" for a in (1, 2, 3)]
                      + ["global_err"])
    assert len(header) == 2 + 2 * R + 1

    result = run_until(build_clustered_network(spec), spec)
    assert len(rows) == len(result.trace)
    # 17 significant digits must reproduce the library values bit-exactly
    trace = result.trace
    for k, cells in enumerate(rows):
        assert int(cells[0]) == k
        got = [float(c) for c in cells[1:]]
        want = (trace.follower_disagreement[k].tolist()
                + [trace.leader_disagreement[k].item()]
                + trace.leader_follower_gap[k].tolist()
                + [trace.global_error[k].item()])
        assert got == want

    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["tool"] == "cluster-consensus"
    assert manifest["config"] == spec.to_dict()
    assert manifest["admissibility"]["verdict"] == "admissible"
    assert manifest["outcome"]["converged"] is True
    assert manifest["outcome"]["iterations"] == result.iterations
    assert "timestamp" not in json.dumps(manifest).lower()


def test_run_manifest_has_no_rate_at_unit_beta(tmp_path):
    config, _ = tiny_config(tmp_path, beta=1.0, max_iters=20)
    trace_path = tmp_path / "out.csv"
    main(["run", "--config", str(config), "--trace", str(trace_path)])
    text = (tmp_path / "out.manifest.json").read_text()
    assert '"eta": null' in text
    manifest = json.loads(text)
    assert manifest["spectral"]["eta"] is None
    assert manifest["admissibility"]["verdict"] == "inadmissible"


def test_run_with_bounds_appends_columns(tmp_path):
    config, _ = tiny_config(tmp_path)
    trace_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--trace", str(trace_path),
                 "--with-bounds"]) == 0
    header, rows = read_csv(trace_path)
    assert len(header) == (2 + 2 * R + 1) + (3 * R + 1)
    assert header[-(3 * R + 1):] == (
        ["L1_1", "L1_2", "L1_3", "L2", "L3_1", "L3_2", "L3_3",
         "T1_1", "T1_2", "T1_3"])
    for cells in rows:
        assert "NA" not in cells      # fully applicable scenario


def test_run_bounds_na_for_inadmissible_beta(tmp_path):
    config, _ = tiny_config(tmp_path, beta=0.9)
    trace_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--trace", str(trace_path),
                 "--with-bounds"]) == 0
    header, rows = read_csv(trace_path)
    l2 = header.index("L2")
    t1 = header.index("T1_1")
    l1 = header.index("L1_1")
    for cells in rows:
        assert cells[l2] == "NA" and cells[t1] == "NA"
        assert cells[l1] != "NA"


def test_run_bounds_na_for_intra_delay(tmp_path):
    config, _ = tiny_config(tmp_path, tau_intra=2)
    trace_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--trace", str(trace_path),
                 "--with-bounds"]) == 0
    header, rows = read_csv(trace_path)
    l1 = header.index("L1_1")
    l2 = header.index("L2")
    for cells in rows:
        assert cells[l1] == "NA"
        assert cells[l2] != "NA"


def test_run_with_bounds_solves_each_spectrum_once(tmp_path, monkeypatch):
    """bound_params and the manifest share one sigma per follower matrix
    and one delta_c per leader schedule."""
    import numpy as np

    solves = []
    for name in ("eigvalsh", "svd"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _solver=solver, **kw: solves.append(1)
                            or _solver(*a, **kw))
    config, spec = tiny_config(tmp_path)
    assert main(["run", "--config", str(config), "--trace", str(tmp_path / "out.csv"),
                 "--with-bounds"]) == 0
    assert len(solves) == spec.cluster_count + 1


@pytest.mark.parametrize("changes", [{}, {"beta": 0.02, "gamma": 0.45},
                                     {"beta": 0.5}, {"tau_intra": 2}],
                         ids=["preset_small", "admissible_beta",
                              "inadmissible_beta", "tau_intra_2"])
def test_run_bounds_cells_match_per_iteration_bounds(tmp_path, changes):
    """Every envelope cell of the trace is the envelope table's row for that
    iteration, printed with 17 digits, and equals the one-float-at-a-time
    reference."""
    spec = preset_small().replace(max_iters=300, **changes)
    config = tmp_path / "config.json"
    config.write_text(spec.to_json())
    trace_path = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--trace", str(trace_path),
                 "--with-bounds"]) in (0, 5)
    header, rows = read_csv(trace_path)
    params = bound_params(build_clustered_network(spec), spec)
    first = header.index("L1_1")
    r = spec.cluster_count
    table = envelopes(params, len(rows))
    for cells in rows:
        k = int(cells[0])
        follower, leader, gap, node = oracle.envelope_row(table, k)
        assert (follower, leader, gap, node) == oracle.envelopes(params, k)
        want = ["NA" if x is None else format(x, ".17g")
                for values, width in zip((follower, (leader,), gap, node),
                                         (r, 1, r, r))
                for x in (values or (None,) * width)]
        assert cells[first:] == want, k


@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(st.floats())
def test_trace_row_format_equals_fmt(x):
    """The %.17g of write_trace's row format prints every float as _fmt."""
    assert "%.17g" % x == _fmt(x)


def test_run_cap_exhaustion_exit_code(tmp_path):
    config, _ = tiny_config(tmp_path)
    trace_path = tmp_path / "out.csv"
    code = main(["run", "--config", str(config), "--trace", str(trace_path),
                 "--max-iters", "2"])
    assert code == 5
    # artifacts are still written so the outcome can be inspected
    assert trace_path.exists()
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["outcome"]["converged"] is False


def test_run_seed_override(tmp_path):
    config, spec = tiny_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--trace", str(a)]) == 0
    assert main(["run", "--config", str(config), "--trace", str(b),
                 "--seed", "99"]) == 0
    assert a.read_text() != b.read_text()
    manifest = json.loads((tmp_path / "b.manifest.json").read_text())
    assert manifest["config"]["seed"] == 99


def test_run_threshold_override(tmp_path):
    config, _ = tiny_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(config), "--trace", str(a)]) == 0
    assert main(["run", "--config", str(config), "--trace", str(b),
                 "--threshold", "0.1"]) == 0
    loose = json.loads((tmp_path / "b.manifest.json").read_text())
    tight = json.loads((tmp_path / "a.manifest.json").read_text())
    assert loose["outcome"]["iterations"] < tight["outcome"]["iterations"]


def test_manifest_config_reproduces_trace(tmp_path):
    config, _ = tiny_config(tmp_path)
    first = tmp_path / "first.csv"
    assert main(["run", "--config", str(config), "--trace", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.manifest.json").read_text())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(manifest["config"]))
    second = tmp_path / "second.csv"
    assert main(["run", "--config", str(echo), "--trace", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# SHA-256 of the preset_small trace CSV (run_until, no envelope columns)
PRESET_SMALL_TRACE_SHA256 = (
    "e30a93c3173288c48a241b86080913e3bda650fe2831876eef3cc7c36fc239b0")


def test_preset_small_trace_digest(tmp_path):
    """Trace bytes may only move between versions on purpose."""
    spec = preset_small()
    path = tmp_path / "small.csv"
    write_trace(run_until(build_clustered_network(spec), spec).trace, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PRESET_SMALL_TRACE_SHA256, (
        f"preset_small trace digest is {digest}; if intentional, disclose the "
        "byte move in CHANGES.md and update the digest")


# SHA-256 of the manifest of `run` on preset_small, with relative artifact paths
PRESET_SMALL_MANIFEST_SHA256 = (
    "2424a5831b8ccc1429a4d8d8dc92d5bed037fa9fb311bb086935f19ac3a67dd3")


def test_preset_small_manifest_digest(tmp_path, monkeypatch):
    """Manifest bytes may only move between versions on purpose."""
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "small", "--config", "small.json"]) == 0
    assert main(["run", "--config", "small.json", "--trace", "out.csv"]) == 0
    digest = hashlib.sha256((tmp_path / "out.manifest.json").read_bytes()).hexdigest()
    assert digest == PRESET_SMALL_MANIFEST_SHA256, (
        f"preset_small manifest digest is {digest}; if intentional, disclose "
        "the byte move in CHANGES.md and update the digest")


def test_document_with_retired_record_stride(tmp_path):
    """Documents written by earlier versions carry "record_stride": 0; they
    load and give the pinned trace.  A value those versions refused exits 3."""
    data = preset_small().to_dict()
    data["record_stride"] = 0
    config = tmp_path / "old.json"
    config.write_text(json.dumps(data, indent=2) + "\n")
    trace_path = tmp_path / "small.csv"
    assert main(["run", "--config", str(config), "--trace", str(trace_path)]) == 0
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest == PRESET_SMALL_TRACE_SHA256
    for value in (-1, "x"):
        data["record_stride"] = value
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config), "--trace", str(trace_path)]) == 3


# ---------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------

def test_verify_bounds_clean_run(tmp_path):
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["verify-bounds", "--config", str(config),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_satisfied"] is True
    assert report["violations"] == []
    assert all(f["failures"] == 0 for f in report["families"].values())


def test_verify_bounds_cap_exit(tmp_path):
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(["verify-bounds", "--config", str(config),
                 "--report", str(report_path), "--max-iters", "2"])
    assert code == 5
    assert report_path.exists()


def test_verify_bounds_violation_exit(tmp_path, monkeypatch):
    # a genuine violation cannot come from an honest run, so fake the
    # verifier to exercise the failure dispatch
    import cluster_consensus.cli as cli_mod

    class Failing(BoundReport):
        @property
        def all_satisfied(self):
            return False

    monkeypatch.setattr(
        cli_mod, "verify_bounds",
        lambda trace, params, slack=1e-9: Failing(
            trace.fingerprint, slack, (), {}),
    )
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["verify-bounds", "--config", str(config),
                 "--report", str(report_path)]) == 1


def test_verify_bounds_names_skipped_families(tmp_path, capsys):
    """preset_small's beta lies above beta_max: the leader and node-error
    families go unchecked, which stderr says; the report, stdout and the
    exit code do not change."""
    config = tmp_path / "small.json"
    assert main(["preset", "small", "--config", str(config)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["verify-bounds", "--config", str(config),
                 "--report", str(report_path)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    params = bound_params(build_clustered_network(preset_small()), preset_small())
    reason = f"beta = 0.1 is not below beta_max = {params.beta_max!r}"
    assert err.splitlines() == [
        f"verify-bounds: leader_disagreement not checked: {reason}",
        f"verify-bounds: node_error not checked: {reason}",
    ]
    report = json.loads(report_path.read_text())
    assert report["all_satisfied"] is True
    assert [name for name, f in report["families"].items() if not f["applicable"]] == [
        "leader_disagreement", "node_error"]


def test_verify_bounds_names_intra_delay_skips(tmp_path, capsys):
    config, _ = tiny_config(tmp_path, tau_intra=2)
    assert main(["verify-bounds", "--config", str(config),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "verify-bounds: follower_disagreement not checked: tau_intra = 2 > 0",
        "verify-bounds: leader_follower_gap not checked: tau_intra = 2 > 0",
        "verify-bounds: node_error not checked: tau_intra = 2 > 0",
    ]


def test_verify_bounds_checks_everything_silently(tmp_path, capsys):
    config, _ = tiny_config(tmp_path)
    assert main(["verify-bounds", "--config", str(config),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------

def test_sweep_tau_artifacts(tmp_path):
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep-tau", "--config", str(config), "--taus", "4,0,2",
                 "--report", str(report_path), "--trace", str(csv_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [r["tau"] for r in report["rows"]] == [0, 2, 4]
    assert "fit" in report
    header, rows = read_csv(csv_path)
    assert header == ["tau", "converged", "iterations", "admissible",
                      "beta_max"]
    assert [r[0] for r in rows] == ["0", "2", "4"]
    assert rows[0][1] == "true"


def test_sweep_tau_repeated_delay_report_has_no_fit(tmp_path):
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "sweep.json"
    assert main(["sweep-tau", "--config", str(config), "--taus", "5,5",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [r["tau"] for r in report["rows"]] == [5, 5]
    assert "fit" not in report


def test_sweep_tau_capped_exit(tmp_path):
    config, _ = tiny_config(tmp_path)
    report_path = tmp_path / "sweep.json"
    code = main(["sweep-tau", "--config", str(config), "--taus", "0,2",
                 "--report", str(report_path), "--max-iters", "1"])
    assert code == 5


def test_sweep_tau_rejects_empty_list(tmp_path):
    config, _ = tiny_config(tmp_path)
    assert main(["sweep-tau", "--config", str(config), "--taus", ",",
                 "--report", str(tmp_path / "r.json")]) == 3


def test_rate_study_artifacts(tmp_path):
    config, _ = tiny_config(tmp_path, max_iters=300)
    report_path = tmp_path / "rate.json"
    assert main(["rate-study", "--config", str(config),
                 "--betas", "0.008,0.001",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    betas = [r["beta"] for r in report["rows"]]
    assert betas == [0.001, 0.008]
    assert all(r["bound_ok"] for r in report["rows"])


def test_rate_study_rejects_bad_beta(tmp_path):
    config, _ = tiny_config(tmp_path)
    assert main(["rate-study", "--config", str(config), "--betas", "abc",
                 "--report", str(tmp_path / "r.json")]) == 3
    assert main(["rate-study", "--config", str(config), "--betas", "1.0",
                 "--report", str(tmp_path / "r.json")]) == 3


def test_intra_delay_artifacts(tmp_path):
    config, _ = tiny_config(tmp_path, tau=8)
    report_path = tmp_path / "intra.json"
    assert main(["intra-delay", "--config", str(config), "--tau-intra", "0,4",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [r["tau_intra"] for r in report["rows"]] == [0, 4]
    assert all(r["separation_ratio"] is not None for r in report["rows"])


# ---------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------

def test_missing_config_is_storage_error(tmp_path):
    assert main(["spectral", "--config", str(tmp_path / "nope.json")]) == 6


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "ring",')
    assert main(["spectral", "--config", str(bad)]) == 3
    assert "line" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    config, spec = tiny_config(tmp_path)
    data = spec.to_dict()
    data["surprise"] = 1
    config.write_text(json.dumps(data))
    assert main(["spectral", "--config", str(config)]) == 3
    assert "surprise" in capsys.readouterr().err


def test_leader_placement_other_than_first_is_config_error(tmp_path, capsys):
    config, spec = tiny_config(tmp_path)
    data = spec.to_dict()
    data["leader_placement"] = "last"
    config.write_text(json.dumps(data))
    assert main(["spectral", "--config", str(config)]) == 3
    assert "leader_placement" in capsys.readouterr().err


def test_malformed_value_is_config_error(tmp_path, capsys):
    config, spec = tiny_config(tmp_path)
    data = spec.to_dict()
    data["cluster_sizes"] = "abc"
    config.write_text(json.dumps(data))
    assert main(["spectral", "--config", str(config)]) == 3
    assert "cluster_sizes" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"family": "geometric", "radius": 0.1, "cluster_sizes": [10**6 + 1]},
    {"tau": 10**9},
], ids=["million_geometric_followers", "tau_1e9"])
def test_oversized_config_exits_before_allocating(tmp_path, capsys, changes):
    """A scenario estimated to need more than MAX_PEAK_BYTES is refused with
    exit 3 within a second, before anything large is allocated."""
    data = preset_small().to_dict()
    data.update(changes)
    config = tmp_path / "big.json"
    config.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code = main(["run", "--config", str(config),
                     "--trace", str(tmp_path / "t.csv")])
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "GiB" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 4 << 20


def test_impossible_topology_is_topology_error(tmp_path, capsys):
    config, _ = tiny_config(tmp_path, family="geometric", radius=1e-4)
    assert main(["spectral", "--config", str(config)]) == 4
    assert "radius" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_missing_required_flag_is_usage_error(tmp_path):
    config, _ = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", str(config)])   # no --trace
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


# ---------------------------------------------------------------------
# installed entry points and determinism across processes
# ---------------------------------------------------------------------

def test_console_script_byte_identical_runs(tmp_path, cli):
    config, _ = tiny_config(tmp_path)
    trace = tmp_path / "out.csv"
    manifest = tmp_path / "out.manifest.json"
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [*cli.command, "run", "--config", str(config),
             "--trace", str(trace)],
            capture_output=True, text=True, env=cli.env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((trace.read_bytes(), manifest.read_bytes()))
    assert outs[0] == outs[1]


def test_module_entry_point(cli):
    proc = subprocess.run(
        [sys.executable, "-m", "cluster_consensus", "preset", "small"],
        capture_output=True, text=True, env=cli.env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == 10
