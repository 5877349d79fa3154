import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from asep_lab.cli import main

RUN = [sys.executable, "-m", "asep_lab.cli"]


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


SEGMENT = ["segment", "--ell", "4", "--n", "1", "--rho0", "0.5", "--rho-ell", "0.5"]


def test_moments_csv_roundtrip(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["moments", "--t", "0.5", "--x", "1,3", "--rho", "0.9",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    manifest = json.loads("\n".join(l[2:] for l in lines if l.startswith("# ")))
    assert manifest["subcommand"] == "moments"
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "n,t,x1,x2,value,quad_err"
    row = lines[lines.index(header) + 1].split(",")
    assert row[0] == "2" and 0 < float(row[4]) <= 1


def test_manifest_names_the_blas_build(tmp_path):
    # kpz values contract in BLAS; a reader of their bytes needs its build
    out = tmp_path / "m.json"
    assert main(["moments", "--t", "0.5", "--x", "1", "--rho", "0.9",
                 "--format", "json", "--output", str(out)]) == 0
    blas = json.loads(out.read_text())["manifest"]["versions"]["blas"]
    assert blas and blas != "None None"


def test_moments_json_has_breakdown(tmp_path):
    out = tmp_path / "m.json"
    assert main(["moments", "--t", "0.5", "--x", "1,3", "--rho", "0.9",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "per_partition" in doc and "2" in doc["per_partition"]
    assert 0.0 <= doc["imag_residual"] < 1e-12  # exactly real; n <= 3 reads ~1e-16
    assert doc["manifest"]["parameters"]["rho"] == "0.9"


def test_moments_rejects_liggett_violation():
    code = main(["moments", "--t", "0.5", "--x", "1", "--alpha", "1/2",
                 "--gamma", "1/2"])
    assert code == 2


def test_moments_rejects_low_density():
    code = main(["moments", "--t", "0.5", "--x", "1", "--q", "1/4", "--rho", "0.5"])
    assert code == 2


def test_malformed_flags_exit_2():
    proc = run_cli(["moments", "--t", "0.5"])  # missing --x
    assert proc.returncode == 2


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--t", "1.0", "--trajectories", "200", "--seed", "5",
            "--rho", "0.9", "--observable", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the report lines (manifest line excluded) of `simulate` on the
# half line and on the ell = 4 segment.  The segment's was recorded when
# trajectories moved to block-filled rows with per-trajectory overflow
# streams (version 0.3.0); the half line's when it moved to the lockstep
# layout, site 1's boundary move then the bonds in ascending order, in
# place of the set-order move list (version 0.4.0).  At t = 3 a few
# half-line trajectories outrun their row.
SIMULATE_DIGESTS = {
    "halfline": (["--t", "3.0", "--rho", "0.9", "--observable", "2", "--observable", "1,4"],
                 "2dd8ccf01e778ffc4aa35356e81fe4e271baa617dcbbd084b583d45d8a80bab4"),
    "segment": (["--t", "1.0", "--ell", "4", "--rho0", "3/4", "--rho-ell", "1/3",
                 "--observable", "1,3", "--observable", "2"],
                "c8a124da2c6d2374818a4a3551853e9c642c457f82585fba6ba5e9925fdc0674"),
}


@pytest.mark.parametrize("model", sorted(SIMULATE_DIGESTS))
def test_simulate_report_lines_pinned(model, tmp_path):
    flags, digest = SIMULATE_DIGESTS[model]
    out = tmp_path / "s.csv"
    assert main(["simulate", "--trajectories", "2000", "--seed", "5", *flags,
                 "--output", str(out)]) == 0
    reports = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(reports).hexdigest() == digest


@pytest.mark.parametrize("flags", [["--ell", "4", "--rho0", "3/4", "--rho-ell", "1/3",
                                    "--observable", "9"],
                                   ["--rho", "0.9", "--observable", "3,1"],
                                   ["--rho", "0.9", "--observable", "2", "--observable", "0"],
                                   ["--rho", "0.9", "--observable", "2,2"]])
def test_simulate_rejects_observable_outside_chamber(flags, monkeypatch, capsys):
    # each used to exit 0 and print a mean of an H the duality does not define
    import asep_lab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "estimate", lambda *args, **kwargs: calls.append(args) or [])
    assert main(["simulate", "--t", "1", "--trajectories", "200", *flags]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "site" in err


def test_simulate_t0_mean_one(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--t", "0", "--trajectories", "50", "--seed", "1",
                 "--rho", "0.9", "--observable", "1,2", "--output", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = data[1].split(",")
    assert float(row[1]) == 1.0 and float(row[2]) == 0.0


def test_simulate_se_positive(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--t", "1.0", "--trajectories", "500", "--seed", "1",
                 "--rho", "0.9", "--observable", "1", "--output", str(out)]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert float(data[1].split(",")[2]) > 0


def test_verify_halfline_small_window(tmp_path, capsys):
    out = tmp_path / "v.jsonl"
    code = main(["verify", "--mode", "halfline", "--points", "1",
                 "--max-site", "3", "--max-n", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["manifest"]["subcommand"] == "verify"
    reports = [json.loads(l) for l in lines[1:]]
    assert reports and all(r["ok"] and r["residual"] == "0" for r in reports)


def test_verify_no_liggett_mode(tmp_path):
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--mode", "no-liggett", "--points", "1",
                 "--max-site", "3", "--max-n", "2", "--output", str(out)]) == 0


def test_segment_command(tmp_path):
    out = tmp_path / "seg.csv"
    assert main(["segment", "--ell", "4", "--n", "1", "--t", "1.0",
                 "--rho0", "0.75", "--rho-ell", "1/3", "--output", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "t,x1,value,solver_err"
    assert len(rows) == 5  # header + C(4,1) chamber vectors


def _kpz_value(path):
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    return float(rows[1].split(",")[header.index("value")])


def test_kpz_command_forms_agree(tmp_path):
    a, b = tmp_path / "n.csv", tmp_path / "r.csv"
    base = ["kpz", "--A", "1.0", "--t", "1.0", "--x", "0.5"]
    assert main(base + ["--form", "nested", "--output", str(a)]) == 0
    assert main(base + ["--form", "residue", "--output", str(b)]) == 0
    assert _kpz_value(a) == pytest.approx(_kpz_value(b), rel=1e-8)


def test_kpz_dirichlet_residue_form(tmp_path):
    a, b = tmp_path / "n.csv", tmp_path / "r.csv"
    base = ["kpz", "--boundary", "dirichlet", "--t", "1.0", "--x", "0.2,0.7"]
    assert main(base + ["--form", "nested", "--output", str(a)]) == 0
    assert main(base + ["--form", "residue", "--output", str(b)]) == 0
    assert _kpz_value(a) == pytest.approx(_kpz_value(b), rel=1e-6)


@pytest.mark.parametrize("x", ["0.5", "0.1,0.4,0.9"])
def test_kpz_residue_grid_above_the_node_cap_exits_2(x, capsys):
    # the grid rule would lay about 3e17 nodes a line; it is refused before
    # any is built
    assert main(["kpz", "--form", "residue", "--A", "1", "--t", "1e-12", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "t=1e-12 needs" in captured.err and "above the cap" in captured.err


def test_kpz_bridge_rows(tmp_path):
    out = tmp_path / "bridge.csv"
    assert main(["kpz", "--A", "1.0", "--t", "1.0", "--x", "1.0",
                 "--eps", "0.2,0.1", "--output", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "eps,value,limit,abs_diff"
    assert len(rows) == 3


def test_threads_env_default(monkeypatch):
    from asep_lab.cli import build_parser
    monkeypatch.setenv("ASEP_LAB_THREADS", "3")
    args = build_parser().parse_args(["simulate", "--t", "0", "--rho", "0.9"])
    assert args.threads == 3


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 0.9\nt = 0.5\n")
    out = tmp_path / "m.csv"
    assert main(["--config", str(cfg), "moments", "--x", "1",
                 "--output", str(out)]) == 0
    assert main(["--config", str(tmp_path / "missing.cfg"), "moments",
                 "--x", "1", "--output", str(out)]) == 2


def _assert_one_line_exit_2(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--t", "1", "--rho", "9/10", "--seed", "-1", "--trajectories", "10"],
    ["verify", "--mode", "halfline", "--seed", "-1", "--points", "1"],
])
def test_negative_seed_exits_2(argv):
    # numpy's SeedSequence used to refuse it with a traceback and exit 1
    proc = run_cli(argv)
    _assert_one_line_exit_2(proc)
    assert "seed" in proc.stderr


def test_config_without_path_exits_2():
    _assert_one_line_exit_2(run_cli(["moments", "--config"]))


def test_config_that_is_not_utf8_exits_2(tmp_path):
    # the file's bytes used to end in a UnicodeDecodeError traceback, exit 1
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"rho = 0.9\nt = 0.\xff5\n")
    proc = run_cli(["--config", str(cfg), "moments", "--x", "1"])
    _assert_one_line_exit_2(proc)
    assert "not UTF-8" in proc.stderr and "byte 16" in proc.stderr


def test_malformed_threads_env_exits_2(monkeypatch):
    monkeypatch.setenv("ASEP_LAB_THREADS", "two")
    proc = run_cli(["simulate", "--t", "0.5", "--rho", "0.9"])
    _assert_one_line_exit_2(proc)
    assert "--threads" in proc.stderr


@pytest.mark.parametrize("argv, env", [
    (["simulate", "--t", "1", "--rho", "0.9", "--threads", "-3"], None),
    (["simulate", "--t", "1", "--ell", "4", "--rho0", "0.5", "--rho-ell", "0.5",
      "--threads", "0"], None),
    (["simulate", "--t", "1", "--rho", "0.9"], "0"),
])
def test_nonpositive_threads_exits_2(argv, env, monkeypatch):
    # such a value used to exit 0 and be recorded in the manifest
    if env is not None:
        monkeypatch.setenv("ASEP_LAB_THREADS", env)
    proc = run_cli(argv)
    _assert_one_line_exit_2(proc)
    assert "--threads" in proc.stderr and ">= 1" in proc.stderr


@pytest.mark.parametrize("nodes", ["-100", "0", "15", "16", "17", "32"])
def test_moments_refuses_nodes_without_a_coarser_grid(nodes, capsys):
    # every count used to be clamped to 16 nodes, whose halved grid is the
    # same grid, and the run exited 0 with quad_err 0.0
    assert main(["moments", "--t", "1", "--x", "1,3", "--rho", "0.9",
                 "--nodes", nodes]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "coarser grid" in err


def test_moments_accepts_nodes_with_a_coarser_grid(tmp_path):
    out = tmp_path / "m.json"
    assert main(["moments", "--t", "1", "--x", "1,3", "--rho", "0.9", "--nodes", "40",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["nodes_by_dim"] == [40, 20, 20, 18]
    assert float(doc["rows"][0]["quad_err"]) > 0


def test_moments_rejects_unordered_sites():
    proc = run_cli(["moments", "--t", "0.5", "--x", "3,1", "--rho", "0.9"])
    _assert_one_line_exit_2(proc)
    assert "increasing" in proc.stderr


@pytest.mark.parametrize("flags", [["--q", "1/0", "--rho", "1"], ["--rho", "1/0"],
                                   ["--q", "abc", "--rho", "1"]])
def test_malformed_rational_exits_2(flags, capsys):
    assert main(["moments", "--t", "0", "--x", "1"] + flags) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "rational" in err


@pytest.mark.parametrize("flags", [["--points", "0"], ["--max-n", "0"],
                                   ["--max-site", "-1"]])
def test_verify_refuses_empty_sweep(flags):
    _assert_one_line_exit_2(run_cli(["verify", "--mode", "halfline"] + flags))


def test_verify_writes_each_report_as_it_is_checked(tmp_path, monkeypatch):
    # the reports used to be held in memory and written only once all were checked
    import asep_lab.cli as cli

    checked = []

    def verifier(params, eta, x):
        if len(checked) == 5:
            raise ArithmeticError("stop")
        checked.append(x)
        return SimpleNamespace(ok=True, to_json=lambda: "{}")

    monkeypatch.setitem(cli._LINE_VERIFIERS, "halfline", verifier)
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--mode", "halfline", "--output", str(out)]) == 3
    lines = out.read_text().splitlines()
    assert "manifest" in json.loads(lines[0]) and lines[1:] == ["{}"] * 5


def test_verify_refuses_a_one_site_segment_before_writing(capsys):
    # the report lines stream after the manifest, so --ell 1 must fail first
    try:
        code = main(["verify", "--mode", "segment", "--ell", "1"])
    except SystemExit as exc:     # the parser's own one-line refusal
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


# sha256 of the report lines (manifest line excluded) of
# `verify --mode M --seed 0 --points 2`, recorded before the verifiers moved
# to integer-encoded q-powers
VERIFY_DIGESTS = {
    "halfline": "561ce6bd76915cab61360c7bc5d0c18275c1ef2e3e1c92b695678fc3388d16b1",
    "fullspace": "8bc6a19d0cc3c3848b42dcc029ca537baa468b86a88ff15bed41fed79e8d4c19",
    "fictitious": "f33e6d48d9a506756caf04ec5c67e846517671ce3f4815bdbd5e70e3f29bb05e",
    "segment": "eff0abb5286a566fec206f29888c628d969bfc8098d0582f42e82a3757559f6f",
    "no-liggett": "a411abcfc438899029ae35125637c52fb65bc6b59d77bff68a0d3ac3639ab783",
}


@pytest.mark.parametrize("mode", sorted(VERIFY_DIGESTS))
def test_verify_report_lines_pinned(mode, tmp_path):
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--mode", mode, "--seed", "0", "--points", "2",
                 "--output", str(out)]) == 0
    reports = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(reports).hexdigest() == VERIFY_DIGESTS[mode]


@pytest.mark.parametrize("flags", [["--t", "1", "--x", "nan", "--A", "1"],
                                   ["--t", "1", "--x", "1", "--A", "nan"],
                                   ["--t", "1", "--x", "1", "--A", "inf"],
                                   ["--t", "1", "--x", "1.0,inf", "--A", "1"],
                                   ["--t", "inf", "--x", "1", "--A", "1"],
                                   ["--t", "nan", "--x", "1", "--A", "1"]])
def test_kpz_rejects_non_finite_input(flags, capsys):
    assert main(["kpz"] + flags) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_kpz_refuses_a_nan_eps_in_one_line(capsys):
    assert main(["kpz", "--A", "1", "--t", "1", "--x", "0.5", "--eps", "nan"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "eps must be finite and positive" in err


@pytest.mark.parametrize("flags", [["--x", "abc", "--A", "1"],
                                   ["--x", "1", "--A", "1", "--eps", "0.1,x"],
                                   # an empty --eps used to drop the bridge silently, exit 0
                                   ["--x", "0.5", "--A", "1", "--eps", ""]])
def test_kpz_rejects_malformed_numbers(flags, capsys):
    assert main(["kpz", "--t", "1"] + flags) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_simulate_rejects_non_finite_time(t, capsys):
    # such an end time used to keep the event loop running forever
    assert main(["simulate", "--t", t, "--rho", "0.9", "--trajectories", "5"]) == 2
    assert "finite" in capsys.readouterr().err


def test_internal_value_error_is_not_a_validation_error(monkeypatch):
    import asep_lab.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "she_moment_nested", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["kpz", "--t", "1", "--x", "0.5", "--A", "1"])


@pytest.mark.parametrize("argv", [SEGMENT + ["--t", "nan"], SEGMENT + ["--t", "inf"],
                                  SEGMENT + ["--t", "-1"],
                                  ["moments", "--t", "nan", "--x", "1", "--rho", "0.9"],
                                  ["moments", "--t", "inf", "--x", "1", "--rho", "0.9"]])
def test_non_finite_or_negative_time_exits_2(argv, capsys):
    # a NaN time used to print rows of nan (segment) or exit 3 (moments)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_segment_refuses_chamber_above_cap_before_enumerating(monkeypatch, capsys):
    import asep_lab.segment_ode as segment_ode

    calls = []
    record = lambda *args: calls.append(args) or []
    monkeypatch.setattr(segment_ode, "chamber_vectors", record)
    # C(40, 20) = 137,846,528,820
    assert main(["segment", "--ell", "40", "--n", "20", "--t", "1",
                 "--rho0", "0.5", "--rho-ell", "0.5"]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "cap of 100000" in err


def test_segment_refuses_long_solve_before_solving(monkeypatch, capsys):
    # t = 1e6 at C(12, 6) = 924 needs about 2.1 million sub-steps, hours of
    # expm_multiply calls; the refusal comes from the matrix alone
    import time
    import asep_lab.segment_ode as segment_ode

    calls = []
    monkeypatch.setattr(segment_ode, "expm", lambda *args: calls.append(args))
    start = time.monotonic()
    assert main(["segment", "--ell", "12", "--n", "6", "--t", "1e6",
                 "--rho0", "0.5", "--rho-ell", "0.5"]) == 2
    assert time.monotonic() - start < 1.0
    assert calls == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "sub-steps" in err and "cap" in err


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_output_exits_2_before_computing(where, tmp_path, monkeypatch, capsys):
    import asep_lab.cli as cli

    calls = []
    monkeypatch.setattr(cli, "she_moment_nested", lambda *args: calls.append(args) or 1.0)
    target = tmp_path / "no-such-dir" / "x.csv" if where == "missing" else tmp_path
    assert main(["kpz", "--t", "1", "--x", "0.5", "--A", "1", "--output", str(target)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--output" in err


# ---------------------------------------------------------------------------
# every flag a subcommand accepts changes what its command does

class _RecordingNamespace(argparse.Namespace):
    """Records the name of every public attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# one minimal valid command line per subcommand
MINIMAL_RUNS = {
    "moments": ["--t", "1", "--x", "1", "--rho", "0.9"],
    "simulate": ["--t", "1", "--rho", "0.9"],
    "verify": ["--mode", "halfline"],
    "segment": SEGMENT[1:] + ["--t", "1"],
    "kpz": ["--t", "1", "--x", "0.5", "--A", "1"],
}


def _stub_library(monkeypatch):
    import numpy as np

    import asep_lab.cli as cli
    from asep_lab.moments import MomentResult
    from asep_lab.simulate import McEstimate

    # one row per table command: the CSV header is the first row's keys
    report = SimpleNamespace(ok=True, to_json=lambda: "{}")
    monkeypatch.setattr(cli, "q_moment", lambda *args, **kwargs: MomentResult(
        value=0.5, per_partition={(1,): 0.5}, nodes_by_dim=(8,), quad_error=0.0))
    monkeypatch.setattr(cli, "estimate", lambda *args, **kwargs: [McEstimate((1,), 0.5, 0.0, 1)])
    for mode in cli._LINE_VERIFIERS:
        monkeypatch.setitem(cli._LINE_VERIFIERS, mode, lambda *args: report)
    monkeypatch.setattr(cli, "verify_segment_duality", lambda *args: report)
    monkeypatch.setattr(cli, "solve_u", lambda *args: SimpleNamespace(
        dual=SimpleNamespace(vectors=[(1,)]), values=np.array([0.5]),
        solver_error=0.0))
    for name in ("she_moment_nested", "she_moment_residue_form", "scaled_asep_moment"):
        monkeypatch.setattr(cli, name, lambda *args: 1.0)


def test_minimal_runs_cover_every_subcommand():
    from asep_lab.cli import build_parser
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == sorted(MINIMAL_RUNS)


@pytest.mark.parametrize("subcommand", sorted(MINIMAL_RUNS))
def test_every_flag_of_a_subcommand_is_read_by_its_command(subcommand, monkeypatch, capsys):
    # a flag no run reads is accepted, recorded in the manifest and ignored
    from asep_lab.cli import build_parser

    _stub_library(monkeypatch)
    args = _RecordingNamespace()
    args._reads = set()
    build_parser().parse_args([subcommand, *MINIMAL_RUNS[subcommand]], namespace=args)
    flags = set(vars(args)) - {"_reads", "config", "subcommand", "func"}
    args._reads.clear()     # argparse itself reads every default it fills in
    assert args.func(args) == 0
    assert flags - args._reads == set()


@pytest.mark.parametrize("argv", [
    ["moments", "--t", "1", "--x", "1", "--rho", "0.9", "--alpha", "1/2", "--gamma", "1/4"],
    ["simulate", "--t", "1", "--rho", "0.9", "--rho0", "1/2", "--beta", "3"],
    ["simulate", "--t", "1", "--ell", "4", "--rho", "0.1", "--rho0", "1/2", "--rho-ell", "1/3"],
    SEGMENT[:5] + ["--t", "1", "--rho0", "1/2", "--rho-ell", "1/3", "--alpha", "5",
                   "--beta", "7"],
    SEGMENT[:5] + ["--t", "1", "--rho0", "1/2", "--alpha", "1/2", "--gamma", "1/4",
                   "--beta", "1/2", "--delta", "1/4"],
    ["kpz", "--A", "1", "--t", "1", "--x", "0.5", "--eps", "0.1", "--form", "residue"],
    ["kpz", "--A", "7", "--t", "1", "--x", "0.5", "--boundary", "dirichlet"],
    ["verify", "--mode", "halfline", "--ell", "9"],
    ["verify", "--mode", "segment", "--max-site", "9"],
    ["moments", "--t", "1", "--x", "1", "--rho", "0.9", "--threads", "7"],
    ["verify", "--mode", "halfline", "--format", "csv"],
    SEGMENT + ["--t", "1", "--rho", "0.1"],
])
def test_flag_the_run_would_ignore_exits_2(argv, monkeypatch, capsys):
    # each used to exit 0 and record the ignored flag in the manifest
    _stub_library(monkeypatch)
    try:
        code = main(argv)
    except SystemExit as exc:     # the parser's own one-line refusal
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["moments", "--x", "1,3", "--t", "1", "--rho", "9/10", "--nodes", "100000"],
    ["kpz", "--x", "0.1,0.4", "--t", "1e6", "--A", "1"],
    ["verify", "--mode", "halfline", "--max-site", "24"],
    ["verify", "--mode", "segment", "--ell", "30"],
])
def test_run_too_large_for_memory_exits_2(argv, capsys):
    # the first two ended in numpy's MemoryError for a 37.3 GiB workspace, the
    # third listed 2^24 states before its first identity, and the fourth ran
    # on through 2^29 occupation vectors, about 4.9e12 identities
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "above the cap" in captured.err


def test_verify_above_the_identity_cap_exits_2_before_it_runs(capsys):
    # one point at --max-site 16 used to run for about 35 minutes
    started = time.perf_counter()
    assert main(["verify", "--mode", "halfline", "--max-site", "16", "--points", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "54591488 identities, above the cap" in captured.err


@pytest.mark.parametrize("mode, window", [("halfline", ["--max-site", "4"]),
                                          ("fullspace", ["--max-site", "2"]),
                                          ("segment", ["--ell", "3"]),
                                          ("segment", ["--ell", "5"])])
@pytest.mark.parametrize("max_n", ["1", "2", "9"])
def test_the_identity_count_before_a_run_is_the_count_it_checks(mode, window, max_n, capsys):
    from asep_lab import cli
    argv = ["verify", "--mode", mode, "--points", "2", "--max-n", max_n, *window]
    assert main(argv + ["--output", os.devnull]) == 0
    checked = int(capsys.readouterr().err.split()[1])
    assert checked == 2 * cli._identities_per_point(cli.build_parser().parse_args(argv))


def test_simulate_above_the_work_cap_exits_2_in_one_line():
    # it was still running after 20 s; the timeout fails the test instead of hanging
    res = subprocess.run(RUN + ["simulate", "--t", "1e300", "--rho", "9/10", "--trajectories",
                                "10"], capture_output=True, text=True, timeout=60)
    _one_line_refusal(res.returncode, res.stderr)
    assert res.stdout == "" and "above the cap" in res.stderr


@pytest.mark.parametrize("t, x", [("1", "100000"), ("1e308", "1")])
def test_moment_overflow_exits_3_in_one_line(t, x):
    # the first printed three numpy RuntimeWarnings (six lines) before its
    # refusal; the second an overflow warning, then 0.0 with quad_err 0.0, exit 0
    res = run_cli(["moments", "--rho", "9/10", "--t", t, "--x", x])
    assert res.returncode == 3 and res.stdout == ""
    assert len(res.stderr.strip().splitlines()) == 1
    assert f"at t = {float(t)} on the" in res.stderr and "RuntimeWarning" not in res.stderr


def _one_line_refusal(code, err):
    assert code == 2 and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_reader_that_closes_stdout_ends_the_run_in_one_line():
    # `asep-lab verify --mode halfline --points 3 | head -n 1` ended in a
    # BrokenPipeError traceback, exit 1
    proc = subprocess.Popen(RUN + ["verify", "--mode", "halfline", "--points", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith('{"manifest"')
    proc.stdout.close()
    err = proc.stderr.read()
    _one_line_refusal(proc.wait(), err)
    assert "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("to_output", [True, False])
def test_a_full_device_ends_the_run_in_one_line(to_output):
    # --output /dev/full ended in an ENOSPC traceback, exit 1; where /dev is
    # not writable, the --output case is refused before the run, also exit 2
    args = ["moments", "--rho", "9/10", "--t", "1", "--x", "1"]
    with open("/dev/full", "w") as full:
        res = subprocess.run(RUN + args + (["--output", "/dev/full"] if to_output else []),
                             stdout=subprocess.PIPE if to_output else full,
                             stderr=subprocess.PIPE, text=True)
    _one_line_refusal(res.returncode, res.stderr)
    assert not to_output or res.stdout == ""


@pytest.mark.parametrize("mode, used, default, unused", [("halfline", "max_site", 5, "ell"),
                                                         ("segment", "ell", 4, "max_site")])
def test_verify_manifest_records_the_window_it_used(mode, used, default, unused, tmp_path,
                                                    monkeypatch):
    _stub_library(monkeypatch)
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--mode", mode, "--points", "1", "--output", str(out)]) == 0
    params = json.loads(out.read_text().splitlines()[0])["manifest"]["parameters"]
    assert params[used] == default and unused not in params


@pytest.mark.parametrize("boundary", [["--A", "1"], ["--boundary", "dirichlet"]])
@pytest.mark.parametrize("eps", ["1e-5", "1e-9"])
def test_kpz_bridge_below_its_error_budget_exits_3(boundary, eps, capsys):
    # at A = 1 the rows used to read 0.47880 (1e-5) and 0.0 (1e-9) against 0.34093
    assert main(["kpz", "--t", "1", "--x", "0.5", "--eps", eps] + boundary) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "quadrature error" in err


@pytest.mark.parametrize("boundary", [["--A", "1"], ["--boundary", "dirichlet"]])
@pytest.mark.parametrize("t", ["20", "200"])
def test_kpz_value_that_cannot_be_a_moment_exits_3(boundary, t, capsys):
    # at t = 20 these printed -9.49e12 (Robin) and -6.54e13 (Dirichlet), at
    # t = 200 nan, with exit 0
    assert main(["kpz", "--t", t, "--x", "0.1,0.4,0.9"] + boundary) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "nested form" in err


def test_malformed_site_list_exits_2(capsys):
    assert main(["moments", "--t", "0.5", "--x", "1,a", "--rho", "0.9"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "bad site list" in err
