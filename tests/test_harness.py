import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from moeqkd import harness
from moeqkd.cli import main
from moeqkd.harness import (
    _RUNNERS,
    CSV_COLUMNS,
    PARAMETERS,
    ResultRecord,
    RunConfig,
    records_to_csv,
    records_to_json,
    rng_substream,
    run,
    sample_transcript,
)
from moeqkd.nogo import nogo_bound
from moeqkd.quantum import MAX_DENSITY_QUBITS

PASSIVE_DIST_N2 = 0.18888235642225482


def test_substream_is_deterministic():
    a = rng_substream(7, 0).integers(0, 2**32, 100)
    b = rng_substream(7, 0).integers(0, 2**32, 100)
    assert np.array_equal(a, b)


def test_substreams_diverge():
    a = rng_substream(7, 0).integers(0, 2**32, 100)
    b = rng_substream(7, 1).integers(0, 2**32, 100)
    c = rng_substream(8, 0).integers(0, 2**32, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substreams_uncorrelated():
    n = 10**5
    a = rng_substream(7, 0).standard_normal(n)
    b = rng_substream(7, 1).standard_normal(n)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        RunConfig("bogus", seed=1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig("moe", seed=-1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig("moe", seed=True)
    with pytest.raises(ValueError, match="format"):
        RunConfig("moe", seed=1, format="xml")
    with pytest.raises(ValueError, match="trials"):
        RunConfig("moe", seed=1, trials=0)
    # mistyped values, as a JSON config file can carry them
    for key, value in [("trials", 10.5), ("n", "2"), ("r", True), ("exact", "no"),
                       ("exact", 1), ("scheme", 3), ("out", 1)]:
        with pytest.raises(ValueError, match=key):
            RunConfig("moe", seed=1, **{key: value})


# a valid value other than the default for every field some experiment reads
_NON_DEFAULT = {"scheme": "toydh", "strategy": "random", "adversary": "swap_epr",
                "kind": "table", "n": 3, "m": 2, "r": 5, "trials": 7, "exact": True}
_UNREAD = [(experiment, key) for experiment, params in PARAMETERS.items()
           for key in _NON_DEFAULT if key not in params]


def _config_reads(fn, name: str) -> set[str]:
    """The attributes ``fn`` reads off its argument ``name``, which it may use
    in no other way."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == name]
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
    assert len(uses) == len(reads), f"{fn.__name__} uses {name} other than by attribute"
    return {node.attr for node in reads}


def test_parameter_table_covers_every_runner():
    assert list(PARAMETERS) == list(_RUNNERS)
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert set(_NON_DEFAULT) == set(defaults) - {"experiment", "seed", "out", "format"}
    assert all(value != defaults[key] for key, value in _NON_DEFAULT.items())


@pytest.mark.parametrize("experiment", list(PARAMETERS))
def test_runner_reads_exactly_its_parameters(experiment):
    assert _config_reads(_RUNNERS[experiment], "cfg") == \
        {"experiment", "seed", *PARAMETERS[experiment]}


def test_sample_transcript_reads_fit_its_experiments():
    reads = _config_reads(sample_transcript, "config")
    assert reads <= {"experiment", "seed", *PARAMETERS["two-round"]}
    # the digest length is read on the two-round branch only
    assert reads - {"m"} <= {"experiment", "seed", *PARAMETERS["niqkd"]}


@pytest.mark.parametrize("experiment,key", _UNREAD)
def test_unread_parameter_is_rejected(experiment, key, tmp_path, capsys):
    value = _NON_DEFAULT[key]
    flag = [f"--{key}"] if value is True else [f"--{key}", str(value)]
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--seed", "1", *flag])
    assert exc.value.code == 2
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"seed": 1, key: value}))
    assert main([experiment, "--config", str(cfgfile)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"{experiment} does not take {key}"):
        RunConfig(experiment, seed=1, **{key: value})


@pytest.mark.parametrize("argv", [
    ["entropy", "--seed", "1", "--s", "2"],
    ["moe", "--seed", "1", "--tri", "20"],
    ["nogo", "--seed", "1", "--tr", "20"],
    ["moe", "--seed", "1", "--dump-transcript", "tx.json"],
    ["entropy", "--seed", "1", "--dump-transcript", "tx.json"],
    ["moe", "--seed", "1", "--tol", "0.5"],
])
def test_cli_rejects_unknown_and_abbreviated_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: moeqkd {argv[0]} ")
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in err


def test_record_serialization_shape():
    rec = ResultRecord("moe", 3, "pwin", 0.25, bound=0.25, passed=True,
                       scheme="ideal", n=2)
    row = rec.as_csv_row()
    assert row == "moe,3,ideal,,2,,,,,pwin,0.25,,0.25,true"
    d = rec.as_dict()
    assert "runtime" not in d
    assert list(d) == list(CSV_COLUMNS)
    text = records_to_csv([rec])
    assert text.startswith(",".join(CSV_COLUMNS) + "\n")
    assert text.endswith("\n")


def test_emitted_artifacts_ignore_runtime():
    cfg = RunConfig("moe", seed=4, exact=True)
    first, second = run(cfg), run(cfg)
    assert records_to_csv(first) == records_to_csv(second)
    assert records_to_json(first) == records_to_json(second)


def test_moe_exact_intercept_quarter():
    cfg = RunConfig("moe", seed=7, strategy="intercept", n=2, exact=True)
    rows = {r.metric: r for r in run(cfg)}
    assert abs(rows["pwin"].value - 0.25) < 1e-9
    assert rows["pwin"].bound == 0.25
    assert rows["pwin"].passed
    assert abs(rows["agree_rate"].value - 0.25) < 1e-9


def test_moe_sampled_honest_tracks_expectation():
    cfg = RunConfig("moe", seed=2, strategy="honest", n=2, trials=500)
    rows = {r.metric: r for r in run(cfg)}
    assert rows["pwin"].stderr is not None
    assert rows["pwin"].passed
    assert rows["agree_rate"].value == 1.0
    assert rows["agree_rate"].trials == 500


def test_moe_sampled_zero_wins_judged_by_expected_rate(capsys):
    # 0 wins in 25 draws at p = 1/16 happens about 20% of the time; the
    # verdict uses the expected rate's stderr, the emitted column the observed
    code = main(["moe", "--strategy", "intercept", "--n", "4", "--trials", "25",
                 "--seed", "1005"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.split(",")[-5:] for row in rows] == [
        ["pwin", "0.0", "2e-07", "0.0625", "true"],
        ["agree_rate", "0.0", "2e-07", "0.0625", "true"],
    ]


def test_moe_rejects_bad_inputs():
    with pytest.raises(ValueError, match="strategy"):
        run(RunConfig("moe", seed=1, strategy="bogus"))
    with pytest.raises(ValueError, match="basis"):
        run(RunConfig("moe", seed=1, strategy="basis_reading", scheme="ideal"))
    with pytest.raises(ValueError, match="enumerable"):
        run(RunConfig("moe", seed=1, scheme="toydh", exact=True))
    with pytest.raises(ValueError, match="scheme"):
        run(RunConfig("moe", seed=1, scheme="bogus"))


def test_niqkd_swap_decoder_recovers_toydh():
    cfg = RunConfig("niqkd", seed=3, scheme="toydh", adversary="swap_epr",
                    n=2, trials=150)
    rows = {r.metric: r for r in run(cfg)}
    assert rows["decoder_recovery_rate"].value == 1.0
    assert rows["agree_rate"].bound == 0.25
    assert rows["agree_rate"].passed
    # no exact ensemble for the non-enumerable scheme
    assert "hmin_lower" not in rows


def test_niqkd_broken_swap_reports_ensemble_rows():
    cfg = RunConfig("niqkd", seed=3, scheme="broken", adversary="swap_epr",
                    n=2, trials=200)
    rows = {r.metric: r for r in run(cfg)}
    assert rows["hmin_lower"].passed
    assert rows["hmin_lower"].value <= rows["hmin_upper"].value + 1e-12
    assert rows["hmin_upper"].bound == 2.0
    assert rows["eve_guess_rate"].passed


def test_niqkd_rejects_unknown_adversary():
    with pytest.raises(ValueError, match="adversary"):
        run(RunConfig("niqkd", seed=1, adversary="bogus"))


def test_two_round_passive_everlasting_rows():
    cfg = RunConfig("two-round", seed=9, n=2, m=1, trials=100)
    rows = {r.metric: r for r in run(cfg)}
    assert rows["success_rate"].value == 1.0
    assert rows["verify_mismatch_rate"].value == 0.0
    assert abs(rows["everlasting_dist_a"].value - PASSIVE_DIST_N2) < 1e-12
    assert rows["everlasting_dist_a"].value == rows["everlasting_dist_b"].value
    assert rows["everlasting_dist_a"].bound == 0.5


def test_two_round_swap_sub0_skips_inexact_distance():
    cfg = RunConfig("two-round", seed=9, n=2, m=4,
                    adversary="swap_epr_sub0", trials=60)
    rows = {r.metric: r for r in run(cfg)}
    assert "everlasting_dist_a" not in rows
    assert rows["verify_mismatch_rate"].bound == 2.0 * 2.0**-4


def test_nogo_rows_pin_bound():
    cfg = RunConfig("nogo", seed=5, kind="xor_trunc", r=8, m=2, trials=60)
    rows = {r.metric: r for r in run(cfg)}
    assert rows["guess_rate"].value == 1.0
    assert rows["guess_rate"].bound == nogo_bound(8)
    assert rows["offline_failures"].value == 0.0
    assert all(r.passed for r in rows.values())


def test_nogo_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        run(RunConfig("nogo", seed=1, kind="bogus"))


def test_lemmas_battery_passes():
    for rec in run(RunConfig("lemmas", seed=11, trials=40)):
        assert rec.passed, rec


def test_lemmas_counts_a_failed_decomposition(monkeypatch):
    # decomposition_terms raises ValueError on a violated certificate; the
    # battery counts that check as failed instead of stopping
    real, calls = harness.decomposition_terms, []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("sum route off by more than 1e-9")
        return real(*args)

    monkeypatch.setattr(harness, "decomposition_terms", fail_first)
    rows = {rec.metric: rec for rec in run(RunConfig("lemmas", seed=11, trials=40))}
    row = rows["decomposition_pass_rate"]
    assert len(calls) == 10
    assert row.value == 9 / 10 and not row.passed


def test_entropy_battery_passes():
    for rec in run(RunConfig("entropy", seed=11, trials=400)):
        assert rec.passed, rec


def test_sample_transcript_roundtrips():
    cfg = RunConfig("niqkd", seed=6, scheme="broken", adversary="measure_resend")
    tx = json.loads(sample_transcript(cfg))
    assert tx["k_a"] is not None and len(tx["k_a"]) == 2
    cfg2 = RunConfig("two-round", seed=6, n=1, m=1)
    tx2 = json.loads(sample_transcript(cfg2))
    assert len(tx2["subs"]) == 2
    with pytest.raises(ValueError, match="transcripts"):
        sample_transcript(RunConfig("moe", seed=6))


def test_cli_example_row(capsys):
    code = main(["moe", "--strategy", "intercept", "--n", "2",
                 "--exact", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "pwin,0.24999999999999986,,0.25,true" in out


def test_cli_seed_required(capsys):
    assert main(["moe"]) == 2
    assert "--seed is required" in capsys.readouterr().err


def test_cli_config_merge_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"seed": 11, "trials": 120, "scheme": "broken",
                                   "adversary": "measure_resend", "n": 2}))
    code = main(["niqkd", "--config", str(cfgfile), "--trials", "80"])
    out = capsys.readouterr().out
    assert code == 0
    assert ",80," in out and ",120," not in out
    assert ",broken," in out


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    # verdict tolerances are fixed, so a "tol" key is as unknown as any other
    for key in ("bogus", "tol"):
        cfgfile.write_text(json.dumps({"seed": 1, key: 2}))
        assert main(["moe", "--config", str(cfgfile)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    # mistyped values are usage errors too, not a traceback or a silent run
    for text, word in [('{"seed": 1, "trials": 10.5}', "trials"), ('{"seed": 1, "n": "2"}', "n"),
                       ('{"seed": 1, "exact": "no"}', "exact")]:
        cfgfile.write_text(text)
        assert main(["moe", "--config", str(cfgfile)]) == 2
        assert word in capsys.readouterr().err


def test_cli_unreadable_config_is_a_usage_error(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("seed = 1\n")
    for path in (tmp_path / "missing.json", garbled):
        assert main(["moe", "--config", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err


def test_cli_out_file_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["nogo", "--seed", "5", "--r", "8", "--trials", "40",
                 "--out", str(a)]) == 0
    assert main(["nogo", "--seed", "5", "--r", "8", "--trials", "40",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "[PASS] guess_rate" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--out", "--dump-transcript"])
def test_cli_unwritable_output_path_is_a_usage_error(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "o.json"
    assert main(["niqkd", "--seed", "2", "--trials", "4", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("strategy", ["honest", "intercept", "basis_reading", "random"])
def test_moe_refuses_n_over_the_dense_cap_before_building_a_state(strategy, exact, capsys):
    # no machine holds 4^20 amplitudes, so a state built before the check fails here
    scheme = "broken" if strategy == "basis_reading" else "ideal"
    argv = ["moe", "--seed", "1", "--n", "20", "--trials", "1", "--scheme", scheme,
            "--strategy", strategy] + ["--exact"] * exact
    assert main(argv) == 2
    assert f"n = 20 exceeds the {MAX_DENSITY_QUBITS}-qubit dense cap" in capsys.readouterr().err


def test_cli_failing_row_exits_one(monkeypatch, capsys):
    failing = ResultRecord("entropy", 5, "bracket_gap_max", 1.0, bound=1e-6, passed=False)
    monkeypatch.setattr("moeqkd.cli.run", lambda cfg: [failing])
    assert main(["entropy", "--seed", "5"]) == 1
    assert capsys.readouterr().out.endswith(failing.as_csv_row() + "\n")


def test_cli_failed_check_exits_one(monkeypatch, capsys):
    # the attack's internal checks reach a user as an AssertionError
    def broken(cfg):
        raise AssertionError("observations came from a real run")

    monkeypatch.setitem(_RUNNERS, "nogo", broken)
    assert main(["nogo", "--seed", "5", "--r", "8", "--trials", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "assertion failed: observations came from a real run\n"
    assert captured.out == ""


def test_cli_json_format_parses(capsys):
    code = main(["two-round", "--seed", "9", "--n", "1", "--m", "1",
                 "--trials", "30", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {r["metric"] for r in rows} >= {"verify_mismatch_rate", "success_rate"}
    assert all("runtime" not in r for r in rows)


def test_cli_dump_transcript(tmp_path, capsys):
    path = tmp_path / "tx.json"
    code = main(["niqkd", "--seed", "2", "--scheme", "toydh", "--n", "2",
                 "--adversary", "swap_epr", "--trials", "20",
                 "--dump-transcript", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 0
    tx = json.loads(path.read_text())
    assert tx["pp"][0] == "toydh"
    assert tx["k_a"] is not None


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "moeqkd.cli", "moe", "--seed", "7",
         "--exact", "--strategy", "honest"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


def _module_roots(code: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    probe = code + "; import sys; print(' '.join({m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(proc.stdout.split())


def test_cli_import_loads_only_stdlib_numpy_and_moeqkd():
    # site hooks load at interpreter start, so compare against a bare start
    bare = _module_roots("pass")
    extra = _module_roots("import moeqkd.cli") - bare
    assert "moeqkd" in extra
    assert extra - set(sys.stdlib_module_names) <= {"numpy", "moeqkd"}


def test_benchmark_hooks_resolve():
    # perfbench/run.py --trace 1 wraps these attributes and reads these
    # result fields; a rename or deletion here fails before the benchmark does
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text())
    hooks = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("SPANS", "COUNTERS", "OBSERVERS")}
    assert sorted(hooks) == ["COUNTERS", "OBSERVERS", "SPANS"]
    for module, attr, _ in [hook for group in hooks.values() for hook in group]:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
    from moeqkd.entropy import GuessBracket
    from moeqkd.nogo import NogoRate
    for cls, names in [(GuessBracket, {"iterations", "converged", "gap"}),
                       (NogoRate, {"failures", "rate", "trials"})]:
        assert names <= {f.name for f in dataclasses.fields(cls)} | set(dir(cls)), cls
