"""Golden grid: fixed configurations whose output must stay byte-identical.

Each file under ``tests/golden/`` holds the exact output of one fixed
configuration. The CSV files, and one JSON file, are what ``moeqkd`` prints
for the flags in ``CSV_GRID``, so they also cover the command-line parser. A refactor that
keeps behaviour reproduces every file byte for byte. A change that
deliberately alters the order of random draws regenerates exactly the files it
moves, by name, and says so in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py moe_random_n3.csv

A bare ``python tests/test_golden.py`` lists the golden files and writes
nothing.

The CLI records of the no-go attack read 1.0 for every crackable family, so
they cannot tell one candidate draw from another. ``nogo_attack_trace.txt``
therefore also pins the coins the offline phase picks on each trial, and
``nogo_attack_trace_wide.txt`` does the same for coins wider than two 32-bit
words (r = 80) and for a rank-deficient affine key.

``extractor_distance.txt`` pins the exact floats of ``extractor_distance``:
criterion 10's flat sources with its seeded supports, classical side
information on a qubit, and non-diagonal qubit states with some zero weights.

``pguess_brackets.txt`` pins the multi-label ``pguess`` solver: both bracket
ends and the iteration count for seeded ensembles of three or more labels,
full-rank and pure, up to dimension 16, and one of 64 labels on a qubit.
``pguess_fallback.txt`` pins the same for equal-prior, full-rank ensembles of
six labels in dimension 8 whose first bracket misses the gap, so the longer
ascent and the positive-part dual run.

``nogo_attack_rates.txt`` pins ``nogo.attack_success_rate`` end to end: the
``NogoRate`` repr and the generator's next draw for affine keys of one, two
and three coin words, a rank-deficient one and a table key, at trial counts
that fill some attack blocks only in part. Affine rates read 1.0, so it is
the next draw that shows a change in how many draws a run takes.

``distinguisher_advantage.txt`` pins ``game.distinguisher_advantage`` at
n = 2 for the ideal, toydh and broken schemes: the advantage's repr at fixed
seeds, and the next draw of the generator afterwards, so a change in how many
draws the reduction takes shows even where the advantage does not move.

The ``*_transcript.json`` files pin one protocol transcript each, the bytes
``moeqkd ... --dump-transcript`` writes: Eve's state ``rho_e`` is kept in full
there, so they see float changes in the protocol path that the records hide.
The swap transcripts measure state vectors; the measure_resend one sends a
density operator through both measurements.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moeqkd.cli import main
from moeqkd.entropy import CqEnsemble, pguess
from moeqkd.game import (
    basis_reading_strategy,
    distinguisher_advantage,
    honest_strategy,
    intercept_resend_strategy,
    random_strategy,
)
from moeqkd.harness import RunConfig, rng_substream, sample_transcript
from moeqkd.nike import BrokenNike, IdealNike, ToyDhNike
from moeqkd.hashing import ExtractorSpec, extractor_distance
from moeqkd.nogo import (
    ClassicalKeyProtocol,
    affine_hash_key_function,
    affine_key_function,
    attack_success_rate,
    eve_offline,
    eve_online,
    table_key_function,
    xor_trunc_key_function,
)
from moeqkd.quantum import random_density_operator

GOLDEN = Path(__file__).parent / "golden"

CSV_GRID = {
    "nogo_affine_hash_r64_m4.csv": dict(experiment="nogo", kind="affine_hash", r=64, m=4, trials=20),
    "nogo_xor_trunc_r16_m4.csv": dict(experiment="nogo", kind="xor_trunc", r=16, m=4, trials=20),
    "nogo_table_r8_m2.csv": dict(experiment="nogo", kind="table", r=8, m=2, trials=20),
    "entropy.csv": dict(experiment="entropy"),
    "moe_intercept_n4_t200.csv": dict(experiment="moe", strategy="intercept", n=4, trials=200),
    "moe_honest_n2.csv": dict(experiment="moe", strategy="honest", n=2),
    "moe_random_n3.csv": dict(experiment="moe", strategy="random", n=3),
    "moe_basis_reading_broken_n3.csv": dict(experiment="moe", strategy="basis_reading",
                                            scheme="broken", n=3),
    "moe_exact_intercept_n3.csv": dict(experiment="moe", strategy="intercept", n=3, exact=True),
    "moe_exact_random_n2.csv": dict(experiment="moe", strategy="random", n=2, exact=True),
    "moe_exact_honest_n4.csv": dict(experiment="moe", strategy="honest", n=4, exact=True),
    "lemmas_t100.csv": dict(experiment="lemmas", trials=100),
    "niqkd_swap_epr_broken_n2.csv": dict(experiment="niqkd", adversary="swap_epr",
                                         scheme="broken", n=2, trials=100),
    "niqkd_swap_epr_ideal_n2.csv": dict(experiment="niqkd", adversary="swap_epr",
                                        scheme="ideal", n=2, trials=100),
    "niqkd_swap_epr_ideal_n1.csv": dict(experiment="niqkd", adversary="swap_epr",
                                        scheme="ideal", n=1, trials=100),
    "niqkd_swap_epr_broken_n1.csv": dict(experiment="niqkd", adversary="swap_epr",
                                         scheme="broken", n=1, trials=100),
    "niqkd_measure_resend_n2.csv": dict(experiment="niqkd", adversary="measure_resend",
                                        n=2, trials=100),
    "two_round_swap_epr_sub0_n1.csv": dict(experiment="two-round", adversary="swap_epr_sub0",
                                           n=1, m=1, trials=100),
    # the exact swap route refuses n = 2, so this pin holds no everlasting_dist rows
    "two_round_swap_epr_sub0_n2.csv": dict(experiment="two-round", adversary="swap_epr_sub0",
                                           n=2, m=1, trials=100),
    "two_round_passive_n2.csv": dict(experiment="two-round", scheme="ideal", adversary="none",
                                     n=2, m=1, trials=100),
    "two_round_passive_n2.json": dict(experiment="two-round", scheme="ideal", adversary="none",
                                      n=2, m=1, trials=100, format="json"),
    "niqkd_swap_epr_toydh_n2.csv": dict(experiment="niqkd", adversary="swap_epr",
                                        scheme="toydh", n=2, trials=100),
    "niqkd_entangling_relay_n2.csv": dict(experiment="niqkd", adversary="entangling_relay",
                                          n=2, trials=100),
    "niqkd_identity_n2.csv": dict(experiment="niqkd", adversary="identity", n=2, trials=100),
}

TRANSCRIPTS = {
    "niqkd_toydh_swap_epr_n2_transcript.json": dict(experiment="niqkd", scheme="toydh",
                                                    adversary="swap_epr", n=2),
    "two_round_swap_epr_sub0_n2_transcript.json": dict(experiment="two-round",
                                                       adversary="swap_epr_sub0", n=2, m=1),
    "niqkd_toydh_measure_resend_n2_transcript.json": dict(experiment="niqkd", scheme="toydh",
                                                          adversary="measure_resend", n=2),
}


def grid_csv(name: str) -> str:
    params = dict(CSV_GRID[name])
    argv = [params.pop("experiment"), "--seed", "1"]
    for key, value in params.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code in (0, 1), argv
    return out.getvalue()


def transcript(name: str) -> str:
    # the CLI's --dump-transcript appends the same newline
    return sample_transcript(RunConfig(seed=1, **TRANSCRIPTS[name])) + "\n"


def _trace_lines(families, rng) -> str:
    """One line per intercepted run: kind, true coins, offline picks, guess."""
    lines = []
    for name, kf in families:
        proto = ClassicalKeyProtocol(kf)
        for _ in range(5):
            r_a = proto.sample_randomness(rng)
            r_b = proto.sample_randomness(rng)
            state, _, _ = eve_online(proto, 0, 0, proto.prepare_payload("A", r_a),
                                     proto.prepare_payload("B", r_b), rng)
            guess = eve_offline(proto, state, rng)
            lines.append(f"{name} {state.method} {r_a} {r_b} "
                         f"{state.r_star_a} {state.r_star_b} {guess}")
    return "\n".join(lines) + "\n"


def attack_trace() -> str:
    rng = np.random.default_rng(2024)
    cols_a = [int(c) for c in rng.integers(0, 8, size=8)]
    cols_b = [int(c) for c in rng.integers(0, 8, size=8)]
    families = [
        ("xor_trunc", xor_trunc_key_function(16, 4)),
        ("affine_hash", affine_hash_key_function(64, 4, rng)),
        ("affine", affine_key_function(8, 3, cols_a, cols_b, const=5)),
        ("table", table_key_function(8, 2, rng)),
    ]
    return _trace_lines(families, rng)


# 3-bit columns of even parity: their span, the image of the key map, has
# rank 2, so output bit 2 is the xor of bits 0 and 1 on both sides
RANK2_COLS_A = (3, 5, 0, 6, 3, 0, 5, 5, 6, 0)
RANK2_COLS_B = (6, 0, 6, 3, 0, 5, 3, 0, 0, 6)


def attack_trace_wide() -> str:
    rng = np.random.default_rng(2025)
    cols_a = [int(c) for c in rng.integers(0, 32, size=80)]
    cols_b = [int(c) for c in rng.integers(0, 32, size=80)]
    families = [
        ("xor_trunc", xor_trunc_key_function(80, 4)),
        ("affine", affine_key_function(80, 5, cols_a, cols_b, const=9)),
        ("affine", affine_key_function(10, 3, RANK2_COLS_A, RANK2_COLS_B, const=6)),
    ]
    return _trace_lines(families, rng)


ATTACK_TRIALS = (1, 64, 150, 400)


def attack_rates_trace() -> str:
    """One line per (key, trial count): the ``NogoRate`` repr and the
    generator's next 63-bit draw."""
    rng = np.random.default_rng(2029)
    cols_a = [int(c) for c in rng.integers(0, 16, size=80)]
    cols_b = [int(c) for c in rng.integers(0, 16, size=80)]
    protos = [
        ("xor_trunc", ClassicalKeyProtocol(xor_trunc_key_function(16, 4))),
        ("affine_hash", ClassicalKeyProtocol(affine_hash_key_function(64, 4, rng))),
        ("affine_hash", ClassicalKeyProtocol(affine_hash_key_function(64, 4, rng))),
        ("affine_rank2", ClassicalKeyProtocol(
            affine_key_function(10, 3, RANK2_COLS_A, RANK2_COLS_B, const=6), t_samples=3)),
        ("affine", ClassicalKeyProtocol(affine_key_function(80, 4, cols_a, cols_b, const=9))),
        ("table", ClassicalKeyProtocol(table_key_function(8, 2, rng), t_samples=2)),
    ]
    lines = []
    for k, (name, proto) in enumerate(protos):
        for trials in ATTACK_TRIALS:
            rng = np.random.default_rng([k, trials])
            res = attack_success_rate(proto, trials, rng)
            lines.append(f"{name} r={proto.r} probes={proto.probes} trials={trials} "
                         f"{res!r} next={int(rng.integers(2**63))}")
    return "\n".join(lines) + "\n"


def _random_qubit_state(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def extractor_distance_trace() -> str:
    """One line per source: its description and the repr of the distance."""
    lines = []
    # criterion 10's flat sources, drawn in its order from its substream
    rng = rng_substream(110, 0)
    trivial = [np.eye(1, dtype=complex)]
    for n in (2, 4, 6):
        for ell in range(1, n + 1):
            for k in range(ell + 1, n + 1):
                spec = ExtractorSpec(n, ell, float(k), 2.0 ** (-(k - ell) / 2))
                supports = [
                    ("prefix", np.arange(1 << k)),
                    ("stride", np.arange(0, 1 << n, 1 << (n - k))),
                    ("random", rng.choice(1 << n, size=1 << k, replace=False)),
                ]
                for label, sup in supports:
                    probs = np.zeros(1 << n)
                    probs[sup] = 1.0 / (1 << k)
                    d = extractor_distance(spec, probs, trivial * (1 << n))
                    lines.append(f"flat n={n} ell={ell} k={k} {label} {d!r}")

    # the top source bit leaks classically onto a qubit
    n, ell = 5, 2
    spec = ExtractorSpec(n, ell, float(n - 1), 2.0 ** (-(n - 1 - ell) / 2.0))
    states = []
    for x in range(1 << n):
        e = np.zeros((2, 2), dtype=complex)
        e[x >> (n - 1), x >> (n - 1)] = 1.0
        states.append(e)
    d = extractor_distance(spec, np.full(1 << n, 1.0 / (1 << n)), states)
    lines.append(f"classical_top_bit n={n} ell={ell} {d!r}")

    # random mixed qubit states, uneven weights, every third weight zero
    rng = np.random.default_rng(2026)
    for n, ell in ((4, 2), (6, 3), (8, 3)):
        probs = rng.random(1 << n)
        probs[::3] = 0.0
        probs /= probs.sum()
        states = [_random_qubit_state(rng) for _ in range(1 << n)]
        spec = ExtractorSpec(n, ell, float(ell + 2), 0.5)
        d = extractor_distance(spec, probs, states)
        lines.append(f"qubit_mixed n={n} ell={ell} {d!r}")
    return "\n".join(lines) + "\n"


def pguess_brackets_trace() -> str:
    """One line per ensemble: labels, dimension, rank, both ends' reprs, iterations."""
    rng = np.random.default_rng(2027)
    cases = [(k, d, rank) for k in (3, 4, 6) for d in (2, 4, 8, 16) for rank in (d, 1)]
    lines = []
    for k, d, rank in cases + [(64, 2, 2)]:
        probs = rng.dirichlet(np.ones(k))
        states = [random_density_operator(d, rng, rank=rank) for _ in range(k)]
        b = pguess(CqEnsemble(list(range(k)), probs, states))
        lines.append(f"k={k} d={d} rank={rank} {b.lower!r} {b.upper!r} {b.iterations}")
    return "\n".join(lines) + "\n"


# default_rng seeds whose (labels, d) = (6, 8) ensemble takes the fallback
FALLBACK_SEEDS = (5, 25)


def pguess_fallback_trace() -> str:
    """One line per seed: both ends' reprs and the iteration count."""
    lines = []
    for seed in FALLBACK_SEEDS:
        rng = np.random.default_rng(seed)
        states = [random_density_operator(8, rng) for _ in range(6)]
        b = pguess(CqEnsemble(list(range(6)), np.full(6, 1.0 / 6), states))
        lines.append(f"seed={seed} {b.lower!r} {b.upper!r} {b.iterations}")
    return "\n".join(lines) + "\n"


def distinguisher_trace() -> str:
    """One line per (scheme, strategy, seed): the advantage's repr and the
    generator's next 63-bit draw."""
    strategies = {
        "honest": honest_strategy(2),
        "intercept": intercept_resend_strategy(2),
        "random": random_strategy(2, 1, np.random.default_rng(2028)),
        "basis_reading": basis_reading_strategy(2),
    }
    lines = []
    for scheme in (IdealNike(2), ToyDhNike(2), BrokenNike(2)):
        for label, strategy in strategies.items():
            if label == "basis_reading" and scheme.name != "broken":
                continue  # it reads theta from the public tuple
            for seed in (31, 32):
                rng = np.random.default_rng(seed)
                adv = distinguisher_advantage(scheme, strategy, 2, 150, rng)
                lines.append(f"{scheme.name} {label} seed={seed} {adv!r} "
                             f"next={int(rng.integers(2**63))}")
    return "\n".join(lines) + "\n"


GENERATORS = {name: (lambda name=name: grid_csv(name)) for name in CSV_GRID}
GENERATORS.update({name: (lambda name=name: transcript(name)) for name in TRANSCRIPTS})
GENERATORS["nogo_attack_trace.txt"] = attack_trace
GENERATORS["nogo_attack_trace_wide.txt"] = attack_trace_wide
GENERATORS["nogo_attack_rates.txt"] = attack_rates_trace
GENERATORS["extractor_distance.txt"] = extractor_distance_trace
GENERATORS["pguess_brackets.txt"] = pguess_brackets_trace
GENERATORS["pguess_fallback.txt"] = pguess_fallback_trace
GENERATORS["distinguisher_advantage.txt"] = distinguisher_trace


@pytest.mark.parametrize("name", sorted(CSV_GRID))
def test_csv_records_match_golden(name):
    assert grid_csv(name).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_transcript_matches_golden(name):
    assert transcript(name).encode() == (GOLDEN / name).read_bytes()


def test_cli_dump_transcript_matches_golden(tmp_path):
    name = "niqkd_toydh_swap_epr_n2_transcript.json"
    path = tmp_path / name
    argv = ["niqkd", "--seed", "1", "--scheme", "toydh", "--adversary", "swap_epr",
            "--n", "2", "--trials", "1", "--dump-transcript", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 1)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_attack_trace_matches_golden():
    assert attack_trace().encode() == (GOLDEN / "nogo_attack_trace.txt").read_bytes()


def test_wide_attack_trace_matches_golden():
    assert attack_trace_wide().encode() == (GOLDEN / "nogo_attack_trace_wide.txt").read_bytes()


def test_attack_rates_match_golden():
    assert attack_rates_trace().encode() == (GOLDEN / "nogo_attack_rates.txt").read_bytes()


def test_extractor_distance_matches_golden():
    assert extractor_distance_trace().encode() == (GOLDEN / "extractor_distance.txt").read_bytes()


def test_pguess_brackets_match_golden():
    assert pguess_brackets_trace().encode() == (GOLDEN / "pguess_brackets.txt").read_bytes()


def test_pguess_fallback_matches_golden():
    assert pguess_fallback_trace().encode() == (GOLDEN / "pguess_fallback.txt").read_bytes()


def test_distinguisher_advantage_matches_golden():
    assert distinguisher_trace().encode() == (GOLDEN / "distinguisher_advantage.txt").read_bytes()


def regenerate(names) -> None:
    unknown = sorted(set(names) - set(GENERATORS))
    if unknown:
        raise SystemExit("unknown golden file(s): %s" % ", ".join(unknown))
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text(GENERATORS[name]())
        print("wrote", GOLDEN / name)


def test_regenerate_writes_only_the_named_files(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    named = ["extractor_distance.txt", "nogo_attack_trace.txt"]
    regenerate(named)
    assert sorted(f.name for f in tmp_path.iterdir()) == named
    for name in named:
        assert (tmp_path / name).read_bytes() == \
            (Path(__file__).parent / "golden" / name).read_bytes()
    with pytest.raises(SystemExit):
        regenerate(["nogo_attack_trace.txt", "no_such_file.csv"])
    assert sorted(f.name for f in tmp_path.iterdir()) == named


def test_bare_invocation_lists_and_writes_nothing():
    before = {f.name: f.stat().st_mtime_ns for f in GOLDEN.iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert set(GENERATORS) <= set(out.split())
    assert {f.name: f.stat().st_mtime_ns for f in GOLDEN.iterdir()} == before


if __name__ == "__main__":
    if len(sys.argv) > 1:
        regenerate(sys.argv[1:])
    else:
        print("golden files (name them to regenerate; nothing was written):")
        print("\n".join(sorted(GENERATORS)))
