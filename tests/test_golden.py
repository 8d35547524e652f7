"""Golden grid: fixed configurations whose output must stay byte-identical.

Each file under ``tests/golden/`` holds the exact output of one fixed
configuration. A refactor that keeps behaviour reproduces every file byte for
byte; a change that deliberately alters the order of random draws regenerates
them with ``python tests/test_golden.py`` and says so in CHANGES.md.

The CLI records of the no-go attack read 1.0 for every crackable family, so
they cannot tell one candidate draw from another. ``nogo_attack_trace.txt``
therefore also pins the coins the offline phase picks on each trial.
"""

from pathlib import Path

import numpy as np
import pytest

from moeqkd.harness import RunConfig, records_to_csv, run
from moeqkd.nogo import (
    ClassicalKeyProtocol,
    affine_hash_key_function,
    affine_key_function,
    eve_offline,
    eve_online,
    table_key_function,
    xor_trunc_key_function,
)

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
}


def grid_csv(name: str) -> str:
    return records_to_csv(run(RunConfig(seed=1, **CSV_GRID[name])))


def attack_trace() -> str:
    """One line per intercepted run: kind, true coins, offline picks, guess."""
    rng = np.random.default_rng(2024)
    cols_a = [int(c) for c in rng.integers(0, 8, size=8)]
    cols_b = [int(c) for c in rng.integers(0, 8, size=8)]
    families = [
        ("xor_trunc", xor_trunc_key_function(16, 4)),
        ("affine_hash", affine_hash_key_function(64, 4, rng)),
        ("affine", affine_key_function(8, 3, cols_a, cols_b, const=5)),
        ("table", table_key_function(8, 2, rng)),
    ]
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


@pytest.mark.parametrize("name", sorted(CSV_GRID))
def test_csv_records_match_golden(name):
    assert grid_csv(name).encode() == (GOLDEN / name).read_bytes()


def test_attack_trace_matches_golden():
    assert attack_trace().encode() == (GOLDEN / "nogo_attack_trace.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CSV_GRID:
        (GOLDEN / name).write_text(grid_csv(name))
    (GOLDEN / "nogo_attack_trace.txt").write_text(attack_trace())
