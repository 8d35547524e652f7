"""Experiment driver shared by the test suite and the command line.

Every invocation owns a single master seed; each stochastic phase inside an
experiment draws from its own counter-indexed substream, so any emitted row
can be recomputed bit for bit from (config, seed) alone. Records carry no
wall-clock time, so emitted CSV and JSON artifacts are byte-identical across
same-seed runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .entropy import DEFAULT_GAP, CqEnsemble, chain_rule_check, helstrom_binary, pguess
from .game import (
    BUILTIN_STRATEGIES,
    decomposition_terms,
    exact_pwin,
    random_strategy,
    sampled_pwin,
    verify_fixed_theta_bound,
    verify_random_theta_bound,
)
from .nike import BrokenNike, IdealNike, NoExactRoute, ToyDhNike
from .nogo import (
    ClassicalKeyProtocol,
    affine_hash_key_function,
    attack_success_rate,
    table_key_function,
    xor_trunc_key_function,
)
from .protocols import (
    BUILTIN_ADVERSARIES,
    everlasting_distance_report,
    run_niqkd,
    run_two_round,
    swap_epr_attack,
    weak_security_report,
)
from . import quantum as q

FORMATS = ("csv", "json")
TRANSCRIPT_EXPERIMENTS = ("niqkd", "two-round")
CSV_COLUMNS = (
    "experiment", "seed", "scheme", "strategy", "n", "s", "m", "r",
    "trials", "metric", "value", "stderr", "bound", "passed",
)


def rng_substream(seed: int, idx: int) -> np.random.Generator:
    """Independent generator number ``idx`` under one master seed."""
    return np.random.default_rng([int(seed), int(idx)])


@dataclass(frozen=True)
class RunConfig:
    """One experiment's parameters; ``PARAMETERS`` says which fields each
    experiment reads, and any other field must keep its default."""

    experiment: str
    seed: int
    scheme: str = "ideal"
    strategy: str = "honest"
    adversary: str = "none"
    kind: str = "affine_hash"
    n: int = 2
    m: int = 1
    r: int = 16
    trials: int = 400
    exact: bool = False
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        params = PARAMETERS.get(self.experiment)
        if params is None:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(PARAMETERS)}"
            )
        # values may come from a JSON config file, so types are checked here
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError("out must be a string")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        for f in fields(self):
            value = getattr(self, f.name)
            spec = params.get(f.name)
            if spec is None:
                if f.name not in ("experiment", "seed", "out", "format") and value != f.default:
                    raise ValueError(f"{self.experiment} does not take {f.name}")
            elif isinstance(spec, tuple):
                if value not in spec:
                    raise ValueError(f"unknown {f.name} {value!r}; choose from {', '.join(spec)}")
            elif spec is bool:
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be true or false")
            elif not _is_int(value) or value < 1:
                raise ValueError(f"{f.name} must be an integer of at least 1")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ResultRecord:
    """One metric row; ``passed`` states the row's own assertion verdict."""

    experiment: str
    seed: int
    metric: str
    value: float
    stderr: float | None = None
    bound: float | None = None
    passed: bool = True
    scheme: str | None = None
    strategy: str | None = None
    n: int | None = None
    s: int | None = None
    m: int | None = None
    r: int | None = None
    trials: int | None = None

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}

    def as_csv_row(self) -> str:
        return ",".join(_cell(getattr(self, c)) for c in CSV_COLUMNS)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records: list[ResultRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [r.as_csv_row() for r in records]
    return "\n".join(lines) + "\n"


def records_to_json(records: list[ResultRecord]) -> str:
    return json.dumps([r.as_dict() for r in records], indent=2, sort_keys=True) + "\n"


SCHEMES = {"ideal": IdealNike, "toydh": ToyDhNike, "broken": BrokenNike}
# swap_epr_sub0 is the second-round attack shape: it hits the first sub-instance only
_TWO_ROUND_ADVERSARIES = {**BUILTIN_ADVERSARIES,
                          "swap_epr_sub0": lambda n: (swap_epr_attack(n), None)}


def _binomial_stderr(p: float, trials: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 1e-12) / trials))


def _within(value: float, expected: float, stderr: float | None) -> bool:
    return abs(value - expected) <= q.ATOL_EIG + 4.0 * (stderr or 0.0)


# ---------------------------------------------------------------- lemmas


def _lemmas(cfg: RunConfig) -> list[ResultRecord]:
    """Operator lemma battery: union bound, basis averaging, EPR support,
    both uncertainty-style bounds, and the three-term win decomposition."""
    rows: list[ResultRecord] = []

    def rec(metric, value, bound, passed, **extra):
        rows.append(ResultRecord(cfg.experiment, cfg.seed, metric, value,
                                 bound=bound, passed=passed, **extra))

    rng = rng_substream(cfg.seed, 0)
    worst = np.inf
    for _ in range(cfg.trials):
        k = int(rng.integers(1, 4))
        projs = []
        for _ in range(k):
            d = int(rng.integers(2, 5))
            projs.append(q.random_projector(d, int(rng.integers(0, d + 1)), rng))
        worst = min(worst, q.operator_union_bound_witness(projs))
    rec("union_witness_min", float(worst), -q.ATOL_EIG, worst >= -q.ATOL_EIG,
        trials=cfg.trials)

    pair = (
        np.outer(q.bell_state("phi+"), q.bell_state("phi+").conj())
        + 0.5 * np.outer(q.bell_state("phi-"), q.bell_state("phi-").conj())
        + 0.5 * np.outer(q.bell_state("psi+"), q.bell_state("psi+").conj())
    )
    dev = 0.0
    for n in (1, 2, 3):
        avg = np.zeros((1 << (2 * n), 1 << (2 * n)), dtype=complex)
        for ti in range(1 << n):
            avg += q.agreement_projector(q.int_to_bits(ti, n))
        avg /= 1 << n
        rhs = np.eye(1 << (2 * n), dtype=complex)
        for i in range(n):
            rhs = rhs @ q.embed_operator(pair, [i, n + i], 2 * n)
        dev = max(dev, float(np.abs(avg - rhs).max()))
    rec("basis_average_dev_max", dev, q.ATOL_STRUCT, dev <= q.ATOL_STRUCT)

    dev = 0.0
    for n in (1, 2, 3, 4):
        epr = q.epr_block_state(n)
        for ti in range(1 << n):
            p = q.agreement_projector(q.int_to_bits(ti, n))
            dev = max(dev, float(np.abs(p @ epr - epr).max()))
    rec("epr_support_dev_max", dev, q.ATOL_STRUCT, dev <= q.ATOL_STRUCT)

    rng = rng_substream(cfg.seed, 1)
    count = max(10, cfg.trials // 10)
    margin = np.inf
    for s in (1, 2):
        for _ in range(count):
            rho = q.random_density_operator(16, rng)
            value, bound, _ = verify_random_theta_bound(rho, s)
            margin = min(margin, bound - value)
    rec("random_theta_margin_min", float(margin), -q.ATOL_EIG,
        margin >= -q.ATOL_EIG, n=2, trials=count)

    rng = rng_substream(cfg.seed, 2)
    margin = np.inf
    for s in (1, 2):
        for _ in range(count):
            rho = q.random_density_operator(32, rng)
            povm = q.random_povm(2, 4, rng)
            theta = tuple(int(b) for b in rng.integers(0, 2, 2))
            value, bound, _ = verify_fixed_theta_bound(rho, povm, theta, s)
            margin = min(margin, bound - value)
    rec("fixed_theta_margin_min", float(margin), -q.ATOL_EIG,
        margin >= -q.ATOL_EIG, n=2, trials=count)

    # decomposition_terms certifies its own sum and dual routes to 1e-9,
    # raising on any violation; the row reports the survival fraction
    rng = rng_substream(cfg.seed, 3)
    checks = max(10, cfg.trials // 20)
    ok = 0
    for _ in range(checks):
        psi = q.haar_state(32, rng)
        povm = q.random_povm(2, 4, rng)
        theta = tuple(int(b) for b in rng.integers(0, 2, 2))
        try:
            decomposition_terms(psi, ("lemma",), theta, 1, povm)
            ok += 1
        except ValueError:
            pass
    rec("decomposition_pass_rate", ok / checks, 1.0, ok == checks,
        n=2, s=1, trials=checks)
    return rows


# ------------------------------------------------------------------- moe


_STRATEGY_ALIASES = {"intercept": "intercept_resend"}

# (expected pwin, expected agreement) as functions of n; None = unchecked
_MOE_EXPECTED = {
    "honest": (lambda n: 2.0 ** -n, lambda n: 1.0),
    "intercept_resend": (lambda n: 2.0 ** -n, lambda n: 2.0 ** -n),
    "basis_reading": (lambda n: 1.0, lambda n: 1.0),
    "random": (None, None),
}


def _moe(cfg: RunConfig) -> list[ResultRecord]:
    """One game configuration, exact enumeration or Monte-Carlo."""
    if cfg.n > q.MAX_DENSITY_QUBITS:  # before a strategy builds its 4^n amplitudes
        raise ValueError(f"n = {cfg.n} exceeds the {q.MAX_DENSITY_QUBITS}-qubit dense cap")
    name = _STRATEGY_ALIASES.get(cfg.strategy, cfg.strategy)
    if name == "basis_reading" and cfg.scheme != "broken":
        raise ValueError("basis_reading needs a scheme whose public tuple carries the basis")
    if name == "random":
        strategy = random_strategy(cfg.n, min(cfg.n, 2), rng_substream(cfg.seed, 0))
    else:
        strategy = BUILTIN_STRATEGIES[name](cfg.n)
    scheme = SCHEMES[cfg.scheme](cfg.n)

    if cfg.exact:
        res = exact_pwin(scheme, strategy, cfg.n)
        trials = None
    else:
        res = sampled_pwin(scheme, strategy, cfg.n, cfg.trials, rng_substream(cfg.seed, 1))
        trials = cfg.trials

    def near(value: float, expected: float) -> bool:
        # judged by the spread of the expected rate, as in _niqkd: an observed
        # rate of 0 or 1 has a stderr of almost nothing
        err = None if trials is None else _binomial_stderr(expected, trials)
        return _within(value, expected, err)

    exp_pwin, exp_agree = _MOE_EXPECTED[name]
    common = dict(scheme=cfg.scheme, strategy=cfg.strategy, n=cfg.n, trials=trials)
    rows = [
        ResultRecord(cfg.experiment, cfg.seed, "pwin", res.pwin, stderr=res.stderr,
                     bound=None if exp_pwin is None else exp_pwin(cfg.n),
                     passed=(res.pwin <= res.agree_rate + q.ATOL_EIG) if exp_pwin is None
                     else near(res.pwin, exp_pwin(cfg.n)),
                     **common),
    ]
    agree_err = None if trials is None else _binomial_stderr(res.agree_rate, trials)
    rows.append(
        ResultRecord(cfg.experiment, cfg.seed, "agree_rate", res.agree_rate,
                     stderr=agree_err,
                     bound=None if exp_agree is None else exp_agree(cfg.n),
                     passed=True if exp_agree is None
                     else near(res.agree_rate, exp_agree(cfg.n)),
                     **common)
    )
    return rows


# ----------------------------------------------------------------- niqkd


_NIQKD_AGREE = {
    "none": lambda n: 1.0,
    "identity": lambda n: 1.0,
    "swap_epr": lambda n: 2.0 ** -n,
    # per-pair intercept agreement is 3/4 in either formulation
    "measure_resend": lambda n: 0.75 ** n,
    "entangling_relay": lambda n: 0.75 ** n,
}


def _niqkd(cfg: RunConfig) -> list[ResultRecord]:
    """Empirical one-round runs plus the exact key-versus-E ensemble where
    ``weak_security_report`` has an exact route, that is, raises no NoExactRoute.

    The one trial loop also scores the decoder against the final key: a
    trial whose keys agree scores 1 when Alice's guess is right, and one
    whose keys disagree scores 2^-n, since that key is redrawn uniformly,
    independent of E. The mean is the ``eve_guess_rate`` row."""
    scheme = SCHEMES[cfg.scheme](cfg.n)
    adv = BUILTIN_ADVERSARIES[cfg.adversary](cfg.n)

    rng = rng_substream(cfg.seed, 0)
    agree = 0
    recovered = 0
    guessed = 0.0
    # the unbounded decoder phase needs the basis to be recoverable from
    # the public tuple, which rules out the opaque-handle scheme
    decode = adv is not None and adv.decoder is not None and cfg.scheme != "ideal"
    for _ in range(cfg.trials):
        tx = run_niqkd(scheme, cfg.n, adv, rng)
        agreed = tx.k_a is not None and tx.k_a == tx.k_b
        agree += agreed
        if decode:
            ga, gb = adv.decoder(tx, rng)
            if ga == tx.k_a and gb == tx.k_b:
                recovered += 1
            guessed += (ga == tx.k_a) if agreed else 2.0 ** -cfg.n

    expected = _NIQKD_AGREE[cfg.adversary](cfg.n)
    rate = agree / cfg.trials
    err = _binomial_stderr(expected, cfg.trials)
    common = dict(scheme=cfg.scheme, strategy=cfg.adversary, n=cfg.n, trials=cfg.trials)
    rows = [ResultRecord(cfg.experiment, cfg.seed, "agree_rate", rate,
                         stderr=_binomial_stderr(rate, cfg.trials), bound=expected,
                         passed=_within(rate, expected, err), **common)]
    if decode:
        rec_rate = recovered / cfg.trials
        rows.append(ResultRecord(cfg.experiment, cfg.seed, "decoder_recovery_rate",
                                 rec_rate, bound=1.0,
                                 passed=rec_rate == 1.0, **common))

    try:
        rep = weak_security_report(scheme, cfg.n, adv, rng_substream(cfg.seed, 1))
    except NoExactRoute:
        return rows
    sane = -q.ATOL_EIG <= rep.hmin_lower <= rep.hmin_upper <= cfg.n + q.ATOL_EIG
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "hmin_lower",
                             rep.hmin_lower, passed=sane, **common))
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "hmin_upper",
                             rep.hmin_upper, bound=float(cfg.n), passed=sane, **common))
    if decode:
        # empirical decoder success may not beat the certified optimum
        guess_rate = guessed / cfg.trials
        err = _binomial_stderr(rep.bracket.upper, cfg.trials)
        rows.append(ResultRecord(
            cfg.experiment, cfg.seed, "eve_guess_rate", guess_rate,
            stderr=_binomial_stderr(guess_rate, cfg.trials),
            bound=rep.bracket.upper,
            passed=guess_rate <= rep.bracket.upper + q.ATOL_EIG + 4 * err,
            **common))
    return rows


# -------------------------------------------------------------- two-round


def _two_round(cfg: RunConfig) -> list[ResultRecord]:
    """Composed runs with the cross-check round; everlasting-distance rows
    appear only where ``everlasting_distance_report`` raises no NoExactRoute."""
    scheme = SCHEMES[cfg.scheme](cfg.n)
    adv = _TWO_ROUND_ADVERSARIES[cfg.adversary](cfg.n)

    rng = rng_substream(cfg.seed, 0)
    mismatch = 0
    success = 0
    for _ in range(cfg.trials):
        tx = run_two_round(scheme, cfg.n, cfg.m, adv, rng)
        if tx.kstar_a != tx.kstar_b:
            mismatch += 1
        elif tx.kstar_a is not None:
            success += 1

    # a forged or damaged key slips past its digest check with chance 2^-m
    # per direction, so mismatches stay under 2 * 2^-m
    cap = min(2.0 * 2.0 ** -cfg.m, 1.0)
    rate = mismatch / cfg.trials
    err = _binomial_stderr(cap, cfg.trials)
    common = dict(scheme=cfg.scheme, strategy=cfg.adversary, n=cfg.n, m=cfg.m,
                  trials=cfg.trials)
    rows = [ResultRecord(cfg.experiment, cfg.seed, "verify_mismatch_rate", rate,
                         stderr=_binomial_stderr(rate, cfg.trials), bound=cap,
                         passed=rate <= cap + 4 * err, **common)]
    succ = success / cfg.trials
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "success_rate", succ,
                             bound=1.0 if adv is None else None,
                             passed=succ == 1.0 if adv is None else True, **common))

    try:
        d_a, d_b = everlasting_distance_report(scheme, cfg.n, cfg.m, adv)
    except NoExactRoute:
        return rows
    eps = 2.0 ** -cfg.m
    for metric, d in (("everlasting_dist_a", d_a), ("everlasting_dist_b", d_b)):
        rows.append(ResultRecord(cfg.experiment, cfg.seed, metric, d,
                                 bound=eps, passed=d <= eps + q.ATOL_EIG, **common))
    return rows


# ------------------------------------------------------------------ nogo


def _nogo(cfg: RunConfig) -> list[ResultRecord]:
    """Interception attack on a classically-keyed protocol family."""
    if cfg.kind == "xor_trunc":
        kf = xor_trunc_key_function(cfg.r, cfg.m)
    elif cfg.kind == "affine_hash":
        kf = affine_hash_key_function(cfg.r, cfg.m, rng_substream(cfg.seed, 0))
    else:
        kf = table_key_function(cfg.r, cfg.m, rng_substream(cfg.seed, 0))
    proto = ClassicalKeyProtocol(kf)
    res = attack_success_rate(proto, cfg.trials, rng_substream(cfg.seed, 1))
    common = dict(strategy=cfg.kind, m=cfg.m, r=cfg.r, trials=cfg.trials)
    ok = res.failures == 0 and res.rate >= res.bound - 3.0 * res.stderr
    return [
        ResultRecord(cfg.experiment, cfg.seed, "guess_rate", res.rate,
                     stderr=res.stderr, bound=res.bound, passed=ok, **common),
        ResultRecord(cfg.experiment, cfg.seed, "offline_failures",
                     float(res.failures), bound=0.0,
                     passed=res.failures == 0, **common),
    ]


# --------------------------------------------------------------- entropy


def _entropy(cfg: RunConfig) -> list[ResultRecord]:
    """Certified guessing-probability machinery on random ensembles."""
    count = max(4, cfg.trials // 100)
    rows: list[ResultRecord] = []

    rng = rng_substream(cfg.seed, 0)
    dev = 0.0
    for _ in range(count):
        p0 = float(rng.uniform(0.05, 0.95))
        rho0 = q.random_density_operator(4, rng)
        rho1 = q.random_density_operator(4, rng)
        ens = CqEnsemble([0, 1], np.array([p0, 1.0 - p0]), [rho0, rho1])
        br = pguess(ens)
        hel = helstrom_binary(p0, rho0, 1.0 - p0, rho1)
        dev = max(dev, br.lower - hel, hel - br.upper, 0.0)
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "helstrom_dev_max", dev,
                             bound=DEFAULT_GAP, passed=dev <= DEFAULT_GAP, trials=count))

    rng = rng_substream(cfg.seed, 1)
    gap = 0.0
    for _ in range(count):
        probs = rng.dirichlet(np.ones(4))
        states = [q.random_density_operator(4, rng) for _ in range(4)]
        br = pguess(CqEnsemble(list(range(4)), probs, states))
        gap = max(gap, br.gap)
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "bracket_gap_max", gap,
                             bound=DEFAULT_GAP, passed=gap <= DEFAULT_GAP, trials=count))

    rng = rng_substream(cfg.seed, 2)
    held = 0
    for _ in range(count):
        probs = rng.dirichlet(np.ones(2))
        states = [q.random_density_operator(4, rng) for _ in range(2)]
        res = chain_rule_check(CqEnsemble([0, 1], probs, states), 2)
        if res.holds:
            held += 1
    rows.append(ResultRecord(cfg.experiment, cfg.seed, "chain_rule_hold_rate",
                             held / count, bound=1.0, passed=held == count,
                             trials=count))
    return rows


_RUNNERS = {
    "lemmas": _lemmas,
    "moe": _moe,
    "niqkd": _niqkd,
    "two-round": _two_round,
    "nogo": _nogo,
    "entropy": _entropy,
}

# The RunConfig fields each experiment reads besides experiment and seed: the
# field's type, or the names a string field accepts. RunConfig's checks, the
# CLI's flags and the keys a --config file may hold all come from this table.
PARAMETERS = {
    "lemmas": {"trials": int},
    "moe": {"scheme": tuple(SCHEMES), "strategy": (*_MOE_EXPECTED, *_STRATEGY_ALIASES),
            "n": int, "trials": int, "exact": bool},
    "niqkd": {"scheme": tuple(SCHEMES), "adversary": tuple(_NIQKD_AGREE),
              "n": int, "trials": int},
    "two-round": {"scheme": tuple(SCHEMES), "adversary": tuple(_TWO_ROUND_ADVERSARIES),
                  "n": int, "m": int, "trials": int},
    "nogo": {"kind": ("xor_trunc", "affine_hash", "table"), "r": int, "m": int, "trials": int},
    "entropy": {"trials": int},
}


def run(config: RunConfig) -> list[ResultRecord]:
    """Execute one experiment; every row is deterministic in (config, seed)."""
    return _RUNNERS[config.experiment](config)


def sample_transcript(config: RunConfig) -> str:
    """One protocol run under the config's parameters, as transcript JSON."""
    if config.experiment not in TRANSCRIPT_EXPERIMENTS:
        raise ValueError("transcripts exist for niqkd and two-round only")
    scheme = SCHEMES[config.scheme](config.n)
    adv = _TWO_ROUND_ADVERSARIES[config.adversary](config.n)
    rng = rng_substream(config.seed, 7)
    if config.experiment == "niqkd":
        return run_niqkd(scheme, config.n, adv, rng).to_json()
    return run_two_round(scheme, config.n, config.m, adv, rng).to_json()
