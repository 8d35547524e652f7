"""Command line front end.

Usage is ``moeqkd <experiment> [--flags]``; each experiment takes only the
flags of the parameters it reads (``harness.PARAMETERS``), spelled in full.
Flags may also be supplied as a JSON object via --config; explicit flags win
over file values. The exit code is 0 only when every emitted record passed its
own assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .harness import (
    FORMATS,
    PARAMETERS,
    TRANSCRIPT_EXPERIMENTS,
    RunConfig,
    records_to_csv,
    records_to_json,
    run,
    sample_transcript,
)

_HELP = {
    "lemmas": "operator lemma battery over random instances",
    "moe": "one guessing-game configuration, exact or sampled",
    "niqkd": "one-round key agreement under a chosen channel",
    "two-round": "composed two-instance runs with the cross-check round",
    "nogo": "interception attack on a classically-keyed family",
    "entropy": "certified guessing-probability machinery checks",
}

_FLAG_HELP = {"n": "key length in bits", "m": "digest length in bits",
              "r": "local-coin length in bits", "exact": "enumerate instead of sampling"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moeqkd",
        description="Deterministic experiment runner; every row reproduces "
                    "bit for bit from the master seed.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name, params in PARAMETERS.items():
        sp = sub.add_parser(name, help=_HELP[name], allow_abbrev=False)
        sp.set_defaults(subparser=sp)
        sp.add_argument("--seed", type=int, help="master seed (required here or in --config)")
        for key, spec in params.items():
            kind = (dict(action=argparse.BooleanOptionalAction) if spec is bool
                    else dict(choices=spec) if isinstance(spec, tuple) else dict(type=spec))
            sp.add_argument(f"--{key}", help=_FLAG_HELP.get(key), **kind)
        sp.add_argument("--out", help="write records to this path")
        sp.add_argument("--format", choices=FORMATS)
        sp.add_argument("--config", help="JSON file of flag values; explicit flags win")
        if name in TRANSCRIPT_EXPERIMENTS:
            sp.add_argument("--dump-transcript", metavar="PATH",
                            help="also write one protocol transcript as JSON")
    return parser


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    keys = ("seed", *PARAMETERS[ns.experiment], "out", "format")
    file_vals: dict = {}
    if ns.config is not None:
        try:
            file_vals = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(file_vals) - set(keys))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key in keys:
        value = getattr(ns, key)
        if value is None and key in file_vals:
            value = file_vals[key]
        if value is not None:
            merged[key] = value
    if "seed" not in merged:
        raise ValueError("--seed is required (on the command line or in --config)")
    return RunConfig(experiment=ns.experiment, **merged)


def main(argv: list[str] | None = None) -> int:
    ns, extra = build_parser().parse_known_args(argv)
    if extra:  # reported by the experiment's parser, whose usage lists its flags
        ns.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _merge_config(ns)
        start = time.perf_counter()
        records = run(cfg)
        elapsed = time.perf_counter() - start
        if getattr(ns, "dump_transcript", None) is not None:
            Path(ns.dump_transcript).write_text(sample_transcript(cfg) + "\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1

    text = records_to_csv(records) if cfg.format == "csv" else records_to_json(records)
    if cfg.out is not None:
        Path(cfg.out).write_text(text)
        for r in records:
            verdict = "PASS" if r.passed else "FAIL"
            extra = "" if r.bound is None else f" (bound {r.bound!r})"
            print(f"[{verdict}] {r.metric} = {r.value!r}{extra}")
        print(f"wrote {len(records)} records to {cfg.out} "
              f"in {elapsed:.2f}s" if records else "wrote 0 records")
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
