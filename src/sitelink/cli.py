"""Command line: run scenario sweeps, validate configs, print defaults."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from typing import Optional

from .config import (ConfigError, ScenarioConfig, default_config,
                     parse_config, render_config)
from .metrics import export_csv
from .runner import SimulationError, run_metadata, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitelink",
        description="Deterministic LTE / 5G mmWave uplink video simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario sweep and export CSV")
    run.add_argument("--preset", choices=["1", "2", "3"],
                     help="scenario preset (UE sweep, rate sweep, speed sweep)")
    run.add_argument("--rat", choices=["lte", "nr", "both"], default=None,
                     help="radio access technology to simulate")
    run.add_argument("--reps", type=int, default=None,
                     help="replications per sweep point")
    run.add_argument("--seed", type=int, default=None, help="base seed")
    run.add_argument("--out", default="results.csv", help="output CSV path")
    run.add_argument("--config", default=None, help="config file to load")
    run.add_argument("--trace", action="store_true",
                     help="write one event-trace file per run")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel workers, one sweep point per job (output "
                          "is identical for any degree)")

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True, help="config file to check")

    sub.add_parser("print-defaults",
                   help="print the complete default config (parseable)")
    return parser


def _run_overrides(args) -> dict:
    """The config keys that the ``run`` flags set."""
    overrides = {}
    if args.preset:
        overrides["preset"] = f"scenario{args.preset}"
    if args.rat:
        overrides["rats"] = "lte,nr" if args.rat == "both" else args.rat
    if args.reps is not None:
        overrides["replications"] = str(args.reps)
    if args.seed is not None:
        overrides["seed_base"] = str(args.seed)
    return overrides


def _load_config(path: Optional[str],
                 overrides: dict) -> Optional[ScenarioConfig]:
    """The config file at *path* (none: the defaults) with *overrides* on
    top; a leading UTF-8 byte-order mark is dropped.  On failure it prints
    ``error:`` for a file it cannot read as UTF-8, or one ``invalid:`` line
    per config error, and returns None."""
    try:
        text = ""
        if path:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        return parse_config(text, overrides)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc}", file=sys.stderr)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"invalid: {err}", file=sys.stderr)
    return None


def _write_outputs(results, cfg: ScenarioConfig, out: str, meta: str) -> None:
    """Write the CSV and its .meta via temp files plus rename, .meta first, so
    a failed write never leaves a CSV without its metadata."""
    tmp_out = f"{out}.{os.getpid()}.tmp"
    tmp_meta = f"{meta}.{os.getpid()}.tmp"
    try:
        export_csv(results, tmp_out)
        with open(tmp_meta, "w") as fh:
            fh.write(run_metadata(cfg))
        os.replace(tmp_meta, meta)
        os.replace(tmp_out, out)
    finally:
        for tmp in (tmp_out, tmp_meta):
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "print-defaults":
        sys.stdout.write(render_config(default_config()))
        return 0

    if args.command == "validate":
        if _load_config(args.config, {}) is None:
            return 1
        print(f"{args.config}: ok")
        return 0

    if args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, not "
                     f"{args.workers}")
    cfg = _load_config(args.config, _run_overrides(args))
    if cfg is None:
        return 1

    out_dir = os.path.dirname(os.path.abspath(args.out))
    meta_path = args.out + ".meta"
    # Refuse an unusable --out before the sweep spends any simulation on it.
    # The first check that holds gives the reason.
    checks = [
        (os.path.isdir(args.out), f"{args.out!r} is a directory"),
        (os.path.isdir(meta_path), f"{meta_path!r} is a directory"),
        (not os.path.basename(args.out), f"{args.out!r} names no file"),
        (not os.path.isdir(out_dir), f"directory {out_dir!r} does not exist"),
        # A trace moved in beside the CSV would replace it.
        (args.trace and args.out.endswith(".trace"),
         f"{args.out!r} ends in .trace, as the --trace files do")]
    reason = next((why for bad, why in checks if bad), None)
    if reason is not None:
        print(f"error: cannot write results: {reason}", file=sys.stderr)
        return 1
    try:
        # Traces go to a temp directory beside the CSV and move into place
        # only once the CSV and .meta are written; a failed run leaves none.
        with (tempfile.TemporaryDirectory(dir=out_dir, prefix=".sitelink-trace-")
              if args.trace else contextlib.nullcontext()) as trace_tmp:
            results = run_scenario(cfg, workers=args.workers,
                                   trace_dir=trace_tmp)
            _write_outputs(results, cfg, args.out, meta_path)
            if trace_tmp is not None:
                for name in os.listdir(trace_tmp):
                    os.replace(os.path.join(trace_tmp, name),
                               os.path.join(out_dir, name))
    except (SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(results)} rows to {args.out} (metadata: {meta_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
