"""Batch experiment driver.

``liemult run <config.json>`` executes the configured experiments, writes each
one's JSON report and prints its status line as it finishes, writes the summary
last, and exits 0 only if every non-inconclusive assertion passed;
``liemult list-experiments`` prints the catalog.  Reports are byte-deterministic
functions of (config, seeds, version); the parallelism degree never changes a byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import __version__
from .config import default_config, read_config, validate_config
from .errors import ConfigError
from .experiments import EXPERIMENTS, catalog, run_experiment
from .reporting import dump_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_RUNTIME = 3


def _error_result(entry: dict, exc: BaseException, trace: str):
    """``(report, trace)`` of an entry that raised ``exc``; the trace text stays
    out of the report, since its file paths would tie report bytes to the machine."""
    return {"experiment": entry["name"], "seed": entry["seed"], "status": "error",
            "error": f"{type(exc).__name__}: {exc}"}, trace


def _execute_entry(ctx: dict, entry: dict):
    """Run one experiment entry against the run's context; safe to call in a worker process.

    Returns ``(report, traceback)``, the traceback being None unless the
    entry raised, in which case the report is an error report.
    """
    try:
        return run_experiment(entry["name"], ctx, entry.get("params", {}), entry["seed"]), None
    except Exception as exc:  # noqa: BLE001 - one failing entry must not lose the others
        return _error_result(entry, exc, traceback.format_exc())


def _positive_int(text: str) -> int:
    if not text.lstrip("-").isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _run(args) -> int:
    try:
        cfg = default_config() if args.default else read_config(args.config)
        ctx = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"argument --out: cannot create {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SCHEMA
    entries = cfg["experiments"]
    # one context serves every entry and is never written to; a CSV run hands each
    # entry a shallow copy that carries its own directory
    csv = cfg.get("output", {}).get("csv")
    contexts = [{**ctx, "csv_dir": out_dir / f"{i:02d}_{entry['name']}"} if csv else ctx
                for i, entry in enumerate(entries)]

    rows = [None] * len(entries)

    def finished(index: int, result: tuple) -> None:
        """Write an entry's report and keep its summary row as it returns, so a run
        that stops early keeps every report it finished."""
        report, trace = result
        name, seed = entries[index]["name"], entries[index]["seed"]
        report["schema_version"] = cfg["schema_version"]
        filename = f"{index:02d}_{name}.json"
        dump_json(report, out_dir / filename)
        rows[index] = {"index": index, "name": name, "seed": seed,
                       "status": report["status"], "file": filename}
        if trace is not None:
            print(f"runtime error in experiment {index:02d} {name} (seed {seed}):\n{trace}",
                  file=sys.stderr)
        print(f"[{report['status'].upper():>12}] {index:02d} {name}", flush=True)

    if args.jobs > 1:
        # a fork pool starts all its workers at the first submit: no more than there are entries
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(entries))) as pool:
            futures = {pool.submit(_execute_entry, contexts[i], entries[i]): i
                       for i in range(len(entries))}
            for fut in as_completed(futures):
                try:
                    result = fut.result()
                except BrokenProcessPool as exc:
                    # a worker died outside any experiment's code and broke the pool: the
                    # entries not yet returned are lost, the returned ones are kept
                    result = _error_result(entries[futures[fut]], exc,
                                           f"lost when a worker process died: {exc}")
                finished(futures[fut], result)
    else:
        for i in range(len(entries)):
            finished(i, _execute_entry(contexts[i], entries[i]))

    # "error" enters the counts only when an entry errored
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    summary = {
        "schema_version": cfg["schema_version"],
        "version": __version__,
        "group": cfg["group"],
        "counts": counts,
        "experiments": rows,
    }
    dump_json(summary, out_dir / "summary.json")
    print(", ".join(f"{n} {status}" for status, n in counts.items()) + f" -> {out_dir}")

    if "error" in counts:
        return EXIT_RUNTIME
    if counts["fail"]:
        return EXIT_FAIL
    if counts["inconclusive"] and args.strict:
        print("strict mode: inconclusive results present", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _list(args) -> int:
    entries = catalog()
    if args.module:
        entries = [e for e in entries if e["module"] == args.module]
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return EXIT_OK
    for entry in entries:
        print(f"{entry['name']:28s} [{entry['module']}] {entry['verifies']}")
        required = [k for k, v in entry["params"].items() if v["required"]]
        optional = [f"{k}={entry['params'][k].get('default')}"
                    for k, v in entry["params"].items() if not v["required"]]
        if required:
            print(f"{'':30s}required: {', '.join(sorted(required))}")
        if optional:
            print(f"{'':30s}optional: {', '.join(sorted(optional))}")
    print(f"{len(entries)} experiments")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liemult",
        description="simulate group-valued independent-increment processes and"
                    " verify their regularity properties",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment battery from a config file")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", help="path to a JSON config")
    source.add_argument("--default", action="store_true",
                        help="run the built-in default battery")
    run_p.add_argument("--out", default="reports", help="output directory")
    run_p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (results are independent of this)")
    run_p.add_argument("--strict", action="store_true",
                       help="treat inconclusive results as failures")
    run_p.set_defaults(func=_run)

    list_p = sub.add_parser("list-experiments", help="print the experiment catalog")
    list_p.add_argument("--json", action="store_true", help="machine-readable catalog")
    list_p.add_argument("--module", choices=sorted({spec.module for spec in EXPERIMENTS.values()}),
                        help="filter by module")
    list_p.set_defaults(func=_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
