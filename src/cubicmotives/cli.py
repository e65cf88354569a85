"""Command-line front end: run verification suites, emit JSON and markdown.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for a bad
configuration (schema diagnostics on stderr), 3 when a suite or the building
of the report raises (the traceback and an ``error: <suite>: ...`` or
``error: report: ...`` line on stderr, no report).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .errors import DomainError, StructureError
from .linalg import mat_from_json
from .realization import RealizationConfig
from .suites import (SUITES, random_gram, reports_to_json, reports_to_markdown,
                     run_all, run_suite)


class ConfigError(Exception):
    """Bad configuration; ``diagnostics`` lists every schema violation."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


_CONFIG_KEYS = {"seed", "gram"}


def _read_json(path, what: str):
    """The JSON value in a file; unreadable or undecodable input (a bad path,
    bytes that are not UTF-8, invalid JSON, an integer literal beyond
    Python's conversion limit) raises ConfigError."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as e:
        raise ConfigError([f"config: cannot read {what}: {e}"])
    try:
        return json.loads(text)
    except ValueError as e:
        raise ConfigError([f"config: {what} is not valid JSON: {e}"])


def _load_config_file(path: str) -> dict:
    data = _read_json(path, path)
    if not isinstance(data, dict):
        raise ConfigError([f"config: {path} must contain a JSON object"])
    diags = []
    for key in sorted(set(data) - _CONFIG_KEYS):
        diags.append(f"config: unknown key {key!r} (allowed: seed, gram)")
    if "seed" in data and type(data["seed"]) is not int:  # bool is an int subclass
        diags.append(f"config: 'seed' must be an integer, got {type(data['seed']).__name__}")
    if "gram" in data and not isinstance(data["gram"], (str, list)):
        diags.append("config: 'gram' must be \"default\", \"random\", a file path, "
                     "or a matrix as a list of rows")
    if diags:
        raise ConfigError(diags)
    return data


def _gram_from_rows(rows, origin: str):
    try:
        return RealizationConfig.with_gram(mat_from_json(rows))
    except (StructureError, DomainError, ValueError, TypeError, ZeroDivisionError) as e:
        raise ConfigError([f"config: {origin} is not a valid Gram matrix: {e}"])


def _resolve_gram(spec, seed: int):
    """Turn a gram specifier into a RealizationConfig (None = library default).

    Returns ``(config_or_none, description)``.
    """
    if spec is None or spec == "default":
        return None, "default"
    if spec == "random":
        return RealizationConfig.with_gram(random_gram(seed)), f"random(seed={seed})"
    if isinstance(spec, list):
        return _gram_from_rows(spec, "inline 'gram' value"), "inline"
    data = _read_json(spec, f"gram file {spec}")
    if isinstance(data, dict):
        if "prim_gram" not in data:
            raise ConfigError([f"config: gram file {spec} must contain a matrix "
                               "or an object with a 'prim_gram' key"])
        data = data["prim_gram"]
    if not isinstance(data, list):
        raise ConfigError([f"config: gram file {spec} must contain a matrix "
                           "as a list of rows"])
    return _gram_from_rows(data, f"gram file {spec}"), str(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicmotives",
        description="Exact verification suites for the motive calculus; "
                    "each subcommand runs one suite, 'all' runs every suite.")
    sub = parser.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for name, fn in [*SUITES.items(), ("all", run_all)]:
        # the summary line of the suite's docstring (absent under python -OO)
        p = sub.add_parser(name, help=(fn.__doc__ or "").split("\n")[0])
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file with optional 'seed' and 'gram' keys")
        p.add_argument("--out", metavar="PATH",
                       help="write the JSON report here and the markdown "
                            "report next to it")
        p.add_argument("--seed", type=int, metavar="N",
                       help="seed for randomized suites (default 0)")
        p.add_argument("--gram", metavar="SPEC",
                       help="primitive Gram matrix: 'default', 'random', or a "
                            "JSON file path")
    return parser


def _write_reports(out: str, payload: dict, markdown: str):
    json_path = Path(out)
    if json_path.suffix == ".md":
        md_path = json_path
        json_path = json_path.with_suffix(".json")
    else:
        md_path = json_path.with_suffix(".md")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    md_path.write_text(markdown)
    return json_path, md_path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
        gram_spec = args.gram if args.gram is not None else file_cfg.get("gram")
        cfg, gram_desc = _resolve_gram(gram_spec, seed)
    except ConfigError as e:
        for line in e.diagnostics:
            print(line, file=sys.stderr)
        return 2

    reports = []
    try:
        for stage in SUITES if args.suite == "all" else [args.suite]:
            reports.append(run_suite(stage, cfg, seed))
        stage = "report"
        payload = reports_to_json(reports)
        payload.update({"command": args.suite, "seed": seed, "gram": gram_desc})
        markdown = reports_to_markdown(reports)
    except Exception as e:  # a crash must not read as a failed check
        traceback.print_exc()
        print(f"error: {stage}: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(markdown, end="")
    if args.out:
        json_path, md_path = _write_reports(args.out, payload, markdown)
        print(f"\nreports written: {json_path}, {md_path}", file=sys.stderr)
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
