"""Command line entry point for listing and running scenarios."""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .scenarios import ConfigError, SCENARIOS, list_scenarios, load_config_object, parse_config, render, run_scenario


def _apply_override(raw, assignment):
    key, sep, value = assignment.partition("=")
    if not sep or not key:
        raise ConfigError("--set", f"expected KEY=VALUE, got {assignment!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = parsed


def _cmd_list(_args):
    width = max(len(name) for name, _ in list_scenarios())
    for name, description in list_scenarios():
        print(f"{name:<{width}}  {description}")
    return 0


def _summary_lines(summary, prefix=""):
    for key, value in summary.items():
        if isinstance(value, dict):
            yield from _summary_lines(value, f"{prefix}{key}.")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for k, item in enumerate(value):
                yield from _summary_lines(item, f"{prefix}{key}[{k}].")
        else:
            yield f"# {prefix}{key} = {value}"


def _cmd_run(args):
    target = args.target
    if target in SCENARIOS:
        raw = {"scenario": target}
    elif os.path.exists(target):
        raw = load_config_object(target, f" in {target}")
    else:
        raise ConfigError("scenario", f"unknown scenario or missing file {target!r}; valid names: "
                                      + ", ".join(sorted(SCENARIOS)))
    for assignment in args.overrides:
        _apply_override(raw, assignment)
    config = parse_config(raw)
    result = run_scenario(config)
    text = render(result, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.format == "csv":
        for line in _summary_lines(result.summary):
            print(line, file=sys.stderr)
    return 0


@functools.cache  # one parser per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qrf-lab",
        description="Run quantum-reference-frame scenarios and emit CSV/JSON tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the scenario catalog")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser("run", help="run a named scenario or a JSON config file")
    p_run.add_argument("target", help="scenario name or path to a JSON config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry by dotted path, e.g. params.beta=2.0")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--out", help="output path; stdout when omitted")
    p_run.set_defaults(handler=_cmd_run)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
