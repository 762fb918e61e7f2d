"""`forge` command-line entry point.

Subcommands mirror the pipeline stages one-to-one and are built from the
pipeline's stage table; `forge run` executes a whole declarative pipeline
from a single JSON config. Logs are JSON lines on stderr; data goes to
files only.
"""

import argparse
import json
import sys

from . import __version__
from .corpus import unique_keys
from .pipeline import (REQUIRED, STAGES, ConfigError, StageError, log_event,
                       run_pipeline)

EXIT_OK = 0
EXIT_STAGE_FAILURE = 1
EXIT_CONFIG_ERROR = 2


# Flags that do not map one-to-one onto a config key, by stage: the flags
# (with their argparse options) and a function that turns them into the
# values of the stage's fields that have no flag of their own; a field it
# gives no value takes its default.

def _ngrams(args):
    if args.ngrams is None:
        return {}
    try:
        lo, hi = (int(v) for v in args.ngrams.split(":"))
    except ValueError:
        raise ConfigError("embed.ngrams",
                          f"expected MIN:MAX, got {args.ngrams!r}") from None
    return {"ngram_min": lo, "ngram_max": hi}


def _backend(args):
    if bool(args.labels) == bool(args.url):
        raise ConfigError("annotate", "exactly one of --labels/--url required")
    return {"backend": {"kind": "file", "labels": args.labels} if args.labels
            else {"kind": "http", "url": args.url}}


def _pools(args):
    pools = {}
    for item in args.pool:
        if "=" not in item:
            raise ConfigError("mix.pool", f"expected NAME=PREFIX, got {item!r}")
        name, prefix = item.split("=", 1)
        if name in pools:
            raise ConfigError("mix.pool", f"pool {name!r} given twice")
        pools[name] = prefix
    return {"pools": pools}


_HOOKS = {
    "embed": ({"--ngrams": {"metavar": "MIN:MAX"}}, _ngrams),
    "annotate": ({"--labels": {"help": "file backend: precomputed labels JSONL"},
                  "--url": {"help": "HTTP backend endpoint"}}, _backend),
    "mix": ({"--pool": {"action": "append", "default": [], "required": True,
                        "metavar": "NAME=PREFIX"}}, _pools),
}

# Stage fields get their own argparse dest, so a field cannot overwrite a
# common flag of the same name (prune's `report` vs --report).
_FIELD_DEST = "field:{}"


def _add_field(parser, key, field):
    flag = field.flag or "--" + key.replace("_", "-")
    if field.type is bool:
        options = {"action": "store_false" if field.default else "store_true"}
    else:
        required = field.default is REQUIRED
        options = {"metavar": key.upper(), "required": required,
                   "default": None if required else field.default,
                   "type": field.type if field.type in (int, float) else None}
    parser.add_argument(flag, dest=_FIELD_DEST.format(key),
                        help=field.help, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Deterministic corpus forging pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version", help="print version and exit")

    p = sub.add_parser("run", help="run a pipeline from a JSON config")
    p.add_argument("--config", required=True)

    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        for key, field in stage.fields.items():
            if field.flag is not None:
                _add_field(p, key, field)
        for flag, options in _HOOKS.get(name, ({},))[0].items():
            p.add_argument(flag, **options)
        p.add_argument("--seed", type=int, default=0,
                       help="global RNG seed (default 0)")
        p.add_argument("--report", default="run_report.json",
                       help="run report path (default run_report.json)")
    return parser


def _single_stage_config(args) -> dict:
    name = args.command
    fields = STAGES[name].fields
    params = {key: getattr(args, _FIELD_DEST.format(key))
              for key, f in fields.items() if f.flag is not None}
    if name in _HOOKS:
        params.update(_HOOKS[name][1](args))
    return {"workspace": ".", "rng_seed": args.seed, "report": args.report,
            "stages": [{"name": name, **params}]}


def _read_config(path: str):
    """The JSON value in the file at `path`; a file that cannot be read or
    decoded, or an object in it that repeats a key, is a ConfigError that
    names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError("config", f"{path}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "version":
        print(__version__)
        return EXIT_OK

    try:
        if args.command == "run":
            run_pipeline(_read_config(args.config))
        else:
            run_pipeline(_single_stage_config(args))
    except ConfigError as exc:
        log_event(event="config_error", field=exc.field, error=str(exc))
        return EXIT_CONFIG_ERROR
    except StageError as exc:
        log_event(event="stage_failure", error=str(exc))
        return EXIT_STAGE_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
