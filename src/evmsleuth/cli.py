"""Command-line interface.

    evmsleuth investigate -t TAG -e local[dir=PATH] [-d evm|block] [...]
    evmsleuth fixtures build --scenario all --out DIR
    evmsleuth fixtures scale --axis instructions --magnitude 84000 --root DIR
    evmsleuth bench --root DIR --axis storage --magnitudes 500,2000 --level block
    evmsleuth export-feed -e local[dir=PATH]

fixtures and bench import the producer (evmsleuth.fixtures, the harness in
evmsleuth.fixtures.bench) when they run; investigate and export-feed never
load it.

main reads an investigate or export-feed command line itself (read_plain)
when it is the command followed by FLAG VALUE pairs alone: each flag spelt
as declared, no value starting with "-", no option but -p given more than
once, and every required option given. Any other command line (-h, --,
--tag=x, -tx, an abbreviation, a leftover, a missing option, another
command) goes to the full argparse parser (make_parser), built on the call,
so help, usage, error texts and exit codes are argparse's. Both read the
options from one table, PLAIN_COMMANDS. On Python 3.11 with 2 shared vCPUs,
read_plain takes about 3 us where building the full parser takes 0.9 ms; a
warm-cache block-level investigation of a storage-32000 fixture takes
0.7 ms in-process through read_plain and 1.7 ms through the full parser;
and a fresh process that read_plain serves never imports argparse, gettext
or locale (2.6-2.9 ms under -X importtime). Nothing is kept between calls.

-e is parsed once (build_explorer), which also names the directory of a
local archive, whose vulns/ must hold exactly one *.json, the descriptor
read when the detector names none (rules_evm.read_vuln_doc). -p takes the
keys from and to alone; any other is refused as a leftover parameter is.
With -c over a local archive, investigate and export-feed read chain.json
but leave its parse to the cache (build_explorer, with_cache), which
anchors its directory to those bytes: a warm run answers from the cache
without opening the archive, and a directory anchored to another archive
is refused (exit 2).

The report is written in one call as the bytes of json.dumps(report,
indent=1, sort_keys=True) and a newline (docs/formats.md), by
indented_json: the standard library encodes an indented document in pure
Python, and indented_json hands each container of scalars to a C encoder
instead. On Python 3.11 with 2 shared vCPUs a warm state-edges block
report takes about 37 us where json.dumps takes 67 us, and the six suite
scenarios' evm reports 0.73 ms where it takes 1.16 ms. The stderr summary
is one write too.

Component switches take a name with optional bracketed parameters:

    name
    name[key=value,key=value]

Parameters are comma-separated key=value pairs; commas inside parentheses
belong to the value, so function signatures like vote(uint256,uint256) pass
through unquoted. Multi-value parameters use | as the list separator.

Machine-readable output (the JSON report, the feed CSV, the bench CSV) goes
to stdout; the human summary goes to stderr. Exit codes: 0 the run
completed (detections are data, not a status), 2 configuration problem,
3 the archive could not be reached or served garbage.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ArchiveGapError,
    ConfigError,
    FeedError,
    ProtocolError,
    ReconstructionError,
    TraceParseError,
    UsageError,
)
from .explorer import CachedExplorer, LocalArchive, RpcExplorer, read_json, read_text
from .filters import FilterQuery, ReadState, parse_csv_feed, tx_list, write_csv_feed
from .orchestrator import InvestigationConfig, run_investigation
from .rules_evm import VulnSpec, read_vuln_doc

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAP = 3


# -- component switch grammar ----------------------------------------------------


def split_params(body: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_component(text: str) -> tuple[str, dict[str, str]]:
    """'name' or 'name[k=v,k=v]' -> (name, params)."""
    if "[" not in text:
        if "]" in text:
            raise UsageError(f"unbalanced brackets in {text!r:.80}")
        return text, {}
    name, _, rest = text.partition("[")
    if not rest.endswith("]"):
        raise UsageError(f"missing closing bracket in {text!r:.80}")
    params = {}
    body = rest[:-1]
    if body:
        for pair in split_params(body):
            key, eq, value = pair.partition("=")
            if not eq or not key:
                raise UsageError(f"expected key=value in {text!r:.80}, got {pair!r:.80}")
            params[key] = value
    return name, params


def _reject_leftovers(params: dict, where: str):
    if params:
        raise UsageError(f"unknown {where} parameter(s): {', '.join(sorted(params)):.80}")


def _int_param(value: str, what: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {value!r:.80}") from None


def _seconds_param(value: str, what: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        seconds = 0.0
    # socket timeouts overflow a little above 9e9 s; a day is bound enough
    if not 0 < seconds <= 86400:
        raise UsageError(
            f"{what} must be a positive number of seconds up to 86400, got {value!r:.80}"
        )
    return seconds


def _bool_param(value: str, what: str) -> bool:
    if value in ("true", "false"):
        return value == "true"
    raise UsageError(f"{what} must be true or false, got {value!r:.80}")


def _named_path(value: str, switch: str, what: str) -> str:
    """value, the path that switch names; UsageError if it is empty, since
    an empty path names the working directory (Path("") is ".")."""
    if not value:
        raise UsageError(f"{switch} needs {what}, got an empty path")
    return value


# -- component construction -------------------------------------------------------


def build_explorer(spec_text: str, cached: bool = False):
    """(explorer, directory): the explorer spec_text names, and the
    directory of the local archive it reads, None for rpc. A local archive
    is opened here, its chain.json parsed and checked, unless cached: then
    it is a LocalArchive, its chain.json read and not parsed, which the
    cache (with_cache) opens at once unless its directory is anchored to
    those bytes, and else on its first miss."""
    name, params = parse_component(spec_text)
    if name == "local":
        directory = params.pop("dir", None)
        if directory is None:
            raise UsageError("local explorer needs dir=PATH")
        _reject_leftovers(params, "explorer")
        archive = LocalArchive(_named_path(directory, "local dir=", "an archive directory"))
        return (archive if cached else archive.open()), directory
    if name == "rpc":
        url = params.pop("url", None)
        if url is None:
            raise UsageError("rpc explorer needs url=URL")
        retries = _int_param(params.pop("retries", "3"), "retries")
        timeout = _seconds_param(params.pop("timeout", "10"), "timeout")
        _reject_leftovers(params, "explorer")
        return RpcExplorer(url, retries=retries, timeout=timeout), None
    raise UsageError(f"unknown explorer {name!r:.80} (use local or rpc)")


def with_cache(explorer, cache_dir: str | None):
    """explorer, or a CachedExplorer over it when -c names a directory
    (build_explorer with cached). Called once the rest of the command line
    is read, so that a refused command line creates no cache directory."""
    if cache_dir is None:
        return explorer
    return CachedExplorer(explorer, _named_path(cache_dir, "-c", "a cache directory"))


def load_vuln_spec(detector_params: dict, archive: str | None) -> VulnSpec:
    """The descriptor that vuln= in detector_params names, or else the one
    of the local archive directory, archive (build_explorer)."""
    path = detector_params.pop("vuln", None)
    if path is not None:
        _named_path(path, "vuln=", "a vulnerability description")
        what = f"vulnerability description at {path}"
        return VulnSpec.from_document(read_json(path, what, UsageError, ConfigError))
    if archive is not None:
        return VulnSpec.from_document(read_vuln_doc(archive))
    raise UsageError(
        "no vulnerability description: pass -d LEVEL[vuln=PATH] "
        "(only local fixture directories carry one implicitly)"
    )


def build_detector(spec_text: str, archive: str | None, cache_dir: str | None):
    name, params = parse_component(spec_text)
    if name not in ("evm", "block"):
        raise UsageError(f"unknown detector level {name!r:.80} (use evm or block)")
    spec = load_vuln_spec(params, archive)
    rule = params.pop("rule", None)
    if rule is not None and rule != spec.rule:
        raise ConfigError(
            f"detector rule {rule!r:.80} does not match the description's {spec.rule!r}"
        )
    mode = params.pop("mode", "local")
    if mode not in ("local", "customTracer"):
        raise UsageError(f"detector mode must be local or customTracer, got {mode!r:.80}")
    if cache_dir is not None:
        if mode == "customTracer":
            raise UsageError("pick one mode: -c (cached) or mode=customTracer")
        mode = "cached"
    _reject_leftovers(params, "detector")
    return name, spec, mode


def build_filter(spec_text: str | None, spec: VulnSpec, shared: dict):
    """Returns (query, feed_rows). Exactly one is non-None."""
    base = spec.query
    name, params = ("spec", {}) if spec_text is None else parse_component(spec_text)

    if name == "feed":
        path = params.pop("path", None)
        if path is None:
            raise UsageError("feed filter needs path=FILE.csv")
        _named_path(path, "feed path=", "a feed file")
        _reject_leftovers(params, "filter")
        return None, parse_csv_feed(read_text(path, f"feed at {path}", UsageError, UsageError))

    if name == "select":
        sigs = params.pop("sigs", None)
        if not sigs:
            raise UsageError("select filter needs sigs=SIG|SIG|...")
        selectors = tuple(s for s in sigs.split("|") if s)
    elif name == "spec":
        selectors = base.selectors
    else:
        raise UsageError(f"unknown filter {name!r:.80} (use spec, select, or feed)")

    lo = _int_param(params.pop("from", str(base.block_range[0])), "from")
    hi = _int_param(params.pop("to", str(base.block_range[1])), "to")
    internal = base.include_internal
    if "internal" in params:
        internal = _bool_param(params.pop("internal"), "internal")
    _reject_leftovers(params, "filter")

    if "from" in shared:
        lo = _int_param(shared["from"], "-p from")
    if "to" in shared:
        hi = _int_param(shared["to"], "-p to")
    return FilterQuery(base.contract, selectors, internal, (lo, hi)), None


def parse_shared(pairs: list[str]) -> dict:
    """The -p pairs as {key: value}; from and to are the only keys."""
    shared = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise UsageError(f"-p expects key=value, got {pair!r:.80}")
        shared[key] = value
    _reject_leftovers(shared.keys() - {"from", "to"}, "shared")
    return shared


# -- the report document -----------------------------------------------------------


# json.dumps(value, indent=1, sort_keys=True), from C encoders built once: a
# container whose items are all scalars, at nesting level n, is one call of
# _FLAT[n + 1], whose item separator is ",\n" + " " * (n + 1); only the
# containers that hold containers are walked here
_CONTAINERS = (dict, list, tuple)
_NEWLINES = ["\n" + " " * level for level in range(32)]
_ascii = json.encoder.encode_basestring_ascii
_FLAT = [] if json.encoder.c_make_encoder is None else [
    json.encoder.c_make_encoder(None, None, _ascii, None, ": ", "," + newline, True, False, True)
    for newline in _NEWLINES
]


def _indented(value, level: int, out: list):
    """Append the text of value, at nesting level `level`, to out."""
    if type(value) is str:
        out.append(_ascii(value))
        return
    if not isinstance(value, _CONTAINERS):
        out.append("".join(_FLAT[0](value, 0)))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = level + 1
    is_dict = isinstance(value, dict)
    for item in value.values() if is_dict else value:
        if isinstance(item, _CONTAINERS):
            break
    else:
        text = "".join(_FLAT[inner](value, 0))
        out.append(text[0] + _NEWLINES[inner] + text[1:-1] + _NEWLINES[level] + text[-1])
        return
    separator, comma = _NEWLINES[inner], "," + _NEWLINES[inner]
    if is_dict:
        out.append("{")
        for key in sorted(value):
            out.append(separator + _ascii(key) + ": ")
            _indented(value[key], inner, out)
            separator = comma
        out.append(_NEWLINES[level] + "}")
    else:
        out.append("[")
        for item in value:
            out.append(separator)
            _indented(item, inner, out)
            separator = comma
        out.append(_NEWLINES[level] + "]")


def indented_json(value) -> str:
    """json.dumps(value, indent=1, sort_keys=True), the text of a report
    document (docs/formats.md). json.dumps itself answers where the C
    encoder is missing (no _FLAT), and for a value this writer does not
    take: a container nested in 31 others, a key that is not a str in a
    container that holds containers, or anything json.dumps refuses, whose
    error is then the one raised."""
    out: list[str] = []
    try:
        _indented(value, 0, out)
    except (TypeError, ValueError, IndexError, RecursionError):
        return json.dumps(value, indent=1, sort_keys=True)
    return "".join(out)


# -- subcommands -------------------------------------------------------------------


def cmd_investigate(args) -> int:
    shared = parse_shared(args.param)
    explorer, archive = build_explorer(args.explorer, args.cache is not None)
    level, spec, mode = build_detector(args.detector, archive, args.cache)
    query, feed = build_filter(args.filter, spec, shared)
    config = InvestigationConfig(
        tag=args.tag,
        spec=spec,
        explorer=with_cache(explorer, args.cache),
        level=level,
        mode=mode,
        shared_params=shared,
        feed=feed,
        query=query,
    )
    report = run_investigation(config)
    sys.stdout.write(indented_json(report) + "\n")
    sys.stderr.write(_summary(report))
    return EXIT_OK


def _summary(report: dict) -> str:
    """The human summary of a report, for stderr."""
    config, totals, t = report["config"], report["totals"], report["timings"]
    lines = [
        f"tag            {config['tag']}",
        f"scenario       {config['scenario']}",
        f"level/mode     {config['level']}/{config['mode']}",
        f"candidates     {totals['candidates']} rows, {totals['distinctTxs']} distinct",
        f"blocks         {totals['blocksEvaluated']}",
        f"detections     {totals['detections']}",
        f"skips          {totals['skips']}",
        f"steps replayed {report['stepsInterpreted']}",
        "time           "
        f"filter {t['filter']:.3f}s  fetch {t['fetch']:.3f}s  "
        f"analyze {t['analyze']:.3f}s  total {t['total']:.3f}s",
    ]
    if report["detections"]:
        lines += ["", f"{'rule':12s} {'where':8s} target"]
        for det in report["detections"]:
            if "txHash" in det:
                lines.append(f"{det['rule']:12s} block {det['blockNumber']:<4d}{det['txHash']}")
            else:
                lines.append(
                    f"{det['rule']:12s} block {det['blockNumber']:<4d}"
                    f"{len(det['candidateTxHashes'])} candidate tx(s)"
                )
    return "\n".join(lines) + "\n"


def cmd_fixtures(args) -> int:
    from .fixtures import SCENARIO_NAMES, build_fixture_chain, scale_fixture, write_fixture
    from .fixtures.bench import scaled_fixture_dir
    from .fixtures.scenarios import SCALED_SCENARIOS

    if args.action == "build":
        out = Path(_named_path(args.out, "--out", "an output directory"))
        names = SCENARIO_NAMES if args.scenario == "all" else (args.scenario,)
        for name in names:
            fixture = build_fixture_chain(name, seed=args.seed)
            target = out / name if args.scenario == "all" else out
            write_fixture(fixture, target)
            print(f"{name}: {fixture.archive.chain.height} blocks -> {target}", file=sys.stderr)
        return EXIT_OK

    root = _named_path(args.root, "--root", "a fixture root directory")
    if args.out is None:
        target = scaled_fixture_dir(root, args.axis, args.magnitude)
    else:
        target = Path(_named_path(args.out, "--out", "an output directory"))
    fixture = scale_fixture(SCALED_SCENARIOS[args.axis], args.axis, args.magnitude, seed=args.seed)
    write_fixture(fixture, target)
    print(
        f"{fixture.name}: {args.axis}={args.magnitude} -> {target}", file=sys.stderr
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    from .fixtures.bench import bench, write_csv

    magnitudes = [_int_param(m, "magnitude") for m in args.magnitudes.split(",") if m]
    if not magnitudes:
        raise UsageError("--magnitudes needs at least one integer")
    table = bench(
        _named_path(args.root, "--root", "a fixture root directory"), args.axis, magnitudes,
        mode=args.mode, level=args.level, repeats=args.repeats,
    )
    write_csv(table, sys.stdout)
    return EXIT_OK


def cmd_export_feed(args) -> int:
    shared = parse_shared(args.param)
    explorer, archive = build_explorer(args.explorer, args.cache is not None)
    if args.vuln is not None:
        _named_path(args.vuln, "--vuln", "a vulnerability description")
    spec = load_vuln_spec({} if args.vuln is None else {"vuln": args.vuln}, archive)
    query, feed = build_filter(args.filter, spec, shared)
    if feed is not None:
        raise UsageError("export-feed scans the chain; it does not re-export a feed")
    rows = tx_list(ReadState(with_cache(explorer, args.cache)), query)
    sys.stdout.write(write_csv_feed(rows))
    print(f"{len(rows)} candidate rows", file=sys.stderr)
    return EXIT_OK


# -- argument surface --------------------------------------------------------------


class Option(NamedTuple):
    """One option of investigate or export-feed: what make_parser passes to
    add_argument, and all that read_plain knows of it."""

    flags: tuple[str, ...]
    dest: str
    help: str | None = None
    metavar: str | None = None
    required: bool = False
    repeated: bool = False  # action="append", default []
    default: str | None = None


# name -> (handler, options in the order help lists them), for the commands
# that read_plain reads
PLAIN_COMMANDS = {
    "investigate": (cmd_investigate, (
        Option(("-t", "--tag"), "tag", "run label, echoed in the report", required=True),
        Option(("-p",), "param", "shared parameter (repeatable)", "KEY=VALUE", repeated=True),
        Option(("-f",), "filter", "spec | spec[from=N,to=N,internal=BOOL] | "
                                  "select[sigs=SIG|...] | feed[path=CSV]", "FILTER"),
        Option(("-e",), "explorer", "local[dir=PATH] | rpc[url=URL,retries=N,timeout=S]",
               "EXPLORER", required=True),
        Option(("-d",), "detector",
               "evm | block, optionally [vuln=PATH,rule=NAME,mode=customTracer]",
               "DETECTOR", default="evm"),
        Option(("-c", "--cache"), "cache", "cache directory (switches mode to cached)", "DIR"),
    )),
    "export-feed": (cmd_export_feed, (
        Option(("-e",), "explorer", metavar="EXPLORER", required=True),
        Option(("-f",), "filter", metavar="FILTER"),
        Option(("-p",), "param", metavar="KEY=VALUE", repeated=True),
        Option(("-c", "--cache"), "cache", metavar="DIR"),
        Option(("--vuln",), "vuln", "vulnerability description JSON"),
    )),
}
_PLAIN_FLAGS = {
    name: {flag: option for option in options for flag in option.flags}
    for name, (_, options) in PLAIN_COMMANDS.items()
}


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What make_parser().parse_args(argv) gives when argv is investigate or
    export-feed followed by FLAG VALUE pairs alone: each flag spelt as
    declared, no value starting with "-", no option but -p given more than
    once, and every required option given. None for any other argv, whose
    help, usage and errors only the full parser gives."""
    lane = PLAIN_COMMANDS.get(argv[0]) if argv else None
    if lane is None or len(argv) % 2 == 0:
        return None
    handler, options = lane
    flags = _PLAIN_FLAGS[argv[0]]
    values = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        option = flags.get(flag)
        if option is None or value.startswith("-"):
            return None
        if option.repeated:
            values.setdefault(option.dest, []).append(value)
        elif option.dest in values:
            return None
        else:
            values[option.dest] = value
    for option in options:
        if option.dest not in values:
            if option.required:
                return None
            values[option.dest] = [] if option.repeated else option.default
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def _plain_arguments(name: str, parser: argparse.ArgumentParser):
    handler, options = PLAIN_COMMANDS[name]
    for option in options:
        parser.add_argument(
            *option.flags, dest=option.dest, help=option.help, metavar=option.metavar,
            required=option.required, action="append" if option.repeated else "store",
            default=[] if option.repeated else option.default,
        )
    parser.set_defaults(handler=handler)


def _fixtures_arguments(fix: argparse.ArgumentParser):
    fixsub = fix.add_subparsers(dest="action", required=True)
    build = fixsub.add_parser("build", help="generate a scenario (or all six)")
    build.add_argument("--scenario", default="all")
    build.add_argument("--out", required=True)
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(handler=cmd_fixtures)
    scale = fixsub.add_parser("scale", help="generate one scaled fixture")
    scale.add_argument("--axis", required=True, choices=["instructions", "storage"])
    scale.add_argument("--magnitude", required=True, type=int)
    scale.add_argument("--root", default=".",
                       help="parent directory; fixture lands in ROOT/AXIS-MAGNITUDE")
    scale.add_argument("--out", default=None, help="exact output directory (overrides --root)")
    scale.add_argument("--seed", type=int, default=0)
    scale.set_defaults(handler=cmd_fixtures)


def _bench_arguments(ben: argparse.ArgumentParser):
    ben.add_argument("--root", required=True)
    ben.add_argument("--axis", required=True, choices=["instructions", "storage"])
    ben.add_argument("--magnitudes", required=True, help="comma-separated integers")
    ben.add_argument("--mode", default="local", choices=["local", "cached", "customTracer"])
    ben.add_argument("--level", default="evm", choices=["evm", "block"])
    ben.add_argument("--repeats", type=int, default=3)
    ben.set_defaults(handler=cmd_bench)


# name -> (help, the function that adds its arguments), in the order -h lists them
COMMANDS = {
    "investigate": ("run one detector level over an archive",
                    partial(_plain_arguments, "investigate")),
    "fixtures": ("build or scale labeled fixture chains", _fixtures_arguments),
    "bench": ("measure analyze time over scaled fixtures", _bench_arguments),
    "export-feed": ("write the candidate list as CSV", partial(_plain_arguments, "export-feed")),
}


def make_parser() -> argparse.ArgumentParser:
    """The argument parser of every command. argparse is imported here, so
    that a command line read_plain reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="evmsleuth",
        description="Post-factum exploit detection over EVM archive data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv) or make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ConfigError, FeedError, TraceParseError, ReconstructionError) as err:
        print(f"evmsleuth: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArchiveGapError, ProtocolError) as err:
        print(f"evmsleuth: {err}", file=sys.stderr)
        return EXIT_GAP


if __name__ == "__main__":
    sys.exit(main())
