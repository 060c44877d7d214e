"""Command-line interface.

    evmsleuth investigate -t TAG -e local[dir=PATH] [-d evm|block] [...]
    evmsleuth fixtures build --scenario all --out DIR
    evmsleuth fixtures scale --axis instructions --magnitude 84000 --root DIR
    evmsleuth bench --root DIR --axis storage --magnitudes 500,2000 --level block
    evmsleuth export-feed -e local[dir=PATH]

fixtures and bench import the producer (evmsleuth.fixtures, the harness in
evmsleuth.fixtures.bench) when they run; investigate and export-feed never
load it.

main builds a fresh parser on every call: the root parser and the subparser
of the one command that argv[0] names, or every command's when argv names
none (no arguments, -h, a typo). The help, usage and error texts are those
of the full parser either way. On Python 3.11 with 2 shared vCPUs, building
all four takes about 0.8 ms and building one about 0.2 ms, and a warm-cache
block-level investigation of a storage-32000 fixture takes 1.8 ms in-process
with the full parser, 1.3 ms without. Nothing is kept between calls.

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

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ArchiveGapError,
    ConfigError,
    FeedError,
    ProtocolError,
    ReconstructionError,
    TraceParseError,
    UsageError,
)
from .explorer import CachedExplorer, LocalExplorer, RpcExplorer, read_json, read_text
from .filters import FilterQuery, ReadState, parse_csv_feed, tx_list, write_csv_feed
from .orchestrator import InvestigationConfig, run_investigation
from .rules_evm import VulnSpec, read_vuln_doc

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


def build_explorer(spec_text: str):
    name, params = parse_component(spec_text)
    if name == "local":
        directory = params.pop("dir", None)
        if directory is None:
            raise UsageError("local explorer needs dir=PATH")
        _reject_leftovers(params, "explorer")
        return LocalExplorer(_named_path(directory, "local dir=", "an archive directory"))
    if name == "rpc":
        url = params.pop("url", None)
        if url is None:
            raise UsageError("rpc explorer needs url=URL")
        retries = _int_param(params.pop("retries", "3"), "retries")
        timeout = _seconds_param(params.pop("timeout", "10"), "timeout")
        _reject_leftovers(params, "explorer")
        return RpcExplorer(url, retries=retries, timeout=timeout)
    raise UsageError(f"unknown explorer {name!r:.80} (use local or rpc)")


def with_cache(explorer, cache_dir: str | None):
    """explorer, or a CachedExplorer over it when -c names a directory.
    Called once the rest of the command line is read, so that a refused
    command line creates no cache directory."""
    if cache_dir is None:
        return explorer
    return CachedExplorer(explorer, _named_path(cache_dir, "-c", "a cache directory"))


def load_vuln_spec(detector_params: dict, explorer_text: str) -> VulnSpec:
    path = detector_params.pop("vuln", None)
    if path is not None:
        _named_path(path, "vuln=", "a vulnerability description")
        what = f"vulnerability description at {path}"
        return VulnSpec.from_document(read_json(path, what, UsageError, ConfigError))
    name, params = parse_component(explorer_text)
    if name == "local" and "dir" in params:
        return VulnSpec.from_document(read_vuln_doc(params["dir"]))
    raise UsageError(
        "no vulnerability description: pass -d LEVEL[vuln=PATH] "
        "(only local fixture directories carry one implicitly)"
    )


def build_detector(spec_text: str, explorer_text: str, cache_dir: str | None):
    name, params = parse_component(spec_text)
    if name not in ("evm", "block"):
        raise UsageError(f"unknown detector level {name!r:.80} (use evm or block)")
    spec = load_vuln_spec(params, explorer_text)
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
    shared = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise UsageError(f"-p expects key=value, got {pair!r:.80}")
        shared[key] = value
    return shared


# -- subcommands -------------------------------------------------------------------


def cmd_investigate(args) -> int:
    shared = parse_shared(args.param)
    explorer = build_explorer(args.explorer)
    level, spec, mode = build_detector(args.detector, args.explorer, args.cache)
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
    doc = report.to_document()
    print(json.dumps(doc, indent=1, sort_keys=True))
    _print_summary(report)
    return EXIT_OK


def _print_summary(report):
    say = lambda line: print(line, file=sys.stderr)
    say(f"tag            {report.tag}")
    say(f"scenario       {report.scenario}")
    say(f"level/mode     {report.level}/{report.mode}")
    say(f"candidates     {report.candidates} rows, {report.distinct_txs} distinct")
    say(f"blocks         {report.blocks_evaluated}")
    say(f"detections     {len(report.detections)}")
    say(f"skips          {len(report.skips)}")
    say(f"steps replayed {report.steps_interpreted}")
    t = report.timings
    say(
        "time           "
        f"filter {t['filter']:.3f}s  fetch {t['fetch']:.3f}s  "
        f"analyze {t['analyze']:.3f}s  total {t['total']:.3f}s"
    )
    if report.detections:
        say("")
        say(f"{'rule':12s} {'where':8s} target")
        for det in report.detections:
            if "txHash" in det:
                say(f"{det['rule']:12s} block {det['blockNumber']:<4d}{det['txHash']}")
            else:
                say(
                    f"{det['rule']:12s} block {det['blockNumber']:<4d}"
                    f"{len(det['candidateTxHashes'])} candidate tx(s)"
                )


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
    explorer = build_explorer(args.explorer)
    if args.vuln is not None:
        _named_path(args.vuln, "--vuln", "a vulnerability description")
    spec = load_vuln_spec({} if args.vuln is None else {"vuln": args.vuln}, args.explorer)
    query, feed = build_filter(args.filter, spec, shared)
    if feed is not None:
        raise UsageError("export-feed scans the chain; it does not re-export a feed")
    rows = tx_list(ReadState(with_cache(explorer, args.cache)), query)
    sys.stdout.write(write_csv_feed(rows))
    print(f"{len(rows)} candidate rows", file=sys.stderr)
    return EXIT_OK


# -- argument surface --------------------------------------------------------------


def _investigate_arguments(inv: argparse.ArgumentParser):
    inv.add_argument("-t", "--tag", required=True, help="run label, echoed in the report")
    inv.add_argument("-p", dest="param", action="append", default=[],
                     metavar="KEY=VALUE", help="shared parameter (repeatable)")
    inv.add_argument("-f", dest="filter", default=None, metavar="FILTER",
                     help="spec | spec[from=N,to=N,internal=BOOL] | "
                          "select[sigs=SIG|...] | feed[path=CSV]")
    inv.add_argument("-e", dest="explorer", required=True, metavar="EXPLORER",
                     help="local[dir=PATH] | rpc[url=URL,retries=N,timeout=S]")
    inv.add_argument("-d", dest="detector", default="evm", metavar="DETECTOR",
                     help="evm | block, optionally [vuln=PATH,rule=NAME,mode=customTracer]")
    inv.add_argument("-c", "--cache", default=None, metavar="DIR",
                     help="cache directory (switches mode to cached)")
    inv.set_defaults(handler=cmd_investigate)


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


def _export_feed_arguments(feed: argparse.ArgumentParser):
    feed.add_argument("-e", dest="explorer", required=True, metavar="EXPLORER")
    feed.add_argument("-f", dest="filter", default=None, metavar="FILTER")
    feed.add_argument("-p", dest="param", action="append", default=[], metavar="KEY=VALUE")
    feed.add_argument("-c", "--cache", default=None, metavar="DIR")
    feed.add_argument("--vuln", default=None, help="vulnerability description JSON")
    feed.set_defaults(handler=cmd_export_feed)


# name -> (help, the function that adds its arguments), in the order -h lists them
COMMANDS = {
    "investigate": ("run one detector level over an archive", _investigate_arguments),
    "fixtures": ("build or scale labeled fixture chains", _fixtures_arguments),
    "bench": ("measure analyze time over scaled fixtures", _bench_arguments),
    "export-feed": ("write the candidate list as CSV", _export_feed_arguments),
}


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser. With the name of a command, only that command's
    subparser is built; its help, usage and error texts are those of the
    full parser, which is built for any other command (or none)."""
    parser = argparse.ArgumentParser(
        prog="evmsleuth",
        description="Post-factum exploit detection over EVM archive data.",
    )
    known = command in COMMANDS
    # the usage line lists every command either way; with no command given
    # a metavar would replace "command" in the "required" error, so the
    # full parser sets none
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}" if known else None
    )
    for name in (command,) if known else COMMANDS:
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = make_parser(argv[0] if argv else None).parse_args(argv)
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
