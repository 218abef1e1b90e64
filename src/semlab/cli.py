"""Command-line front end.

Commands: check, solve, interval, valences, perfect, sweep, render.
Graphs come from generator flags, a graph6 string, or a file (edge-list or
graph6). solve exits 0 if super edge-magic (or edgeless), 1 if not, 2 if the
budget ran out; bad input exits 3 and an internal failure 4 everywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from .graphs import (
    CactusSpec,
    Graph,
    GraphError,
    degree_sequence,
    degseq_4_2_realizations,
    make_cactus,
    make_cycle,
    make_two_cycle,
    parse_graph6,
    read_graph,
)
from .labeling import (LabelingError, SemLabeling, dual_valence, sem_interval,
                       verify_sem)
from .obstructions import check_all
from .solver import (
    DEFAULT_BUDGET,
    STATUS_NOT_SEM_EXHAUSTED,
    STATUS_NOT_SEM_OBSTRUCTION,
    STATUS_SEM,
    STATUS_TRIVIAL_EDGELESS,
    STATUS_UNKNOWN_BUDGET_EXCEEDED,
    SearchConfig,
    perfect_classification,
    search_sem,
    sem_set,
)

EXIT_SEM = 0
EXIT_NOT_SEM = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL = 4

_EDGELESS_NOTE = "trivially super edge-magic, valence undefined"


class CliError(Exception):
    """Input problem worth exit code 3."""


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", nargs="?", help="graph file (edge-list or graph6)")
    sub.add_argument("--gen", nargs="+", metavar="ARG",
                     help="generate: cycle N | two-cycle M N | cactus L1 L2 ...")
    sub.add_argument("--attach", nargs="*", metavar="C:P", default=None,
                     help="cactus attachments, one per cycle after the first "
                          "(default: chain at position 1)")
    sub.add_argument("--g6", metavar="STRING", help="graph6 string")


def _add_search_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="node budget (default 1e9)")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker count (default: all usable CPUs)")


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise CliError(f"bad range {text!r}, expected A or A..B") from exc
    if not values:
        raise CliError(f"empty range {text!r}: A..B needs A <= B")
    return values


def _gen_graph(args) -> Graph:
    spec = args.gen
    family, params = spec[0], spec[1:]
    try:
        nums = [int(x) for x in params]
    except ValueError as exc:
        raise CliError(f"--gen {family} takes integer arguments") from exc
    if family == "cycle":
        if len(nums) != 1:
            raise CliError("--gen cycle takes exactly one length")
        return make_cycle(nums[0])
    if family == "two-cycle":
        if len(nums) != 2:
            raise CliError("--gen two-cycle takes exactly two lengths")
        return make_two_cycle(nums[0], nums[1])
    if family == "cactus":
        if not nums:
            raise CliError("--gen cactus takes at least one cycle length")
        if args.attach is None:
            attachments = tuple((i, 1) for i in range(len(nums) - 1))
        else:
            attachments = []
            for item in args.attach:
                c, _, pos = item.partition(":")
                try:
                    attachments.append((int(c), int(pos)))
                except ValueError as exc:
                    raise CliError(f"bad attachment {item!r}, expected C:P") from exc
            attachments = tuple(attachments)
        return make_cactus(CactusSpec(tuple(nums), attachments))
    raise CliError(f"unknown generator family {family!r}")


def load_graph(args) -> Graph:
    if args.attach is not None and not (args.gen and args.gen[0] == "cactus"):
        raise CliError("--attach applies only to --gen cactus")
    if args.gen:
        return _gen_graph(args)
    if args.g6:
        return parse_graph6(args.g6)
    if args.path:
        return read_graph(_read(args.path))
    raise CliError("no graph given: use --gen, --g6, or a file path")


def _config(args, **flags) -> SearchConfig:
    """Search settings from --budget and --threads. SearchConfig rejects a
    bad budget or thread count."""
    try:
        return SearchConfig(budget=args.budget, threads=args.threads, **flags)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_certificate(path: str) -> SemLabeling:
    try:  # json raises these past the recursion limit or int()'s 4,300 digits
        data = json.loads(_read(path))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"parse: certificate {path} is not valid JSON: {exc}") from exc
    return SemLabeling.from_json_dict(data)


# --- commands ---------------------------------------------------------------

def cmd_check(args) -> int:
    g = load_graph(args)
    cert = _load_certificate(args.cert)
    result = verify_sem(g, cert)
    if result:
        print(f"certificate valid: valence {cert.valence}")
        return EXIT_SEM
    print(f"certificate INVALID: {result.reason}")
    return EXIT_NOT_SEM


_EXIT_BY_STATUS = {
    STATUS_SEM: EXIT_SEM,
    STATUS_TRIVIAL_EDGELESS: EXIT_SEM,
    STATUS_NOT_SEM_EXHAUSTED: EXIT_NOT_SEM,
    STATUS_NOT_SEM_OBSTRUCTION: EXIT_NOT_SEM,
    STATUS_UNKNOWN_BUDGET_EXCEEDED: EXIT_UNKNOWN,
}


def cmd_solve(args) -> int:
    g = load_graph(args)
    cfg = _config(args, use_obstructions=not args.no_obstructions)
    out = search_sem(g, cfg)
    if args.cert_out and out.witness is not None:
        _write(args.cert_out,
               json.dumps(out.witness.to_json_dict(), indent=2) + "\n")
    if args.json:
        print(json.dumps(out.to_json_dict(), indent=2))
    else:
        print(f"graph: order {g.order}, size {g.size}, "
              f"degree sequence {degree_sequence(g)}")
        print(f"status: {out.status}")
        if out.status == STATUS_TRIVIAL_EDGELESS:
            print(_EDGELESS_NOTE)
        if out.obstruction:
            print(f"obstruction: {out.obstruction.rule}")
            print(f"  {out.obstruction.justification}")
        if out.witness:
            print(f"valence: {out.witness.valence}")
            print(f"vertex labels: {list(out.witness.vertex_labels)}")
            print(f"edge labels: {[list(t) for t in out.witness.edge_labels]}")
        if out.interval:
            print(f"valence interval: {out.interval.to_json()}")
        print("stats:", *(f"{k}={v}" for k, v in out.stats._asdict().items()))
    return _EXIT_BY_STATUS[out.status]


def _edgeless(args, keys: tuple[str, ...]) -> int:
    """An edgeless graph: with --json, the command's keys, each null."""
    print(json.dumps(dict.fromkeys(keys)) if args.json else _EDGELESS_NOTE)
    return EXIT_SEM


def cmd_interval(args) -> int:
    g = load_graph(args)
    if g.size == 0:
        return _edgeless(args, ("interval", "min", "max"))
    iv = sem_interval(g)
    if args.json:
        print(json.dumps({"interval": iv.to_json(),
                          "min": str(iv.min_s), "max": str(iv.max_s)}))
    elif iv.empty:
        print(f"interval: empty (no integer between {iv.min_s} and {iv.max_s})")
    else:
        print(f"interval: [{iv.lo}, {iv.hi}]  (exact bounds {iv.min_s} .. {iv.max_s})")
    return EXIT_SEM


def cmd_valences(args) -> int:
    g = load_graph(args)
    cfg = _config(args)
    if g.size == 0:
        return _edgeless(args, ("valence_set", "complete"))
    vs = sem_set(g, cfg.budget, cfg.threads)
    if args.json:
        print(json.dumps({"valence_set": vs.to_json(), "complete": vs.complete}))
    else:
        body = "{" + ", ".join(str(v) for v in vs.values) + "}"
        note = "" if vs.complete else "  (partial: budget exceeded)"
        print(f"valence set: {body}{note}")
    return EXIT_SEM if vs.complete else EXIT_UNKNOWN


def cmd_perfect(args) -> int:
    g = load_graph(args)
    cfg = _config(args)
    if g.size == 0:
        return _edgeless(args, ("classification", "interval", "valence_set"))
    iv = sem_interval(g)
    vs = sem_set(g, cfg.budget, cfg.threads)
    verdict = perfect_classification(iv, vs)
    if args.json:
        print(json.dumps({"classification": verdict, "interval": iv.to_json(),
                          "valence_set": vs.to_json()}))
    else:
        print(f"classification: {verdict}")
    return EXIT_SEM


def _sweep_graphs(args):
    """Yield (params_text, graph) rows in deterministic parameter order,
    each checked against --max-order before it is built."""

    def check(params, order):
        if order > args.max_order:
            raise CliError(f"sweep row {params} has order {order} > --max-order "
                           f"{args.max_order}; raise the cap to allow it")
        return params

    if args.family == "two-cycle-grid":
        for m in _parse_range(args.m):
            for n in _parse_range(args.n):
                yield check(f"m={m};n={n}", m + n - 1), make_two_cycle(m, n)
    elif args.family == "three-cycle-series":
        for k in _parse_range(args.k):
            if k < 2:
                raise CliError(f"three-cycle-series needs k >= 2: k={k} makes "
                               f"C(3,{4 * k - 3}), and cycle lengths must be >= 3")
            yield check(f"k={k}", 4 * k - 1), make_two_cycle(3, 4 * k - 3)
    elif args.family == "degseq-4-2":
        for order in _parse_range(args.order):
            check(f"order={order}", order)
            for name, g in degseq_4_2_realizations(order):
                yield f"order={order};graph={name}", g


def cmd_sweep(args) -> int:
    cfg = _config(args)
    rows = list(_sweep_graphs(args))  # all built and checked before a search
    header = ["family", "params", "order", "size", "obstruction", "status",
              "interval_lo", "interval_hi", "valence_set", "nodes"]
    if args.timing:
        header.append("millis")
    # a degseq graph name holds commas: the writer quotes that cell
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for params, g in rows:
        out = search_sem(g, cfg)
        iv = out.interval
        lo = "" if (iv is None or iv.empty) else iv.lo
        hi = "" if (iv is None or iv.empty) else iv.hi
        if out.status in (STATUS_NOT_SEM_EXHAUSTED, STATUS_NOT_SEM_OBSTRUCTION):
            sigma = ""  # proven empty
        elif out.status == STATUS_SEM:
            # every family has the degree sequence (4, 2, ..., 2), whose
            # interval is under 2 wide and centred on (5p+4)/2: the witness's
            # valence and its dual fill it, so they are the valence set
            k = out.witness.valence
            values = sorted({k, dual_valence(g.order, g.size, k)})
            if values != iv.values():
                raise AssertionError(f"valences {values} do not fill the "
                                     f"interval [{iv.lo}, {iv.hi}]")
            sigma = "|".join(str(v) for v in values)
        else:
            sigma = "skipped"  # the budget ran out
        row = [args.family, params, g.order, g.size,
               out.obstruction.rule if out.obstruction else "",
               out.status, lo, hi, sigma, out.stats.nodes]
        if args.timing:
            row.append(out.stats.millis)
        writer.writerow(row)
    return _emit(text.getvalue().splitlines(), args.output)


def cmd_render(args) -> int:
    g = load_graph(args)
    cert = None
    if args.cert:
        cert = _load_certificate(args.cert)
        result = verify_sem(g, cert)
        if not result:
            print(f"certificate INVALID: {result.reason}", file=sys.stderr)
            return EXIT_NOT_SEM
    lines = ["graph semlab {"]
    if cert:
        lines.append(f'  label="valence {cert.valence}";')
        for v in range(g.order):
            lines.append(f'  {v} [label="v{v}: {cert.vertex_labels[v]}"];')
        for u, v, lab in cert.edge_labels:
            lines.append(f'  {u} -- {v} [label="{lab}"];')
    else:
        for v in range(g.order):
            lines.append(f'  {v} [label="v{v}"];')
        for u, v in g.edges:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return _emit(lines, args.output)


def _read(path: str) -> str:
    try:  # a ValueError is text that is not UTF-8
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _emit(lines: list[str], path: str | None) -> int:
    """Write the lines to the file at ``path``, or to stdout."""
    text = "\n".join(lines) + "\n"
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)
    return EXIT_SEM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlab",
        description="Decide super edge-magicness of small graphs, with "
                    "machine-checkable certificates.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="verify a labeling certificate")
    _add_graph_args(sub)
    sub.add_argument("--cert", required=True, help="certificate JSON file")
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("solve", help="search for a labeling")
    _add_graph_args(sub)
    sub.add_argument("--no-obstructions", action="store_true")
    _add_search_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--cert-out", metavar="PATH",
                     help="write the witness certificate JSON here")
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("interval", help="valence interval")
    _add_graph_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_interval)

    sub = subs.add_parser("valences", help="realized valence set")
    _add_graph_args(sub)
    _add_search_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_valences)

    sub = subs.add_parser("perfect", help="perfect super edge-magic test")
    _add_graph_args(sub)
    _add_search_args(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_perfect)

    sub = subs.add_parser("sweep", help="tabulate a family as CSV")
    sub.add_argument("family",
                     choices=["two-cycle-grid", "three-cycle-series", "degseq-4-2"])
    sub.add_argument("--m", default="3..5", help="range A..B (two-cycle-grid)")
    sub.add_argument("--n", default="3..5", help="range A..B (two-cycle-grid)")
    sub.add_argument("--k", default="3..3",
                     help="range A..B (three-cycle-series; k=4 is an "
                          "order-15 search of 18.8 M nodes, ~5 s)")
    sub.add_argument("--order", default="6..9", help="range A..B (degseq-4-2)")
    _add_search_args(sub)
    sub.add_argument("--max-order", type=int, default=16,
                     help="refuse rows larger than this (default 16)")
    sub.add_argument("--timing", action="store_true",
                     help="append a wall-clock column (breaks byte-for-byte "
                          "reproducibility)")
    sub.add_argument("--output", metavar="PATH", help="CSV file (default stdout)")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("render", help="emit DOT")
    _add_graph_args(sub)
    sub.add_argument("--cert", help="certificate JSON to annotate with")
    sub.add_argument("--output", metavar="PATH", help="DOT file (default stdout)")
    sub.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # stdout, argparse's help too, goes out once the command returns, so
        # that a full or closed stdout is told apart from a failure inside it
        with contextlib.redirect_stdout(io.StringIO()) as text:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                # --help exits 0; a usage error exits 3, since 2 is budget exceeded
                code = EXIT_INPUT_ERROR if exc.code else 0
            else:
                # every output path is checked before any work: appending
                # nothing changes no content, and a file made here is removed again
                for path in filter(None, (vars(args).get("cert_out"),
                                          vars(args).get("output"))):
                    made = not os.path.lexists(path)
                    _write(path, "", "a")
                    if made:
                        os.remove(path)
                code = args.func(args)
        try:
            sys.stdout.write(text.getvalue())
            sys.stdout.flush()
        except OSError as exc:
            # what the buffer holds would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CliError(f"cannot write stdout: {exc}") from exc
        return code
    except (CliError, GraphError, LabelingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # exit 1 would read as NOT_SEM
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback  # only here: its import slows every start-up
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
