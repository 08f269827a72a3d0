"""Command-line interface.

Subcommands: count, classify, inverse-column, images, verify, recover.
Output is JSON by default (stable key order, big integers as decimal
strings) or a terse plain form; both are byte-deterministic for fixed
inputs.  JSON is written by _json_text, which gives exactly the bytes of
json.dumps(obj, sort_keys=True, indent=2).  With indent set, json.dumps
falls back to its pure-Python encoder, so _json_text lays out the
indentation itself and hands each string and key to the C
encode_basestring_ascii: recover and images reports take 51-58 % of
json.dumps' time (2-vCPU Xeon, Python 3.11).  A recover report's alpha and
closed_set lists are the same for every report on one system, so their
text is rendered once per system (_report_fragments, keyed and bounded as
interpolation._reduction_system) and spliced into each report whose lists
equal the ones it was rendered from; _json_text writes such a _Rendered
fragment as it stands.  Exit codes: 0 success,
2 usage, 3 unreadable or malformed graph input, 4 violated precondition
or guardrail, 5 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .canonical import GraphKey, _text, canonical_key, enumerate_graphs
from .counting import aut_count, hom_count, vesurj_count, vsurj_count
from .errors import (
    BudgetExceededError,
    GraphParseError,
    InternalCheckError,
    SingularSystemError,
)
from .families import _classify, _closed_form_count, classification_json, classify_F
from .graphs import Graph, delete_nonloop_edge, load_graph, parse_graph, to_text
from .interpolation import (SYSTEM_CACHE_SIZE, _check_quotient_size, _reduction_system, _system,
                            image_encodings, reduction_demo)
from .inversion import _expansions, _walk, dsub_inverse_column
from .kernels import MODE_HOM, MODE_VESURJ, MODE_VSURJ, state_bound

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

DEFAULT_BUDGET = 10**9
_MODES = {"hom": MODE_HOM, "vsurj": MODE_VSURJ, "vesurj": MODE_VESURJ}


def _emit_json(obj) -> None:
    sys.stdout.write(_json_text(obj) + "\n")


class _Rendered:
    """value's JSON text, rendered once with its lines after the first
    opening with newline, for _json_chunks to write in value's place."""

    __slots__ = ("value", "newline", "text")

    def __init__(self, value, newline: str):
        self.value, self.newline = value, newline
        self.text = _json_text(value, newline)


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), for dicts with str keys,
    lists, tuples, str, int, bool, None and _Rendered fragments; any other
    type raises TypeError.  With newline set, obj's text as it reads nested
    at that indentation."""
    chunks = []
    _json_chunks(obj, newline, chunks.append)
    return "".join(chunks)


def _json_chunks(obj, newline: str, out) -> None:
    """Append obj's JSON text to out, its lines after the first opening
    with newline (a line break and the enclosing indentation)."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out(sep)
            out(encode_basestring_ascii(key))
            out(": ")
            _json_chunks(obj[key], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, _Rendered):
        if obj.newline == newline:
            out(obj.text)
        else:
            _json_chunks(obj.value, newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _one_line(text: str) -> str:
    return "; ".join(text.strip().splitlines())


def _read_graph(spec: str) -> Graph:
    if spec != "-":
        return load_graph(spec)
    # Strict UTF-8 from the bytes, as a file is read: the stream's own
    # settings let a non-UTF-8 byte through under a POSIX locale.
    stdin = getattr(sys.stdin, "buffer", None)
    if stdin is None:
        return parse_graph(sys.stdin.read())
    try:
        text = stdin.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"not UTF-8 text: {exc}") from None
    return parse_graph(text)


def _check_budget(kind: str, g: Graph | None, h: Graph, budget: int) -> int | None:
    """Refuse kind's brute-force count over budget; for maps, return its state bound."""
    if kind == "aut":
        # n! is multiplied out only until it passes the budget, so the
        # guard costs as much for a huge n as for the first n refused.
        orders = 1
        for k in range(2, h.n + 1):
            orders *= k
            if orders > budget:
                raise BudgetExceededError(
                    f"brute force would try {h.n}! vertex orders, over the budget of {budget}"
                )
        return
    work = state_bound(g, h, _MODES[kind])
    if work > budget:
        raise BudgetExceededError(
            f"brute force would build up to {work} dynamic-program states, "
            f"over the budget of {budget}"
        )
    return work


def _cmd_count(args) -> int:
    h = _read_graph(args.h)
    g = _read_graph(args.g) if args.g is not None else None
    path = "bruteforce"
    if args.kind == "aut":
        _check_budget("aut", None, h, args.budget)
        count = aut_count(h)
    else:
        count = None if args.force_bruteforce else _closed_form_count(args.kind, g, h)
        if count is not None:
            path = "polytime"
        else:
            _check_budget(args.kind, g, h, args.budget)
            counter = {"hom": hom_count, "vsurj": vsurj_count, "vesurj": vesurj_count}
            count = counter[args.kind](g, h)
    if args.format == "json":
        _emit_json({"count": str(count), "kind": args.kind, "path": path})
    else:
        sys.stdout.write(f"{count}\n")
        sys.stderr.write(f"path: {path}\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    h = _read_graph(args.h)
    record = classification_json(h)
    if args.format == "json":
        _emit_json(record)
    else:
        sys.stdout.write(f"in_F {str(record['in_F']).lower()}\n")
        sys.stdout.write(f"in_C {str(record['in_C']).lower()}\n")
        sys.stdout.write("components " + " ".join(record["components"]) + "\n")
        hard = record["hard_edge"]
        sys.stdout.write("hard_edge " + (f"{hard[0]} {hard[1]}" if hard else "none") + "\n")
    return EXIT_OK


def _cmd_inverse_column(args) -> int:
    h = _read_graph(args.h)
    column = dsub_inverse_column(h)
    if args.format == "json":
        _emit_json(column.to_json_entries())
    else:
        for _, rep, coeff in column.items():
            sys.stdout.write(f"{coeff}\t{_one_line(to_text(rep))}\n")
    return EXIT_OK


def _cmd_images(args) -> int:
    h = _read_graph(args.h)
    images = [(key.hex(), _text(key.n, key.enc)) for key, _, _ in image_encodings(h)]
    if args.format == "json":
        _emit_json([{"graph": text, "key": key} for key, text in images])
    else:
        for key, text in images:
            sys.stdout.write(f"{key}\t{_one_line(text)}\n")
    return EXIT_OK


def _run_verify(n_max: int) -> dict:
    """Replay the counting identities over every class up to n_max.  Each
    class pair is counted once: the diagonal and interpolation sections
    read the hom, vsurj and vesurj tables the expansions section built,
    and every walk and closed set is reached by the class's own key."""
    sections = {}
    sections["expansions"], index, hom, vsurj, vesurj = _expansions(n_max)
    classes = enumerate_graphs(n_max)

    diag = []
    for i, (_, h) in enumerate(classes):
        a = aut_count(h)
        if vsurj[i][i] != a or vesurj[i][i] != a:
            diag.append({"h": to_text(h), "aut": str(a)})
    sections["diagonal"] = {"classes": len(classes), "violations": diag}

    # Each class is classified once: its subgraphs' classes are enumerated too.
    fam = []
    classified = {key: _classify(h) for key, h in classes}
    for key, h in classes:
        _, in_f, in_c, hard = classified[key]
        if in_c and not in_f:
            fam.append({"h": to_text(h), "check": "C inside F"})
        if in_f:
            for sub, _, _ in _walk(key, False):
                if not classified[sub][1]:
                    fam.append({"h": to_text(h), "check": "F induced-closed"})
        if in_c:
            for sub, _, _ in _walk(key, True):
                if not classified[sub][2]:
                    fam.append({"h": to_text(h), "check": "C deletion-closed"})
        # The hard edge is read off h's shapes; deleting it must take h out of F.
        if in_f and not in_c and classify_F(delete_nonloop_edge(h, hard))[0]:
            fam.append({"h": to_text(h), "check": "hard edge exists"})
    sections["families"] = {"classes": len(classes), "violations": fam}

    inter = []
    for key, h in classes:
        try:
            # h's images form a closed set; its matrix is read off hom.
            system = _system([key])
            at = [index[k] for k, _ in system.members]
            system._fill(range(len(at)), [[hom[f][j] for j in at] for f in at])
        except SingularSystemError:
            inter.append({"h": to_text(h), "check": "closed-set matrix invertible"})
        except InternalCheckError:
            inter.append({"h": to_text(h),
                          "check": "closed-set determinant is the product of aut"})
    sections["interpolation"] = {"classes": len(classes), "violations": inter}

    total = sum(len(s["violations"]) for s in sections.values())
    return {"n_max": n_max, "sections": sections, "violations": total, "ok": total == 0}


def _cmd_verify(args) -> int:
    report = _run_verify(args.n_max)
    if args.format == "json":
        _emit_json(report)
    else:
        for name, sec in sorted(report["sections"].items()):
            checked = sec.get("checks", sec.get("classes"))
            sys.stdout.write(f"{name}: {checked} checks, {len(sec['violations'])} violations\n")
        sys.stdout.write("ok\n" if report["ok"] else "FAIL\n")
    return EXIT_OK if report["ok"] else EXIT_INTERNAL


def _cmd_recover(args) -> int:
    h = _read_graph(args.h)
    g = _read_graph(args.g)
    # The ground truth counts maps from g into h.  Each oracle query counts
    # maps from g + F into h, F in h's closed set, placing g's vertices first.
    work = _check_budget(args.mode, g, h, DEFAULT_BUDGET)
    _check_quotient_size(h.n)
    key = canonical_key(h)
    queries = len(_reduction_system(args.mode, key).members)
    if queries * work > DEFAULT_BUDGET:
        raise BudgetExceededError(f"{queries} oracle queries would build at least {queries * work} "
                                  f"dynamic-program states, over the budget of {DEFAULT_BUDGET}")
    report = reduction_demo(h, args.mode, g)
    if args.format == "json":
        _emit_json(_spliced(report, *_report_fragments(args.mode, key)))
    else:
        for t in report["targets"]:
            sys.stdout.write(
                f"target {t['key']} recovered {t['recovered']} "
                f"truth {t['ground_truth']} match {str(t['match']).lower()}\n"
            )
    return EXIT_OK if all(t["match"] for t in report["targets"]) else EXIT_INTERNAL


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _report_fragments(mode: str, key: GraphKey) -> tuple[_Rendered, _Rendered]:
    """The alpha and closed_set report entries of the system for mode and
    the class key, rendered as they nest in a recover report.  They are read
    from the entries reduction_demo keeps on the system, so it must have
    reported the system first."""
    alpha, members = _reduction_system(mode, key)._report
    return _Rendered(alpha, "\n  "), _Rendered(members, "\n  ")


def _spliced(report: dict, alpha: _Rendered, members: _Rendered) -> dict:
    """report with its alpha and closed_set lists replaced by the fragments
    rendered from equal lists; a list that differs stays as it is."""
    out = dict(report)
    if report["alpha"] == alpha.value:
        out["alpha"] = alpha
    if report["closed_set"] == members.value:
        out["closed_set"] = members
    return out


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative int: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcount",
        description="Exact homomorphism, surjection, and compaction counting "
        "for small graphs with loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "plain"], default="json")

    p = sub.add_parser("count", help="count maps between two graphs")
    p.add_argument("--kind", choices=["hom", "vsurj", "vesurj", "aut"], required=True)
    p.add_argument("--g", help="source graph file, or - for stdin")
    p.add_argument("--h", required=True, help="target graph file, or - for stdin")
    p.add_argument("--force-bruteforce", action="store_true",
                   help="skip the closed-form path even when the target allows it")
    p.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
                   help="brute-force budget: the most dynamic-program states the "
                   "counting kernel may build (for --kind aut, a cap on n! for the "
                   "target's n vertices)")
    add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("classify", help="family membership and hard edge")
    p.add_argument("--h", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("inverse-column", help="inverse deletion-subgraph column at a graph")
    p.add_argument("--h", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_inverse_column)

    p = sub.add_parser("images", help="homomorphic images of a graph")
    p.add_argument("--h", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_images)

    p = sub.add_parser("verify", help="replay the counting identities up to a size")
    p.add_argument("--n-max", type=_nonnegative_int, default=2)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("recover", help="recover hom counts from a surjective oracle")
    p.add_argument("--h", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--mode", choices=["vsurj", "vesurj"], required=True)
    add_format(p)
    p.set_defaults(func=_cmd_recover)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use.  Parsing keeps no state
    between calls: each returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    if args.command == "count":
        if args.kind == "aut" and args.g is not None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("homcount: error: --g is not accepted with --kind aut\n")
            return EXIT_USAGE
        if args.kind != "aut" and args.g is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write(f"homcount: error: --kind {args.kind} requires --g\n")
            return EXIT_USAGE
    stdin_inputs = sum(
        1 for v in (getattr(args, "g", None), getattr(args, "h", None)) if v == "-"
    )
    if stdin_inputs > 1:
        parser.print_usage(sys.stderr)
        sys.stderr.write("homcount: error: at most one graph may come from stdin\n")
        return EXIT_USAGE

    # Counts print in full: the interpreter's limit on int-to-str digits,
    # where it has one, is lifted for the command and restored after.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    # Only reading a graph decodes bytes; a stdin with no byte stream
    # under it decodes by its own settings.
    except (GraphParseError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"homcount: graph input error: {exc}\n")
        return EXIT_PARSE
    except (InternalCheckError, AssertionError) as exc:
        sys.stderr.write(f"homcount: internal check failed: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"homcount: precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
