"""Command-line interface.

Subcommands: ``analyze`` (inertia components), ``sod`` (ordered
decomposition, rank ledger, regrouping plan), ``gram`` (canonical
generator Gram matrix, projective specs only), ``mutate`` (apply a
mutation script to a serialized sequence), ``verify`` (oracle checks).

Inputs come either from a JSON action-spec document or from a built-in
preset; exactly one source must be given.  Human tables are advisory;
``--json`` output is the stable contract, streamed a piece at a time
(``analyze`` and ``sod`` format their component records straight from
the report).  Exit status: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shutil
import sys
from itertools import chain, repeat
from operator import itemgetter

from . import mutations, sod, verify
from .euler import EulerError, gram_report
from .groups import ActionSpec, SpecError, bit_list, parse_spec
from .presets import preset
from .sod import assemble, coarse_label, msodc_plan, piece_label, regrouping

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return INPUT_ERROR


def _emit(text, out_path: str | None) -> None:
    """Write ``text``, a str or an iterable of str pieces, and a newline to
    ``out_path`` or stdout, each piece as it comes: a failed write leaves
    what came before it."""
    pieces = (text,) if isinstance(text, str) else text
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter's final flush of the unwritten rest must not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is no error
            raise ValueError(f"cannot write output: {exc}") from exc


def _emit_json(doc, out_path: str | None) -> None:
    """Write exactly the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``,
    where a callable value writes its own text, and a newline, a piece at a time."""
    _emit(_write(doc, "\n"), out_path)


_ENCODE_STR = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}
# the text of the small ints that Gram matrices and sequence rows are made of
_INT_TEXT = {i: int.__repr__(i) for i in range(-256, 257)}


def _key(key) -> str:
    """A dict key as ``json.dumps`` turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _column(values, newline: str):
    """The text of each of ``values``, at the nesting level of ``newline``.

    A list costs one type test, then a C-level map when its elements share
    a type.  A list of dicts with one key set of str keys is written a
    column per key: the key texts are formatted once, each column by the
    same rule, and one join per record puts the records together.
    """
    types = {*map(type, values)}
    if types == {int}:
        try:
            return [*map(_INT_TEXT.__getitem__, values)]
        except KeyError:  # an entry beyond the table
            return [*map(int.__repr__, values)]
    if types == {str}:
        return map(_ENCODE_STR, values)
    if types <= {type(None), bool}:
        return map(_LITERALS.__getitem__, values)
    inner = newline + "  "
    if types <= {list, tuple}:  # lazy: the writer takes the rows one at a time
        separator = "," + inner
        return (
            f"[{inner}{separator.join(_column(v, inner))}{newline}]" if v else "[]" for v in values
        )
    keys = types == {dict} and values[0].keys()
    if keys and all(map(keys.__eq__, map(dict.keys, values))) and {*map(type, keys)} == {str}:
        columns, opener = [], "{"
        for key in sorted(keys):
            column = _column([*map(itemgetter(key), values)], inner)
            columns += repeat(f"{opener}{inner}{_ENCODE_STR(key)}: "), column
            opener = ","
        return map("".join, zip(*columns, repeat(newline + "}")))
    # mixed types, subclasses, floats, records whose keys differ
    return ("".join(_write(value, newline)) for value in values)


def _write(value, newline: str):
    """The text of ``value`` in pieces; ``newline`` is the line break and
    indentation of its own nesting level."""
    if isinstance(value, str):
        yield _ENCODE_STR(value)
    elif value is None or value is True or value is False:
        yield _LITERALS[value]
    elif isinstance(value, int):  # json.dumps writes any int subclass as int.__repr__
        yield int.__repr__(value)
    elif isinstance(value, dict):
        inner, opener = newline + "  ", "{"
        for key, item in sorted(value.items()):  # raw keys, so 2 sorts before 10
            yield f"{opener}{inner}{_ENCODE_STR(_key(key))}: "
            yield from _write(item, inner)
            opener = ","
        yield newline + "}" if value else "{}"
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        openers = chain(["[" + inner], repeat("," + inner))  # a big matrix is never joined
        yield from chain.from_iterable(zip(openers, _column(value, inner)))
        yield newline + "]" if value else "[]"
    elif callable(value):  # a writer of its own text, such as _component_records
        yield from value(newline)
    else:
        yield json.dumps(value)


def _component_records(report, newline: str):
    """``report_to_dict(report)["components"]`` as text at the nesting level
    of ``newline``, a record at a time: each element's bits, and the fields
    that (coarse, kind, dim, rank, split index) fix, are formatted once."""
    record, field, entry = newline + "  ", newline + "    ", newline + "      "
    k, sep, text = report.spec.rank, "," + entry, _INT_TEXT.__getitem__
    elements = {g: sep.join(map(text, bit_list(g, k))) for g, _ in report.grouping}
    opened, closed = (f"[{entry}", f"{field}]") if k else ("[", "]")  # the elements' brackets
    shared, opener = {}, "[" + record
    for comp in report.components:
        g, (kind, support, dim), split_index, rank, coarse, _ = comp
        if (key := (coarse, kind, dim, rank, split_index)) not in shared:
            label = _ENCODE_STR(sod._label_name(kind, dim, split_index) + "[")[:-1]  # the ids follow
            shared[key] = (
                f'{{{field}"coarse_type": {{{entry}"dim": {dim},{entry}"kind": {_ENCODE_STR(coarse)}'
                f'{field}}},{field}"dim": {dim},{field}"element": {opened}',
                f'{closed},{field}"geometry": {_ENCODE_STR(kind)},{field}"label": {label}',
                f']",{field}"rank": {rank},{field}"smooth": {_ENCODE_STR(sod._smoothness(comp))},{field}'
                f'"split_index": {"null" if split_index is None else split_index},{field}"support": ',
            )
        head, middle, tail = shared[key]
        ids = ",".join(map(text, support))  # the label's and the support's
        listed = f"[{entry}{ids.replace(',', sep)}{field}]" if ids else "[]"
        yield "".join((opener, head, elements[g], middle, ids, tail, listed, record, "}"))
        opener = "," + record
    yield newline + "]" if report.components else "[]"


def _load_spec(args) -> ActionSpec:
    if args.input and args.preset:
        raise SpecError("give either an input file or --preset, not both")
    if args.preset:
        return preset(args.preset, n=args.n, k=args.k, q_dim=args.q_dim)
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                return parse_spec(fh.read())
        except OSError as exc:
            raise SpecError(f"cannot read {args.input}: {exc}") from exc
    raise SpecError("no input: give a spec file or --preset")


def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    report = assemble(spec)
    if args.json:
        _emit_json(sod._report_doc(report, False, functools.partial(_component_records, report)), args.out)
        return OK
    lines = [f"{'pos':>3}  {'element':>8}  {'piece':<14} {'dim':>3}  {'coarse':<16} {'rank':>4}"]
    for pos, comp in enumerate(report.components):
        element = "".join(map(str, bit_list(comp.element, spec.rank))) or "()"
        lines.append(
            f"{pos:>3}  {element:>8}  {piece_label(comp):<14}"
            f" {comp.piece.dim:>3}  {coarse_label(comp):<16} {comp.rank:>4}"
        )
    if not report.effective:
        lines.append(f"warning: nontrivial projective kernel of order {len(report.kernel)}")
    _emit("\n".join(lines), args.out)
    return OK


def _plan_with_gram(spec, report):
    """Regrouping plan, with orthogonality flags when a unipotent Gram is available."""
    regrouping(report)  # an oversized plan is refused before its Gram is built
    try:
        result = gram_report(spec, report)
    except EulerError:
        return msodc_plan(report)
    return msodc_plan(report, result.matrix if result.triangular else None)


def cmd_sod(args) -> int:
    spec = _load_spec(args)
    report = assemble(spec)
    plan = _plan_with_gram(spec, report)
    grouped_labels = [piece_label(report.components[i]) for i in plan.block_order]
    if args.json:
        doc = sod._report_doc(report, True, functools.partial(_component_records, report))
        doc["msodc"] = {**plan.to_dict(), "grouped_labels": grouped_labels}
        _emit_json(doc, args.out)
        return OK
    lines = [f"decomposition ({len(report.components)} pieces, total rank {report.total_rank}):"]
    lines.append("  " + " > ".join(piece_label(c) for c in report.components))
    lines.append(f"grouping plan ({len(plan.moves)} moves):")
    for move in plan.moves:
        orth = {True: "orthogonal", False: "mutating", None: "unknown"}[move.orthogonal]
        lines.append(f"  move block {move.block} {move.direction} ({orth})")
    lines.append("grouped order:")
    lines.append("  " + " > ".join(grouped_labels))
    if not report.effective:
        lines.append(f"warning: nontrivial projective kernel of order {len(report.kernel)}")
    if report.smoothness_warnings:
        lines.append(f"warning: unknown smoothness at positions {list(report.smoothness_warnings)}")
    _emit("\n".join(lines), args.out)
    return OK


def cmd_gram(args) -> int:
    spec = _load_spec(args)
    report = assemble(spec)
    result = gram_report(spec, report)
    if args.json:
        _emit_json(result.to_dict(), args.out)
        return OK
    lines = [f"blocks: {list(result.block_sizes)}"]
    if result.normalized:
        lines.append(f"character twists: {[bit_list(t, spec.rank) for t in result.twists]}")
    width = max(len(str(x)) for row in result.matrix for x in row)
    for row in result.matrix:
        lines.append("  " + " ".join(f"{x:>{width}}" for x in row))
    lines.append(f"unipotent upper triangular: {result.triangular}")
    _emit("\n".join(lines), args.out)
    return OK


def cmd_mutate(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            seq = mutations.sequence_from_dict(json.load(fh))
        with open(args.script, encoding="utf-8") as fh:
            script = mutations.parse_script(fh.read())
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        return _fail(f"bad mutate input: {exc}")
    try:
        final, records = mutations.apply_script(seq, script)
    except (IndexError, ValueError) as exc:
        return _fail(f"cannot apply script: {exc}")
    doc = final.to_dict()
    doc["moves"] = [r.to_dict() for r in records]
    doc["semiorthogonal"] = mutations.is_semiorthogonal(final)
    doc["unimodular"] = mutations.is_unimodular(final)
    if args.json:
        _emit_json(doc, args.out)
    else:
        lines = [
            f"applied {len(records)} moves; semiorthogonal={doc['semiorthogonal']}"
            f" unimodular={doc['unimodular']}"
        ]
        for r in records:
            orth = "orthogonal" if r.orthogonal else "mutating"
            lines.append(f"  block {r.block} {r.direction} ({orth})")
        lines.append(f"blocks: {doc['blocks']}")
        _emit("\n".join(lines), args.out)
    return OK


def _sizes(args, check: str, *names: str) -> list[int]:
    """The size options a check reads, all of which must be given."""
    values = [getattr(args, name) for name in names]
    if None in values:
        flags = " and ".join("--" + name.replace("_", "-") for name in names)
        raise SpecError(f"the {check} check needs {flags}")
    return values


# --check name -> its result, read off the parsed arguments
_CHECKS = {
    "etale-sweep": lambda args: verify.check_etale_sweep(),
    "gram-presets": lambda args: verify.check_gram_presets(),
    "random-sweep": lambda args: verify.check_random_rank_sweep(),
    "etale": lambda args: verify.check_etale(*_sizes(args, "etale", "n", "k")),
    "quadric": lambda args: verify.check_quadric(*_sizes(args, "quadric", "q_dim")),
    "projective-rank": lambda args: verify.check_projective_rank(_load_spec(args)),
    "burnside-total": lambda args: verify.check_burnside_total(_load_spec(args)),
}


def _verify_checks(args) -> list[verify.CheckResult]:
    name = args.check or (args.preset if args.preset in ("etale", "quadric") else None)
    if name:
        if name not in _CHECKS:
            raise SpecError(f"unknown check {name!r}")
        # only these checks read a spec; --preset alone may name the check instead
        if name not in ("projective-rank", "burnside-total") and (args.input or args.check and args.preset):
            raise SpecError(f"the {name} check reads no {'input file' if args.input else '--preset'}")
        return [_CHECKS[name](args)]
    if args.preset or args.input:
        spec = _load_spec(args)
        report = assemble(spec)
        return [verify.check_projective_rank(spec, report), verify.check_burnside_total(spec, report)]
    return verify.run_battery()


def cmd_verify(args) -> int:
    results = _verify_checks(args)
    if args.json:
        _emit_json([dataclasses.asdict(r) for r in results], args.out)
    else:
        _emit("\n".join(r.line() for r in results), args.out)
    return CHECK_FAILED if any(r.status == verify.FAIL for r in results) else OK


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or ``command``'s own parser alone: the
    one that the full parser hands that command's arguments to."""
    # argparse reads the terminal width once per formatter, and every
    # add_argument builds one; read it once, as HelpFormatter would
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)

    def add_common(p):
        p.add_argument("input", nargs="?", help="action-spec JSON document")
        p.add_argument("--preset", choices=["etale", "p2-example", "pn-full", "quadric"])
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--q-dim", type=int, dest="q_dim")
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--out", help="write output to a file")

    def add_mutate(p):
        p.add_argument("input", help="serialized sequence JSON (form, vectors, blocks)")
        p.add_argument("--script", required=True, help="mutation script JSON")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out")

    def add_verify(p):
        add_common(p)
        p.add_argument("--check", help=f"named check ({', '.join(_CHECKS)})")

    commands = {
        "analyze": ("list inertia components", add_common),
        "sod": ("ordered decomposition and regrouping plan", add_common),
        "gram": ("canonical-generator Gram matrix", add_common),
        "mutate": ("apply a mutation script to a sequence", add_mutate),
        "verify": ("run oracle checks", add_verify),
    }
    if command:
        parser = argparse.ArgumentParser(prog=f"mu2sod {command}", formatter_class=formatter)
        parser.set_defaults(command=command)
        commands[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="mu2sod",
        description="Inertia components, semiorthogonal decompositions, and "
        "K-theoretic checks for diagonal mu_2^k actions.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in commands.items():
        add_arguments(sub.add_parser(name, help=summary, formatter_class=formatter))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    handlers = {"analyze": cmd_analyze, "sod": cmd_sod, "gram": cmd_gram,
                "mutate": cmd_mutate, "verify": cmd_verify}
    # a leading command's own parser, and the full one for what it leaves over
    args = rest = None
    if argv and argv[0] in handlers:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # SpecError included
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
