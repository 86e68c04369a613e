"""Batch command-line interface.

Subcommands: extquot, psi, norm-level, bc-gl1, bc-gl2, kmap, finiteness.
Every subcommand takes --format {text|json} and --output FILE; JSON
output carries a top-level schema_version, exact rationals are rendered
as "p/q" strings, and ordering is deterministic everywhere so output is
diffable.  JSON goes to its destination while the renderer walks the
payload, in joined writes of about FLUSH_CHARS characters, never as one
document-sized string.  A K-theory matrix, a finiteness certificate and
a Records list stand in their own payloads as the dense entries, the
reductions and a list of int records, and each yields its items already
written: the matrix's rows spliced from its nonzero cells, the
certificate's reductions from one template per translation class,
written from its stored expression, and the records from one template
per row layout, filled per row.  One list writer, _render_list, lays
those items out and decides where each write falls.  Text output is
written line by line as it is made; kmap's text rows are spliced from
the cells as its JSON rows are.

Exit codes: 0 success, 2 invalid input, 3 out-of-scope mathematics,
4 finiteness window failure.

The front end is one table, COMMANDS, of help and flags; main calls the
module's own cmd_<name>.  A small request costs less than building the
argparse parser, so main reads a plain argv (a subcommand, then its
flags spelt in full, each with a value that does not start with "-")
straight from the table into argparse's Namespace.  Every other argv
goes to the parser, whose help, usage and error messages stay its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .extquot import extended_quotient
from .finiteness import Expression, FinitenessCertificate, WindowTooSmall, finiteness_certificate
from .gl1 import MAX_CIRCLES, TemperedDualGL1, bc_gl1, circle_map
from .gl2 import AdmissiblePair, EvenDegree, NotUnramified, OutOfScope, bc_gl2
from .ktheory import CircleSpace, KMorphism, ProperCircleMap, induced_map
from .localfield import (
    MAX_RATIONAL_DIGITS,
    ExtensionData,
    NotInPsiImage,
    RamificationFiltration,
    UnsupportedExtension,
    json_field,
    norm_level_image,
    phi,
    psi,
)
from .value import Records

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_WINDOW = 4

SCOPE_ERRORS = (UnsupportedExtension, OutOfScope, NotUnramified, EvenDegree)

# kmap's dense output is quadratic in its label lists; allow the largest
# matrix bc-gl1 can reach under its own circle cap.
MAX_KMAP_CELLS = MAX_CIRCLES**2

# characters the renderer holds before it joins them into one write: for a
# 5.4 MB bc-gl1 document, 16 KiB to 512 KiB took about the same time, and
# 2 MiB twice as long
FLUSH_CHARS = 1 << 16


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_rational_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(text: str, factor: int = 1) -> Fraction:
    """Read "7/2", "-3" or "1.5e3" exactly.

    Fraction("1e999999999") computes 10**999999999 before anything is
    checked, so the size is bounded first: the longer of numerator and
    denominator as written (a decimal point counted as a digit) plus the
    zeros the exponent adds may not pass MAX_RATIONAL_DIGITS, nor may that
    count plus the digits a caller's factor adds (those of factor - 1).
    """
    text = text.strip()
    mantissa, _, exponent = text.lower().partition("e")
    zeros = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not zeros.isdecimal():  # no exponent, or one Fraction refuses
        zeros = "0"
    written = max(map(len, mantissa.lstrip("+-").split("/")))
    if len(zeros) > len(str(MAX_RATIONAL_DIGITS)) or written + int(zeros) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"rational {text!r} has more than {MAX_RATIONAL_DIGITS} digits")
    if factor > 1 and written + int(zeros) + len(str(factor - 1)) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"rational {text!r} times {factor} has more than {MAX_RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _load_json_arg(value: str) -> dict:
    """Inline JSON (from { or [) or the path of a regular file; a FIFO or a device may never end."""
    value = value.strip()
    if not value.startswith(("{", "[")):
        if not stat.S_ISREG(os.stat(value).st_mode):
            raise ValueError(f"input path {value!r} is not a regular file")
        with open(value) as file:
            value = file.read()
    try:
        return json_field(json.loads(value), dict, "input")
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("input JSON is nested too deeply") from None


def _parse_orders(text: str) -> RamificationFiltration:
    """Comma-separated orders; one past MAX_RATIONAL_DIGITS is refused before int() reads it."""
    orders = []
    for part in map(str.strip, text.split(",") if text.strip() else ()):
        if len(part) > MAX_RATIONAL_DIGITS:
            raise ValueError(f"ramification order {part!r} has more than {MAX_RATIONAL_DIGITS} digits")
        try:
            orders.append(int(part))
        except ValueError:
            raise ValueError(f"ramification orders {text!r}: {part!r} is not an integer") from None
    return RamificationFiltration(orders)


class _Chunks(list):
    """Text parts that flush writes out as one joined string, emptying the list; _render_list says when."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write

    def flush(self) -> None:
        self.write("".join(self))
        self.clear()


def _render(value, parts: _Chunks, indent: str = "\n") -> None:
    """Render json.dumps(value, indent=2) into parts, which write it out in bounded joined chunks.

    indent is the newline and spaces that open this value's line, and no
    level copies its children's text.  A KMorphism stands for its dense
    rows, a FinitenessCertificate for its reductions list and a Records for
    its records: STAND_INS maps each to a generator of its items, already
    written, and _render_list lays them out and flushes parts.  No other
    list flushes, as every large list of a payload is a stand-in.  A list
    of plain ints or of plain strs is one part; bool is an int subclass and
    False == 0.0 == 0, hence the exact type test.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif type(value) in STAND_INS:
        _render_list(STAND_INS[type(value)](value, indent + "  "), parts, indent)
    elif not isinstance(value, (list, tuple, dict)) or not value:
        parts.append(json.dumps(value))
    else:
        inner = indent + "  "
        sep = "," + inner
        if isinstance(value, dict):
            glue = "{" + inner
            for k, v in value.items():
                parts.append(glue + encode_basestring_ascii(k) + ": ")
                glue = sep
                _render(v, parts, inner)
            parts.append(indent + "}")
        elif (kinds := set(map(type, value))) == {int} or kinds == {str}:
            leaf = int.__repr__ if kinds == {int} else encode_basestring_ascii
            parts.append("[" + inner + sep.join(map(leaf, value)) + indent + "]")
        else:
            glue = "[" + inner
            for v in value:
                parts.append(glue)
                glue = sep
                _render(v, parts, inner)
            parts.append(indent + "]")


def _render_list(items, parts: _Chunks, indent: str) -> None:
    """Lay out at indent a list whose items are already written, flushing parts every FLUSH_CHARS characters.

    The characters counted are this list's items and separators; parts is
    flushed after the item that brings them to FLUSH_CHARS since the last
    flush, so a write holds at most about FLUSH_CHARS, one item and the
    text parts held when the list began.
    """
    inner = indent + "  "
    glue, sep, held = "[" + inner, "," + inner, 0
    for item in items:
        parts += (glue, item)
        held += len(glue) + len(item)
        glue = sep
        if held >= FLUSH_CHARS:
            parts.flush()
            held = 0
    parts.append(indent + "]" if glue == sep else "[]")


def _text(value, indent: str) -> str:
    """json.dumps(value, indent=2)'s text of a small value, its lines opened by indent."""
    written = []
    parts = _Chunks(written.append)
    _render(value, parts, indent)
    return "".join(written + parts)


def _spliced_rows(k: KMorphism, zero: str, start: int, step: int):
    """Each dense row of k: zero, an all-zero row's text, with each cell's value for the 0 at start + col * step.

    The cells come in strictly increasing (row, col) order, so one pass
    over them cuts each row left to right.
    """
    done = 0
    for i, row_cells in groupby(k.cells, itemgetter(0)):
        yield from repeat(zero, i - done)
        pieces, cut = [], 0
        for _, j, value in row_cells:
            at = start + j * step
            pieces += (zero[cut:at], int.__repr__(value))
            cut = at + 1
        pieces.append(zero[cut:])
        yield "".join(pieces)
        done = i + 1
    yield from repeat(zero, len(k.row_labels) - done)


def _dense_rows(k: KMorphism, indent: str):
    """A KMorphism's dense rows written at indent, each spliced from one all-zero row."""
    row_indent = indent + "  "
    zero = "[" + row_indent + ("," + row_indent).join("0" * len(k.col_labels)) + indent + "]" if k.col_labels else "[]"
    return _spliced_rows(k, zero, len("[" + row_indent), len("0," + row_indent))


def _record_template(build, args: list, indent: str) -> str:
    """The %-template of build(*args), args holding "%d" strings, written at indent with each quoted "%d" unquoted."""
    return _text(build(*args), indent).replace("%", "%%").replace('"%%d"', "%d")


def _records(records: Records, indent: str):
    """A Records list's records written at indent: one %-template per row layout, filled per row.

    A row's layout is the lengths of its int tuples, or for a row of plain
    ints its own length.  Rows of plain ints share the first row's
    template, and are joined in batches about FLUSH_CHARS long, each batch
    one item.  A row of tuples fills its layout's template with its ints in
    order.
    """
    rows = records.rows
    if rows and tuple not in map(type, rows[0]):
        template = _record_template(records.build, ["%d"] * len(rows[0]), indent)
        batch = FLUSH_CHARS // (len(template) + len("," + indent)) + 1
        for first in range(0, len(rows), batch):
            yield ("," + indent).join(map(template.__mod__, rows[first:first + batch]))
    else:
        template = cache(lambda layout: _record_template(records.build, [("%d",) * k for k in layout], indent))
        for row in rows:
            yield template(tuple(map(len, row))) % sum(row, ())


def _json_list(items: list[str], indent: str) -> str:
    """json.dumps(..., indent=2)'s layout at indent of a list whose items are already written."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _class_template(expr: Expression, r: int, indent: str) -> tuple[str, list[int]]:
    """A class key's reduction at indent, written from its expression, and its slots.

    The target and each coefficient's exponents are r %d slots; slots lists the key's exponents in order.
    A generator of plain ints is written with str, any other as json.dumps writes it.
    """
    d1, d2, d3, d4, d5 = (indent + "  " * k for k in range(1, 6))
    head, tail = f'{{{d5}"exponents": {_json_list(["%d"] * r, d5)},{d5}"value": "', f'"{d4}}}'
    slots, terms = [], []
    for gamma in sorted(expr):
        coefficients = sorted(expr[gamma].items())
        slots += [x for mu, _ in coefficients for x in mu]
        values = [f"{head}{c.numerator}/{c.denominator}{tail}" for _, c in coefficients]
        generator = _json_list([*map(str, gamma)], d3) if set(map(type, gamma)) == {int} else _text(gamma, d3)
        terms.append(f'{{{d3}"generator": {generator},'
                     f'{d3}"coefficient": {_json_list(values, d3)}{d2}}}')
    return f'{{{d1}"target": {_json_list(["%d"] * r, d1)},{d1}"terms": {_json_list(terms, d1)}{indent}}}', slots


def _reductions(cert: FinitenessCertificate, indent: str):
    """A certificate's reductions written at indent, one %-template per translation class.

    _class_template writes a class's template, filled per member (target,
    key, shift), targets ascending, with the target and the key's exponents
    moved by the shift.
    """
    template = cache(lambda key: _class_template(cert.classes[key], cert.r, indent))
    for lam, key, shift in reversed([*cert.members()]):
        text, slots = template(key)
        yield text % (*lam, *map(shift.__add__, slots))


STAND_INS = {KMorphism: _dense_rows, FinitenessCertificate: _reductions, Records: _records}


def _emit(args, payload: dict, lines) -> int:
    """Write the payload (JSON, schema_version first, in joined chunks as it renders) or the text lines as they come."""
    with open(args.output, "w") if args.output is not None else nullcontext(sys.stdout) as out:
        if args.format == "json":
            parts = _Chunks(out.write)
            _render({"schema_version": SCHEMA_VERSION, **payload}, parts)
            parts.append("\n")
            parts.flush()
        else:
            out.writelines(line + "\n" for line in lines)
    return EXIT_OK


# -- subcommand implementations -----------------------------------------


def cmd_extquot(args) -> int:
    eq = extended_quotient(args.n)
    # one %-template per layout: the numbers of parts and of Sym factors
    template = cache(lambda parts, factors: "+".join(["%d"] * parts) + ": " + " x ".join(["Sym^%d"] * factors))
    lines = (template(len(p), len(m)) % (*p, *m) for p, m in eq.rows)
    return _emit(args, eq.to_json(), lines)


def cmd_psi(args) -> int:
    filt = _parse_orders(args.orders)
    # psi(x) <= |G_0| * x, and the denominator of phi(x) divides |G_0| times x's
    xs = [parse_rational(text_x, filt.e) for text_x in args.x]
    rows = []
    lines = [f"orders: {list(filt.orders)}", "x | psi(x) | phi(x)"]
    for x in xs:
        values = (x, psi(filt, x), phi(filt, x))
        rows.append(dict(zip(("x", "psi", "phi"), map(format_rational, values))))
        lines.append(" | ".join(map(format_rational_text, values)))
    return _emit(args, {"orders": list(filt.orders), "rows": rows}, lines)


def cmd_norm_level(args) -> int:
    ext, filt = ExtensionData.from_json(_load_json_arg(args.extension))
    level_f = norm_level_image(ext, filt, args.level)
    payload = {"level_E": args.level, "level_F": level_f}
    return _emit(args, payload, [f"N(U_E^{args.level}) = U_F^{level_f}"])


def cmd_bc_gl1(args) -> int:
    ext, filt = ExtensionData.from_json(_load_json_arg(args.extension))
    dual = TemperedDualGL1.enumerate(ext.base, args.max_conductor)
    bc = bc_gl1(ext, filt, dual)
    k0, k1 = induced_map(circle_map(bc))
    lines = chain(
        [f"degree: {bc.f}", "conductor map: " + ", ".join(f"{c} -> {v}" for c, v in sorted(bc.conductor_map.items()))],
        (f"({c},{j}) -> ({tc},{tj}) degree {bc.f}" for c, j, tc, tj in bc.pairs),
    )
    payload = {
        "extension": ext.to_json(filt),
        "degree": bc.f,
        "dual": dual.to_json(),
        "map": bc.to_json(),
        "k0": k0.to_json(),
        "k1": k1.to_json(),
    }
    return _emit(args, payload, lines)


def cmd_bc_gl2(args) -> int:
    pair = AdmissiblePair.from_json(_load_json_arg(args.pair))
    lift, _ = ExtensionData.from_json(_load_json_arg(args.lift))
    result = bc_gl2(pair, lift)
    (c, j), (target_c, target_j) = pair.xi, result.target_pair.xi
    source = CircleSpace((f"T(E/F,c{c}.{j})",))
    target = CircleSpace((f"T(EL/L,c{target_c}.{target_j})",))
    k0, k1 = induced_map(
        ProperCircleMap(source, target, ((source.components[0], target.components[0], result.degree),))
    )
    lines = [
        f"degree: {result.degree}",
        f"conductor: {target_c}",
        f"EL/L: e={result.target_pair.quad.e} f={result.target_pair.quad.f}",
        f"EL/E: e={result.el_over_e.e} f={result.el_over_e.f}",
        f"torsion: {result.torsion}",
        f"K1 entry: {result.degree}",
        "K0 entry: 1",
    ]
    payload = {"result": result.to_json(), "k0": k0.to_json(), "k1": k1.to_json()}
    return _emit(args, payload, lines)


def _labels(value, name: str) -> tuple:
    """Circle labels of a kmap description: a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{name} must be a list of string labels")
    return tuple(value)


def _match(m) -> tuple:
    """One kmap match: an object with string labels "from" and "to", an integer "degree"."""
    m = json_field(m, dict, "match")
    if not (isinstance(m["from"], str) and isinstance(m["to"], str)):
        raise ValueError("match labels must be strings")
    return m["from"], m["to"], json_field(m["degree"], int, "degree")


def cmd_kmap(args) -> int:
    desc = _load_json_arg(args.map)
    source = _labels(desc["source"], "source")
    target = _labels(desc["target"], "target")
    if len(source) * len(target) > MAX_KMAP_CELLS:
        raise ValueError(
            f"kmap of {len(source)} x {len(target)} circles has more than"
            f" {MAX_KMAP_CELLS} matrix cells"
        )
    source, target = CircleSpace(source), CircleSpace(target)
    matches = tuple(_match(m) for m in json_field(desc.get("matches", []), list, "matches"))
    k0, k1 = induced_map(ProperCircleMap(source, target, matches))
    lines = chain.from_iterable(
        chain([f"{name}:"], _spliced_rows(k, "  " + " ".join("0" * len(k.col_labels)), 2, 2))
        for name, k in (("K0", k0), ("K1", k1))
    )
    return _emit(args, {"k0": k0.to_json(), "k1": k1.to_json()}, lines)


def cmd_finiteness(args) -> int:
    cert = finiteness_certificate(args.r, args.f, args.window)
    verified = cert.verify() if args.verify else None
    summary = {
        "r": cert.r,
        "f": cert.f,
        "window": cert.window,
        "coefficient_window": cert.coefficient_window,
        "generator_count": len(cert.generators),
        "reduction_count": len(cert),
        "max_coefficient_exponent": cert.reach,
    }
    if verified is not None:
        summary["verified"] = verified
    lines = [
        f"generators ({len(cert.generators)}): "
        + ", ".join(str(list(g)) for g in cert.generators),
        f"reductions: {len(cert)} monomial classes within window {cert.window}",
        f"max coefficient exponent: {summary['max_coefficient_exponent']}"
        f" (allowed {cert.coefficient_window})",
    ]
    if verified is not None:
        lines.append(f"verified by expansion: {verified}")
    return _emit(args, {"summary": summary, "certificate": cert.to_json()}, lines)


# -- parser -------------------------------------------------------------


# the flags every subcommand takes ahead of its own
OUTPUT_FLAGS = (
    ("--format", {"choices": ("text", "json"), "default": "text", "help": "output format"}),
    ("--output", {"metavar": "FILE", "help": "write output to FILE"}),
)

# name -> (help, its own flags)
COMMANDS = {
    "extquot": ("components of (C^x)^n // S_n", (
        ("--n", {"type": int, "required": True}),
    )),
    "psi": ("transition function table", (
        ("--orders", {"default": "", "help": "comma-separated ramification orders, e.g. 3,3"}),
        ("--x", {"action": "append", "required": True, "help": "rational point, e.g. 7/2 (repeatable)"}),
    )),
    "norm-level": ("norm transport of a unit-filtration level", (
        ("--extension", {"required": True, "help": "extension JSON (inline or file path)"}),
        ("--level", {"type": int, "required": True}),
    )),
    "bc-gl1": ("base change on the GL(1) tempered dual", (
        ("--extension", {"required": True, "help": "extension JSON (inline or file path)"}),
        ("--max-conductor", {"type": int, "default": 4}),
    )),
    "bc-gl2": ("base change of a cuspidal GL(2) circle", (
        ("--pair", {"required": True, "help": "admissible pair JSON (inline or file path)"}),
        ("--lift", {"required": True, "help": "unramified extension JSON (inline or file path)"}),
    )),
    "kmap": ("induced K-theory matrices of a circle map", (
        ("--map", {"required": True, "help": "map JSON (inline or file path)"}),
    )),
    "finiteness": ("finiteness certificate for the pullback", (
        ("--r", {"type": int, "required": True}),
        ("--f", {"type": int, "required": True}),
        ("--window", {"type": int, "default": None, "help": "exponent window (default 2f+2)"}),
        ("--verify", {"action": "store_true", "help": "re-expand every reduction"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse front end: help, usage and errors, and every argv _read_plain leaves.

    The terminal width HelpFormatter would find is asked for once, not per
    argument, and the subcommands' prog is given, not rendered from a usage.
    """
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="basechange",
        description="Exact base-change computations: extended quotients, "
        "Hasse-Herbrand transitions, GL(1)/GL(2) circle maps, K-theory matrices.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for flag, kwargs in OUTPUT_FLAGS + flags:
            p.add_argument(flag, **kwargs)
    return parser


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) for a plain argv, or None to leave argv to argparse.

    Plain: the subcommand, then its flags spelt in full, each but a
    store_true one with a value not starting with "-" that its type reads
    and its choices hold, and every required flag.  A repeated flag keeps
    its last value, an append flag all of them.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = dict(OUTPUT_FLAGS + COMMANDS[argv[0]][1])
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        action = kwargs.get("action")
        if action == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is left to argparse too
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if action == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in flags.items():
        if kwargs.get("required") and flag not in given:
            return None
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has what it wanted; the null device takes the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except WindowTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except SCOPE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    except NotInPsiImage as exc:
        print(f"error: NotInPsiImage: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ValueError, KeyError, OSError) as exc:
        message = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
