"""Batch command-line interface.

Subcommands: extquot, psi, norm-level, bc-gl1, bc-gl2, kmap, finiteness.
Every subcommand takes --format {text|json} and --output FILE; JSON
output carries a top-level schema_version, exact rationals are rendered
as "p/q" strings, and ordering is deterministic everywhere so output is
diffable.  JSON goes to its destination while the renderer walks the
payload, a few thousand parts at a time, never as one document-sized
string.  A K-theory matrix and a finiteness certificate stand in their
own payloads as the dense entries and the reductions: the matrix's rows
are written from its nonzero cells, the certificate's reductions from
one template per stored translation class.

Exit codes: 0 success, 2 invalid input, 3 out-of-scope mathematics,
4 finiteness window failure.

The front end is one table, COMMANDS, of help and flags; main calls the
module's own cmd_<name>.  A small request costs less than building all
seven subparsers, so main builds only the parser of the subcommand argv
names; help, usage and error messages are those of the full parser.
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
from functools import partial
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .extquot import extended_quotient
from .finiteness import FinitenessCertificate, WindowTooSmall, finiteness_certificate
from .gl1 import MAX_CIRCLES, TemperedDualGL1, bc_gl1, circle_map
from .gl2 import AdmissiblePair, EvenDegree, NotUnramified, OutOfScope, bc_gl2
from .ktheory import CircleSpace, KMorphism, ProperCircleMap, induced_map
from .localfield import (
    MAX_RATIONAL_DIGITS,
    ExtensionData,
    NotInPsiImage,
    RamificationFiltration,
    UnsupportedExtension,
    json_int,
    json_object,
    norm_level_image,
    phi,
    psi,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_WINDOW = 4

SCOPE_ERRORS = (UnsupportedExtension, OutOfScope, NotUnramified, EvenDegree)

# kmap's dense output is quadratic in its label lists; allow the largest
# matrix bc-gl1 can reach under its own circle cap.
MAX_KMAP_CELLS = MAX_CIRCLES**2

# parts the renderer holds before it writes them out and starts again
FLUSH_PARTS = 4096


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
        return json_object(json.loads(value), "input")
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


def _render(value, parts: list, write, indent: str = "\n") -> None:
    """Render json.dumps(value, indent=2) into parts and write.

    The text goes into parts.  A non-leaf list passes parts to write and
    empties it once it holds more than FLUSH_PARTS, as _render_dense does
    after each row with a cell; what is left in parts at the end follows
    what write was given.  indent is the newline and spaces that open
    this value's line, and no level copies its children's text.  A
    KMorphism stands for its dense rows, a FinitenessCertificate for its
    reductions list.  A list of plain ints is one part made by
    int.__repr__; bool is an int subclass and False == 0.0 == 0, hence
    the exact type test.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)) or not value:
        if type(value) is KMorphism:
            _render_dense(value, parts, write, indent)
        elif type(value) is FinitenessCertificate:
            _render_reductions(value, parts, write, indent)
        else:
            parts.append(json.dumps(value))
    else:
        inner = indent + "  "
        sep = "," + inner
        if isinstance(value, dict):
            glue = "{" + inner
            for k, v in value.items():
                parts.append(glue + encode_basestring_ascii(k) + ": ")
                glue = sep
                _render(v, parts, write, inner)
            parts.append(indent + "}")
        elif set(map(type, value)) != {int}:
            glue = "[" + inner
            for v in value:
                parts.append(glue)
                glue = sep
                _render(v, parts, write, inner)
                if len(parts) > FLUSH_PARTS:
                    write(parts)
                    parts.clear()
            parts.append(indent + "]")
        else:
            parts.append("[" + inner + sep.join(map(int.__repr__, value)) + indent + "]")


def _render_dense(k: KMorphism, parts: list, write, indent: str) -> None:
    """Render a KMorphism's dense rows into parts and write, each spliced from one all-zero row.

    A row without cells is that string again; a row with cells is written
    as the pieces of that string around its values, with the zero of column j at
    len("[" + row_indent) + j * len("0," + row_indent) left out, and no
    row is joined.  The cells come in strictly increasing (row, col)
    order, so one pass over them cuts each row left to right.  Each row is
    followed by a separator, and the last one becomes the closing bracket.
    """
    rows, cols = len(k.row_labels), len(k.col_labels)
    if not rows:
        parts.append("[]")
        return
    inner = indent + "  "
    row_indent = inner + "  "
    zero = "[" + row_indent + ("," + row_indent).join("0" * cols) + inner + "]" if cols else "[]"
    sep = "," + inner
    start, step = len("[" + row_indent), len("0," + row_indent)
    parts.append("[" + inner)
    done = 0
    for i, cells in groupby(k.cells, itemgetter(0)):
        parts += (zero, sep) * (i - done)
        cut = 0
        for _, j, value in cells:
            at = start + j * step
            parts += (zero[cut:at], int.__repr__(value))
            cut = at + 1
        parts.append(zero[cut:])
        write(parts)
        parts.clear()
        parts.append(sep)
        done = i + 1
    parts += (zero, sep) * (rows - done)
    parts[-1] = indent + "]"


def _render_reductions(cert: FinitenessCertificate, parts: list, write, indent: str) -> None:
    """Render a certificate's reductions into parts and write, one %-template per translation class.

    cert.entry(key) is rendered at this list's inner indent with its target
    and exponents as %d slots, and filled per member (target, key, shift)
    with the target and the exponents moved by the shift.  A member counts
    as the parts its template took, so write gets them as from a plain list.
    """
    inner, templates, held_parts = indent + "  ", {}, 0
    glue, sep = "[" + inner, "," + inner
    for lam, key, shift in reversed([*cert.members()]):
        if key not in templates:
            entry, slots = cert.entry(key), []
            entry["target"] = ["%d"] * len(lam)
            for term in entry["terms"]:
                for coefficient in term["coefficient"]:
                    slots += coefficient["exponents"]
                    coefficient["exponents"] = ["%d"] * len(lam)
            held, tail = [], []
            _render(entry, tail, held.extend, inner)
            templates[key] = "".join(held + tail).replace('"%d"', "%d"), slots, len(held) + len(tail)
        text, slots, size = templates[key]
        parts += (glue, text % (*lam, *map(shift.__add__, slots)))
        glue, held_parts = sep, held_parts + size
        if held_parts > FLUSH_PARTS:
            write(parts)
            parts.clear()
            held_parts = 0
    parts.append(indent + "]" if glue == sep else "[]")


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Write the payload (JSON, schema_version first, as it renders) or the text lines."""
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        if args.format == "json":
            parts = []
            _render({"schema_version": SCHEMA_VERSION, **payload}, parts, out.writelines)
        else:
            parts = ["\n".join(lines)]
        parts.append("\n")
        out.writelines(parts)
    return EXIT_OK


# -- subcommand implementations -----------------------------------------


def cmd_extquot(args) -> int:
    eq = extended_quotient(args.n)
    lines = [f"{'+'.join(str(p) for p in comp.partition)}: {comp.describe()}" for comp in eq.components]
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
    lines = [
        f"degree: {bc.f}",
        "conductor map: " + ", ".join(f"{c} -> {v}" for c, v in sorted(bc.conductor_map.items())),
    ]
    for src, tgt, degree in bc.pairs:
        lines.append(f"({src.conductor},{src.index}) -> ({tgt.conductor},{tgt.index}) degree {degree}")
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
    source = CircleSpace((f"T(E/F,c{pair.xi.conductor}.{pair.xi.index})",))
    target = CircleSpace((f"T(EL/L,c{result.target_pair.xi.conductor}.{result.target_pair.xi.index})",))
    k0, k1 = induced_map(
        ProperCircleMap(source, target, ((source.components[0], target.components[0], result.degree),))
    )
    lines = [
        f"degree: {result.degree}",
        f"conductor: {result.target_pair.xi.conductor}",
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
    m = json_object(m, "match")
    if not (isinstance(m["from"], str) and isinstance(m["to"], str)):
        raise ValueError("match labels must be strings")
    return m["from"], m["to"], json_int(m["degree"], "degree")


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
    matches = desc.get("matches", [])
    if not isinstance(matches, list):
        raise ValueError(f"matches must be a list, got {type(matches).__name__}")
    matches = tuple(_match(m) for m in matches)
    k0, k1 = induced_map(ProperCircleMap(source, target, matches))
    lines = []
    if args.format == "text":  # JSON rows come from the cells, not from entries
        for name, k in (("K0", k0), ("K1", k1)):
            lines += [f"{name}:"] + ["  " + " ".join(str(v) for v in row) for row in k.entries]
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
        "max_coefficient_exponent": cert.max_coefficient_exponent(),
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


# name -> (help, its own flags); build_parser adds --format and --output to
# each first
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


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The argparse front end; when argv[0] names a subcommand, only its parser is built.

    Building all seven costs more than a small request itself.  A lone
    subparser gets the metavar the full set would print, so usage lines
    and messages stay the same; with all seven built it stays unset, as
    argparse names the action by it in "invalid choice" and "required" errors.
    The terminal width HelpFormatter would find is asked for once, not per
    argument, and the subcommands' prog is given, not rendered from a usage.
    """
    names = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="basechange",
        description="Exact base-change computations: extended quotients, "
        "Hasse-Herbrand transitions, GL(1)/GL(2) circle maps, K-theory matrices.",
        formatter_class=formatter,
    )
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar, prog=parser.prog)
    for name in names:
        help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        p.add_argument("--output", metavar="FILE", help="write output to FILE")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
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
