"""Batch front end: read generator and domain files, write the orbit partition.

Generator file (JSON, UTF-8, plain decimal integers, no floats):

    {"n": 2, "generators": [
        {"type": "translation", "v": [1, 1]},
        {"type": "negation", "signs": [-1, -1]},
        {"type": "permutation", "perm": [1, 0]}]}

Domain file (JSON), either explicit points or an axis-aligned box:

    {"points": [[0, 0], [1, 0]]}
    {"box": {"min": [0, 0], "max": [1, 1]}}

A box can also be given inline as --box "0..1,0..1" (one lo..hi range per
axis). Output is JSON (partition plus stage-1 diagnostics) or TSV (one
"point TAB label" line per point, coordinates comma-separated), identical
byte for byte across reruns.

The CLI checks each document's JSON shape and the library the values: a
points file goes to pipeline.run_stage2 as read, duplicates included, and
domain.sort_points checks each point once, naming the first bad one by its
index. A box is never listed: stage 2 reads its points in blocks.

The output is opened only once stage 2 is done and, for JSON, the head is
formatted, so a run that fails writes nothing. It is then written in
pieces, chunk by chunk (TSV) or class by class (JSON), as UTF-8 bytes
through a binary file with a 64 KB buffer, opened on the output path or
on stdout's file descriptor: the buffer copies small pieces into 64 KB
writes and passes a longer one straight through. Lines end in LF on
every platform.

Exit status: 0 on success, 1 on any error (a machine-readable JSON error
object is printed on stderr), 2 on bad command lines (argparse), 3 when
--oracle-check found a disagreement.

A CLI run does not run the cyclic garbage collector: main turns it off
around run and restores it after, since a run allocates a short-lived tuple
per point and forms no reference cycles. Library calls leave the collector
alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from bisect import bisect_left
from operator import add
from pathlib import Path
from typing import Iterator, Sequence

from . import domain
from .domain import Box
from .errors import (
    BoxTooLargeError,
    DigitLimitExceededError,
    InputError,
    InvalidRotationError,
    IsorbitError,
    NotAtomicError,
)
from .isometry import GeneratingSet, Isometry, Point, SignedPermutation, validate_atomic
from .labeling import DEFAULT_CLOSURE_CAP, Stage2
from .oracle import DEFAULT_BOX_CAP, stabilized_bfs_orbits
from .permgroup import DEFAULT_MAX_DIMENSION
from .pipeline import Stage1, run_stage1, run_stage2

DEFAULT_MAX_PADDING = 6


def _int_vector(value, where: str, name: str) -> list[int]:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise InputError(f"{where}: {name} must be a list of integers")
    return value


def _read_text(path: str, what: str) -> str:
    """The file's text; bytes that are not UTF-8 are an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{what}: not UTF-8 ({e.reason} at byte {e.start})") from e


def _loads(text: str, what: str):
    """json.loads, with every way it can fail on a document as an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{what}: {e.msg} at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise InputError(f"{what}: nested too deeply") from e
    except ValueError as e:  # e.g. an integer beyond the int-conversion digit limit
        raise InputError(f"{what}: {e}") from e


def parse_generators(text: str) -> GeneratingSet:
    """Parse and validate a generator document into a GeneratingSet."""
    doc = _loads(text, "generator file")
    if not isinstance(doc, dict) or "n" not in doc or "generators" not in doc:
        raise InputError('generator file must be {"n": ..., "generators": [...]}')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    entries = doc["generators"]
    if not isinstance(entries, list):
        raise InputError("generators must be a list")
    return validate_atomic(
        [_parse_generator(entry, idx) for idx, entry in enumerate(entries)], n)


def _parse_generator(entry, idx: int) -> Isometry:
    where = f"generator {idx}"
    if not isinstance(entry, dict) or "type" not in entry:
        raise InputError(f"{where}: expected an object with a 'type' field")
    kind = entry["type"]
    try:
        if kind == "translation":
            v = _int_vector(entry.get("v"), where, "v")
            return Isometry.translation(v)
        if kind == "negation":
            signs = _int_vector(entry.get("signs"), where, "signs")
            return Isometry.rotation(SignedPermutation.negation(signs))
        if kind == "permutation":
            perm = _int_vector(entry.get("perm"), where, "perm")
            return Isometry.rotation(SignedPermutation.permutation(perm))
    except InvalidRotationError as e:
        raise InvalidRotationError(f"{where}: {e}") from e
    raise NotAtomicError(
        f"{where}: unknown type {kind!r}; "
        f"must be translation, negation or permutation")


def make_box(lo: Sequence[int], hi: Sequence[int], box_cap: int) -> Box:
    """The box, once its point count is known to be within box_cap. Its
    points are never listed; stage 2 reads them in blocks."""
    box = Box(lo, hi)
    size = 1
    for a, b in zip(box.lo, box.hi):
        size *= b - a + 1
        if size > box_cap:
            raise BoxTooLargeError(f"box exceeds the cap of {box_cap} points")
    return box


def parse_domain(text: str, box_cap: int = DEFAULT_BOX_CAP) -> Box | list[Point]:
    """Parse a domain document into a Box or its point list.

    For a points document only the JSON shape is checked here: a list of
    arrays, each made a tuple, in file order with any duplicates. Their
    dimension and coordinate types are checked once, by stage 2, which
    names the first bad point by its index in the file.
    """
    doc = _loads(text, "domain file")
    if not isinstance(doc, dict) or ("points" in doc) == ("box" in doc):
        raise InputError('domain file must contain exactly one of "points" or "box"')
    if "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list):
            raise InputError("points must be a list of integer vectors")
        if set(map(type, pts)) - {list}:
            idx = next(i for i, p in enumerate(pts) if type(p) is not list)
            raise InputError(f"point {idx}: coordinates must be a list of integers")
        return list(map(tuple, pts))
    box = doc["box"]
    if not isinstance(box, dict) or "min" not in box or "max" not in box:
        raise InputError('box must be {"min": [...], "max": [...]}')
    lo = _int_vector(box["min"], "box", "min")
    hi = _int_vector(box["max"], "box", "max")
    return make_box(lo, hi, box_cap)


def parse_box_spec(spec: str, box_cap: int = DEFAULT_BOX_CAP) -> Box:
    """Read an inline box spec like "0..1,-2..3" into a Box. Bounds are
    ASCII -?[0-9]+; int() alone would take " 1", "1_0" and other digits."""
    lo, hi = [], []
    for i, axis in enumerate(spec.split(",")):
        parts = axis.split("..")
        if len(parts) != 2:
            raise InputError(f"bad box axis {i} {axis!r}; expected lo..hi")
        for bound in parts:
            digits = bound[1:] if bound[:1] == "-" else bound
            if not (digits.isascii() and digits.isdigit()):
                raise InputError(f"bad box axis {i} {axis!r}: {bound!r} is not an integer")
        try:
            lo.append(int(parts[0]))
            hi.append(int(parts[1]))
        except ValueError as e:
            raise InputError(f"bad box axis {i} {axis!r}: {e}") from e
    return make_box(lo, hi, box_cap)


def _point_template(n: int, depth: int) -> str:
    """A point as json.dumps(indent=2) lays it out at the given depth, with
    a "%d" slot per coordinate; n >= 1, as parse_generators checks."""
    inner = "  " * (depth + 1)
    return "[\n" + ",\n".join([inner + "%d"] * n) + "\n" + "  " * depth + "]"


def json_head(stage1: Stage1) -> str:
    """The stage-1 diagnostics with an empty class list, as json.dumps(doc,
    indent=2) writes them. The points come from the input, within Python's
    int-to-str digit limit; a Hermite basis entry or the rotation order
    can exceed it, and that is an error before any output is written."""
    try:
        return json.dumps({
            "n": stage1.gens.n,
            "rank_m": stage1.basis.m,
            "basis_rows": [list(r) for r in stage1.basis.hnf_rows],
            "rotation_order": stage1.rotation_order,
            "classes": [],
        }, indent=2)
    except ValueError as e:
        raise DigitLimitExceededError(
            "a stage-1 diagnostic (a Hermite basis entry or the rotation order) "
            "has more decimal digits than Python converts to text; "
            "--format tsv writes only the points and their labels") from e


def json_chunks(head: str, stage2: Stage2) -> Iterator[str]:
    """The document, byte for byte as json.dumps(doc, indent=2) + "\\n"
    would write it, in pieces: the head from json_head, then class by
    class its label and its members, a piece per chunk of the domain that
    holds them (the domain's chunks, Stage2.grouped) and at most
    BLOCK_POINTS per piece, for a %d template laid out for them.

    With indent set, the json module falls back to its pure-Python
    encoder, so only the small head goes through it.
    """
    if not stage2.label_at:
        yield head + "\n"
        return
    n = stage2.domain.n
    chunk, _texts, join = stage2.domain.chunks("        " + _point_template(n, 4), ",\n")
    members, later = stage2.grouped(chunk)
    opening = '    {\n      "label": ' + _point_template(n, 3) + ',\n      "members": [\n'
    yield head[:-len("[]\n}")] + "[\n"
    for c, (label, first) in enumerate(zip(stage2.domain.at(stage2.label_at), stage2.label_at)):
        yield (",\n" if c else "") + opening % label
        offsets, q, a = members[c], first // chunk, 0
        if c in later:
            starts = iter(later[c])
            for q_next, b in zip(starts, starts):
                yield (",\n" if a else "") + join(q, offsets[a:b])
                q, a = q_next, b
        for i in range(a, len(offsets), domain.BLOCK_POINTS):  # one chunk: long runs
            yield (",\n" if i else "") + join(q, offsets[i:i + domain.BLOCK_POINTS])
        yield "\n      ]\n    }"
    yield "\n  ]\n}\n"


def tsv_chunks(stage2: Stage2) -> Iterator[str]:
    """One "point TAB label" line per point, in sorted order, a piece per
    list of the domain's texts (its chunks). A label, its class's first
    point, takes its text from that list: one bisect of label_at a list."""
    points, class_of, label_at, tails = stage2.domain, stage2.class_of, stage2.label_at, []
    _chunk, texts, _join = points.chunks(",".join(["%d"] * points.n), "")
    start = 0
    for lines in texts():
        end = start + len(lines)
        held = label_at[len(tails):bisect_left(label_at, end, len(tails))]
        tails.extend(["\t" + lines[i - start] + "\n" for i in held])
        yield "".join(map(add, lines, map(tails.__getitem__, class_of[start:end])))
        start = end


def _emit_error(code: str, message: str, **extra) -> None:
    obj = {"error": code, "message": message}
    obj.update(extra)
    print(json.dumps(obj), file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    """Execute one batch run for the parsed command line; returns the
    process exit status."""
    try:
        gens = parse_generators(_read_text(args.gens, "generator file"))
        if args.domain is not None:
            points = parse_domain(
                _read_text(args.domain, "domain file"), args.box_cap)
        else:
            points = parse_box_spec(args.box, args.box_cap)
        stage1 = run_stage1(gens, args.max_dimension)
        stage2 = run_stage2(stage1, points, args.closure_cap)
        del points  # a points list is now held sorted, by stage2
        pieces = (json_chunks(json_head(stage1), stage2) if args.format == "json"
                  else tsv_chunks(stage2))
        if not args.output:
            sys.stdout.flush()  # text already printed goes first
        with open(args.output or sys.stdout.fileno(), "wb", buffering=1 << 16,
                  closefd=bool(args.output)) as out:
            out.writelines(map(str.encode, pieces))
        if args.oracle_check:
            reference, _pad = stabilized_bfs_orbits(
                gens, stage2.domain, args.max_padding, args.box_cap)
            partition = stage2.labeling().partition()
            if reference != partition:
                _emit_error(
                    "OracleMismatch",
                    "reference partition disagrees with the pipeline",
                    pipeline=_partition_doc(partition),
                    reference=_partition_doc(reference),
                )
                return 3
    except IsorbitError as e:
        _emit_error(e.code, str(e))
        return 1
    except OSError as e:
        _emit_error("IOError", str(e))
        return 1
    return 0


def _partition_doc(partition) -> list[list[list[int]]]:
    return sorted([list(p) for p in sorted(cls)] for cls in partition)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isorbit",
        description="Compute the orbit partition of a finite set of lattice "
        "points under the subgroup generated by atomic isometries.")
    parser.add_argument("--gens", required=True, metavar="FILE",
                        help="generator file (JSON)")
    domain = parser.add_mutually_exclusive_group(required=True)
    domain.add_argument("--domain", metavar="FILE", help="domain file (JSON)")
    domain.add_argument("--box", metavar="SPEC",
                        help='inline box, one lo..hi per axis, e.g. "0..1,0..1"')
    parser.add_argument("--output", metavar="FILE",
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--oracle-check", action="store_true",
                        help="cross-check against the padded-box reference")
    parser.add_argument("--max-padding", type=_positive_int, default=DEFAULT_MAX_PADDING,
                        metavar="K", help="padding limit for --oracle-check, positive "
                        f"(default: {DEFAULT_MAX_PADDING})")
    parser.add_argument("--max-dimension", type=_positive_int,
                        default=DEFAULT_MAX_DIMENSION, metavar="N",
                        help="permutation-group dimension cap, positive "
                        f"(default: {DEFAULT_MAX_DIMENSION})")
    parser.add_argument("--closure-cap", type=_positive_int, default=DEFAULT_CLOSURE_CAP,
                        metavar="N", help="size cap of one orbit's closure, positive "
                        f"(default: {DEFAULT_CLOSURE_CAP})")
    parser.add_argument("--box-cap", type=_positive_int, default=DEFAULT_BOX_CAP,
                        metavar="N", help="point-count cap for boxes, positive "
                        f"(default: {DEFAULT_BOX_CAP})")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse the command line and run it with the cyclic collector off; the
    collector's state is restored on the way out. A spaced "--box SPEC" is
    first glued into "--box=SPEC", or argparse would read a spec with a
    negative first bound, such as -1..0,0..1, as an option."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--box":
            argv[i:i + 2] = ["--box=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
