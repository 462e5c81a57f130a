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

All output text is made here. The writers take point texts from one
function for every domain (_point_texts): all of them in order (TSV), or
those at some offsets of one chunk of the sorted indices, joined (JSON).
A points list, or a box whose trailing axes that fit in a block have one
point (as when its last axis alone is longer than a block), has no table
of texts: it is one chunk, and each point fills a %d template. Any other
box's point text is a head text and a tail text from a table of its
trailing axes (_tail_table), and a chunk is whole heads, so the offsets
of a class in a chunk find their tails in one gather. The JSON writer
takes each class's offsets, chunk by chunk, from one pass over stage 2's
class array a chunk at a time (_grouped).

The output is opened only once stage 2 is done and, for JSON, the head is
formatted, so a run that fails writes nothing. It is then written in
pieces, chunk by chunk (TSV) or class by class (JSON), as UTF-8 bytes
through a binary file with a 64 KB buffer, opened on the output path or
on stdout's file descriptor: the buffer copies small pieces into 64 KB
writes and passes a longer one straight through. Lines end in LF on
every platform.

Exit status: 0 on success, 1 on any error (a machine-readable JSON error
object is printed on stderr; running out of memory is one too, an
"OutOfMemory" object), 2 on bad command lines (a usage line and an
"isorbit: error:" line on stderr), 3 when --oracle-check, an exact check
of the written run (check.py), fails: one "OracleMismatch" object whose
"check" field names the failed check.

A CLI run does not run the cyclic garbage collector: main turns it off
around run and restores it after, since a run allocates a short-lived tuple
per point and forms no reference cycles. main also registers gc.freeze,
once, as an exit handler. Exit handlers run before the interpreter's
shutdown collections, and those skip every frozen object, so a CLI
process does not walk the objects its imports made as it exits. An
in-process caller sees no freeze until its own process exits. CPython
does not promise __del__ for objects still alive at exit, and a frozen
one's may not run. Library calls leave the collector alone.
"""

from __future__ import annotations

import atexit
import gc
import json
import sys
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import chain, repeat
from operator import add, floordiv
from types import SimpleNamespace

from . import domain
from .domain import DEFAULT_BOX_CAP, Box, SortedPoints, gather
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
from .permgroup import DEFAULT_MAX_DIMENSION
from .pipeline import Stage1, run_stage1, run_stage2

RUN_MEMBERS = 4  # fewest offsets a head, on average, that _point_texts joins as runs


# generator type: the one field it takes besides "type"
GENERATOR_FIELDS = {"translation": "v", "negation": "signs", "permutation": "perm"}


def _only_fields(obj: dict, fields: tuple[str, ...], where: str, what: str) -> None:
    """An InputError naming obj's first key, in file order, not in fields:
    a field the run would ignore would give another group or domain than
    the file asks for."""
    for key in obj:
        if key not in fields:
            raise InputError(f"{where}: unknown field {key!r}; {what} takes only "
                             + " and ".join(map(repr, fields)))


def _int_vector(value, where: str, name: str) -> list[int]:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise InputError(f"{where}: {name} must be a list of integers")
    return value


def _read_text(path: str, what: str) -> str:
    """The file's text; bytes that are not UTF-8 are an InputError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
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
    _only_fields(doc, ("n", "generators"), "generator file", "a generator file")
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
    field = GENERATOR_FIELDS.get(kind) if type(kind) is str else None
    if field is None:
        raise NotAtomicError(
            f"{where}: unknown type {kind!r}; "
            f"must be translation, negation or permutation")
    _only_fields(entry, ("type", field), where, f"a {kind}")
    vector = _int_vector(entry.get(field), where, field)
    try:
        if kind == "translation":
            return Isometry.translation(vector)
        if kind == "negation":
            return Isometry.rotation(SignedPermutation.negation(vector))
        return Isometry.rotation(SignedPermutation.permutation(vector))
    except InvalidRotationError as e:
        raise InvalidRotationError(f"{where}: {e}") from e


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
    kind = "points" if "points" in doc else "box"
    _only_fields(doc, (kind,), "domain file", f"a {kind} file")
    if kind == "points":
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
    _only_fields(box, ("min", "max"), "box", "a box")
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
    holds them (_point_texts, _grouped) and at most BLOCK_POINTS per
    piece, for a %d template laid out for them.

    With indent set, the json module falls back to its pure-Python
    encoder, so only the small head goes through it.
    """
    if not stage2.label_at:
        yield head + "\n"
        return
    n = stage2.domain.n
    chunk, _texts, join = _point_texts(stage2.domain, "        " + _point_template(n, 4), ",\n")
    members, later = _grouped(stage2, chunk)
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
    list of the domain's texts (_point_texts). A label, its class's first
    point, takes its text from that list: one bisect of label_at a list."""
    points, class_of, label_at, tails = stage2.domain, stage2.class_of, stage2.label_at, []
    _chunk, texts, _join = _point_texts(points, ",".join(["%d"] * points.n), "")
    start = 0
    for lines in texts():
        end = start + len(lines)
        held = label_at[len(tails):bisect_left(label_at, end, len(tails))]
        tails.extend(["\t" + lines[i - start] + "\n" for i in held])
        yield "".join(map(add, lines, map(tails.__getitem__, class_of[start:end])))
        start = end


def _tail_table(box: Box, template: str) -> tuple[int, list[str]]:
    """(k, table): axes k.. are the trailing axes with at most BLOCK_POINTS
    points, and table holds the texts of their points in sorted order,
    each filled into the template's slots past the k-th (one %d per
    axis, no other conversion), made by adding an axis's texts at a time.
    An axis of one value adds its one text to the texts of the axis
    before it, not to every text of the table."""
    k, table, texts = box.split(domain.BLOCK_POINTS)[0], [""], [""]

    def joined() -> list[str]:  # every text of the table followed by every one of texts
        return list(map(add, chain.from_iterable(map(repeat, table, repeat(len(texts)))),
                        texts * len(table)))
    for r, piece in zip(box.ranges[k:], template.split("%d")[k + 1:]):
        if len(r) == 1:
            texts = list(map(add, texts, repeat(str(r[0]) + piece)))
        else:
            table, texts = joined(), list(map(add, map(str, r), repeat(piece)))
    return k, joined()


def _point_texts(points: Box | SortedPoints, template: str, sep: str) -> tuple[
        int, Callable[[], Iterator[list[str]]], Callable[[int, Sequence[int]], str]]:
    """(chunk, texts, join) for the points, each filling the template (one
    %d per axis, no other conversion): texts() gives the points' texts in
    sorted order, in lists; join(q, offsets) joins by sep the texts at
    ascending offsets (at least one) in chunk q of the sorted indices, cut
    every `chunk`.

    A points list, or a box with one tail text (T = 1), has no table of
    texts: it is one chunk, so offsets are sorted indices, and each point
    fills the template, read through points.at a range of BLOCK_POINTS at
    a time.

    Any other box takes T tail texts from _tail_table: a chunk and a list
    are BLOCK_POINTS // T heads, index i having head i // T, so offset o
    has the tail chunk_table[o]; texts adds each head's text to every
    tail. join writes a head's offsets as H + (sep + H).join(their tails),
    H the head's text, but offsets under RUN_MEMBERS a head as each one's
    head text and tail. Head texts come from a table of every head's (93
    bytes a head for a 4-axis JSON template) when there are at most
    BLOCK_POINTS heads, else by decode."""
    k, table = _tail_table(points, template) if type(points) is Box else (0, [""])
    t = len(table)
    if t == 1:
        indices, fill = range(len(points)), template.__mod__
        return (max(len(points), 1),
                lambda: (list(map(fill, points.at(indices[i:i + domain.BLOCK_POINTS])))
                         for i in indices[::domain.BLOCK_POINTS]),
                lambda q, offsets: sep.join(map(fill, points.at(offsets))))
    per, heads = domain.BLOCK_POINTS // t, len(points) // t  # heads a chunk, and in all
    chunk_table = table * per
    head = "%d".join(template.split("%d")[:k + 1])
    leading = Box(points.lo[:k], points.hi[:k])

    # at most BLOCK_POINTS head texts, as the tail table holds at most as many tails
    every = list(map(head.__mod__, leading.at(range(heads)))) if (
        heads <= domain.BLOCK_POINTS) else None

    def heads_of(q: int, first: int = 0, last: int = per - 1) -> range:
        return range(q * per + first, min(q * per + last + 1, heads))

    def head_texts(these: Sequence[int]) -> list[str]:
        return list(map(every.__getitem__, these) if every else map(
            head.__mod__, leading.at(these)))

    def texts() -> Iterator[list[str]]:
        for q in range(-(-heads // per)):
            yield list(map(add, chain.from_iterable(map(
                repeat, head_texts(heads_of(q)), repeat(t))), chunk_table))

    def join(q: int, offsets: Sequence[int]) -> str:
        first, last = offsets[0] // t, offsets[-1] // t
        tails = gather(offsets)(chunk_table)
        if len(offsets) < RUN_MEMBERS * (last - first + 1):
            return sep.join(map(add, head_texts(list(map(
                add, map(floordiv, offsets, repeat(t)), repeat(q * per)))), tails))
        if first == last:
            h = head_texts(heads_of(q, first, first))[0]
            return h + (sep + h).join(tails)
        # the run of head h ends before the first offset of h + 1
        runs = [*map(bisect_left, repeat(offsets), range((first + 1) * t, (last + 1) * t, t)),
                len(offsets)]
        return sep.join([h + (sep + h).join(tails[a:b]) for h, a, b in zip(
            head_texts(heads_of(q, first, last)), [0, *runs], runs) if a < b])
    return per * t, texts, join


def _grouped(stage2: Stage2, chunk: int) -> tuple[list[array], dict[int, array]]:
    """(members, later) for the sorted indices cut into chunks of `chunk`:
    members[c] holds class c's offsets in their chunks, in order. Its
    first chunk holds its label; later[c] holds each other chunk that
    holds it, its number and where its offsets start. The offsets of one
    chunk are the sorted indices, 4 bytes each, from one C-level pass;
    else a pass a chunk (at most 2^16 points) copies each point's 2-byte
    offset into its class, and one marks the classes it holds that began
    earlier, since those that begin in it are a range."""
    class_of, label_at = stage2.class_of, stage2.label_at
    if chunk >= len(class_of):
        members = [array("I") for _ in label_at]
        deque(map(array.append, map(members.__getitem__, class_of), range(len(class_of))),
              maxlen=0)
        return members, {}
    members = [array("H") for _ in label_at]
    later: dict[int, array] = defaultdict(partial(array, "I"))
    # offsets as their 2 bytes: array.frombytes copies, array.append parses
    offsets = list(map(int.to_bytes, range(chunk), repeat(2), repeat(sys.byteorder)))
    new = 0  # the first class with no point before this chunk
    for q, start in enumerate(range(0, len(class_of), chunk)):
        classes, end = class_of[start:start + chunk], bisect_left(label_at, start + chunk, new)
        if new:
            old = set(classes)
            old.difference_update(range(new, end))
            deque(map(array.extend, map(later.__getitem__, old),
                      zip(repeat(q), map(len, map(members.__getitem__, old)))), maxlen=0)
        deque(map(array.frombytes, gather(classes)(members), offsets), maxlen=0)
        new = end
    return members, dict(later)


def _emit_error(code: str, message: str, **extra) -> None:
    obj = {"error": code, "message": message}
    obj.update(extra)
    print(json.dumps(obj), file=sys.stderr)


def run(args: SimpleNamespace) -> int:
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
            if sys.stdout is None:  # the process started with fd 1 closed
                raise OSError("no standard output to write to")
            sys.stdout.flush()  # text already printed goes first
        with open(args.output or sys.stdout.fileno(), "wb", buffering=1 << 16,
                  closefd=bool(args.output)) as out:
            out.writelines(map(str.encode, pieces))
        if args.oracle_check:
            from .check import first_failure

            failed = first_failure(stage1, stage2, args.closure_cap)
            if failed:
                _emit_error("OracleMismatch", "%s: %s" % failed, check=failed[0])
                return 3
    except IsorbitError as e:
        _emit_error(e.code, str(e))
        return 1
    except OSError as e:
        _emit_error("IOError", str(e))
        return 1
    except MemoryError:
        pass  # reported below, once the frames the error holds are freed
    else:
        return 0
    _emit_error("OutOfMemory", "the run ran out of memory")
    return 1


def _file(value: str) -> str:
    if not value:
        raise ValueError("expected a file name, got ''")
    return value


def _cap(value: str) -> int:
    """A cap: ASCII [0-9]+, at least 1; int() alone would take " +5", "1_0"
    and other digits."""
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"expected a positive integer, got {value!r}")
    number = int(value)
    if number < 1:
        raise ValueError(f"must be positive, got {number}")
    return number


def _format(value: str) -> str:
    if value not in ("json", "tsv"):
        raise ValueError(f"invalid choice: {value!r} (choose from 'json', 'tsv')")
    return value


# option: (metavar, default, reader of its value, help); a flag has no
# metavar and no reader. --domain and --box are the domain: exactly one.
OPTIONS = {
    "--gens": ("FILE", None, _file, "generator file (JSON), required"),
    "--domain": ("FILE", None, _file, "domain file (JSON)"),
    "--box": ("SPEC", None, str, 'inline box, one lo..hi per axis, e.g. "0..1,0..1"'),
    "--output": ("FILE", None, _file, "output path (default: stdout)"),
    "--format": ("{json,tsv}", "json", _format, "output format"),
    "--oracle-check": (None, False, None, "check the finished run exactly, exit 3 if it fails"),
    "--max-dimension": ("N", DEFAULT_MAX_DIMENSION, _cap, "cap on the axes permutations move"),
    "--closure-cap": ("N", DEFAULT_CLOSURE_CAP, _cap, "cap on the cell points the merge adds"),
    "--box-cap": ("N", DEFAULT_BOX_CAP, _cap, "point-count cap for boxes"),
}

USAGE = """\
usage: isorbit [-h] --gens FILE (--domain FILE | --box SPEC) [--output FILE]
               [--format {json,tsv}] [--oracle-check] [--max-dimension N]
               [--closure-cap N] [--box-cap N]
"""


def _help() -> str:
    lines = [f"  {'-h, --help':<21} show this help and exit"]
    for name, (meta, default, _read, text) in OPTIONS.items():
        flag = f"{name} {meta}" if meta else name
        lines.append(f"  {flag:<21} {text}" + (f" (default: {default})" if default else ""))
    return (USAGE + "\nCompute the orbit partition of a finite set of lattice points "
            "under the\nsubgroup generated by atomic isometries.\n\noptions:\n"
            + "\n".join(lines) + "\n\nN is a positive integer in ASCII digits.\n")


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command line as a namespace with one attribute per option, named
    as the option without its dashes, "-" read as "_". An option takes its
    value from "=" or from the next argument, whatever that starts with, so
    --box -1..0,0..1 is a box; an unambiguous prefix names its option, and
    a repeated option keeps its last value. A bad command line is a
    ValueError; -h or --help prints the help and exits 0."""
    values = {name: default for name, (_meta, default, _read, _text) in OPTIONS.items()}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if arg == "-h" or (len(name) > 2 and "--help".startswith(name) and not eq):
            sys.stdout.write(_help())
            raise SystemExit(0)
        if name in OPTIONS:
            matches = [name]
        elif len(name) > 2 and name.startswith("--"):
            matches = [option for option in OPTIONS if option.startswith(name)]
        else:
            matches = []
        if not matches:
            raise ValueError(f"unrecognized argument: {arg}")
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
        option = matches[0]
        _meta, _default, read, _text = OPTIONS[option]
        if read is None:
            if eq:
                raise ValueError(f"argument {option}: ignored explicit argument {value!r}")
            values[option] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None:
                raise ValueError(f"argument {option}: expected one argument")
        try:
            values[option] = read(value)
        except ValueError as e:
            raise ValueError(f"argument {option}: {e}") from None
    if values["--domain"] is not None and values["--box"] is not None:
        raise ValueError("argument --box: not allowed with argument --domain")
    if values["--gens"] is None:
        raise ValueError("the following arguments are required: --gens")
    if values["--domain"] is None and values["--box"] is None:
        raise ValueError("one of the arguments --domain --box is required")
    return SimpleNamespace(**{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv: Sequence[str] | None = None) -> int:
    """Parse the command line and run it with the cyclic collector off; the
    collector's state is restored on the way out. A bad command line exits
    2, with the usage and the error on stderr.

    Every call, whatever its exit, leaves gc.freeze registered once as an
    exit handler, so the shutdown collections of the process skip the
    objects alive at its exit (see the module docstring)."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as e:
        sys.stderr.write(f"{USAGE}isorbit: error: {e}\n")
        raise SystemExit(2) from None
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
