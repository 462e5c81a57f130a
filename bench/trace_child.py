"""One traced round: import the isorbit CLI in a fresh interpreter and run it
twice in process, once plain and once with every layer function wrapped.

Usage: python3 bench/trace_child.py REQUEST.json

REQUEST holds {"argv_traced", "argv_untraced", "traced_first", "result"}.
The wrappers replace the layer functions where ``isorbit.pipeline`` and
``isorbit.cli`` look them up, so no file under src/ changes. Each call
records a span (layer, start, end, parent) in memory; the spans, the start
and end of the import and of both runs, and the counts taken from the
layers' results are written to the result file at the end. All times are
raw time.perf_counter() stamps: the parent runs this process in calibrated
slices (clock.run_child) and converts them. A wrapped name the program no
longer has is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, layer, counts taken from the call's result)
WRAPPED = [
    ("isorbit.cli", "run", "cli.run", None),
    ("isorbit.cli", "parse_generators", "cli.parse", None),
    ("isorbit.cli", "parse_box_spec", "cli.parse", lambda r: {"points": len(r)}),
    ("isorbit.cli", "parse_domain", "cli.parse", lambda r: {"points": len(r)}),
    ("isorbit.cli", "run_stage1", "pipeline.stage1",
     lambda r: {"rotation.order": r.rotation_order, "lattice.rank": r.basis.m}),
    ("isorbit.pipeline", "generate_perm_group", "permgroup.closure",
     lambda r: {"permgroup.order": r.order}),
    ("isorbit.pipeline", "negation_basis_from_group", "gf2.basis",
     lambda r: {"gf2.dim": r.dim}),
    ("isorbit.pipeline", "negation_basis_from_generators", "gf2.basis",
     lambda r: {"gf2.dim": r.dim}),
    ("isorbit.pipeline", "enumerate_negations", "rotation.assemble", None),
    ("isorbit.pipeline", "assemble_rotation_group", "rotation.assemble", None),
    ("isorbit.pipeline", "translation_basis_from_group", "lattice.basis", None),
    ("isorbit.pipeline", "translation_basis_from_generators", "lattice.basis", None),
    ("isorbit.pipeline", "build_pseudoinverse", "quotient.pinv", None),
    ("isorbit.pipeline", "reduce_points", "quotient.reduce",
     lambda r: {"quotient.reps": len(r[0])}),
    ("isorbit.pipeline", "merge_classes_group", "labeling.merge", None),
    ("isorbit.pipeline", "merge_classes_generators", "labeling.merge", None),
    ("isorbit.pipeline", "finalize_labels", "labeling.finalize",
     lambda r: {"labeling.classes": len(r.classes)}),
    ("isorbit.cli", "render_json", "cli.render",
     lambda r: {"cli.output_bytes": len(r.encode("utf-8"))}),
    ("isorbit.cli", "render_tsv", "cli.render",
     lambda r: {"cli.output_bytes": len(r.encode("utf-8"))}),
]


class Tracer:
    """Spans as [layer, start, end, parent index], plus counts by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    self.counts.update(counter(result))
                except (AttributeError, TypeError, IndexError):
                    pass  # the layer changed shape; its count is reported absent
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every layer function that exists; return the absent names."""
        absent = []
        for mod_name, attr, layer, counter in WRAPPED:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(layer, fn, counter))
        return absent

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def main() -> int:
    # Time the import first, in an interpreter that has loaded only what it
    # loads at start-up (json, used below, is one of the CLI's imports).
    t0 = time.perf_counter()
    import isorbit.cli as cli
    imported = [t0, time.perf_counter()]
    import json

    with open(sys.argv[1], encoding="utf-8") as f:
        req = json.load(f)

    tracer = Tracer()
    absent: list[str] = []
    runs = []
    for traced in (True, False) if req["traced_first"] else (False, True):
        if traced:
            absent = tracer.install()
        t0 = time.perf_counter()
        status = cli.main(req["argv_traced"] if traced else req["argv_untraced"])
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        runs.append({"traced": traced, "status": status, "start": t0, "end": t1})

    with open(req["result"], "w", encoding="utf-8") as f:
        json.dump({"import": imported, "runs": runs, "spans": tracer.spans,
                   "counts": tracer.counts, "absent": absent}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
