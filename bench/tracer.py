"""Outside-in tracing of zstates from the benchmark's own files.

`Tracer.install()` rebinds each measured public function, in every loaded
`zstates.*` module that holds it, to a timing wrapper, so calls a module
makes to its own functions (blocks calling `block_sum`) are caught too.
Spans live in flat arrays: name, start, end, parent span, op id.  Counters
are taken at the same boundaries.  Nothing of this is loaded by an untraced
run.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

SWEEPS = ("sweep_vandermonde", "sweep_norms", "sweep_composition",
          "sweep_distillation", "sweep_bit_flip", "sweep_permutations",
          "sweep_selections")

# module -> functions that get a span each
SPANNED = {
    "blocks": ("block_sum", "split_register", "tensor", "project_registers",
               "merge_registers", "norm_sq", "z_state"),
    "dense": ("to_dense", "dense_project", "dense_z", "permute_qubits"),
    "distill": ("distill_step",),
    "protocol": ("execute_plan", "validate_plan"),
    "plandoc": ("parse_document", "document_to_plan"),
    "graph": ("plan_to_dot",),
    "cli": ("report_to_json", "report_to_text"),
    "verify": (*SWEEPS, "check_distillation_cell"),
}
# Called too often for a span each; only counted.
COUNTED = {"combinatorics": ("binom",)}
ROOT = "cli.main"


def _shape(block_sum_value):
    block = block_sum_value.terms[0][1].blocks[0]
    return block.excitations, block.register.width


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._shapes: set = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # --- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, qualname: str, fn, pre=None, post=None):
        nid = self._name_id(qualname)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                if pre is not None:
                    args = pre(args)
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if post is not None:
                post(args, result)
            return result

        return traced

    def _counted(self, qualname: str, fn):
        counts = self.counts
        key = qualname + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # --- counters taken at the boundaries -----------------------------------
    def _hooks(self, qualname: str):
        c = self.counts

        def block_sum_pre(args):
            pairs = list(args[0])
            c["blocks.block_sum.terms_in"] += len(pairs)
            return (pairs, *args[1:])

        def add(key, measure):
            def post(args, result):
                c[key] += measure(args, result)
            return post

        def distill_post(args, result):
            self._shapes.add((_shape(args[0]), _shape(args[1])))

        pre_post = {
            "blocks.block_sum": (block_sum_pre, add(
                "blocks.block_sum.terms_out", lambda a, r: len(r.terms))),
            "distill.distill_step": (None, distill_post),
            "protocol.execute_plan": (None, add(
                "protocol.execute_plan.cumulative_bits",
                lambda a, r: r.cumulative_success.denominator.bit_length())),
            "plandoc.parse_document": (None, add(
                "plandoc.parse_document.bytes", lambda a, r: len(a[0]))),
            "dense.to_dense": (None, add(
                "dense.to_dense.amplitudes", lambda a, r: len(r.amplitudes))),
            "dense.dense_project": (None, add(
                "dense.dense_project.amplitudes_in",
                lambda a, r: len(a[0].amplitudes))),
        }
        for sweep in SWEEPS:
            pre_post[f"verify.{sweep}"] = (None, add(
                f"verify.{sweep}.cells", lambda a, r: r.cells))
        return pre_post.get(qualname, (None, None))

    # --- installation --------------------------------------------------------
    def _patch_list(self) -> list[tuple[object, str, object, object]]:
        modules = [m for name, m in sys.modules.items()
                   if name == "zstates" or name.startswith("zstates.")]
        patches = []
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod_name, functions in table.items():
                home = sys.modules[f"zstates.{mod_name}"]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    qualname = f"{mod_name}.{fn_name}"
                    if spanned:
                        wrapper = self._wrap(qualname, original, *self._hooks(qualname))
                    else:
                        wrapper = self._counted(qualname, original)
                    patches += [(mod, fn_name, original, wrapper) for mod in modules
                                if getattr(mod, fn_name, None) is original]
        return patches

    def install(self) -> None:
        """Rebind every measured function wherever a loaded zstates module holds it."""
        self._patches = self._patch_list()
        for mod, fn_name, _, wrapper in self._patches:
            setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original, _ in self._patches:
            setattr(mod, fn_name, original)

    def call_op(self, op_id: int, fn, *args):
        """Run one op under a root span; distinct distill shapes are per op."""
        self._op_id = op_id
        self._shapes = set()
        idx = self._open(self._name_id(ROOT))
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter())
            self.counts["distill.distill_step.distinct_shapes"] += len(self._shapes)

    # --- results -------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """calls, inclusive seconds `s` and `self_s` per span name, plus counters."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + duration[i]
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + duration[i] - child[i])
        out.update(self.counts)
        return out

    def write(self, stem: Path) -> None:
        """Spans as raw columns in native byte order, plus a JSON header naming them."""
        columns = {"name": self.name, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end}
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        header = {"spans": len(self.start), "names": self.names,
                  "columns": [[key, col.typecode, col.itemsize]
                              for key, col in columns.items()],
                  "byteorder": sys.byteorder}
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
