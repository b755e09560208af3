"""Span tracing of spin5 from outside the program.

The tracer wraps the public functions named in TARGETS.  A wrapper is
installed in every spin5 module namespace that binds the function (for
example both spin5.quaternionic.adapted_triple and the copy that
spin5.torsion imported), so nested calls record their parent span.
Spans stay in memory as flat integer arrays and are written out once, at
the end, by dump().  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

#: Layer (spin5 module) -> functions whose spans are recorded.
TARGETS = {
    "numerics": ("kernel_basis", "row_space_basis", "numerical_rank",
                 "solve_columns", "canonical_complex_basis",
                 "orthonormalize_rows"),
    "clifford": ("vector_matrix", "two_form_gamma_products",
                 "two_form_matrix_rep", "form_action"),
    "frames": ("reeb_vector", "distribution_basis", "build_frame"),
    "su2": ("is_admissible", "admissible_space", "space_of_spinor",
            "annihilator", "so5_splitting"),
    "quaternionic": ("charge_conjugation", "adapted_triple",
                     "complex_structure", "triple_on_distribution"),
    "spingroup": ("act_on_space", "stabilizer_algebra", "adjoint_matrix"),
    "torsion": ("decompose", "omega_decompose", "intrinsic_torsion",
                "rotate_spinor_datum"),
    "jsonio": ("load_payload", "dumps"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items()
                   for fn in fns)


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self) -> None:
        self.name_id = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.names = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(nid)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()

        return traced

    def install(self) -> int:
        """Wrap every target of every imported spin5 module; returns count."""
        spin5_modules = [m for key, m in list(sys.modules.items())
                         if m is not None and (key == "spin5"
                                               or key.startswith("spin5."))]
        installed = 0
        for mod, fns in TARGETS.items():
            home = sys.modules.get(f"spin5.{mod}")
            if home is None:
                continue
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in spin5_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            installed += 1
        return installed

    def __len__(self) -> int:
        return len(self.starts)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns), over all recorded spans."""
        n = len(self.starts)
        child = [0] * n
        durations = [self.ends[k] - self.starts[k] for k in range(n)]
        for k in range(n):
            p = self.parents[k]
            if p >= 0:
                child[p] += durations[k]
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for k in range(n):
            calls[self.names[k]] += 1
            self_ns[self.names[k]] += durations[k] - child[k]
        return {name: (calls[i], self_ns[i])
                for i, name in enumerate(SPAN_NAMES)}

    def merge(self, data: dict, op: int) -> None:
        """Append spans dumped by another process, tagged with op."""
        offset = len(self.starts)
        for nid, parent, _, start, end in data["spans"]:
            self.names.append(nid)
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.ops.append(op)
            self.starts.append(start)
            self.ends.append(end)

    def dump(self, path) -> None:
        """Write every span; merge() reads this format back."""
        spans = [list(row) for row in zip(self.names, self.parents, self.ops,
                                          self.starts, self.ends)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(SPAN_NAMES),
                       "columns": ["name", "parent", "op", "start_ns",
                                   "end_ns"],
                       "spans": spans}, handle)
