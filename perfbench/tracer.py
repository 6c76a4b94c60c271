"""Span tracer that wraps mu2sod's public functions from outside the package.

Each traced function is replaced, in every loaded ``mu2sod`` module that
binds it (``assemble`` lives in ``sod`` but is also bound in ``cli`` and
``verify``), by a wrapper that records one span: id, parent id, name,
start and end.  Spans stay in memory in flat arrays and are written when
the run ends; self time is a span's duration minus the time its child
spans cover.  One CLI invocation is one request: its spans share the id
of its ``cli.main`` root span.

A function that no longer exists is skipped and listed in ``skipped``,
and one whose arguments or result no longer fit its counter is listed in
``skipped_counts``, rather than failing the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from functools import update_wrapper
from time import perf_counter

# Traced functions, grouped by the workload whose wall_s each group should
# move (the table in README.md).
LAYERS = (
    # inertia-verify (most), a little gram-replay
    "inertia.burnside_average",
    "inertia.classify_piece",
    "inertia.components",
    "loci.fixed_pieces",
    "loci.refine_piece",
    "groups.projective_kernel",
    # gram-replay (most), a little inertia-verify
    "euler.euler_pairing",
    "euler.koszul",
    "euler.gram",
    "euler.character_normalization",
    "euler.canonical_generators",
    # gram-replay (and its peak_rss_mb)
    "mutations.pairing",
    "mutations.mutate_left",
    "mutations.mutate_right",
    "mutations.blocks_orthogonal",
    "mutations.move_block",
    "mutations.is_semiorthogonal",
    "mutations.is_unimodular",
    "sod.msodc_plan",
    # inertia-verify only
    "verify.burnside_double_sum",
    "loci.fixed_pieces_subgroup",
    "loci.sectors",
    # every workload
    "sod.assemble",
    "sod.report_to_dict",
    "cli.main",
)

# Exact counts taken from the traced calls' arguments and results, each with its base.
# The other counts (pairings, elementary mutations) are derived from calls in ``summary``.
COUNTS = (
    "inertia.components.count",  # components returned by inertia.components
    "inertia.burnside_evals",  # burnside_average calls x |G|
    "euler.koszul_terms",  # terms returned by koszul
    "sod.moves",  # moves in msodc_plan results
    "sod.moves_orthogonal",  # of those, moves flagged orthogonal
)


def _count_components(counts, args, result):
    counts["inertia.components.count"] += len(result)


def _count_burnside(counts, args, result):
    counts["inertia.burnside_evals"] += 1 << args[0].rank


def _count_koszul(counts, args, result):
    counts["euler.koszul_terms"] += len(result)


def _count_plan(counts, args, result):
    counts["sod.moves"] += len(result.moves)
    counts["sod.moves_orthogonal"] += sum(m.orthogonal is True for m in result.moves)


HOOKS = {
    "inertia.components": _count_components,
    "inertia.burnside_average": _count_burnside,
    "euler.koszul": _count_koszul,
    "sod.msodc_plan": _count_plan,
}


class Tracer:
    """Installs span-recording wrappers on the functions in ``LAYERS``."""

    def __init__(self):
        self.names = list(LAYERS)
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.skipped: list[str] = []
        self.skipped_counts: set[str] = set()  # functions whose arguments or result no longer fit their counter
        self._stack = [-1]
        self._patches = []  # (namespace, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mu2sod" or n.startswith("mu2sod.")]
        for idx, name in enumerate(self.names):
            module, func = name.split(".")
            original = getattr(sys.modules.get(f"mu2sod.{module}"), func, None)
            if not callable(original):
                self.skipped.append(name)
                continue
            wrapper = self._wrap(idx, original, HOOKS.get(name))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, idx, fn, hook):
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, errors, counts = self._stack, self.errors, self.counts
        skipped_counts, names_list = self.skipped_counts, self.names

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(idx)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    skipped_counts.add(names_list[idx])
            return result

        return update_wrapper(traced, fn)

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def mark(self) -> tuple[int, list[int], dict]:
        """Position to pass to ``summary`` for the spans recorded after it."""
        return len(self.start), list(self.errors), dict(self.counts)

    def summary(self, mark) -> dict:
        """Calls, self time and errors per function, and the exact counts,
        for the spans recorded since ``mark``."""
        lo, errors0, counts0 = mark
        hi = len(self.start)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        covered = [0.0] * (hi - lo)
        for sid in range(lo, hi):
            p = parent[sid]
            if p >= lo:
                covered[p - lo] += end[sid] - start[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(lo, hi):
            calls[names[sid]] += 1
            self_s[names[sid]] += end[sid] - start[sid] - covered[sid - lo]
        # Parents start before their children, so one forward pass marks
        # every span that runs inside character_normalization.
        inside = bytearray(hi - lo)
        normalization = self.names.index("euler.character_normalization")
        pairing = self.names.index("euler.euler_pairing")
        normalization_pairings = 0
        for sid in range(lo, hi):
            p = parent[sid]
            if p >= lo and (inside[p - lo] or names[p] == normalization):
                inside[sid - lo] = 1
                normalization_pairings += names[sid] == pairing
        functions = {
            name: {"calls": calls[i], "self_s": self_s[i], "errors": self.errors[i] - errors0[i]}
            for i, name in enumerate(self.names)
        }
        counts = {key: self.counts[key] - counts0[key] for key in COUNTS}
        counts["euler.pairings"] = functions["euler.euler_pairing"]["calls"]
        counts["euler.normalization_pairings"] = normalization_pairings
        counts["mutations.elementary"] = (
            functions["mutations.mutate_left"]["calls"] + functions["mutations.mutate_right"]["calls"]
        )
        counts["mutations.pairings"] = functions["mutations.pairing"]["calls"]
        return {"functions": functions, "counts": counts}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: id, request id, parent, name, start, end."""
        root = array("q", bytes(8 * len(self.start)))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid in range(len(self.start)):
                p = self.parent[sid]
                root[sid] = sid if p < 0 else root[p]
                name = self.names[self.name[sid]]
                fh.write(f'[{sid},{root[sid]},{p},"{name}",{self.start[sid]!r},{self.end[sid]!r}]\n')
