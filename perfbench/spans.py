"""Per-layer tracing by wrapping the calls that cross placto's modules.

`Tracer.install()` replaces each target function with a timing wrapper in
every placto module that holds a binding to it (a name imported with
`from .x import f` is a separate binding from `x.f`), plus the two methods
patched on their classes.  `Tracer.restore()` puts every original back.

Spans are aggregated in memory by (name, parent name), because the hottest
targets run millions of times per job.  Each record holds
[calls, total seconds, self seconds, items, largest item count], where self
time is the span's duration minus the time covered by its child spans, and
items come from an optional size function applied to the result.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT = "cli.main"


def _terms(poly) -> int:
    return len(poly.terms)


# (span name, module, attribute, size function); a dotted attribute names a
# method patched on its class.  Several targets may share one span name.
TARGETS = (
    ("verify.verify_axioms", "placto.verify", "verify_axioms", None),
    ("verify.restriction_surprise", "placto.verify", "restriction_surprise", None),
    ("verify.partition_degree", "placto.verify", "_partition_degree", None),
    ("verify.section5", "placto.verify", "verify_section5", None),
    ("verify.cases_tables", "placto.verify", "verify_case_analysis", None),
    ("verify.cases_tables", "placto.verify", "verify_tables", None),
    ("rewrite.canonical_word", "placto.rewrite", "canonical_word", None),
    ("rewrite.canonical_bytes", "placto.rewrite", "canonical_bytes", None),
    ("rewrite.closure_bytes", "placto.rewrite", "closure_bytes", None),
    ("rewrite.equiv_class", "placto.rewrite", "equiv_class", None),
    ("rewrite.class_dump", "placto.rewrite", "class_dump", None),
    ("kernels.closure", "placto._kernels", "closure", len),
    ("words.OrderedMorphism.mapping", "placto.words", "OrderedMorphism.mapping", None),
    ("words.content", "placto.words", "content", None),
    ("algebra.NcPoly.monomials_of_content", "placto.algebra", "NcPoly.monomials_of_content", None),
    ("algebra.nc_mul", "placto.algebra", "nc_mul", _terms),
    ("algebra.project_quotient", "placto.algebra", "project_quotient", None),
    ("algebra.lr_expand", "placto.algebra", "lr_expand", None),
    ("algebra.free_schur", "placto.algebra", "free_schur", None),
    ("algebra.shifted_free_schur", "placto.algebra", "shifted_free_schur", None),
    ("tableaux.enumerate", "placto.tableaux", "enumerate_ssyt", None),
    ("tableaux.enumerate", "placto.tableaux", "enumerate_hook", None),
    ("tableaux.insert", "placto.tableaux", "p_tableau", None),
    ("tableaux.insert", "placto.tableaux", "mixed_insert_word", None),
    ("tableaux.hook_factorization_check", "placto.tableaux", "hook_factorization_check", None),
)


def placto_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "placto" or name.startswith("placto."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = [["", 0.0]]  # frames: [span name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        """Return `fn` wrapped in a span called `name`."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                record = stats.get(key)
                if record is None:
                    record = stats[key] = [0, 0.0, 0.0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if size is not None:
                items = size(result)
                record[3] += items
                if items > record[4]:
                    record[4] = items
            return result

        return span

    def install(self) -> list[str]:
        """Wrap every binding of every target in the loaded placto modules.

        Returns the targets that no longer exist, whose spans stay empty.
        """
        modules = placto_modules()
        missing = []
        for name, module_name, attr, size in TARGETS:
            owner_name, _, method = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or method not in vars(owner):
                missing.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[method]
            if owner_name:
                self._patch(owner, method, self.wrap(name, original, size))
                continue
            wrapped = self.wrap(name, original, size)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapped)
        return missing

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def records(self) -> list[list]:
        """JSON-ready [name, parent, calls, total_s, self_s, items, max_items] rows."""
        return [[name, parent, *record] for (name, parent), record in sorted(self.stats.items())]
