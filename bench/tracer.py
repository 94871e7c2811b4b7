"""Spans around the public functions of bettibounds, recorded from outside.

``Tracer.install()`` replaces each function listed in ``WRAPPED`` by a
wrapper in every ``bettibounds`` module that holds a reference to it, so
calls between modules are seen too.  Each call becomes one span
``[name, start, end, parent, extra]`` in an in-memory list; ``extra`` is a
size read off the arguments or the result (basis length, matrix entries,
closure size, accepted draws).  ``uninstall()`` puts the originals back.
Private helpers are not wrapped, so counts that only exist inside private
loops (pairs pruned, zero reductions) are out of reach here.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

CHECKS = (
    "thm_lc", "thm_prime", "coroll_reg", "coroll_pd_reg", "thm_syz", "coroll_syz_reg",
    "thm_jason", "lemma_reduction", "remark_deg", "semicontinuity_and_taylor", "mccullough",
)


def _matrix_entries(args, kwargs, out):
    A = args[0]
    shape = getattr(A, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else int(A.size)
    return len(A) * (len(A[0]) if len(A) else 0)


WRAPPED = {
    "groebner": {
        "groebner_basis": lambda a, k, out: len(out),
        "reduced_gb": None,
        "s_polynomial": None,
        "truncated_initial_generators": None,
        "form_regularity_with_image": None,
        "substitute_linear_form": None,
    },
    "invariants": {
        "generic_section": lambda a, k, out: len(out.forms),
        "find_regular_form": lambda a, k, out: int(out is not None),
        "invariant_bundle": None,
    },
    "resolution": {
        "koszul_betti": None,
        "monomial_betti": None,
    },
    "monomials": {
        "lcm_closure": lambda a, k, out: len(out),
        "hilbert_numerator": None,
    },
    "linalg": {
        "rank_mod_p": _matrix_entries,
    },
    "verifier": dict(
        {"generate_instance": None, "run_all_checks": None, "run_corpus": None},
        **{f"check_{name}": None for name in CHECKS},
    ),
    "ideal_io": {
        "parse_ideal": None,
    },
    "cli": {
        "main": None,
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if extra is not None:
                spans[idx][4] = extra(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        homes = {name: importlib.import_module(f"bettibounds.{name}") for name in WRAPPED}
        mods = [m for key, m in sys.modules.items() if key == "bettibounds" or key.startswith("bettibounds.")]
        for modname, funcs in WRAPPED.items():
            mod = homes[modname]
            for fname, extra in funcs.items():
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig, extra)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-layer figures from the spans
# ---------------------------------------------------------------------------

class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time = [0.0] * len(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            self.by_name[name].append(idx)
            if parent >= 0:
                self.child_time[parent] += end - start
                self.children[parent].append(idx)

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total_extra(self, name: str) -> int:
        return sum(self.spans[i][4] or 0 for i in self.by_name[name])

    def has_ancestor(self, idx: int, names: set[str]) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def inclusive(self, name: str) -> float:
        """Time inside ``name``, counting nested calls of ``name`` once."""
        return sum((self.spans[i][2] - self.spans[i][1] for i in self.by_name[name]
                    if not self.has_ancestor(i, {name})), 0.0)

    def self_time(self, name: str) -> float:
        """Time inside ``name`` minus the time of the spans it called."""
        return sum((self.spans[i][2] - self.spans[i][1] - self.child_time[i] for i in self.by_name[name]), 0.0)

    def summary(self) -> dict:
        out = {}
        for name, idxs in sorted(self.by_name.items()):
            out[name] = {"calls": len(idxs), "inclusive_s": self.inclusive(name), "self_s": self.self_time(name)}
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json.  A layer that does not
    run in a workload reports 0, ratios included."""
    ix = SpanIndex(spans)
    gb = "groebner.groebner_basis"
    bases = ix.count(gb)
    elements = ix.total_extra(gb)
    spairs = sum(1 for i in ix.by_name["groebner.s_polynomial"] if ix.has_ancestor(i, {gb}))
    rgb = ix.by_name["groebner.reduced_gb"]
    hits = sum(1 for i in rgb if not any(ix.spans[c][0] == gb for c in ix.children[i]))
    draw_roots = {"invariants.generic_section", "invariants.find_regular_form"}
    draws = sum(1 for i in ix.by_name["groebner.form_regularity_with_image"] if ix.has_ancestor(i, draw_roots))
    accepted = ix.total_extra("invariants.generic_section") + ix.total_extra("invariants.find_regular_form")
    entries = ix.total_extra("linalg.rank_mod_p")
    m = {
        "groebner.bases": bases,
        "groebner.basis_s": ix.inclusive(gb),
        "groebner.basis_elements": elements,
        "groebner.spairs": spairs,
        "groebner.spairs_per_element": _ratio(spairs, elements),
        "groebner.cache_hit_ratio": _ratio(hits, len(rgb)),
        "groebner.truncated_calls": ix.count("groebner.truncated_initial_generators"),
        "groebner.truncated_s": ix.inclusive("groebner.truncated_initial_generators"),
        "groebner.certificates": ix.count("groebner.form_regularity_with_image"),
        "groebner.certificate_s": ix.inclusive("groebner.form_regularity_with_image"),
        "groebner.substitutions": ix.count("groebner.substitute_linear_form"),
        "invariants.section_s": ix.inclusive("invariants.generic_section"),
        "invariants.regular_form_s": ix.inclusive("invariants.find_regular_form"),
        "invariants.draws": draws,
        "invariants.draw_accept_ratio": _ratio(accepted, draws),
        "resolution.koszul_calls": ix.count("resolution.koszul_betti"),
        "resolution.koszul_s": ix.self_time("resolution.koszul_betti"),
        "resolution.strands_calls": ix.count("resolution.monomial_betti"),
        "resolution.strands_s": ix.self_time("resolution.monomial_betti"),
        "monomials.lcm_closure_size": ix.total_extra("monomials.lcm_closure"),
        "monomials.lcm_closure_s": ix.inclusive("monomials.lcm_closure"),
        "monomials.hilbert_calls": ix.count("monomials.hilbert_numerator"),
        "monomials.hilbert_s": ix.inclusive("monomials.hilbert_numerator"),
        "linalg.rank_calls": ix.count("linalg.rank_mod_p"),
        "linalg.rank_s": ix.inclusive("linalg.rank_mod_p"),
        "linalg.rank_entries": entries,
        "linalg.rank_bytes_computed": entries * 8,
        "verifier.generate_s": ix.inclusive("verifier.generate_instance"),
    }
    for name in CHECKS:
        m[f"verifier.{name}_s"] = ix.inclusive(f"verifier.check_{name}")
    m["ideal_io.parse_s"] = ix.inclusive("ideal_io.parse_ideal")
    m["cli.main_s"] = ix.inclusive("cli.main")
    return m
