"""Per-layer spans recorded from outside the program.

Tracing rebinds module attributes at run time: each wrapped public function
is replaced in every scdebug module that holds it, because the modules
import each other's names with ``from ... import`` and call them through
their own globals.  A span is (name, start ns, end ns, parent span index,
op id, raised); spans stay in memory until the end of the pass, when the
worker writes them out as JSON lines prefixed with the pass number.  The
program has one thread and no queue or lock, so no layer waits: self time
is the whole per-layer cost.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPANNED = {
    "scdebug.cli": ("main",),
    "scdebug.dsl": ("parse_domain_theory", "parse_sd", "parse_sc", "print_sc"),
    "scdebug.annotator": ("annotate", "initialize_vectors", "frame_propagate",
                          "identification_candidates", "detect_conflicts"),
    "scdebug.synthesizer": ("synthesize", "synth_object_chart", "merge_charts",
                            "introduce_hierarchy", "to_statechart", "flatten"),
    "scdebug.checker": ("check_all", "repair", "replay", "insert_candidates"),
    "scdebug.report": ("render_text", "render_json", "export_dot"),
}
# Counted only: a span around these costs more than the call itself.
COUNTED = {
    "scdebug.model": ("unify", "apply_edit"),
    "scdebug.annotator": ("apply_identification",),
}


def _layer(module: str, name: str) -> str:
    return f"{module.split('.')[-1]}.{name}"


def _chart_size(chart) -> tuple[int, int]:
    states = composites = 0
    for node in chart.nodes:
        if node.children is None:
            states += 1
        else:
            s, c = _chart_size(node.children)
            states, composites = states + s, composites + c + 1
    return states, composites


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._undo: list = []

    def _spanned(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op, False])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if name == "dsl.parse_sd":
                counts["dsl.parse_sd.msgs"] += len(result.messages)
            elif name == "checker.replay":
                counts["checker.replay.accepted"] += result.accepted
            elif name == "checker.insert_candidates":
                counts["checker.insert_candidates.items"] += len(result)
            elif name == "synthesizer.introduce_hierarchy":
                s, c = _chart_size(result)
                counts["synthesizer.states"] += s
                counts["synthesizer.composites"] += c
            return result

        return wrapper

    def _counted(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n == "scdebug" or n.startswith("scdebug.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, names in table.items():
                for name in names:
                    original = getattr(sys.modules[module], name)
                    wrapped = make(_layer(module, name), original)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict:
        """Self time and call count per span name, plus the derived counts."""
        self_ns, calls = Counter(), Counter()
        replay_children = Counter()
        for name, start, end, parent, _, _ in self.spans:
            dur = end - start
            self_ns[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= dur
                if name == "checker.replay":
                    replay_children[parent] += 1
        # A leaf of the repair search is one replay; a repair that gives up
        # replays once more to report where the diagram was rejected.
        leaves = sum(n - self.spans[p][5] for p, n in replay_children.items()
                     if self.spans[p][0] == "checker.repair")
        out = {f"{name}.self_s": ns / 1e9 for name, ns in self_ns.items()}
        out.update({f"{name}.calls": float(n) for name, n in calls.items()})
        out.update({name: float(n) for name, n in self.counts.items()})
        out["checker.repair.leaves"] = float(leaves)
        return out
