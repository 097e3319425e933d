"""Per-layer spans for the traced run.

``Tracer.install`` replaces, for the duration of a traced call, each function a
module calls in the layer below it, under the name the calling module looks
it up by: ``slices.find_roots`` is patched in ``stable_slices.slices``, so
the span sees exactly the calls ``slices`` makes.  ``uninstall`` restores
every original.  Spans nest on a stack, so each span knows the time its
children took and a layer's self time is its duration minus theirs.  The
spans of one traced job wait in ``pending`` until ``commit`` adds them to
the totals, scaled to the reference speed of speed.py like the job times.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict


def _find_roots_span(args, kwargs) -> str:
    """find_roots spans are named by mode: raw probe, warm start or cold."""
    if kwargs.get("raw"):
        mode = "raw"
    else:
        mode = "warm" if kwargs.get("initial") is not None else "cold"
    return f"polynomials.find_roots.{mode}"


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds, failed]; spans go to
        # ``pending`` first and reach ``stats`` through ``commit``
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.pending = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts = Counter()
        self._stack: list[list] = []
        self._active = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn):
        """Wrap fn; name is a string or a function of (args, kwargs)."""
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if label == "polynomials.find_roots.raw" and tracer._active["slices.max_stable_step"]:
                tracer.counts["slices.max_stable_step.probes"] += 1
            frame = [label, 0.0]
            tracer._stack.append(frame)
            tracer._active[label] += 1
            failed = 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._active[label] -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                s = tracer.pending[label]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                s[3] += failed

        return traced

    def commit(self, factor: float) -> None:
        """Add the pending spans to the totals, their times multiplied by
        factor (the speed scaling of the job they belong to)."""
        for name, (calls, total, own, failed) in self.pending.items():
            s = self.stats[name]
            s[0] += calls
            s[1] += factor * total
            s[2] += factor * own
            s[3] += failed
        self.pending.clear()

    def _patch(self, owner, attr: str, name) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original))

    def install(self) -> None:
        mod = {m: importlib.import_module(f"stable_slices.{m}")
               for m in ("cli", "polynomials", "regions", "slices", "stability", "symmetric")}
        find_roots = _find_roots_span
        callees = {
            "cli": {"find_roots": find_roots,
                    "is_stable": "stability.is_stable",
                    "compress": "slices.compress",
                    "sample_slice_section": "slices.sample_slice_section",
                    "coincide": "symmetric.coincide",
                    "variety_search": "symmetric.variety_search",
                    "halfdeg_optimize": "symmetric.halfdeg_optimize"},
            "stability": {"find_roots": find_roots,
                          "cluster_roots": "polynomials.cluster_roots"},
            "polynomials": {"vieta_from_roots": "polynomials.vieta_from_roots"},
            "slices": {"find_roots": find_roots,
                       "cluster_roots": "polynomials.cluster_roots",
                       "vieta_from_roots": "slices.vieta_from_roots",
                       "is_stable": "stability.is_stable",
                       "upper_chart": "regions.upper_chart",
                       "kernel_direction": "slices.kernel_direction",
                       "max_stable_step": "slices.max_stable_step",
                       "_boundary_walk": "slices.boundary_walk",
                       "_fiber_correct_mixed": "slices.fiber_correct"},
            "symmetric": {"find_roots": find_roots,
                          "cluster_roots": "polynomials.cluster_roots",
                          "vieta_from_roots": "symmetric.vieta_from_roots",
                          "compress": "slices.compress"},
        }
        for module, table in callees.items():
            for attr, name in table.items():
                self._patch(mod[module], attr, name)
        for cls in (mod["symmetric"].SymmetricPoly, mod["symmetric"].SufficientForm):
            self._patch(cls, "eval_at_e", "symmetric.eval_at_e")
        # cli reaches validation through its module global ``jsonschema``
        real = mod["cli"].jsonschema
        self._saved.append((mod["cli"], "jsonschema", real))
        mod["cli"].jsonschema = types.SimpleNamespace(
            validate=self.span("cli.validate", real.validate),
            ValidationError=real.ValidationError)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def ms(self, name: str) -> float:
        return 1e3 * self.stats[name][1] if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        return 1e3 * self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def failed(self, name: str) -> int:
        return self.stats[name][3] if name in self.stats else 0

    def table(self) -> dict:
        return {name: {"calls": s[0], "ms": 1e3 * s[1], "self_ms": 1e3 * s[2], "failed": s[3]}
                for name, s in sorted(self.stats.items())}
