"""Per-layer tracing by wrapping routesmith module attributes at run time.

The package is never edited: a ``Tracer`` replaces functions and methods on
the routesmith modules with timing wrappers while it is installed, and puts
the originals back on exit. Only call sites that look the name up on the
module or class at call time are seen, which is how ``lns.run``, the
evaluator and the discovery loop reach the layers timed here.

Each wrapper records (start_ns, duration_ns) per call; optional hooks see
the arguments before the call and the result after it, outside the timed
interval, so they can stash what a metric needs without being counted as
the layer's own time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns


def quantile(values, q: float) -> float:
    """The order statistic nearest to ``q`` (no interpolation); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[k])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Installs timing wrappers; use as a context manager."""

    def __init__(self):
        self.spans: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.records: dict[str, list] = defaultdict(list)  # what hooks keep for later
        self.missing: list[str] = []
        self._plan: list[tuple] = []
        self._undo: list[tuple] = []

    def _hook_failed(self, name: str, exc: Exception) -> None:
        # a hook that no longer fits the program must not change its run
        if name not in self.missing:
            self.missing.append(name)
            print(f"trace: hook for {name} failed ({exc!r}); metrics it feeds are incomplete",
                  file=sys.stderr)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time calls to ``owner.attr`` under ``name``.

        ``before(args, kwargs)`` runs ahead of the timed call and its return
        value is handed to ``after(state, args, kwargs, result, error)``,
        which runs once the call has returned or raised.
        """
        self._plan.append((owner, attr, name, before, after))

    def __enter__(self):
        for owner, attr, name, before, after in self._plan:
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                self.missing.append(name)
                print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrapper(name, orig, before, after))
            self._undo.append((owner, attr, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _wrapper(self, name, orig, before, after):
        spans = self.spans[name]

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                try:
                    state = before(args, kwargs)
                except Exception as exc:
                    self._hook_failed(name, exc)
            error = None
            result = None
            t0 = perf_ns()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans.append((t0, perf_ns() - t0))
                if after is not None:
                    try:
                        after(state, args, kwargs, result, error)
                    except Exception as exc:
                        self._hook_failed(name, exc)

        traced.__wrapped__ = orig
        return traced

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def total_ns(self, name: str, lo: int | None = None, hi: int | None = None) -> int:
        """Summed duration of calls that started inside [lo, hi)."""
        return sum(
            d for t, d in self.spans.get(name, ())
            if (lo is None or t >= lo) and (hi is None or t < hi)
        )

    def durations_s(self, name: str) -> list[float]:
        return [d / 1e9 for _, d in self.spans.get(name, ())]

    def mean_us(self, name: str) -> float:
        spans = self.spans.get(name, ())
        return sum(d for _, d in spans) / len(spans) / 1e3 if spans else 0.0
