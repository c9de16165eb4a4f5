"""Spans around the program's public functions, installed from outside it.

``Tracer.install`` rebinds each traced function in every ``qbell`` module
that holds a reference to it, so calls between the program's own modules
are seen too (``maximize_bell`` calling ``bell_number``, ``channels`` calling
``validate``). For a class, its ``__init__`` is wrapped instead, so
``isinstance`` checks keep working. A traced name that the program no longer
defines is skipped and simply yields no metrics.

Spans are kept in memory per operation with their parent span, and folded
into per-function totals when the operation ends: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, public name) pairs traced at each layer boundary.
TARGETS = (
    ("density", "validate"),
    ("channels", "block_trace_first"),
    ("channels", "block_trace_second"),
    ("entropy", "check_subadditivity"),
    ("entropy", "von_neumann"),
    ("entropy", "relative_entropy"),
    ("tomography", "joint_tomogram"),
    ("tomography", "tomogram"),
    ("bell", "maximize_bell"),
    ("bell", "correlation_tensor"),
    ("bell", "bell_number"),
    ("appendix", "ObservableMatrix"),
    ("appendix", "rho_of_x"),
    ("appendix", "appendix_bell_value"),
    ("cli", "parse_matrix"),
    ("cli", "format_json"),
    ("cli", "main"),
)

# Functions whose self time is also reported as a share of operation time.
SHARE = (
    "density.validate",
    "entropy.von_neumann",
    "tomography.tomogram",
    "bell.maximize_bell",
    "appendix.appendix_bell_value",
    "cli.parse_matrix",
    "cli.format_json",
    "cli.main",
)

# Counts read from a traced function's return value: (metric suffix, reader).
RESULT_COUNTS = {
    "bell.maximize_bell": ("evaluations", lambda report: report.stats.evaluations),
}

OPERATION = "<operation>"


class Tracer:
    """Records spans while ``enabled``; inert (one flag test per call) otherwise."""

    def __init__(self, package: str = "qbell", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.enabled = False
        self.installed = []
        self._restore = []
        self._stack = []
        self._spans = []
        self._next_id = 0
        self.ops = 0
        self.op_seconds = 0.0
        self.calls = Counter()
        self.failed = Counter()
        self.self_seconds = defaultdict(list)
        self.result_counts = defaultdict(list)
        self.unreadable = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for module_name, attr in self.targets:
            home = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            name = f"{module_name}.{attr}"
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    continue
                self._rebind(original, "__init__", init, self._wrap(name, init))
            else:
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)
            self.installed.append(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, original, replacement) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, replacement)

    def _wrap(self, name: str, fn):
        tracer = self
        reader = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                tracer._close(span)
            if reader is not None:
                try:
                    tracer.result_counts[name].append(reader[1](result))
                except AttributeError:
                    tracer.unreadable.add(name)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def _close(self, span) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._spans.append((*span, end))

    @contextlib.contextmanager
    def operation(self):
        """Make one operation the root span of the calls inside it."""
        span = self._open(OPERATION)
        try:
            yield
        finally:
            self._close(span)
            self._fold()

    def _fold(self) -> None:
        child_seconds = defaultdict(float)
        for _, parent, _, start, end in self._spans:
            if parent is not None:
                child_seconds[parent] += end - start
        for span_id, _, name, start, end in self._spans:
            if name == OPERATION:
                self.ops += 1
                self.op_seconds += end - start
                continue
            self.calls[name] += 1
            self.self_seconds[name].append(end - start - child_seconds[span_id])
        self._spans.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-function metrics, as {name: (value, unit)}.

        ``calls`` and ``failed`` are per operation; ``self_us`` is the
        median self time of one call; ``share`` is total self time over
        total operation time; a count read from a result is the median per
        call. A function that was installed but not called reports zeros; a
        count whose field the result no longer has is left out.
        """
        ops = max(self.ops, 1)
        out = {}
        for name in self.installed:
            selfs = self.self_seconds.get(name, [])
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_us"] = (statistics.median(selfs) * 1e6 if selfs else 0.0, "us")
            if name in SHARE:
                share = sum(selfs) / self.op_seconds if self.op_seconds > 0 else 0.0
                out[f"{name}.share"] = (share, "ratio")
        if "entropy.relative_entropy" in self.installed:
            out["entropy.relative_entropy.failed"] = (
                self.failed["entropy.relative_entropy"] / ops, "count")
        for name, (suffix, _) in RESULT_COUNTS.items():
            if name in self.installed and name not in self.unreadable:
                values = self.result_counts.get(name, [])
                out[f"{name}.{suffix}"] = (float(statistics.median(values)) if values else 0.0,
                                           "count")
        return out

