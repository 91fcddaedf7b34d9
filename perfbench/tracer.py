"""Per-layer spans recorded from outside the program.

For a traced run the benchmark swaps timing wrappers onto module and
class attributes of gnes and restores the originals afterwards; no
file under src/ knows about it. A module-level function is replaced in
every gnes module that imported it by name (solver imports
residual_res, cli imports run and solve_ground_truth, ...), so calls
through any of those names are seen.

Spans are aggregated as they close instead of being kept one by one:
per entry the number of calls, the total time, the time of child spans
and the calls that raised. Self time is the total minus the child time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module under gnes, attribute path, span name used in the metric names)
ENTRIES = (
    ("stochastic", "sample_F_hat", "stochastic.sample_F_hat"),
    ("stochastic", "AgentStreams.generator", "stochastic.AgentStreams.generator"),
    ("cournot", "CournotDemandOracle.sample_mean_stack", "cournot.CournotDemandOracle.sample_mean_stack"),
    ("cournot", "generate", "cournot.generate"),
    ("operators", "ExtendedOperator.v_flat", "operators.v_flat"),
    ("operators", "ExtendedOperator.resolvent_flat", "operators.resolvent_flat"),
    ("operators", "residual_res", "operators.residual_res"),
    ("operators", "proj_shared_set", "operators.proj_shared_set"),
    ("graph", "laplacian_block", "graph.laplacian_block"),
    ("solver", "run", "solver.run"),
    ("solver", "risfbf_step", "solver.risfbf_step"),
    ("solver", "sfb_step", "solver.sfb_step"),
    ("solver", "_RunRecorder.pre_step", "solver.pre_step"),
    ("solver", "solve_ground_truth", "solver.solve_ground_truth"),
    ("solver", "diagnostics_check", "solver.diagnostics_check"),
    ("agentnet", "run_distributed", "agentnet.run_distributed"),
    ("agentnet", "Exchange.post", "agentnet.Exchange.post"),
    ("agentnet", "AgentNode.forward_backward", "agentnet.AgentNode.forward_backward"),
    ("agentnet", "AgentNode.correct_and_relax", "agentnet.AgentNode.correct_and_relax"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_json", "cli.write_json"),
    ("instances", "load_document", "instances.load_document"),
)


class SpanStats:
    __slots__ = ("calls", "total", "child", "failed")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.failed = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Installs the wrappers of ENTRIES and aggregates their spans."""

    def __init__(self):
        self.stats = {span: SpanStats() for _, _, span in ENTRIES}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _wrap(self, span: str, fn):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.failed += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.child += frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def install(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name == "gnes" or name.startswith("gnes.")]
        for module_name, path, span in ENTRIES:
            try:
                module = importlib.import_module("gnes." + module_name)
            except ImportError:
                self.absent.append(span)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
