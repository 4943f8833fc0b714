"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :func:`instrument` replaces the
public functions that ``ctident.montecarlo`` and ``ctident.cli`` import from
the other modules with timing wrappers, and restores them on exit.  Nothing
under ``src/`` is edited.  Calls that a layer makes internally are not seen,
so each span covers one call from the harness or the CLI into a layer.

Monte Carlo runs have no public boundary, so a run span is opened at the
first call of each run: ``gen_random_system`` when the study draws a fresh
system per run, ``init_arx_iv`` otherwise.  A run span ends where the next
one starts or where its study ends, so it includes the harness's own work
between traced calls.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass

# (module attribute, span name) pairs; the span name is "<layer>.<function>"
# and the layer is the module that defines the function.
MONTECARLO_CALLS = (
    ("gen_prbs", "signals.gen_prbs"),
    ("gen_multisine", "signals.gen_multisine"),
    ("gen_random_system", "signals.gen_random_system"),
    ("c2d_zoh", "sampling.c2d_zoh"),
    ("d2c_zoh", "sampling.d2c_zoh"),
    ("zoh_map_point", "sampling.zoh_map_point"),
    ("simulate_dt", "lti.simulate_dt"),
    ("init_arx_iv", "pem.init_arx_iv"),
    ("oe_fit", "pem.oe_fit"),
    ("predict", "pem.predict"),
    ("ct_info_matrix", "rdproj.ct_info_matrix"),
    ("project_rd", "rdproj.project_rd"),
    ("mse_g", "metrics.mse_g"),
    ("mse_theta", "metrics.mse_theta"),
    ("fit", "metrics.fit"),
)
CLI_CALLS = (
    ("c2d_zoh", "sampling.c2d_zoh"),
    ("d2c_zoh", "sampling.d2c_zoh"),
    ("zoh_map_point", "sampling.zoh_map_point"),
    ("simulate_ct_zoh", "sampling.simulate_ct_zoh"),
    ("save_dataset", "sampling.save_dataset"),
    ("load_dataset", "sampling.load_dataset"),
    ("simulate_dt", "lti.simulate_dt"),
    ("init_arx_iv", "pem.init_arx_iv"),
    ("oe_fit", "pem.oe_fit"),
    ("ct_info_matrix", "rdproj.ct_info_matrix"),
    ("project_rd", "rdproj.project_rd"),
)
RUN_SPAN = "montecarlo.run"


@dataclass
class Span:
    name: str
    start: float
    end: float
    run: int  # Monte Carlo run or CLI request id; -1 outside any run
    parent: int  # index of the enclosing span; -1 for a root span


class Tracer:
    """Spans in call order, plus the fits seen in each run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fits: list[tuple[int, int, bool]] = []  # (run, iterations, converged)
        self._open: list[int] = []
        self._run = -1
        self._next_run = 0

    def _push(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, self._run, parent))
        self._open.append(index)
        return index

    def _pop(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("span %s closed out of order" % self.spans[index].name)
        self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, run: int = -1):
        """Root span around a block; ``run`` is the run or request id inside it."""
        self._run = run
        index = self._push(name)
        try:
            yield
        finally:
            self._end_run()
            self._pop(index)

    def start_run(self) -> None:
        """Close the open Monte Carlo run span, if any, and open the next one."""
        self._end_run()
        self._run = self._next_run
        self._next_run += 1
        self._push(RUN_SPAN)

    def _end_run(self) -> None:
        if self._open and self.spans[self._open[-1]].name == RUN_SPAN:
            self._pop(self._open[-1])

    def wrap(self, name: str, fn, starts_run: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_run:
                self.start_run()
            index = self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(index)
            if name == "pem.oe_fit":
                self.fits.append((self._run, result.iterations, bool(result.converged)))
            return result
        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, random_system: bool = False):
    """Route the harness's and the CLI's calls into the layers through ``tracer``."""
    from ctident import cli, montecarlo

    marker = "gen_random_system" if random_system else "init_arx_iv"
    saved = []
    try:
        for module, calls in ((montecarlo, MONTECARLO_CALLS), (cli, CLI_CALLS)):
            for attr, name in calls:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                starts_run = module is montecarlo and attr == marker
                setattr(module, attr, tracer.wrap(name, fn, starts_run))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
