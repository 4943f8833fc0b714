"""The traced benchmark's view of the program.

``bench/spans.py`` times the harness and the CLI by replacing fixed lists
of names on ``ctident.montecarlo`` and ``ctident.cli``.  A name missing
from either module makes ``bench/run.py --trace 1`` fail, so a cleanup that
drops one must fail here first.
"""

import importlib.util
import sys
from pathlib import Path

from ctident import cli, montecarlo

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callable():
    spans = load_spans()
    missing = [
        "%s.%s" % (module.__name__, attr)
        for module, calls in ((montecarlo, spans.MONTECARLO_CALLS), (cli, spans.CLI_CALLS))
        for attr, _span in calls
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing
