"""The benchmark's tracer names only functions that nhsbox still defines."""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    # run_path compiles the source without writing bytecode next to it; a
    # name the tracer wraps but src no longer defines would otherwise
    # surface only as a KeyError in a traced benchmark run
    targets = runpy.run_path(str(TRACER))["targets"]()
    missing = [(owner.__name__, attr) for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets and not missing
