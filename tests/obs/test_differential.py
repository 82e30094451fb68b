"""Observe-only, proven differentially: instrumentation changes nothing.

The acceptance bar of the observability layer is byte-identity: a sweep
or fixpoint computed under a live recorder must equal the uninstrumented
computation not just semantically but in its serialised bytes -- the
same exact Fractions, the same row order, the same extension sets.
"""

import io
import json
from fractions import Fraction

from repro.attack import build_ca2
from repro.attack.sweep import guarantee_sweep
from repro.core import standard_assignments
from repro.logic import CommonKnowsProb, Model, Prop
from repro.obs import (
    MetricsRecorder,
    MultiRecorder,
    NULL_RECORDER,
    TraceRecorder,
    get_recorder,
    use_recorder,
)
from repro.reporting import json_ready

MESSENGERS = [1, 2, 3]
LOSSES = [Fraction(1, 2), Fraction(1, 4)]


def _sweep_bytes():
    rows = guarantee_sweep(MESSENGERS, LOSSES)
    return json.dumps(json_ready(rows), sort_keys=True).encode("utf-8")


def test_instrumented_sweep_rows_are_byte_identical():
    baseline = _sweep_bytes()
    recorder = MultiRecorder([MetricsRecorder(), TraceRecorder(io.StringIO())])
    with use_recorder(recorder):
        instrumented = _sweep_bytes()
    assert instrumented == baseline
    # ... and the recorder really was live, not silently bypassed.
    metrics = recorder.children[0]
    assert metrics.counters["event:cache_stats"] == len(MESSENGERS) * len(LOSSES) * 3


def _gfp_extension():
    attack = build_ca2(2, Fraction(1, 2))
    post = standard_assignments(attack.psys)["post"]
    model = Model(post, {"coord": attack.coordinated})
    formula = CommonKnowsProb(tuple(attack.group), Fraction(1, 2), Prop("coord"))
    return model.extension(formula)


def test_instrumented_gfp_fixpoint_is_identical():
    baseline = _gfp_extension()
    metrics = MetricsRecorder()
    with use_recorder(metrics):
        instrumented = _gfp_extension()
    assert instrumented == baseline
    assert metrics.counters["model.gfp_fixpoints"] >= 1
    assert metrics.counters["model.gfp_iterations"] >= 1


def test_suite_runs_with_the_null_default():
    # Every other test in the tier-1 suite implicitly measures the
    # NullRecorder overhead; this pin makes a leaked recorder (a test
    # forgetting to restore) an immediate failure rather than a silent
    # perf and isolation hazard.
    assert get_recorder() is NULL_RECORDER
