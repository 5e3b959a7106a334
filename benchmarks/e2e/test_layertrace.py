"""Tests of the benchmark's own measuring code (`python -m pytest benchmarks/e2e -q`).

The tracer is checked on a toy three-layer call tree whose time is spent in
``time.sleep``, so expected self times are known to within scheduler slack.
"""

import json
import math
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checks import canonical, digest, spread, summarize  # noqa: E402
from layertrace import (  # noqa: E402
    LAYERS,
    OTHER,
    LayerTracer,
    classify_repro,
)

NAP = 0.02
TOY_LAYERS = ("a", "b", "c", OTHER)


def classify_toy(code):
    """Toy layers by function-name prefix; anything else inherits."""
    prefix = code.co_name[:2]
    return prefix[0] if prefix in ("a_", "b_", "c_") else None


def a_top():
    time.sleep(NAP)                 # built-in: charged to a
    return b_mid()


def b_mid():
    total = c_leaf()
    unlayered_helper()              # inherits b
    for value in c_gen(3):          # each resume enters c from b
        total += value
        time.sleep(NAP)             # between resumes: b
    return total


def c_leaf():
    time.sleep(NAP)
    return 1


def c_gen(n):
    for i in range(n):
        time.sleep(NAP)
        yield i


def unlayered_helper():
    time.sleep(NAP)


def trace_toy(c_owners=None):
    tracer = LayerTracer(TOY_LAYERS, classify_toy, c_owners)
    return tracer.run(a_top)


def test_fold_attributes_self_time_to_the_layer_on_top():
    result, table = trace_toy()
    assert result == 1 + 0 + 1 + 2
    # a: one nap.  b: helper + 3 naps between resumes.  c: leaf + 3 in the
    # generator.  Sleeps never return early; allow generous slack above.
    for layer, naps in (("a", 1), ("b", 4), ("c", 4)):
        assert NAP * naps <= table.self_s[layer] < NAP * naps + 0.05, layer
    assert table.self_s[OTHER] < 0.01
    assert table.attributed_s == pytest.approx(sum(table.self_s.values()))
    assert table.attributed_s <= table.wall_s
    assert table.named_share > 0.95


def test_calls_count_layer_crossings_and_generator_resumes():
    _, table = trace_toy()
    assert table.calls["a"] == 1          # entered once from outside
    assert table.calls["b"] == 1          # a -> b
    # c_leaf once, then the generator: 3 yielding resumes + the final one
    # that raises StopIteration.
    assert table.calls["c"] == 1 + 4
    assert table.edges[("b", "c")] == 5
    assert table.edges[(OTHER, "a")] == 1
    assert ("c", "b") not in table.edges  # returning is not a call


def test_owned_extension_is_charged_to_its_layer_whoever_calls():
    _, table = trace_toy(c_owners={time: "c"})
    # Every nap now belongs to c: 1 + 4 + 4 of them.
    assert table.self_s["c"] >= NAP * 9
    assert table.self_s["a"] < 0.01 and table.self_s["b"] < 0.01
    # time.sleep is entered from a once and from b 1 + 3 times; the naps
    # inside c are not crossings.
    assert table.edges[("a", "c")] == 1
    assert table.edges[("b", "c")] == 5 + 4


def test_tracer_is_removed_and_exceptions_propagate():
    tracer = LayerTracer(TOY_LAYERS, classify_toy)
    with pytest.raises(ZeroDivisionError):
        tracer.run(lambda: 1 / 0)
    assert sys.getprofile() is None


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/engine.py", "sim.engine"),
    ("/x/src/repro/sim/simcore.py", "sim.engine"),
    ("/x/src/repro/sim/network.py", "sim.network"),
    ("/x/src/repro/sim/failures.py", "sim.traffic"),
    ("/x/src/repro/core/cori.py", "core.scheduling"),
    ("/x/src/repro/core/data.py", "core.profile"),
    ("/x/src/repro/core/exceptions.py", OTHER),
    ("/x/src/repro/data/catalog.py", "data.store"),
    ("/x/src/repro/data/transfer.py", "data.manager"),
    ("/x/src/repro/ramses/physcore.py", "ramses.gravity"),
    ("/x/src/repro/ramses/hilbert.py", "ramses.amr"),
    ("/x/src/repro/ramses/cosmology.py", "ramses.integrator"),
    ("/x/src/repro/ramses/namelist.py", "ramses.io"),
    ("/x/src/repro/services/workflow.py", "services"),
    ("/x/src/repro/__init__.py", OTHER),
    ("/usr/lib/python3.11/heapq.py", None),
    ("/x/site-packages/numpy/fft/_pocketfft.py", None),
])
def test_classify_repro_by_file(path, layer):
    assert classify_repro(types.SimpleNamespace(co_filename=path)) == layer


def test_benchmark_json_names_what_the_harness_reports():
    with open(run.SPEC) as fh:
        spec = json.load(fh)
    assert len(LAYERS) == 28 and LAYERS[-1] == OTHER
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert ([m["name"] for m in spec["end_to_end"]]
            == [name for name, _ in run.END_TO_END])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.LAYER_RULES)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_digest_is_stable_and_spelling_independent():
    np = pytest.importorskip("numpy")
    a = {"b": (1, 2.5, float("nan")), "a": {"y": 0.1 + 0.2, "x": None}}
    b = {"a": {"x": None, "y": 0.30000000000000004}, "b": [1, 2.5, float("nan")]}
    assert digest(a) == digest(b)
    assert digest(a) != digest({**a, "a": {"y": 0.3, "x": None}})
    assert canonical(np.float64(0.1)) == canonical(0.1) == "0.1"
    assert canonical(np.arange(3)) == [0, 1, 2]
    assert canonical(b"abc").startswith("sha256:ba7816bf")
    assert canonical(1) != canonical(1.0)  # an int is not its float
    # Pinned: changing the canonical form silently would unpin reference.json.
    assert digest({"makespan": 59087.885494760056, "per_sed": {"s1": 9}}) == (
        "8293d20eaaae0875a206ca0b2cb0ea57e5c571cc028cc3a310aba110bc4f15fd")
    with pytest.raises(TypeError):
        canonical(object())


def test_summary_matches_the_driver_statistics():
    values = [1.0, 1.2, 1.1, 1.4, 1.3, 5.0, 1.25, 1.15, 1.05, 1.35]
    s = summarize(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"]) == (q1, q2, q3)
    assert (s["min"], s["max"], s["n"]) == (1.0, 5.0, 10)
    assert math.isclose(spread(s), (q3 - q1) / q2)
    assert spread(summarize([2.0])) == 0.0
