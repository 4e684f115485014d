"""Self-tests of the benchmark's helpers; run with ``python3 -m pytest perfbench``.

They live outside ``tests/`` so the package's own suite and its wall time
stay as they are.
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from tracing import TAIL_BEYOND, Tracer, tail  # noqa: E402


class FakeClock:
    """A clock that moves only when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_children_for_nested_wrappers():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def middle_body():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        clock.advance(3.0)
        middle()

    outer = tracer.wrap("outer", outer_body)
    outer()

    stats = tracer.stats
    assert stats["leaf"].calls == 2
    assert stats["leaf"].self_s == pytest.approx(4.0)
    assert stats["middle"].self_s == pytest.approx(1.5)
    assert stats["middle"].total_s == pytest.approx(5.5)
    assert stats["outer"].self_s == pytest.approx(3.0)
    assert stats["outer"].total_s == pytest.approx(8.5)
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(stats["outer"].total_s)


def test_recursive_wrapper_counts_each_level_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def body(n):
        clock.advance(1.0)
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap("rec", body)
    wrapped(3)
    assert tracer.stats["rec"].calls == 4
    assert tracer.stats["rec"].self_s == pytest.approx(4.0)


@pytest.mark.parametrize("n", [11, 12, 50, 1000])
def test_tail_has_ten_samples_beyond_it(n):
    values = [float(v) for v in range(n)][::-1]
    value = tail(values)
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert value == float(n - 1 - TAIL_BEYOND)


def test_tail_with_ties_ranks_ten_samples_beyond():
    values = [1.0] * 5 + [2.0] * 20
    assert tail(values) == 2.0
    assert sorted(values).index(tail(values)) <= len(values) - 1 - TAIL_BEYOND


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        tail([])


def _module_with(fn):
    module = types.ModuleType("fake_module")
    module.fn = fn
    return module


def test_wrapped_function_returns_the_same_value():
    marker = object()
    module = _module_with(lambda a, b=2: (a, b, marker))
    original = module.fn
    tracer = Tracer()
    tracer.patch(module, "fn", "fake.fn")
    assert module.fn is not original
    assert module.fn(1, b=5) == original(1, b=5)
    tracer.restore()
    assert module.fn is original
    assert tracer.stats["fake.fn"].calls == 1


def test_wrapped_function_raises_the_same_exception():
    error = KeyError("boom")

    def fails():
        raise error

    module = _module_with(fails)
    tracer = Tracer()
    tracer.patch(module, "fn", "fake.fn")
    with pytest.raises(KeyError) as caught:
        module.fn()
    assert caught.value is error
    tracer.restore()
    assert tracer.stats["fake.fn"].calls == 1
    assert not tracer._stack


def test_patch_keeps_classmethods_and_restores_them():
    class Thing:
        @classmethod
        def make(cls, x):
            return cls, x

        def method(self, y):
            return self, y

    make_raw = Thing.__dict__["make"]
    method_raw = Thing.__dict__["method"]
    tracer = Tracer()
    tracer.patch(Thing, "make", "thing.make")
    tracer.patch(Thing, "method", "thing.method")
    thing = Thing()
    assert Thing.make(4) == (Thing, 4)
    assert thing.method(5) == (thing, 5)
    tracer.restore()
    assert Thing.__dict__["make"] is make_raw
    assert Thing.__dict__["method"] is method_raw
    assert tracer.stats["thing.make"].calls == 1
    assert tracer.stats["thing.method"].calls == 1


def test_caller_binding_is_what_records_calls():
    """federation imported per_sample_grads by name, so patching nn misses it."""
    import numpy as np

    from fedsynth import federation, nn

    params = nn.init_denoiser(2, hidden_width=4, n_hidden=1, time_dim=2, rng=0)
    batch = [nn.TrainingSample(np.zeros(2), 1, np.ones(2))]
    tracer = Tracer()
    tracer.patch(nn, "per_sample_grads", "defining")
    tracer.patch(federation, "per_sample_grads", "caller")
    federation.per_sample_grads(params, batch)
    tracer.restore()
    assert tracer.stats["defining"].calls == 0
    assert tracer.stats["caller"].calls == 1
    assert federation.per_sample_grads is nn.per_sample_grads


def test_probes_restore_every_original():
    import workloads

    tracer = Tracer()
    workloads.install_probes(tracer)
    patched = list(tracer._patches)
    assert all(owner.__dict__[attr] is not original
               for owner, attr, original in patched)
    tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)



def test_train_check_fails_when_a_client_budget_or_round_is_wrong(tmp_path):
    import workloads
    from fedsynth import experiment

    run = workloads.Run(workloads.WORKLOADS["desk_pipeline"], 0, str(tmp_path))
    os.makedirs(run.out_dir)
    with open(os.path.join(run.out_dir, experiment.CHECKPOINT_FILE), "wb") as fh:
        fh.write(b"weights")
    rounds = run.config.federation.rounds
    audit = [{"round": 1, "client": 0, "steps": 20}]

    def problems(epsilons, stopped_early=False, rounds_completed=rounds):
        experiment.write_json(
            os.path.join(run.out_dir, experiment.MANIFEST_FILE),
            {"epsilons": epsilons, "stopped_early": stopped_early,
             "rounds_completed": rounds_completed})
        return run._check_train(audit)

    healthy = {"0": 1.0, "1": None, "2": None}
    assert problems(healthy) == []
    assert problems({"0": None, "1": None, "2": None})       # accounting dropped
    assert problems({"0": 9.0, "1": None, "2": None})        # over the target
    assert problems({"0": 1.0, "1": 0.5, "2": None})         # untrained client spent
    assert problems({"0": 1.0, "1": None})                   # a client missing
    assert problems(healthy, stopped_early=True)
    assert problems(healthy, rounds_completed=rounds - 1)
