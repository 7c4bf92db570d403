"""Self-time arithmetic and wrapper restoration."""

import threading

import pytest

from layers import Instrumentation, Recorder, Span, _timed, self_times, traced

A, B = 1, 2  # thread ids


def span(sid, start, end, parent=0, thread=A, layer="luna", name="x"):
    return Span(sid, layer, name, start, end, parent, thread, "")


def test_nested_spans_subtract_only_direct_children():
    spans = [span(1, 0, 10), span(2, 2, 5, parent=1), span(3, 3, 4, parent=2)]
    assert self_times(spans) == {1: 7, 2: 2, 3: 1}


def test_gaps_between_children_stay_with_the_parent():
    spans = [span(1, 0, 10), span(2, 1, 2, parent=1), span(3, 4, 6, parent=1)]
    assert self_times(spans)[1] == 7


def test_overlapping_children_are_counted_once():
    spans = [span(1, 0, 10), span(2, 1, 5, parent=1), span(3, 3, 7, parent=1)]
    assert self_times(spans)[1] == 4


def test_child_is_clipped_to_its_parent():
    spans = [span(1, 0, 10), span(2, 8, 12, parent=1)]
    assert self_times(spans) == {1: 8, 2: 4}


def test_child_on_a_sibling_thread_covers_nothing():
    spans = [span(1, 0, 10, thread=A), span(2, 2, 6, parent=1, thread=B),
             span(3, 6, 8, parent=1, thread=A)]
    assert self_times(spans) == {1: 8, 2: 4, 3: 2}


def test_recorder_parents_follow_each_threads_own_stack():
    clock = iter(range(1000))
    rec = Recorder(clock=lambda: next(clock))
    inner = _timed(rec, "docmodel", "inner", lambda: None)

    def outer():
        inner()
        inner()

    worker = threading.Thread(target=_timed(rec, "luna", "outer", outer))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    _timed(rec, "luna", "outer", outer)()
    outers = [s for s in rec.spans if s.name == "outer"]
    inners = [s for s in rec.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    for child in inners:
        parent = next(s for s in outers if s.sid == child.parent)
        assert parent.thread == child.thread
    selfs = self_times(rec.spans)
    for parent in outers:
        children = [s for s in inners if s.parent == parent.sid]
        covered = sum(c.end - c.start for c in children)
        assert selfs[parent.sid] == (parent.end - parent.start) - covered


def _targets():
    instrumentation = Instrumentation(Recorder()).install()
    targets = [(p.owner, p.attr, p.original) for p in instrumentation.patches]
    instrumentation.uninstall()
    return targets


def test_uninstall_restores_every_original_object():
    targets = _targets()
    assert len(targets) > 30
    with traced(Recorder()):
        replaced = [owner.__dict__[attr] is not original for owner, attr, original in targets]
    assert all(replaced)
    for owner, attr, original in targets:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_a_traced_run_leaves_the_library_untouched():
    import ingest

    targets = _targets()
    result = ingest.run(3, 0.2, recorder=Recorder(), setup_repeats=1)
    assert result.per_layer
    for owner, attr, original in targets:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"


def test_restores_even_when_the_run_fails():
    targets = _targets()
    with pytest.raises(RuntimeError):
        with traced(Recorder()):
            raise RuntimeError("boom")
    for owner, attr, original in targets:
        assert owner.__dict__[attr] is original
