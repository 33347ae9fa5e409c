"""Unit tests for the declarative fault plans and their runtime model."""

import pytest

from repro.faults import (
    HEALTHY,
    FaultModel,
    FaultPlan,
    LinkDegrade,
    MessageDelay,
    MessageDrop,
    NodeFailure,
    NodeStraggler,
)
from repro.machine import CM5Params, MachineConfig
from repro.machine.fattree import fat_tree_for

CFG16 = MachineConfig(16, CM5Params(routing_jitter=0.0))


def tree(n=16):
    return fat_tree_for(MachineConfig(n, CM5Params(routing_jitter=0.0)))


FULL_PLAN = FaultPlan(
    (
        NodeStraggler(3, 4.0, overhead_factor=2.0),
        LinkDegrade(2, 1, 0.5, direction="up"),
        MessageDelay(0.25, 300e-6, src=1),
        MessageDrop(0.1, detect_seconds=200e-6, max_consecutive=2, dst=7),
    ),
    seed=42,
)


# ----------------------------------------------------------------------
# Plan data model
# ----------------------------------------------------------------------
def test_json_round_trip_preserves_everything():
    assert FaultPlan.from_json(FULL_PLAN.to_json()) == FULL_PLAN


def test_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_json('{"faults": [{"kind": "gamma_ray"}]}')


def test_plan_rejects_non_fault_entries():
    with pytest.raises(TypeError, match="not a fault spec"):
        FaultPlan(("oops",))


@pytest.mark.parametrize(
    "bad",
    [
        lambda: LinkDegrade(0, 0, 0.5),
        lambda: LinkDegrade(1, 0, 0.0),
        lambda: LinkDegrade(1, 0, 1.5),
        lambda: LinkDegrade(1, 0, 0.5, direction="sideways"),
        lambda: NodeStraggler(-1, 2.0),
        lambda: NodeStraggler(0, 0.5),
        lambda: NodeStraggler(0, 2.0, overhead_factor=0.9),
        lambda: NodeStraggler(0, float("nan")),
        lambda: NodeStraggler(0, float("inf")),
        lambda: NodeStraggler(0, 2.0, overhead_factor=float("nan")),
        lambda: NodeStraggler(0, 2.0, overhead_factor=float("inf")),
        lambda: MessageDelay(1.5, 1e-6),
        lambda: MessageDelay(0.5, -1e-6),
        lambda: MessageDrop(-0.1),
        lambda: MessageDrop(0.1, detect_seconds=-1.0),
        lambda: MessageDrop(0.1, max_consecutive=0),
        lambda: MessageDelay(0.5, float("nan")),
        lambda: MessageDrop(0.1, detect_seconds=float("nan")),
        lambda: NodeFailure(1, float("nan")),
        lambda: NodeFailure(1, 1e-3, detect_seconds=float("nan")),
    ],
)
def test_fault_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_describe_and_health():
    assert HEALTHY.is_healthy
    assert HEALTHY.describe() == "healthy"
    text = FULL_PLAN.describe()
    assert not FULL_PLAN.is_healthy
    for fragment in ("straggler rank 3", "L2#1", "drop p=0.1", "delay p=0.25"):
        assert fragment in text


def test_kind_filters():
    assert FULL_PLAN.stragglers == (FULL_PLAN.faults[0],)
    assert FULL_PLAN.link_degrades == (FULL_PLAN.faults[1],)


# ----------------------------------------------------------------------
# FaultModel: link scales and slowdowns
# ----------------------------------------------------------------------
def test_none_plan_is_healthy_model():
    model = FaultModel(None, tree())
    assert model.plan is HEALTHY
    assert model.link_scales == {}
    assert model.link_scale_vector(sorted(tree().links)) is None
    assert model.path_degradation(0, 15) == 1.0
    assert not model.has_message_faults


def test_link_scales_respect_direction():
    t = tree()
    up_only = FaultModel(FaultPlan((LinkDegrade(2, 1, 0.5, "up"),)), t)
    assert up_only.link_scales == {("up", 2, 1): 0.5}
    both = FaultModel(FaultPlan((LinkDegrade(2, 1, 0.5),)), t)
    assert both.link_scales == {("up", 2, 1): 0.5, ("down", 2, 1): 0.5}


def test_link_scales_compound_and_skip_absent_links():
    t = tree(4)  # one cluster: only level-1 links exist
    model = FaultModel(
        FaultPlan(
            (
                LinkDegrade(1, 0, 0.5, "up"),
                LinkDegrade(1, 0, 0.5, "up"),
                LinkDegrade(3, 9, 0.1),  # not in a 4-node partition
            )
        ),
        t,
    )
    assert model.link_scales == {("up", 1, 0): 0.25}


def test_path_degradation_is_worst_link_on_route():
    t = tree()
    model = FaultModel(FaultPlan((LinkDegrade(1, 0, 0.25, "up"),)), t)
    # Rank 0's injection link is degraded: any route out of 0 sees it.
    assert model.path_degradation(0, 1) == 0.25
    assert model.path_degradation(1, 0) == 1.0  # down into 0 untouched
    assert model.path_degradation(4, 5) == 1.0


def test_straggler_slowdowns_and_out_of_range_rank():
    model = FaultModel(
        FaultPlan((NodeStraggler(3, 4.0, overhead_factor=2.0), NodeStraggler(99, 8.0))),
        tree(),
    )
    assert model.compute_slowdowns()[3] == 4.0
    assert model.overhead_slowdowns()[3] == 2.0
    assert model.compute_slowdowns()[0] == 1.0
    # Rank 99 does not exist on 16 nodes: ignored, not an error.
    assert list(model.compute_slowdowns()).count(1.0) == 15


# ----------------------------------------------------------------------
# FaultModel: per-message decisions
# ----------------------------------------------------------------------
def test_drop_decisions_are_pure_functions_of_arguments():
    a = FaultModel(FaultPlan((MessageDrop(0.5),), seed=9), tree())
    b = FaultModel(FaultPlan((MessageDrop(0.5),), seed=9), tree())
    decisions = [(s, d, k) for s in range(4) for d in range(4) for k in range(3)]
    assert [a.message_drop(*x) for x in decisions] == [
        b.message_drop(*x) for x in decisions
    ]


def test_drop_seed_changes_decisions():
    t = tree()
    a = FaultModel(FaultPlan((MessageDrop(0.5),), seed=0), t)
    b = FaultModel(FaultPlan((MessageDrop(0.5),), seed=1), t)
    decisions = [(s, d, 0) for s in range(16) for d in range(16) if s != d]
    assert [a.message_drop(*x) for x in decisions] != [
        b.message_drop(*x) for x in decisions
    ]


def test_max_consecutive_bounds_drops():
    model = FaultModel(
        FaultPlan((MessageDrop(1.0, detect_seconds=1e-4, max_consecutive=2),)),
        tree(),
    )
    assert model.message_drop(0, 1, 0) == 1e-4
    assert model.message_drop(0, 1, 1) == 1e-4
    assert model.message_drop(0, 1, 2) is None  # attempt 2 must succeed


def test_drop_and_delay_endpoint_filters():
    model = FaultModel(
        FaultPlan(
            (MessageDrop(1.0, dst=7), MessageDelay(1.0, 5e-4, src=2)),
        ),
        tree(),
    )
    assert model.message_drop(0, 7, 0) is not None
    assert model.message_drop(0, 6, 0) is None
    assert model.message_delay(2, 5, 0) == 5e-4
    assert model.message_delay(3, 5, 0) == 0.0
