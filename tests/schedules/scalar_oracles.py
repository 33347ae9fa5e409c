"""The per-``Transfer`` schedule readers, kept as oracles.

The estimator, repair's step pricing and ranking, the locality metrics
and the packet backend read a schedule's columns.  These are the loops
they used to be, one ``Transfer`` at a time over the ``steps`` view; the
tests compare the two to the last bit.
"""

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.machine.params import FAT_TREE_ARITY, wire_bytes
from repro.schedules.metrics import StepLocality
from repro.sim.packets import PacketMessage, PacketNetwork

from .checks import steps_of


# ----------------------------------------------------------------------
# estimate.py
# ----------------------------------------------------------------------
def old_link_loads(step, config):
    endpoints = defaultdict(set)
    for t in step:
        top = config.route_level(t.src, t.dst)
        s, d = t.src, t.dst
        for level in range(2, top + 1):
            s //= FAT_TREE_ARITY
            d //= FAT_TREE_ARITY
            endpoints[(level, s, "up")].add(t.src)
            endpoints[(level, d, "down")].add(t.dst)
    return {k: len(v) for k, v in endpoints.items()}


def old_estimate_step_time(step, config, params=None):
    params = params or config.params
    loads = old_link_loads(step, config)

    def subtree(node, level):
        return node // (FAT_TREE_ARITY ** (level - 1))

    per_proc = defaultdict(float)
    recv_count = defaultdict(int)
    for t in step:
        top = config.route_level(t.src, t.dst)
        rate = params.level_bandwidth(top)
        for level in range(2, top + 1):
            for node, dirn in ((t.src, "up"), (t.dst, "down")):
                load = loads.get((level, subtree(node, level), dirn), 1)
                penalty = min(
                    1.0 + params.switch_contention * max(load - 1, 0),
                    params.contention_cap,
                )
                capacity = (
                    FAT_TREE_ARITY ** (level - 1)
                    * params.level_bandwidth(level)
                    / penalty
                )
                rate = min(rate, capacity / max(load, 1))
        wire = wire_bytes(t.nbytes) / rate
        pack = params.memcpy_time(t.pack_bytes)
        unpack = params.memcpy_time(t.unpack_bytes)
        per_proc[t.src] += params.zero_byte_latency + wire + pack
        recv_count[t.dst] += 1
        if recv_count[t.dst] == 1:
            per_proc[t.dst] += params.zero_byte_latency + wire + unpack
        else:
            per_proc[t.dst] += params.recv_overhead + wire + unpack
    return max(per_proc.values(), default=0.0)


def old_estimate_schedule_time(schedule, config, params=None):
    return sum(old_estimate_step_time(s, config, params) for s in steps_of(schedule))


# ----------------------------------------------------------------------
# repair.py and FaultModel.path_degradation
# ----------------------------------------------------------------------
def old_path_degradation(model, src, dst):
    scales = model.link_scales
    if not scales:
        return 1.0
    return min((scales.get(l, 1.0) for l in model.tree.path(src, dst)), default=1.0)


def old_step_cost_estimate(step, config, model=None):
    params = config.params
    busy = {}
    for t in step:
        level = config.route_level(t.src, t.dst)
        degrade = old_path_degradation(model, t.src, t.dst) if model else 1.0
        wire = wire_bytes(t.nbytes) / (params.level_bandwidth(level) * degrade)
        send_sw = params.send_overhead + params.memcpy_time(t.pack_bytes)
        recv_sw = params.recv_overhead + params.memcpy_time(t.unpack_bytes)
        if model is not None:
            compute, overhead = model.compute_slowdowns(), model.overhead_slowdowns()
            send_sw *= max(float(compute[t.src]), float(overhead[t.src]))
            recv_sw *= max(float(compute[t.dst]), float(overhead[t.dst]))
        busy[t.src] = busy.get(t.src, 0.0) + send_sw + wire
        busy[t.dst] = busy.get(t.dst, 0.0) + recv_sw + wire
    return max(busy.values(), default=0.0)


def old_root_bytes(step, config):
    return sum(t.nbytes for t in step if config.route_level(t.src, t.dst) > 1)


def old_step_key(step):
    return tuple(
        sorted(
            (t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes) for t in step
        )
    )


def old_spread(indices, weights, keys):
    if len(indices) < 3:
        return indices
    ranked = sorted(indices, key=lambda i: (-weights[i], keys[i]))
    out = []
    lo, hi = 0, len(ranked) - 1
    while lo <= hi:
        out.append(ranked[lo])
        if lo != hi:
            out.append(ranked[hi])
        lo += 1
        hi -= 1
    return out


def old_rank_steps(steps, config, model):
    impact = [
        old_step_cost_estimate(s, config, model) - old_step_cost_estimate(s, config)
        for s in steps
    ]
    root = [float(old_root_bytes(s, config)) for s in steps]
    keys = [old_step_key(s) for s in steps]
    order = sorted(range(len(keys)), key=lambda i: (-impact[i], keys[i]))
    rebalanced: List[int] = []
    group: List[int] = []
    scale = max(max((abs(x) for x in impact), default=0.0), 1e-30)
    for idx in order:
        if group and abs(impact[group[0]] - impact[idx]) > 1e-9 * scale:
            rebalanced.extend(old_spread(group, root, keys))
            group = []
        group.append(idx)
    rebalanced.extend(old_spread(group, root, keys))
    return rebalanced


# ----------------------------------------------------------------------
# metrics.analyze and packets.packet_schedule_time
# ----------------------------------------------------------------------
def old_analyze(schedule, config) -> Tuple[List[StepLocality], List[frozenset]]:
    top = config.levels
    per_step = []
    participants = []
    for idx, step in enumerate(steps_of(schedule)):
        participants.append(frozenset({t.src for t in step} | {t.dst for t in step}))
        n_local = n_global = 0
        b_local = b_global = b_root = 0
        for t in step:
            level = config.route_level(t.src, t.dst)
            if level == 1:
                n_local += 1
                b_local += t.nbytes
            else:
                n_global += 1
                b_global += t.nbytes
            if level >= top and top > 1:
                b_root += t.nbytes
        per_step.append(
            StepLocality(idx + 1, len(step), n_local, n_global, b_local, b_global, b_root)
        )
    return per_step, participants


def old_packet_schedule_time(schedule, config):
    from repro.machine.fattree import fat_tree_for

    params = config.params
    net = PacketNetwork(fat_tree_for(config))
    total = 0.0
    for step in steps_of(schedule):
        messages = [PacketMessage(t.src, t.dst, t.nbytes) for t in step]
        wire_done = max(net.run(messages), default=0.0)
        endpoint: Dict[int, float] = defaultdict(float)
        for t in step:
            endpoint[t.src] += params.send_overhead + params.memcpy_time(t.pack_bytes)
            endpoint[t.dst] += params.recv_overhead + params.memcpy_time(t.unpack_bytes)
        total += wire_done + max(endpoint.values(), default=0.0)
    return total
