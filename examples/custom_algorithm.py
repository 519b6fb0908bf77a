#!/usr/bin/env python3
"""Bring your own algorithm: OMEGA without touching the hardware model.

The paper's selling point over fixed-function accelerators is that
OMEGA runs *any* vertex-centric algorithm — the framework just
annotates the update function and the source-to-source tool emits the
PISC microcode and monitor-register configuration. This example walks
that exact path for an algorithm the paper never evaluated: label
propagation for semi-supervised community detection.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import SimConfig, load_dataset
from repro.core.offload import UpdateSpec, compile_update, generate_config_code
from repro.core.report import Comparison, SimReport
from repro.memsim.core_model import compute_timing
from repro.memsim.energy import EnergyModel
from repro.memsim.backends import BaselineBackend, OmegaBackend
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.graph.reorder import reorder_nth_element
from repro.ligra import AtomicOp, LigraEngine, VertexSubset, scatter_atomic


def run_label_propagation(graph, seeds, num_cores=16, chunk_size=32,
                          max_rounds=30):
    """Min-label propagation from seed vertices over the engine.

    Each seeded community floods its label; unlabeled vertices adopt
    the minimum label among their in-neighbors (an unsigned-min atomic,
    exactly the PISC's CC operation).
    """
    n = graph.num_vertices
    engine = LigraEngine(graph, num_cores=num_cores, chunk_size=chunk_size)
    label = engine.alloc_prop("label", np.uint32,
                              fill=np.iinfo(np.uint32).max)
    for community, seed in enumerate(seeds):
        label.values[seed] = community

    frontier = VertexSubset(n, ids=np.asarray(seeds, dtype=np.int64))
    rounds = 0
    while frontier and rounds < max_rounds:
        rounds += 1

        def push(srcs, dsts, _weights):
            if len(srcs) == 0:
                return srcs
            return scatter_atomic(
                AtomicOp.UINT_MIN, label.values, dsts, label.values[srcs]
            )

        frontier = engine.edge_map(
            frontier, push,
            src_props=[label], dst_props=[label],
            direction="out", output="auto",
        )
    return engine, label, rounds


def simulate(engine, config, update_spec):
    """Replay a custom algorithm's trace through either hierarchy."""
    trace = engine.build_trace()
    if config.use_scratchpad:
        capacity = hot_capacity_for(
            config.scratchpad_total_bytes,
            engine.vtxprop_bytes_per_vertex(),
            engine.graph.num_vertices,
        )
        mapping = ScratchpadMapping(config.core.num_cores, capacity,
                                    chunk_size=32)
        hierarchy = OmegaBackend(config, mapping,
                                   compile_update(update_spec))
    else:
        hierarchy = BaselineBackend(config)
    output = hierarchy.replay(trace)
    timing = compute_timing(output, config)
    return SimReport(
        system=config.name, algorithm=update_spec.name, dataset="lj",
        config=config, stats=output.stats, timing=timing,
        energy=EnergyModel().breakdown(output.stats), replay=output,
        num_vertices=engine.graph.num_vertices,
        num_edges=engine.graph.num_edges, trace_events=trace.num_events,
    )


def main() -> None:
    graph, spec = load_dataset("lj")

    # 1. The annotated update function, as the framework developer
    #    would write it for the source-to-source tool.
    update = UpdateSpec(
        name="label_propagation_update",
        atomic_op=AtomicOp.UINT_MIN,
        guarded=True,          # only adopt a *smaller* label
        active_list="sparse",  # frontier-driven
    )
    microcode = compile_update(update)
    print("== generated PISC microcode ==")
    for i, op in enumerate(microcode.ops):
        print(f"  [{i}] {op.value}")
    print(f"  ({microcode.cycles} cycles per offloaded update)\n")

    # 2. Pick seeds (the 4 most-followed accounts) and run functionally
    #    on the popularity-reordered graph (OMEGA's preprocessing).
    rgraph, new_ids = reorder_nth_element(graph, key="in")
    seeds = [0, 1, 2, 3]  # post-reorder, these are the top hubs
    engine, label, rounds = run_label_propagation(rgraph, seeds)
    labeled = (label.values != np.iinfo(np.uint32).max).sum()
    print(f"label propagation converged in {rounds} rounds;"
          f" {labeled}/{rgraph.num_vertices} vertices labeled")
    sizes = np.bincount(label.values[label.values < 4], minlength=4)
    print(f"community sizes: {sizes.tolist()}\n")

    # 3. The configuration code the tool would emit at app start.
    writes = generate_config_code(engine.vtx_props, microcode,
                                  rgraph.num_vertices)
    print("== generated configuration code (first 6 stores) ==")
    for w in writes[:6]:
        print(f"  {w.render()}")
    print(f"  ... {len(writes) - 6} more\n")

    # 4. Price the same trace on both memory subsystems.
    base = simulate(engine, SimConfig.scaled_baseline(), update)
    # Rebuild the engine run for the OMEGA pass (traces are consumed).
    engine2, _, _ = run_label_propagation(rgraph, seeds)
    omega = simulate(engine2, SimConfig.scaled_omega(), update)
    cmp = Comparison(baseline=base, omega=omega)
    print("== simulation ==")
    print(f"baseline cycles: {base.cycles:,.0f}")
    print(f"OMEGA cycles:    {omega.cycles:,.0f}")
    print(f"speedup:         {cmp.speedup:.2f}x")
    print(f"offloaded atomics: {omega.stats.atomics_offloaded:,}"
          f" of {omega.stats.atomics_total:,}")


if __name__ == "__main__":
    main()
