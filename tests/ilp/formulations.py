"""The paper's two ILP formulations, solved by the oracle ILP solver.

* :func:`ipet_ilp` — the Li/Malik IPET longest-path ILP of one function,
  the specification :func:`repro.wcet.ipet.solve_function_ipet` computes
  with a loop-forest dynamic program;
* :func:`solve_knapsack_ilp` — the 0/1 scratchpad knapsack, the
  specification of :func:`repro.spm.knapsack.solve_knapsack`.
"""

from __future__ import annotations

from . import Model, Solution, Status


def ipet_ilp(cfg, block_costs, edge_extras, loops, scope_penalties=None,
             counts=None):
    """Build and solve the IPET ILP; returns its :class:`Solution`.

    *counts* (block addr -> executions) pins every block variable, which
    turns the ILP into the question whether those counts admit a flow
    that satisfies every constraint, and what it is worth at best.
    """
    model = Model(f"ipet_{cfg.name}", maximize=True)

    x_block = {}
    for addr in cfg.blocks:
        pinned = None if counts is None else counts[addr]
        x_block[addr] = model.add_var(
            f"x_{addr:#x}", lo=pinned or 0,
            hi=float("inf") if pinned is None else pinned, integer=True)
    x_edge = {}
    for src, dst in cfg.edges():
        x_edge[(src, dst)] = model.add_var(
            f"e_{src:#x}_{dst:#x}", lo=0, integer=True)
    # Virtual entry edge and exit edges.
    entry_var = model.add_var("e_entry", lo=1, hi=1, integer=True)
    exit_vars = {}
    for addr, block in cfg.blocks.items():
        if block.is_exit or not block.succs:
            exit_vars[addr] = model.add_var(
                f"exit_{addr:#x}", lo=0, integer=True)

    preds = {addr: [] for addr in cfg.blocks}
    for src, dst in cfg.edges():
        preds[dst].append(src)

    # Flow conservation.
    for addr, block in cfg.blocks.items():
        inflow = {x_edge[(p, addr)]: 1 for p in preds[addr]}
        if addr == cfg.entry:
            inflow[entry_var] = 1
        coeffs = dict(inflow)
        coeffs[x_block[addr]] = coeffs.get(x_block[addr], 0) - 1
        model.add_eq(coeffs, 0)

        outflow = {x_edge[(addr, s)]: 1 for s in block.succs}
        if addr in exit_vars:
            outflow[exit_vars[addr]] = 1
        coeffs = dict(outflow)
        coeffs[x_block[addr]] = coeffs.get(x_block[addr], 0) - 1
        model.add_eq(coeffs, 0)

    # Loop bounds: back edges <= bound * entry edges, and/or
    # back edges <= total (per function invocation).
    for loop in loops.values():
        back = {}
        for edge in loop.back_edges:
            back[x_edge[edge]] = back.get(x_edge[edge], 0) + 1
        if loop.bound is not None:
            coeffs = dict(back)
            for edge in loop.entry_edges:
                coeffs[x_edge[edge]] = coeffs.get(x_edge[edge], 0) \
                    - loop.bound
            if loop.header == cfg.entry:
                # Entering the function enters the loop.
                coeffs[entry_var] = coeffs.get(entry_var, 0) - loop.bound
            model.add_le(coeffs, 0)
        if loop.bound_total is not None:
            model.add_le(back, loop.bound_total)

    # Objective.
    objective = {}
    for addr, var in x_block.items():
        cost = block_costs.get(addr, 0)
        if cost:
            objective[var] = cost
    for edge, extra in edge_extras.items():
        if extra and edge in x_edge:
            objective[x_edge[edge]] = objective.get(x_edge[edge], 0) + extra
    for header, penalty in (scope_penalties or {}).items():
        loop = loops.get(header)
        if not penalty or loop is None:
            continue
        for edge in loop.entry_edges:
            objective[x_edge[edge]] = objective.get(
                x_edge[edge], 0) + penalty
        if loop.header == cfg.entry:
            objective[entry_var] = objective.get(entry_var, 0) + penalty
    if not objective:
        objective[entry_var] = 0
    model.set_objective(objective)
    return model.solve()


def solve_knapsack_ilp(items, capacity: int):
    """0/1 knapsack via ILP: returns (chosen names, total benefit)."""
    candidates = [it for it in items if it.benefit > 0 and
                  it.size <= capacity]
    if not candidates:
        return set(), 0.0
    model = Model("spm_knapsack", maximize=True)
    xs = {it.name: model.add_var(f"y_{it.name}", lo=0, hi=1, integer=True)
          for it in candidates}
    model.add_le({xs[it.name]: it.size for it in candidates}, capacity)
    model.set_objective({xs[it.name]: it.benefit for it in candidates})
    solution = model.solve()
    assert solution.status == Status.OPTIMAL, solution.status
    chosen = {it.name for it in candidates
              if round(solution[xs[it.name]]) == 1}
    total = sum(it.benefit for it in candidates if it.name in chosen)
    return chosen, total
