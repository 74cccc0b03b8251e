"""Mutation checks for the test suite, with the standard library only.

Each edit of MUTANTS is applied to a temporary copy of src/, and the edit's
named tests run against that copy with `python -m pytest -x -q`, one mutant
after another.  A mutant whose tests fail is killed; one whose tests pass
survived, which means a test is missing or that no test constrains that
code.  KNOWN_SURVIVORS lists the survivors kept on purpose, with the reason.

    python tests/mutants.py [NAME ...]

runs every mutant, or the named ones, from any directory.  It exits 1 if a
mutant outside KNOWN_SURVIVORS survives, 2 if an edit's target text does
not occur exactly once in its file or a test run cannot start, and 0
otherwise.  Tier-1 does not collect this file; tests/test_mutants.py checks
the list against the source.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a mutant whose tests run longer than this is reported as killed (hung)
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str          # the edited file, relative to src/terasec
    old: str           # text that occurs exactly once in that file
    new: str
    tests: tuple       # pytest node ids, relative to the repository root


_LAYOUT_TEST = ("tests/test_agent.py::"
                "test_critic_input_equals_the_chain_it_replaced")
_TD_STEP_TEST = ("tests/test_agent.py::"
                 "test_lean_training_equals_the_reference_step")
_ADAM_TEST = ("tests/test_autodiff.py::"
              "test_adam_equals_the_reference_step")
_SHARE_RAISES = ("tests/test_autodiff.py::test_a_share_that_raises_"
                 "fails_the_step_and_leaves_no_thread")
_FACTORS_TEST = ("tests/test_autodiff.py::test_adam_from_factors_equals_the_"
                 "reference_from_the_formed_gradient")
_FILL_TEST = ("tests/test_autodiff.py::"
              "test_rank_one_fill_by_blocks_equals_the_formed_gradient")
_NEIGHBOR_SUM_TEST = ("tests/test_autodiff.py::"
                      "test_blocked_neighbor_sum_has_the_bits_of_the_k_loop")
_HEAP_TEST = ("tests/test_sec_sim.py::"
              "test_route_tree_pass_equals_the_heap")
_FIFO_TEST = "tests/test_sec_sim.py::test_slot_shared_fifo_relay"
_BAND_REPLAY_TEST = ("tests/test_env.py::"
                     "test_every_band_replay_equals_the_full_per_band_reference")
_GCN_TESTS = ("tests/test_autodiff.py::"
              "test_a_gcn_layer_has_the_bits_of_the_three_op_chain",
              "tests/test_learner_pin.py")
_SUB_GRAPH_TEST = ("tests/test_agent.py::"
                   "test_the_offloading_sub_graph_has_the_bits_of_the_row_path")
#: the mutants of autodiff.sub_graph's tables
SUB_GRAPH_MUTANTS = ("sub_graph_back_entry_at_a_real_row",
                     "sub_graph_hop_without_the_neighbours",
                     "sub_graph_last_table_in_graph_indices")
#: mutant name -> (module, function) whose source holds its target text
TARGET_FUNCTIONS = {
    "live_row_gradient_at_one_dead_entry": ("baselines",
                                            "_FlatCritic.live_row"),
    "subarrays_without_the_pre_allocated_one": ("sec_sim",
                                                "quantize_subarrays"),
    "power_without_the_clip_of_tiny_negatives": ("sec_sim",
                                                 "quantize_power"),
    "metrics_row_u_p_and_u_s_swapped": ("harness", "_metrics_row"),
    "summary_t_avg_from_the_t_max_column": ("harness", "run_experiment"),
    "sinr_features_over_every_sub_band": ("env", "SecWindow._record_sinrs"),
    "critic_seed_without_its_factor_2": ("agent", "GrantAgent.train_step"),
    "ascent_seed_positive": ("agent", "GrantAgent.train_step"),
    "loss_row_critic_loss_and_q_value_swapped": ("harness", "_loss_row"),
    "rates_without_the_gs_absorption": ("env", "SecWindow._rate_phase"),
    "first_gradient_shares_its_array": ("autodiff", "Tensor._accumulate"),
    "walk_skips_a_walked_output": ("autodiff", "Tensor.backward"),
    "make_reads_only_the_first_parent": ("autodiff", "Tensor._make"),
    "op_output_holds_a_rank_one_gradient": ("autodiff", "Tensor._accumulate"),
    "held_broadcast_without_zero_buffer": ("autodiff", "Tensor._accumulate"),
    "rank_one_fill_whole_matrices_shifted": ("autodiff", "RankOneGrad.fill"),
    "neighbor_sum_in_reverse_k_order": ("autodiff", "_neighbor_sum"),
    "static_demand_column_from_the_gs_flag": ("agent", "GrantAgent._bind"),
    "loads_reused_after_an_in_place_change": ("env", "SecWindow.step"),
    "offload_hops_at_outcome_link_delays": ("env", "SecWindow._evaluate"),
    "propagation_delays_of_the_first_slot": ("env", "SecWindow._geometry"),
}

MUTANTS = [
    # GrantAgent.critic_input: the critic's input layout as one graph op
    Mutant("critic_input_rows", "agent.py",
           "rows = self.sub.rows if i < n_to else slice(None)",
           "rows = slice(len(self.sub.rows)) if i < n_to else slice(None)",
           (_LAYOUT_TEST,)),
    Mutant("critic_input_gradient_column_offset", "agent.py",
           "buf[:, :cols] = g[rows, lo:lo + cols]",
           "buf[:, :cols] = g[rows, lo - 1:lo + cols - 1]",
           (_LAYOUT_TEST,)),
    Mutant("critic_input_gradient_into_the_slack", "agent.py",
           "buf[:, :cols] = g[rows, lo:lo + cols]",
           "buf[:, -cols:] = g[rows, lo:lo + cols]",
           (_LAYOUT_TEST,)),
    # GrantAgent.train_step: each backward pass seeded with its own gradient
    Mutant("critic_seed_without_its_factor_2", "agent.py",
           "q.backward(np.array([[2.0 * diff]]))",
           "q.backward(np.array([[diff]]))",
           (_TD_STEP_TEST,)),
    Mutant("ascent_seed_positive", "agent.py",
           "q_pi.backward(np.array([[-1.0]]))",
           "q_pi.backward(np.array([[1.0]]))",
           (_TD_STEP_TEST,)),
    # GrantAgent._bind: the static feature columns, L_e as the source flag
    Mutant("static_demand_column_from_the_gs_flag", "agent.py",
           "phi_off, zero, zero, zero, zero, phi_off,",
           "(env.involved == env.gs_flat).astype(float), zero, zero, zero, "
           "zero, phi_off,",
           ("tests/test_agent.py::"
            "test_static_features_equal_the_per_satellite_rebuild",)),
    # _FlatCritic.live_row: the dense critic's live inputs as one graph op
    Mutant("live_row_gradient_at_one_dead_entry", "baselines.py",
           "buf[self.live] = g[0]",
           "buf[self.live] = g[0]\n            buf[self.dead[:1]] = g[0, :1]",
           ("tests/test_baselines.py::"
            "test_the_live_row_has_the_bits_of_the_chain_it_replaced",)),
    # autodiff.sub_graph: the offloading actor's tables on the sources'
    # neighbourhood
    Mutant(SUB_GRAPH_MUTANTS[0], "autodiff.py",
           "pos = np.full(idx.shape[0], len(rows))",
           "pos = np.full(idx.shape[0], len(rows) - 1)",
           (_SUB_GRAPH_TEST,)),
    Mutant(SUB_GRAPH_MUTANTS[1], "autodiff.py",
           "near[table.idx[rows]] = True", "near[rows] = True",
           (_SUB_GRAPH_TEST,)),
    Mutant(SUB_GRAPH_MUTANTS[2], "autodiff.py",
           "at(in_rows)[idx[out_rows]]", "idx[out_rows]",
           (_SUB_GRAPH_TEST,)),
    # Tensor: an op's output built directly, a first gradient with the bits
    # of a zero buffer plus g, and the walk over op outputs only
    Mutant("first_gradient_shares_its_array", "autodiff.py",
           "self._grad = g + 0.0", "self._grad = g",
           ("tests/test_autodiff.py::"
            "test_first_gradient_equals_a_zero_buffer_plus_g",)),
    Mutant("held_broadcast_without_zero_buffer", "autodiff.py",
           "np.broadcast_to(g + 0.0, self.data.shape)",
           "np.broadcast_to(g, self.data.shape)",
           ("tests/test_autodiff.py::"
            "test_first_gradient_equals_a_zero_buffer_plus_g",)),
    Mutant("op_output_holds_a_rank_one_gradient", "autodiff.py",
           "if self._grad is None and self._vjp is None:",
           "if self._grad is None:",
           ("tests/test_autodiff.py::"
            "test_an_op_output_forms_a_rank_one_gradient_at_once",)),
    Mutant("walk_skips_a_walked_output", "autodiff.py",
           "if p._parents != () and id(p) not in seen:",
           "if p._parents and id(p) not in seen:",
           ("tests/test_autodiff.py::"
            "test_a_walk_that_raises_leaves_no_closure_to_call_again",
            "tests/test_step_memory.py::"
            "test_a_graph_that_meets_a_walked_tensor_cannot_be_walked")),
    Mutant("make_reads_only_the_first_parent", "autodiff.py",
           "        for p in parents:\n            if p.requires_grad:",
           "        for p in parents[:1]:\n            if p.requires_grad:",
           ("tests/test_autodiff.py::"
            "test_an_op_records_its_graph_when_any_parent_needs_a_gradient",)),
    # Adam's step split across the CPUs
    Mutant("adam_share_edge_off_by_one", "autodiff.py",
           "start, stop = total * k // shares, total * (k + 1) // shares",
           "start, stop = total * k // shares, total * (k + 1) // shares + 1",
           (_ADAM_TEST,)),
    Mutant("adam_share_not_joined", "autodiff.py",
           "t.join()", "t.is_alive()",
           (_SHARE_RAISES, _ADAM_TEST)),
    Mutant("adam_share_error_dropped", "autodiff.py",
           "raise errors[0]", "errors.clear()",
           (_SHARE_RAISES,)),
    # RankOneGrad.fill: a rank-one gradient formed a block at a time
    Mutant("rank_one_fill_without_zero_buffer", "autodiff.py",
           "return np.add(out, 0.0, out=out)", "return out",
           (_FACTORS_TEST,)),
    Mutant("rank_one_fill_shifted_block", "autodiff.py",
           "r, j = divmod(lo + at, n)", "r, j = divmod(lo + at + 1, n)",
           (_FACTORS_TEST,)),
    Mutant("rank_one_fill_whole_matrices_shifted", "autodiff.py",
           "np.multiply(x[b:b + mats, :, None]",
           "np.multiply(x[b + 1:b + 1 + mats, :, None]",
           (_FILL_TEST,)),
    # _neighbor_sum: a row block's terms gathered and summed by one einsum;
    # the same products summed in the other order differ only in rounding.
    # The terms are gathered in reverse, since einsum's iterator walks
    # reversed views of both operands forward, in the original order
    Mutant("neighbor_sum_in_reverse_k_order", "autodiff.py",
           'x.take(ix, axis=0, out=t, mode="clip")\n'
           '        np.einsum("mk,kmj->mj", weight[lo:lo + per], t,',
           'x.take(ix[::-1], axis=0, out=t, mode="clip")\n'
           '        np.einsum("mk,kmj->mj", weight[lo:lo + per, ::-1], t,',
           (_NEIGHBOR_SUM_TEST,)),
    Mutant("neighbor_sum_over_reversed_views", "autodiff.py",
           'np.einsum("mk,kmj->mj", weight[lo:lo + per], t,',
           'np.einsum("mk,kmj->mj", weight[lo:lo + per, ::-1], t[::-1],',
           (_NEIGHBOR_SUM_TEST,)),
    # Constellation.shortest_path_tree: a cost tie goes to the smaller id
    Mutant("routing_tie_to_the_larger_id", "constellation.py",
           "(j < parent)", "(j > parent)",
           ("tests/test_constellation.py::"
            "test_shortest_path_tree_equals_the_per_satellite_build",)),
    # the simulator: the FIFO walk, the quantizers, the route order, the
    # local path, the link rates, the SINR features, the slot record and
    # what its band replays share, and the failed run's marker
    Mutant("fifo_waits_at_an_exact_free_link", "sec_sim.py",
           "if free > t:", "if free >= t:",
           (_HEAP_TEST, _FIFO_TEST)),
    Mutant("fifo_tie_without_flow_order", "sec_sim.py",
           "queue.sort()", "queue.sort(key=lambda a: a[0])",
           (_HEAP_TEST,)),
    Mutant("offload_remainder_to_the_last_column", "sec_sim.py",
           "tasks[:, 0] = remaining",
           "tasks[:, 0] = 0\n    tasks[:, -1] += remaining",
           tuple(f"tests/test_sec_sim.py::test_offload_{name}" for name in (
               "all_self", "uniform_oracle", "conservation_never_negative"))),
    Mutant("subarrays_without_the_pre_allocated_one", "sec_sim.py",
           "return (1 + np.floor(np.clip(ratios, 0.0, None) * rest))",
           "return (0 + np.floor(np.clip(ratios, 0.0, None) * rest))",
           ("tests/test_sec_sim.py::test_subarrays_equal_split_oracle",
            "tests/test_sec_sim.py::test_subarrays_floor_and_full")),
    Mutant("power_without_the_clip_of_tiny_negatives", "sec_sim.py",
           "return np.clip(ratios, 0.0, None) * p_max_w",
           "return ratios * p_max_w",
           ("tests/test_sec_sim.py::"
            "test_power_quantizer_clips_tiny_negative_ratios",)),
    Mutant("route_order_one_doubling_short", "sec_sim.py",
           "for _ in range(n.bit_length()):",
           "for _ in range(n.bit_length() - 1):",
           ("tests/test_sec_sim.py::test_route_tree_order_feeds_forward",)),
    Mutant("no_local_path_for_a_source_that_offloads_nothing", "sec_sim.py",
           "has_path[:, 0] |= tasks[:, 1:].sum(axis=1) == 0",
           "has_path[:, 0] |= False",
           ("tests/test_env.py::test_array_slot_equals_the_dict_path",)),
    Mutant("rates_without_the_gs_absorption", "env.py",
           "for i, path in geometry.downlinks[phase]:",
           "for i, path in geometry.downlinks[phase][:0]:",
           ("tests/test_env.py::test_array_pass_equals_the_per_link_loop",)),
    Mutant("sinr_features_over_every_sub_band", "env.py",
           "np.divide(db_sum, n_active, where=n_active > 0,",
           "np.divide(db_sum, g.shape[1], where=n_active > 0,",
           ("tests/test_env.py::test_array_pass_equals_the_per_link_loop",)),
    Mutant("slot_record_holds_the_bundle_itself", "env.py",
           "[a.copy() for a in arrays]", "list(arrays)",
           ("tests/test_env.py::"
            "test_a_replay_is_not_reused_for_other_inputs",)),
    Mutant("loads_reused_after_an_in_place_change", "env.py",
           "slot = self._slot = self._record(bundle, arrays, slot.geometry)",
           "slot = self._slot = self._record(bundle, arrays, slot.geometry"
           ")._replace(loads=slot.loads)",
           (_BAND_REPLAY_TEST,)),
    Mutant("offload_hops_at_outcome_link_delays", "env.py",
           "prop_to_s=prop_to,",
           "prop_to_s=np.reshape(prop_ot[:prop_to.size], prop_to.shape),",
           (_BAND_REPLAY_TEST,)),
    # a stale slot record: every slot after the first reads the first
    # slot's propagation delays (the window's set-up rates slot 0's instant)
    Mutant("propagation_delays_of_the_first_slot", "env.py",
           "prop_to, prop_ot = map(sec_sim.propagation_delay, distances)",
           "prop_to, prop_ot = self.__dict__.setdefault(\"_first_delays\", "
           "list(map(sec_sim.propagation_delay, distances)))",
           (_BAND_REPLAY_TEST,)),
    Mutant("failed_marker_one_step_late", "harness.py",
           'marker = f"# FAILED step={max(whole, 0)} ',
           'marker = f"# FAILED step={max(whole, 0) + 1} ',
           ("tests/test_harness.py::test_run_experiment_failure_marker",
            "tests/test_cli.py::test_a_non_finite_outcome_fails_the_run_"
            "instead_of_being_written")),
    # the harness's metrics row, summary and loss row
    Mutant("metrics_row_u_p_and_u_s_swapped", "harness.py",
           "outcome.u_total, outcome.u_power, outcome.u_subarray,",
           "outcome.u_total, outcome.u_subarray, outcome.u_power,",
           ("tests/test_harness.py::"
            "test_a_metrics_row_holds_each_value_under_its_column",)),
    Mutant("summary_t_avg_from_the_t_max_column", "harness.py",
           "converged_t_avg_ms=float(tail[:, 4].mean()),",
           "converged_t_avg_ms=float(tail[:, 5].mean()),",
           ("tests/test_harness.py::test_the_converged_fields_are_the_means_"
            "of_the_last_rows_written",)),
    Mutant("loss_row_critic_loss_and_q_value_swapped", "harness.py",
           'record["critic_loss"], record["q_value"], record["actor_lr"]',
           'record["q_value"], record["critic_loss"], record["actor_lr"]',
           ("tests/test_harness.py::"
            "test_a_loss_row_holds_each_value_under_its_column",)),
    # the zero-buffer replays kept on purpose (see KNOWN_SURVIVORS)
    Mutant("gcn_backward_without_zero_buffer", "autodiff.py",
           "np.add(d, 0.0, out=d)", "d = d", _GCN_TESTS),
    Mutant("bound_logits_without_second_zero_buffer", "agent.py",
           "np.add(d, 0.0, out=d)", "d = d",
           ("tests/test_agent.py::"
            "test_bound_logits_has_the_bits_of_the_three_op_chain",
            "tests/test_learner_pin.py")),
]

_ZERO_BUFFER_REASON = (
    "this OpenBLAS's matmuls never return -0.0, so no bit moves; the + 0.0 "
    "replays the chain the op replaced, so the bits do not rest on one BLAS")

#: survivors kept on purpose: mutant name -> reason
KNOWN_SURVIVORS = {
    "gcn_backward_without_zero_buffer": _ZERO_BUFFER_REASON,
    "bound_logits_without_second_zero_buffer": _ZERO_BUFFER_REASON,
    "neighbor_sum_over_reversed_views": (
        "einsum's iterator walks an axis that every operand strides "
        "backwards forward, so the terms are summed in the gathered order "
        "and no bit moves; the summing order follows the term buffer's "
        "memory, which neighbor_sum_in_reverse_k_order reverses"),
}


def source_path(mutant: Mutant, src: str = os.path.join(ROOT, "src")) -> str:
    return os.path.join(src, "terasec", mutant.path)


def stale_targets(mutants=MUTANTS) -> list:
    """(name, count) of each mutant whose target text does not occur
    exactly once in its file at this checkout."""
    stale = []
    for m in mutants:
        with open(source_path(m)) as fh:
            count = fh.read().count(m.old)
        if count != 1:
            stale.append((m.name, count))
    return stale


def run_mutant(mutant: Mutant, scratch: str) -> str:
    """'killed', 'survived' or 'error: ...' for mutant, its edit applied to
    a fresh copy of src/ under scratch."""
    src = os.path.join(scratch, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = source_path(mutant, src)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new, 1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # the copy, not an installed terasec, must be the one imported
    where = subprocess.run(
        [sys.executable, "-c", "import terasec; print(terasec.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True)
    if not where.stdout.startswith(src):
        return f"error: terasec imports from {where.stdout.strip()!r}"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed"
    # pytest: 0 all passed, 1 a test failed, 2 collection failed or stopped
    if proc.returncode == 0:
        return "survived"
    if proc.returncode in (1, 2):
        return "killed"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {proc.returncode} {tail}"


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    stale = stale_targets(chosen)
    for name, count in stale:
        print(f"{name}: target text occurs {count} times", file=sys.stderr)
    if stale:
        return 2
    unexpected = errors = 0
    with tempfile.TemporaryDirectory(prefix="terasec-mutants-") as scratch:
        for m in chosen:
            result = run_mutant(m, scratch)
            note = ""
            if result == "survived":
                if m.name in KNOWN_SURVIVORS:
                    note = f" (known: {KNOWN_SURVIVORS[m.name]})"
                else:
                    unexpected += 1
                    note = " (UNEXPECTED)"
            errors += result.startswith("error")
            print(f"{m.name}: {result}{note}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} unexpected survivors, "
          f"{errors} errors")
    return 2 if errors else 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
