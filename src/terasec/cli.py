"""Command-line interface: train/evaluate policies, compare bands, and dump
topology, traffic and link-budget diagnostics.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .constellation import build_walker
from .harness import ConfigError, ExperimentConfig, load_config
from .thz_link import band_preset, link_rate, noise_power, path_gain, link_gain, sinr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    raw = json.loads(json.dumps(cfg.raw))
    if getattr(args, "policy", None):
        raw["policy"] = args.policy
    if getattr(args, "steps", None) is not None:
        raw["train"]["steps"] = args.steps
    if getattr(args, "out", None):
        raw["output_dir"] = args.out
    return ExperimentConfig.from_dict(raw)


def _dump_traffic(cfg: ExperimentConfig, seed: int, out_dir: str) -> str:
    env = harness.build_environment(cfg, seed)
    path = f"{out_dir}/traffic_seed{seed}.csv"
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash()} seed={seed}\n")
        fh.write("source," + ",".join(f"slot{j}"
                                      for j in range(env.counts.shape[1])) + "\n")
        for i, src in enumerate(env.sources):
            fh.write(str(src) + "," + ",".join(str(int(c))
                                               for c in env.counts[i]) + "\n")
    return path


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seeds = args.seed or [0]
    if args.dump_traffic:
        import os
        os.makedirs(cfg.output_dir, exist_ok=True)
        for seed in seeds:
            print("traffic:", _dump_traffic(cfg, seed, cfg.output_dir))
    summaries, aggregate = harness.run_experiment(
        cfg, seeds,
        on_progress=lambda s: print(
            f"seed {s.seed}: U={s.converged_u:.3f} "
            f"T_avg={s.converged_t_avg_ms:.1f}ms "
            f"({s.wall_clock_per_step_s * 1e3:.0f} ms/step, "
            f"{s.parameter_count} params) -> {s.metrics_csv}"))
    print(json.dumps(aggregate, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seed = (args.seed or [0])[0]
    env, policy = harness.restored_policy(cfg, seed, args.checkpoint)
    steps = args.steps or min(cfg.train.steps, 50)
    rows = [r["outcome"] for r in harness.rollout_policy(env, policy, steps)]
    u = float(np.mean([o.u_total for o in rows]))
    t_avg = float(np.mean([o.t_avg for o in rows]))
    t_max = float(np.max([o.t_max for o in rows]))
    print(json.dumps({"policy": cfg.policy, "seed": seed, "steps": steps,
                      "U": u, "T_avg_ms": t_avg * 1e3, "T_max_ms": t_max * 1e3,
                      "config_hash": cfg.config_hash()}, indent=2))
    return EXIT_OK


def cmd_compare_bands(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seed = (args.seed or [0])[0]
    table = harness.compare_bands(cfg, seed, checkpoint=args.checkpoint,
                                  steps=args.steps)
    thz = table["thz"]["t_avg_s"]
    for name, row in table.items():
        row["t_avg_vs_thz"] = row["t_avg_s"] / thz if thz > 0 else float("inf")
    print(json.dumps({"config_hash": cfg.config_hash(), "seed": seed,
                      "bands": table}, indent=2))
    return EXIT_OK


def cmd_dump_topology(args) -> int:
    """Emit the full ISL edge list as CSV: sat_a,sat_b,distance_km."""
    cfg = _apply_overrides(load_config(args.config), args)
    t = cfg.walker.epoch_s
    edges = build_walker(cfg.walker).isl_edges(t)
    lines = [f"# config_hash={cfg.config_hash()} t={t}", "sat_a,sat_b,distance_km"]
    lines += [f"{a},{b},{d:.6f}" for a, b, d in edges]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print("wrote", args.out, f"({len(edges)} edges)")
    else:
        print(text)
    return EXIT_OK


def cmd_linkbudget(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    tx, rx = np.zeros(3), np.array([args.distance_km, 0.0, 0.0])
    lines = [f"# config_hash={cfg.config_hash()} distance_km={args.distance_km}"
             f" p_max_w={cfg.budget.p_max_w} subarrays={cfg.array.s_max}",
             "band,subband,center_ghz,bandwidth_ghz,noise_w,sinr_db,rate_gbps"]
    for name in harness.BAND_NAMES:
        band = band_preset(name, "offloading")
        k = band.n_subbands
        sigma2 = noise_power(cfg.budget.noise_temperature_k, band.bandwidth_hz)
        h2 = link_gain(cfg.array.s_max, cfg.array.rx_subarrays_per_isl, cfg.array,
                       path_gain(band.centers_hz, tx, rx),
                       gain_interpretation=cfg.budget.gain_interpretation,
                       element_gain_scale=band.element_gain_scale)
        gammas = sinr(cfg.budget.p_max_w / k, h2, cfg.budget.interference_mean_w,
                      sigma2)
        rates = link_rate(np.ones((k, 1)), gammas[:, None], band.bandwidth_hz)
        for ki, f in enumerate(band.centers_hz):
            lines.append(f"{name},{ki},{f / 1e9:.6g},{band.bandwidth_hz / 1e9:.6g},"
                         f"{sigma2:.6g},{10 * np.log10(gammas[ki]):.4f},"
                         f"{rates[ki] / 1e9:.6g}")
        lines.append(f"{name},total,,,,,{rates.sum() / 1e9:.6g}")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terasec",
        description="LEO satellite-edge-computing simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, policy=True):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, action="append",
                       help="run seed (repeatable)")
        p.add_argument("--steps", type=int, help="override training steps")
        p.add_argument("--out", help="override output directory")
        if policy:
            p.add_argument("--policy", choices=harness.POLICY_NAMES)

    p = sub.add_parser("train", help="train/run a policy and write CSVs")
    common(p)
    p.add_argument("--dump-traffic", action="store_true",
                   help="also dump the per-source task-count matrix")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="roll out a policy without learning")
    common(p)
    p.add_argument("--checkpoint", help="parameter checkpoint to restore")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare-bands",
                       help="replay identical allocations across bands")
    common(p)
    p.add_argument("--checkpoint", help="parameter checkpoint to restore")
    p.set_defaults(func=cmd_compare_bands)

    p = sub.add_parser("dump-topology",
                       help="dump the ISL edge list as CSV")
    common(p, policy=False)
    p.set_defaults(func=cmd_dump_topology)

    p = sub.add_parser("linkbudget",
                       help="single-link budget table per band")
    common(p, policy=False)
    p.add_argument("--distance-km", type=float, default=1969.9)
    p.set_defaults(func=cmd_linkbudget)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
