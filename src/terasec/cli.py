"""Command-line interface: train/evaluate policies, compare bands, and dump
topology, traffic and link-budget diagnostics.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 runtime error,
130 stopped by SIGINT, 143 stopped by SIGTERM.
"""
from __future__ import annotations

import argparse
import functools
import json
import signal
import sys

import numpy as np

from . import harness
from .agent import require_finite
from .constellation import Constellation
from .harness import ConfigError, ExperimentConfig, load_config
from .thz_link import band_preset, link_rate, noise_power, path_gain, link_gain, sinr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


def _terminate(signum, frame):
    """SIGTERM: stop as on SIGINT, wherever the program is."""
    raise KeyboardInterrupt(signal.SIGTERM)


def _overrides(args) -> dict:
    """A run command's --policy, --steps and --out as a config layer over
    the file's; the diagnostic commands take none of them."""
    layer = {}
    if getattr(args, "policy", None):
        layer["policy"] = args.policy
    if getattr(args, "steps", None) is not None:
        layer["train"] = {"steps": args.steps}
    if getattr(args, "out", None):
        layer["output_dir"] = args.out
    return layer


def _dump_traffic(cfg: ExperimentConfig, seed: int, env) -> None:
    path = f"{cfg.output_dir}/traffic_seed{seed}.csv"
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.config_hash()} seed={seed}\n")
        fh.write("source," + ",".join(f"slot{j}"
                                      for j in range(env.counts.shape[1])) + "\n")
        for i, src in enumerate(env.sources):
            fh.write(str(src) + "," + ",".join(str(int(c))
                                               for c in env.counts[i]) + "\n")
    print("traffic:", path)


def cmd_train(cfg: ExperimentConfig, args) -> int:
    summaries, aggregate = harness.run_experiment(
        cfg, args.seed,
        on_setup=functools.partial(_dump_traffic, cfg) if args.dump_traffic
        else None,
        on_progress=lambda s: print(
            f"seed {s.seed}: U={s.converged_u:.3f} "
            f"T_avg={s.converged_t_avg_ms:.1f}ms "
            f"({s.wall_clock_per_step_s * 1e3:.0f} ms/step, "
            f"{s.parameter_count} params) -> {s.metrics_csv}"))
    print(json.dumps(aggregate, indent=2))
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, args) -> int:
    seed = args.seed[0]
    env, policy = harness.restored_policy(cfg, seed, args.checkpoint)
    steps = args.steps or min(cfg.train.steps, 50)
    rows = [r["outcome"] for r in harness.rollout_policy(env, policy, steps)]
    numbers = {"U": float(np.mean([o.u_total for o in rows])),
               "T_avg_ms": float(np.mean([o.t_avg for o in rows])) * 1e3,
               "T_max_ms": float(np.max([o.t_max for o in rows])) * 1e3}
    for name, value in numbers.items():
        require_finite(name, value)
    print(json.dumps({"policy": cfg.policy, "seed": seed, "steps": steps,
                      **numbers, "config_hash": cfg.config_hash()}, indent=2))
    return EXIT_OK


def cmd_compare_bands(cfg: ExperimentConfig, args) -> int:
    seed = args.seed[0]
    table = harness.compare_bands(cfg, seed, checkpoint=args.checkpoint,
                                  steps=args.steps)
    thz = table["thz"]["t_avg_s"]
    for row in table.values():
        known = thz and row["t_avg_s"] is not None
        row["t_avg_vs_thz"] = row["t_avg_s"] / thz if known else None
    print(json.dumps({"config_hash": cfg.config_hash(), "seed": seed,
                      "bands": table}, indent=2))
    return EXIT_OK


def cmd_dump_topology(cfg: ExperimentConfig, args) -> int:
    """Emit the full ISL edge list as CSV: sat_a,sat_b,distance_km."""
    t = cfg.walker.epoch_s
    edges = Constellation(cfg.walker).isl_edges(t)
    lines = [f"# config_hash={cfg.config_hash()} t={t}", "sat_a,sat_b,distance_km"]
    lines += [f"{a},{b},{d:.6f}" for a, b, d in edges]
    text = "\n".join(lines)
    if args.csv_path:
        with open(args.csv_path, "w") as fh:
            fh.write(text + "\n")
        print("wrote", args.csv_path, f"({len(edges)} edges)")
    else:
        print(text)
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type of --seed: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _distance_km(text: str) -> float:
    """argparse type of --distance-km: a finite distance above zero."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive distance in km, got {text!r}")
    return value


def cmd_linkbudget(cfg: ExperimentConfig, args) -> int:
    lines = [f"# config_hash={cfg.config_hash()} distance_km={args.distance_km}"
             f" p_max_w={cfg.budget.p_max_w} subarrays={cfg.array.s_max}",
             "band,subband,center_ghz,bandwidth_ghz,noise_w,sinr_db,rate_gbps"]
    for name in harness.BAND_NAMES:
        band = band_preset(name, "offloading")
        k = band.n_subbands
        sigma2 = noise_power(cfg.budget.noise_temperature_k, band.bandwidth_hz)
        h2 = link_gain(cfg.array.s_max, cfg.array.rx_subarrays_per_isl, cfg.array,
                       path_gain(band.centers_hz, args.distance_km),
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

    def common(p, run=True):
        p.add_argument("--config", help="JSON experiment config file")
        if run:
            p.add_argument("--seed", type=_seed, action="append",
                           help="run seed (repeatable)")
            p.add_argument("--steps", type=int, help="override training steps")
            p.add_argument("--out", help="override output directory")
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
    common(p, run=False)
    p.add_argument("--out", dest="csv_path", help="write the CSV to this file")
    p.set_defaults(func=cmd_dump_topology)

    p = sub.add_parser("linkbudget",
                       help="single-link budget table per band")
    common(p, run=False)
    p.add_argument("--distance-km", type=_distance_km, default=1969.9)
    p.set_defaults(func=cmd_linkbudget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed = getattr(args, "seed", None) or [0]
    if args.command in ("eval", "compare-bands") and len(args.seed) > 1:
        parser.error(f"{args.command} takes one --seed, got {args.seed}")
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(load_config(args.config, _overrides(args)), args)
    except KeyboardInterrupt as exc:
        stop = signal.Signals(exc.args[0]) if exc.args else signal.SIGINT
        print(f"stopped by {stop.name}", file=sys.stderr)
        return 128 + stop
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
