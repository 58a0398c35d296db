"""``python -m repro trace <app>``: one traced run, exported event logs.

Runs a single golden-vs-faulty experiment with a :class:`Tracer`
attached, writes the event stream as JSONL and CSV, and prints the
per-epoch fault/recovery/frequency report plus a timeline summary.

``--clock`` takes the x-axis vocabulary of Figures 9-12: a static
relative cycle time (1.0, 0.75, 0.5, 0.25) or ``dynamic``, the epoch
controller of Section 4.  The defaults are deliberately hostile -- the
dynamic controller at 300x fault scale in the data plane, with
one-strike recovery and occasional undetectable L2-fill corruption --
so a default run exercises every event type the tracer knows about:
faults, strikes, fallbacks, the controller's frequency switch, epoch
boundaries, per-packet completions, and the eventual fatal error.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core.constants import NETBENCH_APPS
from repro.core.recovery import ALL_POLICIES, EXTENSION_POLICIES
from repro.harness.config import PLANES, ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.harness.figures import EDF_SETTINGS
from repro.telemetry.export import write_csv, write_jsonl
from repro.telemetry.report import render_trace_report
from repro.telemetry.tracer import Tracer

#: Defaults tuned so ``python -m repro trace route`` shows the full
#: event vocabulary (see module docstring).
DEFAULT_PACKETS = 200
DEFAULT_SEED = 6
DEFAULT_CLOCK = "dynamic"
DEFAULT_POLICY = "one-strike"
DEFAULT_FAULT_SCALE = 300.0
DEFAULT_L2_FILL = 0.01
DEFAULT_PLANES = "data"
DEFAULT_EPOCH = 50
DEFAULT_OUT = "traces"


def build_parser() -> argparse.ArgumentParser:
    """The ``trace`` subcommand's argument parser."""
    policy_names = [policy.name
                    for policy in ALL_POLICIES + EXTENSION_POLICIES]
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one traced experiment and export its event log")
    parser.add_argument("app", choices=sorted(NETBENCH_APPS),
                        help="NetBench application to trace")
    parser.add_argument("--packets", type=int, default=DEFAULT_PACKETS,
                        help=f"packets to offer (default {DEFAULT_PACKETS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"replica seed (default {DEFAULT_SEED})")
    parser.add_argument("--clock", default=DEFAULT_CLOCK,
                        choices=[str(setting) for setting in EDF_SETTINGS],
                        help=f"relative L1D cycle time, or dynamic for the "
                             f"epoch controller (default {DEFAULT_CLOCK})")
    parser.add_argument("--policy", default=DEFAULT_POLICY,
                        choices=policy_names,
                        help=f"recovery policy (default {DEFAULT_POLICY})")
    parser.add_argument("--fault-scale", type=float,
                        default=DEFAULT_FAULT_SCALE,
                        help=f"fault-rate acceleration "
                             f"(default {DEFAULT_FAULT_SCALE})")
    parser.add_argument("--l2-fill", type=float, default=DEFAULT_L2_FILL,
                        help=f"per-word L2 fill corruption probability "
                             f"(default {DEFAULT_L2_FILL})")
    parser.add_argument("--planes", default=DEFAULT_PLANES, choices=PLANES,
                        help=f"where faults are injected "
                             f"(default {DEFAULT_PLANES})")
    parser.add_argument("--epoch", type=int, default=DEFAULT_EPOCH,
                        help=f"packets per telemetry epoch "
                             f"(default {DEFAULT_EPOCH})")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output directory for event logs "
                             f"(default {DEFAULT_OUT}/)")
    return parser


def run_trace(args: argparse.Namespace) -> int:
    """Execute one traced experiment and export/print its telemetry."""
    # The CLI namespace is untyped field data, so it flows through the
    # canonical deserialization path (policy resolved by name).  A tracer
    # observes the faithful kernel, so the run is a plain
    # run_experiment: there is no backend to choose.
    dynamic = args.clock == "dynamic"
    config = ExperimentConfig.from_json({
        "app": args.app, "packet_count": args.packets, "seed": args.seed,
        "cycle_time": 1.0 if dynamic else float(args.clock),
        "policy": args.policy, "dynamic": dynamic,
        "fault_scale": args.fault_scale, "planes": args.planes,
        "l2_fill_fault_probability": args.l2_fill,
    })
    tracer = Tracer(epoch_packets=args.epoch)
    result = run_experiment(config, tracer=tracer)

    out_dir = Path(args.out)
    jsonl_path = out_dir / f"{args.app}.events.jsonl"
    csv_path = out_dir / f"{args.app}.events.csv"
    write_jsonl(tracer.events, jsonl_path)
    write_csv(tracer.events, csv_path)

    print(render_trace_report(tracer, label=config.label))
    print()
    print(f"result: {result.processed_packets}/{config.packet_count} "
          f"packets, {result.erroneous_packets} erroneous, "
          f"fatal={result.fatal}")
    print(f"events: {len(tracer.events)} -> {jsonl_path} ({csv_path})")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Standalone entry point for the trace subcommand."""
    return run_trace(build_parser().parse_args(argv))
