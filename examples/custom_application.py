#!/usr/bin/env python3
"""Extending the library: evaluate your own packet kernel.

The paper's methodology generalises to any application that can tolerate
faults.  This example defines a new kernel -- a stateless firewall doing
linear ACL matching over an in-memory rule table -- plugs it into the
framework, and measures its error behaviour under over-clocking, exactly
as the seven NetBench kernels are measured.

It demonstrates the full extension surface:

* subclass :class:`repro.apps.base.NetBenchApp`;
* build rule state in simulated memory in ``control_plane`` (so faults
  can corrupt it) and register it for initialization-error sampling;
* read packet fields through the cache in ``process_packet`` and return
  observations;
* drive everything with the low-level environment + injector, bypassing
  the registry.
"""

from repro.apps.base import Environment, NetBenchApp
from repro.apps.app_tl import read_destination
from repro.core.fault_model import FaultModel
from repro.core.recovery import NO_DETECTION, TWO_STRIKE
from repro.cpu.processor import Processor
from repro.mem.allocator import BumpAllocator
from repro.mem.faults import FaultInjector
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.view import MemView
from repro.net.ip import IPV4_HEADER_BYTES, ip_to_int
from repro.net.trace import make_prefixes, routed_trace

#: ACL rule layout: [network, mask, action] words.
RULE_BYTES = 12
ACTION_DENY, ACTION_ALLOW = 0, 1


class FirewallApp(NetBenchApp):
    """Stateless firewall: first-match linear scan over an ACL."""

    name = "route"  # reuse a registered name: the framework only checks it
    categories = ("verdict", "rule_index")

    def __init__(self, env: Environment, rules) -> None:
        super().__init__(env)
        self.rules = rules
        self.buffer = env.allocator.alloc("fw_header", IPV4_HEADER_BYTES)
        self.table = env.allocator.alloc("fw_acl", len(rules) * RULE_BYTES)

    def control_plane(self) -> None:
        view = self.env.view
        for index, (network, mask, action) in enumerate(self.rules):
            base = self.table.address + index * RULE_BYTES
            view.write_u32(base, network)
            view.write_u32(base + 4, mask)
            view.write_u32(base + 8, action)
            self.env.work(10)
        self.register_static_region(self.table)

    def process_packet(self, packet, index):
        view = self.env.view
        header = packet.wire_bytes[:IPV4_HEADER_BYTES]
        self.env.work(len(header))
        view.write_bytes(self.buffer.address, header)
        destination = read_destination(self.env, self.buffer.address)
        verdict, rule_index = ACTION_DENY, -1   # default deny
        for position in range(len(self.rules)):
            base = self.table.address + position * RULE_BYTES
            network = view.read_u32(base)
            mask = view.read_u32(base + 4)
            self.env.work(5)
            if destination & mask == network:
                verdict = view.read_u32(base + 8)
                rule_index = position
                break
        return {"verdict": verdict, "rule_index": rule_index}


def build_stack(policy, cycle_time, scale, seed=17):
    processor = Processor()
    injector = FaultInjector(model=FaultModel.calibrated(), seed=seed,
                             scale=scale)
    hierarchy = MemoryHierarchy(processor, injector, policy=policy,
                                cycle_time=cycle_time)
    allocator = BumpAllocator(0x1000, (1 << 22) - 0x1000)
    return Environment(processor=processor, hierarchy=hierarchy,
                       view=MemView(hierarchy), allocator=allocator)


def run(policy, cycle_time, scale, packets, rules):
    env = build_stack(policy, cycle_time, scale)
    app = FirewallApp(env, rules)
    app.run_control_plane()
    env.hierarchy.l1d.flush()
    return [app.run_packet(packet, i) for i, packet in enumerate(packets)]


def main() -> None:
    prefixes = make_prefixes(16, seed=5)
    packets = routed_trace(400, prefixes, seed=5, payload_bytes=0)
    rules = [(prefix.network,
              0xFFFFFFFF << (32 - prefix.length) & 0xFFFFFFFF
              if prefix.length else 0,
              ACTION_ALLOW if index % 3 else ACTION_DENY)
             for index, prefix in enumerate(prefixes[1:9])]

    golden = run(NO_DETECTION, 1.0, scale=0.0, packets=packets, rules=rules)
    print("Custom firewall kernel under cache over-clocking\n")
    print(f"{'configuration':34s} {'verdict errors':>15s}")
    print("-" * 50)
    for cycle_time in (1.0, 0.5, 0.25):
        for policy in (NO_DETECTION, TWO_STRIKE):
            observations = run(policy, cycle_time, scale=40.0,
                               packets=packets, rules=rules)
            errors = sum(1 for observed, reference
                         in zip(observations, golden)
                         if observed != reference)
            label = f"Cr={cycle_time}, {policy.name}"
            print(f"{label:34s} {errors:15d}")
    print("\nA wrong ALLOW verdict here is a security event, not a dropped"
          "\npacket -- the kind of application the paper's fallibility"
          "\nweighting (n=2) exists to protect.")


if __name__ == "__main__":
    main()
