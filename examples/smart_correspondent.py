#!/usr/bin/env python3
"""Figures 4 & 5: the triangle-routing penalty and the two cures.

A correspondent sits one backbone hop away from the mobile host's
visited network, while the home agent is at the far end.  The script
measures a datagram stream three ways:

1. conventional correspondent — every packet triangles via the home
   agent (Figure 4's pathological case);
2. mobile-aware correspondent learning from the home agent's ICMP
   care-of advisory (Figure 5) — the first packet triangles, the rest
   go directly (In-DE);
3. mobile-aware correspondent that consults the DNS temporary-address
   record the mobile host registered (§3.2's second mechanism) — no
   packet triangles at all.

Run:  python examples/smart_correspondent.py
"""

from repro.analysis import MH_HOME_ADDRESS, build_scenario
from repro.mobileip import Awareness, Resolver

STREAM = 5


def stream_latencies(scenario, before=None):
    sim = scenario.sim
    mh_sock = scenario.mh.stack.udp_socket(7000)
    mh_sock.on_receive(lambda *a: None)
    ch_sock = scenario.ch.stack.udp_socket()
    sent, latencies = {}, []
    mh_sock.on_receive(lambda d, s, ip, p: latencies.append(sim.now - sent[d]))
    if before is not None:
        before()
        sim.run_for(5)

    def send(index):
        sent[index] = sim.now
        ch_sock.sendto(index, 200, MH_HOME_ADDRESS, 7000)

    for index in range(STREAM):
        sim.events.schedule(index * 1.0, send, index)
    sim.run_for(30)
    return latencies


def build(awareness, notify=False, with_dns=False, seed=4):
    return build_scenario(
        seed=seed, backbone_size=7, ch_attach=5, ch_awareness=awareness,
        notify_correspondents=notify, with_dns=with_dns,
        visited_filtering=False,
    )


def show(label, latencies, scenario):
    print(f"{label}")
    for index, latency in enumerate(latencies):
        print(f"  packet {index}: {latency*1000:7.2f} ms")
    print(f"  (home agent tunneled {scenario.ha.packets_tunneled}, "
          f"correspondent sent {scenario.ch.direct_tunneled} In-DE)")
    print()


def main() -> None:
    print(f"Correspondent is 1 hop from the MH; home agent is 6 hops away.\n")

    conventional = build(Awareness.CONVENTIONAL)
    show("1. Conventional correspondent (every packet In-IE):",
         stream_latencies(conventional), conventional)

    advisory = build(Awareness.MOBILE_AWARE, notify=True)
    show("2. Mobile-aware + ICMP care-of advisory (Figure 5):",
         stream_latencies(advisory), advisory)

    dns_scenario = build(Awareness.MOBILE_AWARE, with_dns=True)
    # The mobile host registers its care-of address with the DNS
    # itself; a second lets the update land before the lookup.
    dns_scenario.mh.update_dns("mh.home.example", dns_scenario.dns_ip,
                               lifetime=300.0)
    dns_scenario.sim.run_for(1)
    resolver = Resolver(dns_scenario.ch.stack, dns_scenario.dns_ip)

    def lookup_first():
        resolver.lookup(
            "mh.home.example",
            lambda answer: dns_scenario.ch.learn_binding(
                MH_HOME_ADDRESS, answer.temporary, answer.tmp_lifetime)
            if answer.temporary else None,
        )

    show("3. Mobile-aware + DNS temporary-address record (§3.2):",
         stream_latencies(dns_scenario, before=lookup_first), dns_scenario)

    print("Shape to notice: (1) is uniformly slow; (2) is slow once then fast;")
    print("(3) is uniformly fast — the lookup happens before any data flows.")


if __name__ == "__main__":
    main()
