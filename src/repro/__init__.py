"""repro — reproduction of "Internet Mobility 4x4" (SIGCOMM 1996).

The package layers, bottom to top:

* :mod:`repro.netsim`   — packet-level network simulator (IPv4, links,
  ARP, routers, filtering, fragmentation, ICMP, tunneling).
* :mod:`repro.transport` — simplified UDP/TCP and a socket API with the
  bind-address semantics of the paper's §7.1.1.
* :mod:`repro.mobileip` — Mobile IP: home agent, mobile host, foreign
  agent, correspondent hosts, registration, DNS extension.
* :mod:`repro.core`     — the paper's contribution: the 4x4 grid of
  routing modes and the machinery that picks a cell per conversation.
* :mod:`repro.apps`     — application workloads (HTTP, telnet, DNS,
  NFS, multicast) used by examples and benchmarks.
* :mod:`repro.analysis` — metrics, canonical figure scenarios, and
  reporting helpers.

Above them sit :mod:`repro.experiment` (specs, the runner, sweeps and
the result cache), :mod:`repro.obs` (metrics, spans, the run ledger),
:mod:`repro.verify` (invariants, adversaries, fuzzing) and
:mod:`repro.bench` (the golden trace digest).

Subpackages, and the names each exports, load on first use (see
:mod:`repro._lazy`): ``import repro`` loads no simulator, and
``repro.netsim.Simulator`` imports just what it needs.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(globals(), {
    package: (package,) for package in (
        "analysis", "apps", "bench", "core", "experiment", "mobileip",
        "netsim", "obs", "transport", "verify",
    )
})
__all__.append("__version__")
