"""Mobile IP on the simulator: agents, hosts, registration, DNS.

The cast of the paper's figures:

* :class:`HomeAgent` — proxy-ARP capture, binding table, In-IE tunnel,
  reverse-tunnel endpoint, optional ICMP care-of advisories.
* :class:`MobileHost` — the self-sufficient mobile host with the §7
  route-override framework and the :class:`~repro.core.MobilityEngine`.
* :class:`CorrespondentHost` — conventional / decapsulation-capable /
  mobile-aware correspondents (Figure 10's rows).
* :class:`ForeignAgent` — the IETF alternative, for comparison.
* :class:`DNSServer` / :class:`Resolver` — the §3.2 temporary-address
  record extension.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "awareness": ("Awareness",),
    "binding": ("Binding", "BindingTable"),
    "correspondent": ("CorrespondentHost",),
    "dns": (
        "DNS_PORT", "DNSAnswer", "DNSQuery", "DNSServer", "DNSUpdate",
        "DNSUpdateAck", "Resolver",
    ),
    "foreign_agent": ("ForeignAgent",),
    "home_agent": ("HomeAgent",),
    "mobile_host": ("MobileHost",),
    "registration": (
        "MOBILE_IP_PORT", "AgentAdvertisement", "AgentSolicitation",
        "RegistrationReply", "RegistrationRequest", "ReplyCode",
    ),
    "tunnel": ("TunnelEndpoint",),
})
