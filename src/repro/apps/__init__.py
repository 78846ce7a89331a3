"""Application workloads from the paper's motivating examples.

* :mod:`repro.apps.http`      — short-lived request/response (Out-DT
  motivation, §4/§6.4).
* :mod:`repro.apps.telnet`    — long-lived interactive session
  (durability motivation, §2).
* :mod:`repro.apps.dnsapp`    — connectionless lookups (§7.1.1).
* :mod:`repro.apps.nfs`       — source-address-trusting RPC service
  (security motivation, §3.1).
* :mod:`repro.apps.multicast` — local join vs. home tunnel (§6.4).
* :mod:`repro.apps.bulk`      — FTP-ish bulk transfer (goodput under
  §3.3's overheads).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "bulk": ("BULK_PORT", "BulkClient", "BulkResult", "BulkServer"),
    "dnsapp": ("DNSLookupWorkload", "LookupRecord"),
    "http": ("HTTP_PORT", "FetchResult", "HTTPClient", "HTTPServer"),
    "multicast": ("HomeTunnelRelay", "MulticastReceiver", "MulticastSource"),
    "nfs": ("NFS_PORT", "NFSClient", "NFSRequest", "NFSResponse", "NFSServer"),
    "telnet": ("TELNET_PORT", "TelnetServer", "TelnetSession"),
})
