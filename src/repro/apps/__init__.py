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

from .bulk import BULK_PORT, BulkClient, BulkResult, BulkServer
from .dnsapp import DNSLookupWorkload, LookupRecord
from .http import HTTP_PORT, FetchResult, HTTPClient, HTTPServer
from .multicast import HomeTunnelRelay, MulticastReceiver, MulticastSource
from .nfs import NFS_PORT, NFSClient, NFSRequest, NFSResponse, NFSServer
from .telnet import TELNET_PORT, TelnetServer, TelnetSession

__all__ = [
    "BULK_PORT",
    "BulkClient",
    "BulkResult",
    "BulkServer",
    "DNSLookupWorkload",
    "LookupRecord",
    "HTTP_PORT",
    "FetchResult",
    "HTTPClient",
    "HTTPServer",
    "HomeTunnelRelay",
    "MulticastReceiver",
    "MulticastSource",
    "NFS_PORT",
    "NFSClient",
    "NFSRequest",
    "NFSResponse",
    "NFSServer",
    "TELNET_PORT",
    "TelnetServer",
    "TelnetSession",
]
