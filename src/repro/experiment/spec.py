"""Declarative experiment descriptions.

An :class:`ExperimentSpec` is a JSON-serializable, validated
description of exactly one run: the world knobs that
:func:`repro.analysis.scenarios.build_scenario` understands (awareness,
security posture, encapsulation, probe strategy, topology distances),
a traffic program, an optional :class:`~repro.netsim.faults.FaultPlan`,
an optional adversary schedule, the observability/invariant arming
switches, and the seed.  Every driver in the tree — the CLI
subcommands, the chaos harness, the fuzzer, the benchmarks, the sweep
executor — describes its world as a spec and hands it to
:class:`repro.experiment.runner.Runner`.

Being plain data is the point: a spec round-trips through JSON
(``to_json``/``from_json``), crosses process boundaries for parallel
sweeps, lands inside fuzz repro files so a shrunken failure replays
with ``repro-mobility sweep --spec repro.json``, and fails loudly at
*parse* time (:class:`SpecError`) instead of forty simulated seconds
into a run.

Validation is kept honest against the scenario builder itself:
``scenario_kwargs()`` may only produce keyword arguments named in
:data:`repro.analysis.scenarios.SCENARIO_KNOBS`, which is derived from
``build_scenario``'s real signature — the spec cannot silently drift
from the builder.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..analysis.scenarios import SCENARIO_KNOBS
from ..core.selection import ProbeStrategy
from ..mobileip.correspondent import Awareness
from ..netsim.encap import EncapScheme
from ..netsim.faults import FaultError, FaultPlan

__all__ = [
    "SpecError",
    "TrafficProgram",
    "ExperimentSpec",
    "canonical_traffic_spec",
    "ADVERSARY_KINDS",
]

ADVERSARY_KINDS = ("spoof", "replay", "bogus", "truncated")
_DIRECTIONS = ("mh->ch", "ch->mh")

# The canonical scenario-traffic workload (the golden trace, the
# scenario_traffic benchmark, `repro-mobility obs`): 200 datagrams,
# 10ms apart, correspondent -> mobile home address.
CANONICAL_SEED = 1401
CANONICAL_DATAGRAMS = 200
CANONICAL_SPACING = 0.01
CANONICAL_PORT = 7000


class SpecError(ValueError):
    """A malformed experiment spec."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_object(value: Any, where: str, fields: Set[str]) -> None:
    """``value`` must be a dict whose keys all name one of ``fields``."""
    _require(isinstance(value, dict),
             f"{where} must be an object, got {value!r}")
    unknown = set(value) - fields
    _require(not unknown, f"{where} has unknown fields {sorted(unknown)}")


# Fields removed from the spec schema, with the type they used to have.
# Spec, grid, and fuzz-repro files written before a removal still carry
# the key; loading accepts a value of the old type and drops it.
_RETIRED_FIELDS: Dict[str, type] = {
    "fast_forward": bool,
    "trace_entries": bool,
    "trace_aggregates": bool,
}
# The same for the traffic object's fields.
_RETIRED_TRAFFIC_FIELDS: Dict[str, type] = {
    "ch_bind": bool,
    "payload_style": str,
}


def drop_retired_fields(
    data: Dict[str, Any],
    where: str,
    retired_fields: Dict[str, type] = _RETIRED_FIELDS,
) -> Dict[str, Any]:
    """``data`` without its retired fields (each type-checked first)."""
    retired = [name for name in data if name in retired_fields]
    if not retired:
        return data
    for name in retired:
        _require(isinstance(data[name], retired_fields[name]),
                 f"{where} field {name!r} must be a "
                 f"{retired_fields[name].__name__}, got {data[name]!r}")
    return {k: v for k, v in data.items() if k not in retired_fields}


@dataclass
class TrafficProgram:
    """A deterministic traffic program between CH and MH.

    Three shapes, at most one of which may be set:

    * ``events`` — an explicit list of ``{"at", "direction", "size"}``
      UDP datagram events (times relative to the post-settle clock);
    * ``uniform`` — ``{"datagrams", "spacing", "size", "direction"}``,
      expanded on demand (keeps grid JSON small);
    * ``conversation`` — ``{"interval": secs}``, a TCP conversation:
      the mobile end sends one message per interval to the
      correspondent's ``port``, which echoes each.

    For datagrams both ends bind a UDP socket at ``port`` and send to
    the other's ``port``.  The program once had two more socket knobs;
    they changed no trace, and files that still carry them load with
    the keys type-checked and dropped (``_RETIRED_TRAFFIC_FIELDS``).
    """

    port: int = CANONICAL_PORT
    events: List[Dict[str, Any]] = field(default_factory=list)
    uniform: Optional[Dict[str, Any]] = None
    conversation: Optional[Dict[str, Any]] = None
    # Mobile-side endpoint override: the name of another node to use in
    # place of the scenario's ``mh``.  A name belonging to a pooled
    # host (``mega-h{i}``, see repro.netsim.population) promotes it to
    # a full node at arm time — the "traffic targets a pooled host"
    # expansion path.
    target: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _require(_is_int(self.port) and 1 <= self.port <= 65535,
                 f"traffic port must be 1..65535, got {self.port!r}")
        _require(self.target is None
                 or (isinstance(self.target, str) and self.target),
                 f"traffic target must be a non-empty node name or null, "
                 f"got {self.target!r}")
        shapes = [name for name in ("events", "uniform", "conversation")
                  if getattr(self, name)]
        _require(len(shapes) < 2,
                 f"traffic takes one of events, uniform or conversation, "
                 f"not both {' and '.join(shapes)}")
        _require(isinstance(self.events, list),
                 f"traffic events must be a list, got {self.events!r}")
        for event in self.events:
            _require_object(event, "traffic event",
                            {"at", "direction", "size"})
            _require(_is_number(event.get("at")) and event["at"] >= 0,
                     f"traffic event needs 'at' >= 0, got {event.get('at')!r}")
            _require(event.get("direction") in _DIRECTIONS,
                     f"traffic direction must be one of {_DIRECTIONS}, "
                     f"got {event.get('direction')!r}")
            _require(_is_int(event.get("size")) and event["size"] > 0,
                     f"traffic event needs a positive int 'size', "
                     f"got {event.get('size')!r}")
        if self.uniform is not None:
            _require_object(self.uniform, "traffic uniform",
                            {"datagrams", "spacing", "size", "direction"})
            datagrams = self.uniform.get("datagrams")
            _require(_is_int(datagrams) and datagrams > 0,
                     f"traffic uniform needs a positive int 'datagrams', "
                     f"got {datagrams!r}")
            spacing = self.uniform.get("spacing", CANONICAL_SPACING)
            _require(_is_number(spacing) and spacing >= 0,
                     f"traffic uniform spacing must be >= 0, got {spacing!r}")
            size = self.uniform.get("size", 100)
            _require(_is_int(size) and size > 0,
                     f"traffic uniform size must be a positive int, "
                     f"got {size!r}")
            direction = self.uniform.get("direction", "ch->mh")
            _require(direction in _DIRECTIONS + ("both",),
                     f"traffic uniform direction must be one of "
                     f"{_DIRECTIONS + ('both',)}, got {direction!r}")
        if self.conversation is not None:
            _require_object(self.conversation, "traffic conversation",
                            {"interval"})
            interval = self.conversation.get("interval")
            _require(_is_number(interval) and interval > 0,
                     f"traffic conversation needs an 'interval' > 0, "
                     f"got {interval!r}")

    def resolved_events(self) -> List[Dict[str, Any]]:
        """The concrete datagram schedule (expands ``uniform``)."""
        if self.uniform is None:
            return list(self.events)
        spacing = self.uniform.get("spacing", CANONICAL_SPACING)
        size = self.uniform.get("size", 100)
        direction = self.uniform.get("direction", "ch->mh")
        # "both" alternates: even indices ch->mh, odd indices mh->ch,
        # so one uniform program exercises the full in/out mode grid.
        return [
            {
                "at": index * spacing,
                "direction": (
                    ("ch->mh" if index % 2 == 0 else "mh->ch")
                    if direction == "both" else direction
                ),
                "size": size,
            }
            for index in range(self.uniform["datagrams"])
        ]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficProgram":
        _require(isinstance(data, dict),
                 f"traffic must be an object, got {data!r}")
        data = drop_retired_fields(data, "traffic", _RETIRED_TRAFFIC_FIELDS)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        _require(not unknown,
                 f"traffic has unknown fields {sorted(unknown)}")
        return cls(**data)


@dataclass
class ExperimentSpec:
    """One run of the reproduction, as validated plain data."""

    # Identity
    seed: int = 1996
    label: str = ""
    # Drive window.  ``absolute=False`` runs for ``duration +
    # settle_margin`` seconds past the post-settle clock (the fuzzer's
    # discipline); ``absolute=True`` runs until absolute simulation
    # time ``duration`` (the chaos harness's discipline).
    duration: float = 30.0
    settle_margin: float = 0.0
    absolute: bool = False
    # World knobs (mirroring build_scenario; see scenario_kwargs()).
    awareness: Optional[str] = Awareness.CONVENTIONAL.value
    ch_in_visited_lan: bool = False
    home_filtering: bool = True
    visited_filtering: bool = True
    ch_filtering: bool = False
    strategy: str = ProbeStrategy.RULE_SEEDED.value
    encap: str = EncapScheme.IPIP.value
    backbone_size: int = 5
    home_attach: int = 0
    visited_attach: Optional[int] = None
    ch_attach: int = 2
    backbone_latency: float = 0.010
    privacy: bool = False
    notify_correspondents: bool = False
    with_dns: bool = False
    with_foreign_agent: bool = False
    mobile_starts_away: bool = True
    auth_key: Optional[str] = None
    # Link contention (see repro.netsim.link.Segment): a global bounded
    # transmit-queue depth, per-segment depth overrides, and per-segment
    # bandwidth overrides.  All default off — the historical
    # infinite-capacity links, digest-neutral.
    queue_capacity: Optional[int] = None
    queue_capacities: Optional[Dict[str, int]] = None
    link_bandwidths: Optional[Dict[str, float]] = None
    # Flyweight host population (see repro.netsim.population):
    # {"hosts": N, "domains": D, "mode": "pooled"|"materialized",
    #  "lifetime": secs, "wheel_buckets": B}.  None — the default —
    # builds the historical world, digest-identical.
    population: Optional[Dict[str, Any]] = None
    # Programs
    traffic: Optional[TrafficProgram] = None
    faults: Optional[Dict[str, Any]] = None        # FaultPlan.to_dict()
    adversary: List[Dict[str, Any]] = field(default_factory=list)
    # Arming
    observe: bool = False
    obs_cadence: Optional[float] = 0.5
    arm_invariants: bool = False
    max_tunnel_depth: Optional[int] = None
    invariant_grace: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.traffic, dict):
            self.traffic = TrafficProgram.from_dict(self.traffic)
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        _require(_is_int(self.seed), f"seed must be an int, got {self.seed!r}")
        _require(isinstance(self.label, str),
                 f"label must be a string, got {self.label!r}")
        _require(_is_number(self.duration) and self.duration > 0,
                 f"duration must be > 0, got {self.duration!r}")
        _require(_is_number(self.settle_margin) and self.settle_margin >= 0,
                 f"settle_margin must be >= 0, got {self.settle_margin!r}")
        if self.awareness is not None:
            try:
                Awareness(self.awareness)
            except ValueError:
                valid = sorted(a.value for a in Awareness)
                raise SpecError(
                    f"unknown awareness {self.awareness!r} (valid: {valid}, "
                    f"or null for no correspondent)") from None
        try:
            ProbeStrategy(self.strategy)
        except ValueError:
            valid = sorted(s.value for s in ProbeStrategy)
            raise SpecError(
                f"unknown strategy {self.strategy!r} (valid: {valid})"
            ) from None
        try:
            EncapScheme(self.encap)
        except ValueError:
            valid = sorted(e.value for e in EncapScheme)
            raise SpecError(
                f"unknown encap {self.encap!r} (valid: {valid})") from None
        _require(_is_int(self.backbone_size) and self.backbone_size >= 2,
                 f"backbone_size must be an int >= 2, "
                 f"got {self.backbone_size!r}")
        for name in ("home_attach", "ch_attach"):
            value = getattr(self, name)
            _require(_is_int(value) and 0 <= value < self.backbone_size,
                     f"{name} must be in 0..{self.backbone_size - 1}, "
                     f"got {value!r}")
        if self.visited_attach is not None:
            _require(_is_int(self.visited_attach)
                     and 0 <= self.visited_attach < self.backbone_size,
                     f"visited_attach must be in 0..{self.backbone_size - 1}, "
                     f"got {self.visited_attach!r}")
        _require(_is_number(self.backbone_latency)
                 and self.backbone_latency >= 0,
                 f"backbone_latency must be >= 0, "
                 f"got {self.backbone_latency!r}")
        _require(self.auth_key is None or isinstance(self.auth_key, str),
                 f"auth_key must be a string or null, got {self.auth_key!r}")
        for name in ("ch_in_visited_lan", "home_filtering",
                     "visited_filtering", "ch_filtering", "privacy",
                     "notify_correspondents", "with_dns",
                     "with_foreign_agent", "mobile_starts_away", "absolute",
                     "observe", "arm_invariants"):
            value = getattr(self, name)
            _require(isinstance(value, bool),
                     f"{name} must be a bool, got {value!r}")
        if self.traffic is not None:
            self.traffic.validate()
            _require(self.awareness is not None,
                     "a traffic program needs a correspondent "
                     "(awareness must not be null)")
        if self.faults is not None:
            try:
                FaultPlan.from_dict(self.faults)
            except FaultError as exc:
                raise SpecError(f"invalid fault plan: {exc}") from None
        _require(isinstance(self.adversary, list),
                 f"adversary must be a list, got {self.adversary!r}")
        for event in self.adversary:
            _require_object(event, "adversary event", {"at", "kind"})
            _require(_is_number(event.get("at")) and event["at"] >= 0,
                     f"adversary event needs 'at' >= 0, "
                     f"got {event.get('at')!r}")
            _require(event.get("kind") in ADVERSARY_KINDS,
                     f"adversary kind must be one of {ADVERSARY_KINDS}, "
                     f"got {event.get('kind')!r}")
        if self.obs_cadence is not None:
            _require(_is_number(self.obs_cadence) and self.obs_cadence > 0,
                     f"obs_cadence must be > 0 or null, "
                     f"got {self.obs_cadence!r}")
        if self.max_tunnel_depth is not None:
            _require(_is_int(self.max_tunnel_depth)
                     and self.max_tunnel_depth >= 0,
                     f"max_tunnel_depth must be an int >= 0, "
                     f"got {self.max_tunnel_depth!r}")
        if self.invariant_grace is not None:
            _require(_is_number(self.invariant_grace)
                     and self.invariant_grace >= 0,
                     f"invariant_grace must be >= 0, "
                     f"got {self.invariant_grace!r}")
        if self.population is not None:
            from ..netsim.population import validate_population

            try:
                validate_population(self.population)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        if self.queue_capacity is not None:
            _require(_is_int(self.queue_capacity)
                     and self.queue_capacity >= 0,
                     f"queue_capacity must be an int >= 0 or null, "
                     f"got {self.queue_capacity!r}")
        if self.queue_capacities is not None:
            _require(isinstance(self.queue_capacities, dict),
                     f"queue_capacities must be an object, "
                     f"got {self.queue_capacities!r}")
            for name, capacity in self.queue_capacities.items():
                _require(isinstance(name, str),
                         f"queue_capacities keys must be segment names, "
                         f"got {name!r}")
                _require(_is_int(capacity) and capacity >= 0,
                         f"queue_capacities[{name!r}] must be an int >= 0, "
                         f"got {capacity!r}")
        if self.link_bandwidths is not None:
            _require(isinstance(self.link_bandwidths, dict),
                     f"link_bandwidths must be an object, "
                     f"got {self.link_bandwidths!r}")
            for name, bandwidth in self.link_bandwidths.items():
                _require(isinstance(name, str),
                         f"link_bandwidths keys must be segment names, "
                         f"got {name!r}")
                _require(_is_number(bandwidth) and bandwidth > 0,
                         f"link_bandwidths[{name!r}] must be > 0, "
                         f"got {bandwidth!r}")

    # ------------------------------------------------------------------
    # The bridge to the scenario builder
    # ------------------------------------------------------------------
    def scenario_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :func:`build_scenario`, exactly."""
        kwargs: Dict[str, Any] = {
            "seed": self.seed,
            "backbone_size": self.backbone_size,
            "home_attach": self.home_attach,
            "visited_attach": self.visited_attach,
            "ch_attach": self.ch_attach,
            "ch_awareness": (
                None if self.awareness is None else Awareness(self.awareness)
            ),
            "ch_in_visited_lan": self.ch_in_visited_lan,
            "home_filtering": self.home_filtering,
            "visited_filtering": self.visited_filtering,
            "ch_filtering": self.ch_filtering,
            "strategy": ProbeStrategy(self.strategy),
            "scheme": EncapScheme(self.encap),
            "privacy": self.privacy,
            "notify_correspondents": self.notify_correspondents,
            "with_dns": self.with_dns,
            "with_foreign_agent": self.with_foreign_agent,
            "mobile_starts_away": self.mobile_starts_away,
            "backbone_latency": self.backbone_latency,
            "auth_key": self.auth_key,
            "queue_capacity": self.queue_capacity,
            "queue_capacities": self.queue_capacities,
            "link_bandwidths": self.link_bandwidths,
            "population": self.population,
        }
        stray = set(kwargs) - SCENARIO_KNOBS
        if stray:  # pragma: no cover - a drift bug, caught by tests
            raise SpecError(
                f"spec produced kwargs build_scenario does not take: "
                f"{sorted(stray)}")
        return kwargs

    def fault_plan(self) -> Optional[FaultPlan]:
        return None if self.faults is None else FaultPlan.from_dict(self.faults)

    def invariant_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        if self.max_tunnel_depth is not None:
            kwargs["max_tunnel_depth"] = self.max_tunnel_depth
        if self.invariant_grace is not None:
            kwargs["grace"] = self.invariant_grace
        return kwargs

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        if self.traffic is None:
            data["traffic"] = None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        _require(isinstance(data, dict),
                 f"experiment spec must be an object, got {data!r}")
        data = drop_retired_fields(data, "experiment spec")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        _require(not unknown,
                 f"experiment spec has unknown fields {sorted(unknown)}")
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        """Load a spec from a file.

        Accepts either a bare spec object or a fuzz repro file (the
        spec lives under its ``"spec"`` key), so a shrunken fuzz
        failure replays directly: ``fuzz --repro repro.json`` and
        ``sweep --spec repro.json`` both load it here.
        """
        with open(path) as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path}: invalid JSON: {exc}") from None
        _require(isinstance(payload, dict),
                 f"{path}: expected a JSON object")
        if "spec" in payload and "seed" not in payload:
            payload = payload["spec"]
        return cls.from_dict(payload)

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy with ``changes`` applied (re-validated)."""
        data = self.to_dict()
        data.update(changes)
        return ExperimentSpec.from_dict(data)


def canonical_traffic_spec(
    seed: int = CANONICAL_SEED,
    datagrams: int = CANONICAL_DATAGRAMS,
    **changes: Any,
) -> ExperimentSpec:
    """The canonical scenario-traffic workload as a spec.

    This is the exact world the golden-trace digest is pinned on:
    conventional correspondent, default posture, ``datagrams`` UDP
    sends 10ms apart to the mobile host's home address, 30 simulated
    seconds.  ``Runner`` on this spec reproduces the legacy
    hand-rolled loop byte-for-byte.
    """
    spec = ExperimentSpec(
        seed=seed,
        duration=30.0,
        settle_margin=0.0,
        traffic=TrafficProgram(
            port=CANONICAL_PORT,
            uniform={"datagrams": datagrams, "spacing": CANONICAL_SPACING,
                     "size": 100, "direction": "ch->mh"},
        ),
    )
    return spec.replace(**changes) if changes else spec
