"""Wrappers around each layer's public entry points, installed from outside.

A target is name-addressed (``"repro.netsim.link:Segment.transmit"``).
Installing it replaces *every* reference to the original function in
the loaded ``repro.*`` module globals and class dicts -- the runner,
for one, imports ``trace_digest`` by name -- and :meth:`Patch.restore`
puts every one of them back.  A target that no longer exists is
skipped and listed in ``missing``, never raised: later changes are
expected to delete some of them.

A layer's self time comes from a span stack: each wrapped call pushes
a child-time accumulator, and on return its self time is its duration
minus the durations of the wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, target).  Layers are named by module; the modules folded
#: into each are listed in README.md.  Do not edit this table in a
#: change that claims a gain: it defines what each layer means.
WRAP_TABLE: Tuple[Tuple[str, str], ...] = (
    ("netsim.events", "repro.netsim.simulator:Simulator.run"),
    ("netsim.events", "repro.netsim.events:EventQueue.run"),
    ("netsim.events", "repro.netsim.events:EventQueue.schedule"),
    ("netsim.events", "repro.netsim.events:EventQueue.schedule_at"),
    ("netsim.link", "repro.netsim.link:Segment.transmit"),
    ("netsim.link", "repro.netsim.link:Interface.transmit"),
    ("netsim.link", "repro.netsim.link:Interface.receive"),
    ("netsim.link", "repro.netsim.arp:ArpService.resolve_and_send"),
    ("netsim.link", "repro.netsim.arp:ArpService.handle"),
    ("netsim.node", "repro.netsim.node:Node.ip_send"),
    ("netsim.node", "repro.netsim.node:Node.ip_input"),
    ("netsim.node", "repro.netsim.node:Node.forward"),
    ("netsim.node", "repro.netsim.router:Router.forward"),
    ("netsim.node", "repro.netsim.routing:RoutingTable.lookup"),
    ("netsim.node", "repro.netsim.filters:FilterEngine.evaluate"),
    ("netsim.encap", "repro.netsim.encap:encapsulate"),
    ("netsim.encap", "repro.netsim.encap:decapsulate"),
    ("netsim.encap", "repro.netsim.fragmentation:fragment"),
    ("netsim.encap", "repro.netsim.fragmentation:Reassembler.accept"),
    # __eq__/__hash__ stay unwrapped: wrapping them would swamp the run.
    ("netsim.packet", "repro.netsim.packet:Packet.__init__"),
    ("netsim.packet", "repro.netsim.packet:Packet.copy_for_fragment"),
    ("netsim.packet", "repro.netsim.addressing:IPAddress.__new__"),
    ("netsim.packet", "repro.netsim.addressing:IPAddress.__str__"),
    ("netsim.packet", "repro.netsim.addressing:Network.contains"),
    ("mobileip", "repro.mobileip.home_agent:HomeAgent.ip_input"),
    ("mobileip", "repro.mobileip.tunnel:TunnelEndpoint.send_encapsulated"),
    ("mobileip", "repro.mobileip.binding:BindingTable.lookup"),
    ("mobileip", "repro.mobileip.binding:BindingTable.register"),
    ("mobileip", "repro.mobileip.binding:BindingTable.register_many"),
    ("mobileip", "repro.mobileip.mobile_host:MobileHost.register_with_home_agent"),
    ("mobileip", "repro.mobileip.foreign_agent:ForeignAgent.relay_registration_from"),
    ("core", "repro.core.decision:MobilityEngine.select_source"),
    ("core", "repro.core.decision:MobilityEngine.out_mode_for"),
    ("core", "repro.core.decision:MobilityEngine.on_send"),
    ("core", "repro.core.decision:MobilityEngine.on_receive"),
    ("core", "repro.core.selection:DeliveryMethodCache.mode_for"),
    ("core", "repro.core.selection:DeliveryMethodCache.on_suspect"),
    ("core", "repro.core.selection:DeliveryMethodCache.on_progress"),
    ("transport", "repro.transport.sockets:UDPSocket.sendto"),
    ("transport", "repro.transport.sockets:TransportStack.udp_output"),
    ("transport", "repro.transport.sockets:TransportStack.tcp_output"),
    ("transport", "repro.transport.tcp:TCPConnection.send"),
    ("transport", "repro.transport.tcp:TCPConnection.segment_arrived"),
    ("netsim.trace", "repro.netsim.trace:TraceLog.note"),
    ("netsim.trace", "repro.netsim.trace:TraceLog.note_link_bytes"),
    # The invariant monitor and flight recorder rebind ``trace.note`` on
    # the instance; their attach is wrapped so the rebound note is
    # wrapped again right after it (see REWRAP_NOTE).
    ("netsim.trace", "repro.verify.invariants:InvariantMonitor.attach"),
    ("netsim.trace", "repro.obs.flightrec:FlightRecorder.attach"),
    ("netsim.trace", "repro.verify.invariants:InvariantMonitor.finish"),
    ("netsim.trace", "repro.bench.golden:trace_digest"),
    ("netsim.population", "repro.netsim.population:install_population"),
    ("netsim.population", "repro.netsim.population:Population.promote"),
    ("netsim.population", "repro.netsim.population:HostPool.refresh_slice"),
    ("netsim.fastforward", "repro.netsim.fastforward:FastForwarder.run"),
    ("experiment", "repro.experiment.runner:Runner.run"),
    ("experiment", "repro.analysis.scenarios:build_scenario"),
    ("experiment", "repro.experiment.sweep:SweepExecutor.run"),
    ("experiment", "repro.experiment.sweep:SpecGrid.expand"),
    ("experiment.cache", "repro.experiment.cache:ResultCache.lookup"),
    ("experiment.cache", "repro.experiment.cache:ResultCache.store"),
    ("experiment.cache", "repro.obs.ledger:RunLedger.append"),
    ("experiment.cache", "repro.experiment.supervise:SweepCheckpoint.record"),
)

#: The remainder layer: traced invocation time minus every layer's self time.
CLI_LAYER = "cli"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _ in WRAP_TABLE)) + (CLI_LAYER,)

RUNNER_RUN = "repro.experiment.runner:Runner.run"
CACHE_LOOKUP = "repro.experiment.cache:ResultCache.lookup"
REWRAP_NOTE = frozenset({
    "repro.verify.invariants:InvariantMonitor.attach",
    "repro.obs.flightrec:FlightRecorder.attach",
})
FF_COUNTERS = ("captured", "replayed", "fallbacks", "world_changes")
PHASES = ("build", "arm", "drive", "collect")


def _loaded_containers() -> List[Any]:
    """Every loaded ``repro.*`` module and every class defined in one."""
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    classes: Dict[int, type] = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and \
                    getattr(value, "__module__", "").startswith("repro"):
                classes[id(value)] = value
    return modules + list(classes.values())


def _set(container, key: str, value: Any) -> None:
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        vars(container)[key] = value


def resolve(target: str):
    """``(raw, function)`` for a target, or None when it does not exist.

    ``raw`` is the object stored in the owner's own dict (a
    ``staticmethod`` for ``__new__``); ``function`` is the callable in it.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            return None
    raw = vars(owner).get(name)
    function = getattr(raw, "__func__", raw)
    if not callable(function):
        return None
    return raw, function


class Patch:
    """Replaces references to functions in loaded ``repro`` code, and
    puts the originals back."""

    def __init__(self) -> None:
        #: id(installed object) -> (installed object, original object)
        self._installed: Dict[int, Tuple[Any, Any]] = {}
        self.missing: List[str] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        resolved = resolve(target)
        if resolved is None:
            self.missing.append(target)
            return
        raw, function = resolved
        wrapper = functools.update_wrapper(make(function), function)
        replacements = {id(function): (function, wrapper)}
        if raw is not function:
            # staticmethod/classmethod: keep the descriptor kind.
            replacements[id(raw)] = (raw, type(raw)(wrapper))
        for container in _loaded_containers():
            for key, value in list(vars(container).items()):
                swap = replacements.get(id(value))
                if swap is not None and swap[0] is value:
                    _set(container, key, swap[1])
        for original, installed in replacements.values():
            self._installed[id(installed)] = (installed, original)

    def _bound(self) -> List[Tuple[Any, str, Any]]:
        """(container, key, original) wherever an installed wrapper is bound."""
        return [(container, key, entry[1])
                for container in _loaded_containers()
                for key, value in list(vars(container).items())
                for entry in [self._installed.get(id(value))]
                if entry is not None and entry[0] is value]

    def restore(self) -> None:
        """Put back every original, wherever an installed wrapper is now
        referenced -- including modules imported after installation."""
        for container, key, original in self._bound():
            _set(container, key, original)

    def leftovers(self) -> List[str]:
        """Names still bound to an installed wrapper (empty once restored)."""
        return [f"{getattr(container, '__name__', container)}.{key}"
                for container, key, _ in self._bound()]


class Invocation:
    """What one CLI invocation did, as seen through the wrappers."""

    def __init__(self) -> None:
        self.runs = 0
        self.dispatched = 0
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.fast_forward = dict.fromkeys(FF_COUNTERS, 0)
        self.hits = 0
        self.misses = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}

    def on_run(self, args: tuple, result: Any) -> None:
        """Post-hook of ``Runner.run``: read its RunResult and world."""
        self.runs += 1
        self.dispatched += args[0].scenario.sim.events.processed
        for phase in PHASES:
            self.phases[phase] += result.timings.get(phase, 0.0)
        stats = result.extras.get("fast_forward") or {}
        for key in FF_COUNTERS:
            self.fast_forward[key] += stats.get(key, 0)

    def on_lookup(self, args: tuple, result: Any) -> None:
        if result is None:
            self.misses += 1
        else:
            self.hits += 1


def _with_post(function: Callable, post: Callable[[tuple, Any], None]) -> Callable:
    def probe(*args, **kwargs):
        result = function(*args, **kwargs)
        post(args, result)
        return result
    return probe


class RunProbe:
    """The untraced run's only hook: ``Runner.run``'s return value."""

    def __init__(self) -> None:
        self.current = Invocation()
        self.patch = Patch()

    def install(self) -> None:
        self.patch.wrap(RUNNER_RUN, lambda f: _with_post(
            f, lambda args, result: self.current.on_run(args, result)))

    def restore(self) -> None:
        self.patch.restore()

    def begin(self) -> Invocation:
        self.current = Invocation()
        return self.current

    def end(self) -> Invocation:
        return self.current


class LayerTracer:
    """Every target of a wrap table, timed on one span stack."""

    def __init__(self, table: Tuple[Tuple[str, str], ...] = WRAP_TABLE) -> None:
        self.table = table
        self.patch = Patch()
        self.current = Invocation()
        self._stack: List[float] = []
        self._self: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    @property
    def missing(self) -> List[str]:
        return self.patch.missing

    def install(self) -> None:
        # Resolving a target may import its module, whose import-time
        # code can already call a target wrapped before it.
        self.begin()
        for layer, target in self.table:
            post = None
            if target == RUNNER_RUN:
                post = lambda args, result: self.current.on_run(args, result)
            elif target == CACHE_LOOKUP:
                post = lambda args, result: self.current.on_lookup(args, result)
            elif target in REWRAP_NOTE:
                post = self._rewrap_note(layer, target)
            self.patch.wrap(target, lambda f, layer=layer, target=target,
                            post=post: self._span(f, layer, target, post))

    def restore(self) -> None:
        self.patch.restore()

    def begin(self) -> Invocation:
        self.current = Invocation()
        self._stack.clear()
        self._self.clear()
        self._calls.clear()
        for layer, target in self.table:
            self._self[layer] = 0.0
            self._calls[target] = 0
        return self.current

    def end(self) -> Invocation:
        self.current.calls = dict(self._calls)
        self.current.self_s = dict(self._self)
        return self.current

    def _span(self, function: Callable, layer: str, key: str,
              post: Optional[Callable[[tuple, Any], None]]) -> Callable:
        stack = self._stack
        self_time = self._self
        calls = self._calls

        def span(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_time[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if post is not None:
                post(args, result)
            return result
        return span

    def _rewrap_note(self, layer: str, target: str):
        key = target + "#note"

        def post(args: tuple, result: Any) -> None:
            trace = args[1]
            rebound = vars(trace).get("note")
            if rebound is not None:
                self._calls.setdefault(key, 0)
                trace.note = functools.update_wrapper(
                    self._span(rebound, layer, key, None), rebound)
        return post
