"""System interconnect: a port-connected link between IPs and memory.

The NoC is one :class:`~repro.common.ports.Link` from the IP-side ingress
to the memory system.  The paper uses gem5's classic (coherent) system
network; a fixed-latency link preserves the first-order effect — IP-to-
DRAM distance — without a flit-level model, and an optional per-link
budget (``capacity`` / ``bytes_per_cycle``) adds MGSim-style bounded
bandwidth: under sustained overload requests queue in the link (visible
as queue-occupancy/stall statistics and rising traversal latency) and
backpressure propagates to the issuing IPs through the port retry
handshake.

The health subsystem attaches as port taps interposed ahead of the link
(see :mod:`repro.health.interpose`):

* a :class:`~repro.health.interpose.WatchdogTap` registers every accepted
  request and retires it when its reply unwinds back — the watchdog's
  view of "in flight" is the issuer's view;
* a :class:`~repro.health.interpose.ResilienceTap` injects request-path
  latency spikes, applies reply fates (drop/delay), and arms the retry
  ladder — a lost reply degrades to extra latency instead of deadlocking
  the issuer, and late duplicates are delivered exactly once.

With no health hooks and unbounded queues the NoC schedules exactly the
same events as the bare latency hop, keeping default runs bit-identical
to the seed.

Multi-endpoint topologies (N memory subsystems) put an
:class:`EndpointRouter` between the taps and N per-endpoint links, each
with its own bandwidth/capacity budget; single-endpoint assembly keeps
the seed's exact one-link structure.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.common.events import EventQueue
from repro.common.ports import Link, RequestPort, ResponsePort
from repro.common.stats import StatGroup
from repro.health.interpose import EXTRA_KEY, ResilienceTap, WatchdogTap
from repro.memory.request import MemRequest


class EndpointRouter:
    """Address-interleaved fan-out to N memory-endpoint links.

    Requests entering ``ingress`` are steered to link
    ``(address // interleave_bytes) % N`` — deterministic, so multi-
    endpoint runs stay reproducible.  Backpressure is per endpoint: a
    sender refused by one link's full queue is woken by *that* link's
    retry (not whichever endpoint frees a slot first), preserving the
    fabric's one-wake-per-freed-slot accounting.
    """

    def __init__(self, links: Sequence[Link], interleave_bytes: int,
                 stats: StatGroup) -> None:
        self.links = list(links)
        self.interleave_bytes = interleave_bytes
        self.stats = stats
        self.ingress = ResponsePort("noc.route.in", self._recv, owner=self)
        self._egress: list[RequestPort] = []
        self._blocked: list[deque] = [deque() for _ in self.links]
        for index, link in enumerate(self.links):
            port = RequestPort(
                f"noc.route{index}.out", owner=self,
                on_retry=lambda index=index: self._endpoint_retry(index))
            port.multiplexed = True     # relays several senders' flows
            port.connect(link)
            self._egress.append(port)

    def route(self, request: MemRequest) -> int:
        return (request.address // self.interleave_bytes) % len(self.links)

    def _recv(self, request: MemRequest) -> bool:
        index = self.route(request)
        # The upstream sender pushed itself onto the route stack before
        # calling us; remember it so the right endpoint's retry can wake
        # it (it registers in our ingress._blocked when we return False).
        upstream = request.route[-1] if request.route else None
        if self._egress[index].try_send(request):
            self.stats.counter(f"routed.ep{index}").add()
            return True
        if upstream is not None:
            self._blocked[index].append(upstream)
        return False

    def _endpoint_retry(self, index: int) -> None:
        queue = self._blocked[index]
        while queue:
            sender = queue.popleft()
            try:
                self.ingress._blocked.remove(sender)
            except ValueError:
                continue                # stale entry; try the next sender
            sender._recv_retry()
            break
        # The woken sender's re-send only re-registers our egress if it
        # was itself rejected; with more senders still queued for this
        # endpoint we must stay subscribed to its next freed slot.
        if queue and not self._egress[index].waiting:
            self._egress[index].await_retry()


class SystemNoC:
    """IP-side entry to the memory path; see module docstring.

    ``memory`` may be a single endpoint (one link named ``noc.link`` —
    the seed's exact structure) or a sequence of N endpoints: one link
    per endpoint (``noc.link0`` ... ) behind an address-interleaved
    :class:`EndpointRouter`.  ``link_budgets`` bounds the links, one
    budget per endpoint (anything exposing ``capacity`` /
    ``bytes_per_cycle``, e.g. :class:`repro.common.config.NoCLinkBudget`);
    None leaves every link unbounded.
    """

    def __init__(self, events: EventQueue, memory,
                 latency: int = 12, watchdog=None, injector=None,
                 retry=None, tracer=None, link_budgets=None,
                 interleave_bytes: int = 4096) -> None:
        self.events = events
        memories = (list(memory) if isinstance(memory, (list, tuple))
                    else [memory])
        self.memory = memories[0]
        self.memories = memories
        self.latency = latency
        self.watchdog = watchdog
        self.injector = injector
        self.retry = retry
        self.stats = StatGroup("noc")
        extra_hook = None
        if injector is not None:
            # The ResilienceTap draws the spike (once per attempt) and
            # parks it in metadata; the link consumes it on acceptance.
            def extra_hook(request):
                return request.metadata.pop(EXTRA_KEY, 0)
        budgets = link_budgets or [None] * len(memories)
        self.links = []
        for index, (endpoint, budget) in enumerate(
                zip(memories, budgets, strict=True)):
            link = Link(
                events,
                "noc.link" if len(memories) == 1 else f"noc.link{index}",
                latency=latency,
                capacity=budget.capacity if budget else None,
                bytes_per_cycle=budget.bytes_per_cycle if budget else None,
                extra_latency=extra_hook)
            link.connect(endpoint)
            self.links.append(link)
        self.link = self.links[0]
        self.router: Optional[EndpointRouter] = None
        head = self.link
        if len(memories) > 1:
            self.router = EndpointRouter(self.links, interleave_bytes,
                                         stats=self.stats)
            head = self.router
        self.resilience: Optional[ResilienceTap] = None
        if injector is not None or retry is not None:
            self.resilience = ResilienceTap(
                events, injector=injector, retry=retry,
                base_latency=latency, stats=self.stats)
            head = self.resilience.connect(head)
        self.watchdog_tap: Optional[WatchdogTap] = None
        if watchdog is not None:
            self.watchdog_tap = WatchdogTap(watchdog)
            head = self.watchdog_tap.connect(head)
        self.trace_tap = None
        if tracer is not None:
            # Outermost, so retry clones (re-injected below the resilience
            # tap) cross the trace tap only once per logical request.
            from repro.trace.taps import TraceTap
            self.trace_tap = TraceTap(tracer, track="noc")
            head = self.trace_tap.connect(head)
        #: IP-facing ResponsePort — CPU cores, the display controller and
        #: the GPU L2 connect their request ports here.
        self.ingress = head.ingress
        self._entry = RequestPort("noc.submit", owner=self)
        self._entry.connect(head)

    def submit(self, request: MemRequest) -> None:
        """Callable entry kept for recorders and tests.

        Raises on backpressure (bounded links) — flow-control-aware
        callers connect a port to ``ingress`` instead.
        """
        self._entry.send(request, tick=self.events.now)
