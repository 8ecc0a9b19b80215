"""Flow-control edge cases: the port fabric's retry handshake interacting
with bounded links, the watchdog, and the fault/retry machinery (the
ISSUE's four scenarios)."""

from repro.common.config import NoCLinkBudget
from repro.common.events import EventQueue
from repro.common.ports import ResponsePort, respond
from repro.health import RetryConfig
from repro.health.watchdog import Watchdog
from repro.memory.request import MemRequest, SourceType
from repro.soc.noc import SystemNoC


class FakeMemory:
    """Scripted terminal responder: collects requests; replies on demand."""

    def __init__(self):
        self.received = []
        self.ingress = ResponsePort("fake.in", self._recv, owner=self)

    def _recv(self, request):
        self.received.append(request)
        return True

    def reply(self, index=0):
        request = self.received.pop(index)
        request.complete_time = request.complete_time or 0
        respond(request)


class _ScriptedInjector:
    def __init__(self, fates):
        self._fates = list(fates)

    def noc_extra_latency(self, request):
        return 0

    def reply_fate(self, request):
        return self._fates.pop(0) if self._fates else ("deliver", 0)

    def display_underrun_now(self):
        return False


def _request(address=0x40, callback=None):
    return MemRequest(address=address, size=64, write=False,
                      source=SourceType.CPU, callback=callback)


def test_retry_succeeds_while_queue_drains():
    """A sender blocked on a full link is woken as the queue drains and
    its held packet arrives after the queued ones (FIFO, no loss)."""
    events = EventQueue()
    memory = FakeMemory()
    noc = SystemNoC(events, memory, latency=4,
                    link_budgets=[NoCLinkBudget(capacity=2)])
    port_cls = type(noc._entry)
    woken = []
    sender = port_cls("test.sender", on_retry=lambda: woken.append(events.now))
    sender.connect(noc.ingress)
    first, second, third = (_request(0x100 * i) for i in (1, 2, 3))
    assert sender.try_send(first)
    assert sender.try_send(second)
    assert not sender.try_send(third)           # capacity=2: rejected
    events.run()                                # link drains into memory
    assert woken                                # retry arrived as a slot freed
    assert sender.try_send(third)
    events.run()
    assert [r.address for r in memory.received] == [0x100, 0x200, 0x300]


def test_watchdog_deadline_fires_under_sustained_backpressure():
    """A request accepted into the link but never answered ages against its
    deadline — queued time is watchdog-visible time."""
    events = EventQueue()
    memory = FakeMemory()                       # never replies on its own
    watchdog = Watchdog(events, request_timeout=1_000, check_period=200,
                        on_timeout=lambda report: None)
    noc = SystemNoC(events, memory, latency=4,
                    link_budgets=[NoCLinkBudget(capacity=4)],
                    watchdog=watchdog)
    noc.submit(_request())
    assert watchdog.in_flight == 1              # queued == tracked
    events.run(max_events=50)
    assert watchdog.reports
    report = watchdog.reports[0]
    assert report.kind == "request-timeout"
    assert report.age >= 1_000
    assert watchdog.in_flight == 0              # offender reported + forgotten


def test_fault_dropped_reply_of_queued_packet_recovered_by_retry():
    """A packet that sat in a bounded queue loses its reply to the injector;
    the retry ladder re-injects through the same bounded link and the
    issuer hears exactly once."""
    events = EventQueue()
    memory = FakeMemory()
    done = []
    noc = SystemNoC(events, memory, latency=4,
                    link_budgets=[NoCLinkBudget(      # 64B -> 32-tick line
                        capacity=4, bytes_per_cycle=2.0)],
                    injector=_ScriptedInjector([("drop", 0)]),
                    retry=RetryConfig(timeout=500, max_retries=2))
    noc.submit(_request(callback=done.append))
    noc.submit(_request(address=0x80))          # queue behind the first
    events.run_until(100)                       # both drain the slow line
    assert len(memory.received) == 2
    memory.reply(0)                             # first reply: dropped
    memory.reply(0)                             # second delivered in time
    assert done == []
    events.run_until(700)                       # deadline -> clone re-sent
    assert noc.stats.counter("retries").value == 1
    clone = next(r for r in memory.received if r.address == 0x40)
    assert clone.attempt == 1
    memory.reply(memory.received.index(clone))
    assert len(done) == 1
    assert done[0].attempt == 1


def test_exactly_once_when_retry_races_slow_link():
    """The original reply is delayed past the retry deadline while the
    clone serializes through a slow link; both replies eventually arrive
    and the issuer hears exactly once."""
    events = EventQueue()
    memory = FakeMemory()
    done = []
    noc = SystemNoC(events, memory, latency=4,
                    link_budgets=[NoCLinkBudget(bytes_per_cycle=1.0)],
                    injector=_ScriptedInjector([("delay", 5_000)]),
                    retry=RetryConfig(timeout=300, max_retries=2))
    noc.submit(_request(callback=done.append))
    events.run_until(100)
    assert len(memory.received) == 1
    memory.reply(0)                             # fate: delayed 5000 ticks
    events.run_until(500)                       # deadline passes, clone sent
    assert len(memory.received) == 1
    memory.reply(0)                             # clone's reply: delivered
    assert len(done) == 1
    events.run()                                # late original arrives...
    assert len(done) == 1                       # ...and is deduplicated
    assert noc.stats.counter("duplicate_replies").value == 1
