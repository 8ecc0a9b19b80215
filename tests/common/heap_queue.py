"""One-heap-pop-per-event reference queue: the event kernel's oracle.

No calendar bucket, no fused loop: every event, same-tick or not, goes
through the heap and fires in (time, seq) order.  ``EventQueue`` must
fire exactly the same events in exactly the same order.
"""

import heapq

from repro.common.events import Event


class HeapQueue:
    """The schedule/cancel/run subset of ``EventQueue``, done the plain way."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.events_fired = 0

    def schedule(self, delay, callback, *args):
        event = Event(self.now + int(delay), self._seq, callback, args)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._seq += 1
        return event

    def run(self):
        while self._heap:
            self.now, _, event = heapq.heappop(self._heap)
            if not event.cancelled:
                self.events_fired += 1
                event.callback(*event.args)
