"""Issue single memory requests into a port-connected component."""

from repro.common.ports import RequestPort
from repro.memory.request import MemRequest, SourceType


def issue(target, address, *, size=128, write=False, callback=None,
          source=SourceType.GPU):
    """Send one :class:`MemRequest` to ``target``'s ingress and return it.

    ``callback`` receives the completed request; without one the request
    is fire-and-forget.  The target must accept (unbounded receivers)."""
    request = MemRequest(address=address, size=size, write=write,
                         source=source, callback=callback)
    assert RequestPort("test.issuer").connect(target).try_send(request)
    return request
