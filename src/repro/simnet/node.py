"""Actor base class for simulated protocol nodes.

A :class:`SimNode` owns a set of timers that are automatically cancelled
when the node crashes (a crashed process loses its pending alarms), and a
``deliver`` entry point that ignores messages while crashed.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs import causal as _causal
from ..obs import runtime as _obs
from .events import Simulator, TimerHandle
from .network import Network


class SimNode:
    """Base class for protocol actors on a :class:`~repro.simnet.network.Network`.

    Subclasses implement :meth:`on_message` and may override
    :meth:`on_crash` / :meth:`on_recover` (calling ``super()`` to keep the
    timer bookkeeping intact).
    """

    def __init__(self, node_id: int, sim: Simulator, network: Network) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.crashed = False
        self._timers: set[TimerHandle] = set()
        network.register(self)

    # ----------------------------------------------------------------- timers
    def set_timer(self, delay_ms: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` unless this node crashes first.

        With causal tracing on, the context active when the timer is
        *armed* is restored when it fires: a timeout's consequences
        (SAC recovery fetches, Raft elections) are causally children of
        the message that armed the timer.
        """
        handle_box: list[TimerHandle] = []
        obs = _obs.OBS
        ctx = _causal.current() if obs.enabled and obs.causal else None

        def fire() -> None:
            # Popping the box also breaks the handle -> event -> fire
            # cycle, so a fired timer is freed by reference counting.
            self._timers.discard(handle_box.pop())
            if self.crashed:
                return
            if ctx is not None:
                with _causal.use(ctx):
                    callback()
            else:
                callback()

        handle = self.sim.schedule(delay_ms, fire)
        handle_box.append(handle)
        self._timers.add(handle)
        return handle

    def cancel_timer(self, handle: TimerHandle | None) -> None:
        if handle is not None:
            handle.cancel()
            self._timers.discard(handle)

    def cancel_all_timers(self) -> None:
        for handle in list(self._timers):
            handle.cancel()
        self._timers.clear()

    # --------------------------------------------------------------- messages
    def deliver(self, src: int, msg: Any) -> None:
        """Entry point used by the network; drops messages while crashed."""
        if not self.crashed:
            self.on_message(src, msg)

    def on_message(self, src: int, msg: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def send(self, dst: int, msg: Any, size_bits: float = 0.0, kind: str = "msg") -> None:
        """Send a message unless this node is crashed."""
        if not self.crashed:
            self.network.send(self.node_id, dst, msg, size_bits=size_bits, kind=kind)

    # ----------------------------------------------------------------- faults
    def crash(self) -> None:
        """Crash via the network so link state stays consistent."""
        self.network.crash(self.node_id)

    def recover(self) -> None:
        self.network.recover(self.node_id)

    def on_crash(self) -> None:
        """Network callback: mark crashed and drop all pending timers."""
        self.crashed = True
        self.cancel_all_timers()

    def on_recover(self) -> None:
        """Network callback: come back up (subclasses restart their timers)."""
        self.crashed = False
