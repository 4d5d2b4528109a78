"""Discrete-event simulation kernel.

A small, fast, deterministic event loop in the style of SimPy: simulation
logic is written as generator *processes* that ``yield`` events. The kernel
is the substrate for every simulated cluster component in this package
(ZooKeeper servers, Lustre/PVFS servers, DUFS clients).

Determinism: given identical inputs the event order is fully reproducible.
Ties on simulation time are broken by event creation order; all randomness
comes from named streams in :mod:`repro.sim.random`.

Performance notes (the hot-path overhaul; measured by the ledger's
counted pass, ``perfbench/``):

* **Same-time FIFO lane.** Events scheduled *at the current time* — every
  ``succeed``/``fail``, zero-delay timeouts, process wakeups — go into a
  plain ``deque`` instead of the heap. They are already in creation order,
  so draining them is O(1) per event with no heap traffic. The lane and
  the heap are merged on the global ``(time, creation-id)`` order, so tie
  breaking is identical to a single heap.
* **Staged heap inserts.** Future-time events are appended to a staging
  list and folded into the heap only when the loop next needs its minimum:
  one straggler is ``heappush``-ed (or, when it precedes the heap top,
  dispatched without ever touching the heap — the common RPC chain shape),
  while burst arrivals are bulk-loaded with a single ``heapify``.
* **Allocation-light resume path.** Process init and interrupt wakeups
  queue the process itself on the lane (no wakeup ``Event``, no closure);
  repeated interrupts coalesce into one queued wakeup; the
  already-processed-target fast path is an inline loop rather than
  recursion.
* **No reference cycles.** A process or condition binds its callback
  afresh for each wait instead of storing it: a stored bound method
  points back at its owner, so every finished process would wait for
  the cyclic GC instead of being freed on the spot by its refcount.
* **Bound locals.** The run loops bind the heap, lane, and heapq
  functions to locals, eliminating attribute lookups per event.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from types import GeneratorType
from typing import Any, Generator, Iterable, Optional

_PENDING = object()
_WAKE = object()   # _step trigger sentinel: lane-dispatched process wakeup


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    ``cause`` carries the value passed to :meth:`Process.interrupt` (used by
    the failure injector to say *why* a server process died).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """One-shot occurrence; processes wait on it by ``yield``-ing it.

    Lifecycle: *pending* -> *triggered* (value set, queued on the lane) ->
    *processed* (callbacks ran).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_used")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._used = False  # failure was delivered to at least one waiter

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, self, None))
        else:
            # No waiters: nothing to run, so skip the queue round-trip and
            # mark the event processed on the spot. (Unwaited process
            # completions — every RPC handler — hit this constantly.) A
            # later yield takes the already-processed inline resume path.
            # Failures never short-circuit: strict-mode unraised-failure
            # detection needs them dispatched.
            self.callbacks = None
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._eid = eid = sim._eid + 1
        sim._lane.append((eid, self, None))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """Event that fires ``delay`` seconds after creation. Built, and
    queued, by :meth:`Simulator.timeout` only."""

    __slots__ = ()


class Process(Event):
    """Drives a generator; the process *is* an event that fires on return.

    The generator yields events; the process resumes when the yielded event
    is processed, receiving ``event.value`` (or having the exception thrown
    in, if the event failed and nothing defused it).
    """

    __slots__ = ("gen", "name", "deadline", "_target", "_interrupts",
                 "_started", "_wake_pending", "_gsend", "_gthrow")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if gen.__class__ is not GeneratorType and not hasattr(gen, "send"):
            raise TypeError(f"process target must be a generator, got {gen!r}")
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._used = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Ambient absolute deadline (None = unbounded). Inherited from the
        # spawning process so nested work — RPC handlers issuing their own
        # RPCs — automatically operates under the remaining budget of the
        # request that spawned it (repro.resilience deadline propagation).
        parent = sim._active
        self.deadline: Optional[float] = (
            parent.deadline if parent is not None else None)
        self._target: Optional[Event] = None
        self._interrupts: Optional[list] = None   # lazily allocated
        self._started = False
        self._gsend = gen.send                    # pre-bound: one resume per
        self._gthrow = getattr(gen, "throw", None)  # event makes these hot
        # Kick off at the current time: the lane carries the process
        # itself, so init needs no wakeup Event allocation.
        self._wake_pending = True
        sim._eid = eid = sim._eid + 1
        sim._lane.append((eid, None, self))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Repeated interrupts on the same process coalesce into a single
        queued wakeup; causes are delivered FIFO, one per resume point.
        """
        if self._value is not _PENDING:
            return
        ints = self._interrupts
        if ints is None:
            self._interrupts = [cause]
        else:
            ints.append(cause)
        if not self._wake_pending:
            self._wake_pending = True
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, None, self))

    def _deliver_interrupt(self) -> None:
        ints = self._interrupts
        cause = ints.pop(0)
        if not self._started:
            # Killed before ever running: a throw would surface at the
            # generator's first line, so just close it instead.
            self.gen.close()
            self.succeed(None)
            return
        # Detach from whatever we were waiting for and resume with the
        # interrupt thrown in.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._step)   # by equality
            except ValueError:
                pass
        self._target = None
        self._step(None, None, Interrupt(cause))
        # Coalesced repeats: if undelivered causes remain and no wakeup is
        # queued, queue one so FIFO delivery continues.
        if ints and self._value is _PENDING and not self._wake_pending:
            self._wake_pending = True
            sim = self.sim
            sim._eid = eid = sim._eid + 1
            sim._lane.append((eid, None, self))

    def _step(self, trigger: Optional[Event] = None, send: Any = None,
              throw: Optional[BaseException] = None) -> None:
        """Resume the generator.

        ``trigger`` is an Event on the callback path (this method is the
        callback — no wrapper frame per resume) and the
        ``_WAKE`` sentinel on the lane-dispatched wakeup path (process
        init or interrupt delivery); internal callers pass explicit
        ``send``/``throw``."""
        if trigger is not None:
            if trigger is _WAKE:
                self._wake_pending = False
                if self._value is not _PENDING:
                    return
                if self._interrupts:
                    self._deliver_interrupt()
                    return
                if self._target is not None or self._started:
                    # Stale wakeup — the interrupt was already delivered
                    # when the original target fired.
                    return
                # Fall through: init kick, gen.send(None).
            else:
                if self._value is not _PENDING:
                    return
                # A queued interrupt wins over the normal resumption.
                if self._interrupts:
                    self._deliver_interrupt()
                    return
                target = self._target
                if trigger is not target and target is not None:
                    return  # stale wakeup (re-targeted by an interrupt)
                self._target = None
                if trigger._ok:
                    send = trigger._value
                else:
                    trigger._used = True
                    throw = trigger._value
        sim = self.sim
        gsend = self._gsend
        self._started = True
        # Inline loop instead of recursion: an already-processed target
        # resumes immediately without re-entering the scheduler.
        while True:
            sim._active = self
            try:
                if throw is not None:
                    target = self._gthrow(throw)
                else:
                    target = gsend(send)
            except StopIteration as stop:
                sim._active = None
                # Inlined Event.succeed (a live process completes exactly
                # once, so the already-triggered guard is unreachable).
                self._value = stop.value
                if self.callbacks:
                    sim._eid = eid = sim._eid + 1
                    sim._lane.append((eid, self, None))
                else:
                    self.callbacks = None
                return
            except BaseException as exc:
                sim._active = None
                if sim.strict:
                    raise
                self.fail(exc)
                return
            sim._active = None
            if isinstance(target, Event):
                if target.sim is not sim:
                    send, throw = None, SimulationError(
                        "yielded event from another simulator")
                    continue
                tcb = target.callbacks
                if tcb is None:
                    # Already processed: resume immediately with its outcome.
                    if target._ok:
                        send, throw = target._value, None
                    else:
                        target._used = True
                        send, throw = None, target._value
                    continue
                self._target = target
                tcb.append(self._step)
                return
            send, throw = None, SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")


class Condition(Event):
    """Waits for *all* or *any* of a set of events (see AllOf / AnyOf).

    On completion the condition detaches itself from every still-pending
    constituent and drops its ``events`` tuple — without this, a long-lived
    straggler (e.g. the timeout that loses an ``AnyOf`` race) would pin the
    condition, every sibling event, and their values until it fired, which
    accumulates real garbage across fan-out-heavy 10^8-event campaigns.
    """

    __slots__ = ("events", "_need")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need_all: bool):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._used = False
        evs = tuple(events)
        self.events = evs
        for ev in evs:
            if ev.sim is not sim:
                raise SimulationError("condition spans simulators")
        self._need = len(evs) if need_all else min(1, len(evs))
        if self._need == 0:
            self.succeed({})
            return
        for ev in evs:
            if self._value is not _PENDING:
                break  # triggered mid-construction; don't attach further
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _detach(self) -> None:
        for ev in self.events:
            ecb = ev.callbacks
            if ecb is not None:
                try:
                    ecb.remove(self._check)     # by equality
                except ValueError:
                    pass
        self.events = ()

    def _check(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            ev._used = True
            self._detach()
            self.fail(ev._value)
            return
        self._need -= 1
        if self._need <= 0:
            result = {e: e._value for e in self.events
                      if e._value is not _PENDING and e._ok}
            self._detach()
            self.succeed(result)


def AllOf(sim: "Simulator", events: Iterable[Event]) -> Condition:
    return Condition(sim, events, need_all=True)


def AnyOf(sim: "Simulator", events: Iterable[Event]) -> Condition:
    return Condition(sim, events, need_all=False)


class Simulator:
    """The event loop.

    ``strict`` (default True) makes uncaught exceptions in processes
    propagate out of :meth:`run` immediately — the right default for tests.

    Internally the schedule is split three ways, merged on the global
    ``(time, creation-id)`` order:

    * ``_lane`` — a FIFO of events at the *current* time (plus process
      wakeups), already in creation order;
    * ``_heap`` — a ``(when, eid, event)`` min-heap of future events;
    * ``_staged`` — future events not yet folded into the heap (bulk
      ``heapify`` on bursts; single stragglers can bypass the heap
      entirely when they are the next event anyway).
    """

    __slots__ = ("now", "strict", "_heap", "_staged", "_lane", "_eid",
                 "_active")

    def __init__(self, strict: bool = True):
        self.now: float = 0.0
        self.strict = strict
        self._heap: list = []
        self._staged: list = []
        self._lane: deque = deque()
        self._eid = 0
        self._active: Optional[Process] = None

    # -- scheduling ------------------------------------------------------
    def _merge(self) -> None:
        """Fold staged future events into the heap.

        Bursts (relative to the heap size) are bulk-loaded with one
        O(n + k) ``heapify``; trickles are ``heappush``-ed.
        """
        staged = self._staged
        heap = self._heap
        if len(staged) > 8 and len(staged) * 4 >= len(heap):
            heap.extend(staged)
            heapify(heap)
        else:
            for item in staged:
                heappush(heap, item)
        staged.clear()

    @property
    def active(self) -> Optional[Process]:
        """The process whose generator is running now."""
        return self._active

    # -- factory helpers -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # The one Timeout constructor, without a constructor frame (this
        # is the single most-called factory in the kernel, so one Python
        # frame per call is measurable): a Timeout is value-bearing from
        # creation and queued immediately.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t.callbacks = []
        t._ok = True
        t._value = value
        t._used = False
        self._eid = eid = self._eid + 1
        if delay == 0.0:
            self._lane.append((eid, t, None))
        else:
            self._staged.append((self.now + delay, eid, t))
        return t

    def stage(self, event: Event, when: float, eid: int) -> None:
        """Fire the pending ``event`` at the instant ``when`` (now or later)
        under the creation id ``eid`` reserved earlier (``sim._eid += 1``):
        it takes the place in the same-instant order that a timeout created
        at the reservation would have taken — at the current instant, the
        heap's, ahead of lane work created since."""
        event._value = None
        if when > self.now:
            self._staged.append((when, eid, event))
        else:
            heappush(self._heap, (when, eid, event))

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Dispatch exactly one scheduled item (event or process wakeup)."""
        lane = self._lane
        heap = self._heap
        if lane:
            # Staged items are strictly in the future, so only the heap can
            # hold a same-time event that predates the lane head (scheduled
            # for this instant before the clock reached it); the
            # creation-id decides, exactly as a single heap would.
            if heap and heap[0][0] <= self.now and heap[0][1] < lane[0][0]:
                when, _, event = heappop(heap)
                self.now = when
            else:
                _, event, proc = lane.popleft()
                if proc is not None:
                    proc._step(_WAKE)
                    return
        else:
            if self._staged:
                self._merge()
            if heap:
                when, _, event = heappop(heap)
                self.now = when
            else:
                raise EmptySchedule()
        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - double-queue guard
            return
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._used and self.strict:
            raise event._value

    def _run_core(self, stop: Optional[Event],
                  deadline: Optional[float]) -> None:
        """The inlined hot loop behind every :meth:`run` mode.

        ``stop`` — return once this event is processed (raise
        :class:`SimulationError` if the schedule empties first).
        ``deadline`` — run events with ``when <= deadline``, then set the
        clock to the deadline and return (cheap idle advancement: an empty
        or all-future schedule costs O(1)).
        """
        lane = self._lane
        heap = self._heap
        staged = self._staged
        pop = heappop
        push = heappush
        while True:
            if stop is not None and stop.callbacks is None:
                return
            if lane:
                # Staged items are strictly in the future (they were
                # appended with when > now and the clock has not moved
                # while the lane was busy), so they cannot contend with
                # the lane head — no merge needed on this branch.
                if heap and heap[0][0] <= self.now and heap[0][1] < lane[0][0]:
                    when, _, event = pop(heap)
                    self.now = when
                else:
                    _, event, proc = lane.popleft()
                    if proc is not None:
                        proc._step(_WAKE)
                        continue
            else:
                event = None
                if staged:
                    if len(staged) == 1:
                        item = staged[0]
                        if not heap or item < heap[0]:
                            # Single straggler that fires next anyway:
                            # dispatch it without touching the heap.
                            when = item[0]
                            if deadline is not None and when > deadline:
                                self.now = deadline
                                return
                            staged.clear()
                            self.now = when
                            event = item[2]
                        else:
                            push(heap, item)
                            staged.clear()
                    else:
                        self._merge()
                if event is None:
                    if heap:
                        if deadline is not None and heap[0][0] > deadline:
                            self.now = deadline
                            return
                        when, _, event = pop(heap)
                        self.now = when
                    else:
                        if deadline is not None:
                            self.now = deadline
                            return
                        if stop is not None:
                            raise SimulationError(
                                "simulation ran out of events before the "
                                f"awaited event triggered (t={self.now})"
                            ) from None
                        return
            callbacks = event.callbacks
            if callbacks is None:
                continue
            event.callbacks = None
            if len(callbacks) == 1:   # single waiter: skip iterator setup
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
            if not event._ok and not event._used and self.strict:
                raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap is empty, a deadline, or an event triggers."""
        if isinstance(until, Event):
            # Wait for the event to be *processed*, not merely triggered
            # (a Timeout is value-bearing from creation but fires later).
            self._run_core(until, None)
            if not until._ok:
                until._used = True
                raise until._value
            return until._value
        if until is None:
            self._run_core(None, None)
            return None
        deadline = float(until)
        if deadline < self.now:
            raise ValueError("deadline in the past")
        self._run_core(None, deadline)
        return None

    def peek(self) -> float:
        """Time of the next event, or +inf if none."""
        if self._lane:
            return self.now
        if self._staged:
            self._merge()
        return self._heap[0][0] if self._heap else float("inf")
