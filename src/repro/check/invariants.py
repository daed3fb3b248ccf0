"""Runtime cross-layer invariant checking (the ``--check`` machinery).

The simulation's correctness argument rests on a handful of conservation
and layout laws that every layer must uphold on every run:

* **MPI conservation** — every payload byte serialized onto a NIC is
  either received or accounted to a drop (the retransmission model resends
  it, paying TX again); every non-out-of-band message sent is delivered.
* **PVFS accounting** — per server, the bytes entering :class:`~repro.
  pvfs.server.IOServer` as writes equal the bytes the disk landed plus the
  write-back cache's remaining dirty extents plus the bytes the cache
  merged away (overlapping/duplicate regions fusing into one run), and the
  dirty-byte gauge matches the extent sum at every absorb and flush.
* **Offset-layout laws** — the placements :func:`~repro.core.offsets.
  merge_query` hands out tile ``[base, base + block)`` densely with no
  overlap, and consecutive query blocks abut exactly (the ledger law).
* **Trace well-formedness** — every interval closes, lies within the run,
  and no two intervals of one ``(rank, state)`` row overlap.
* **Strategy ledger** — in every run, static or hybrid-auto, each query's
  chosen strategy (fixed at its first assignment), the strategy its write
  path executed and the one stamped into the trace agree.

This module follows the :mod:`repro.obs` pattern exactly: the
:class:`~repro.sim.environment.Environment` carries :data:`NULL_CHECKER`
by default (no hooks at all: every hook call sits behind an ``enabled``
guard), and an
attached :class:`InvariantChecker` does pure-Python bookkeeping only — it
schedules no events, draws no random numbers, and reads no wall clock, so
a checked run is bit-identical in virtual time to an unchecked one
(golden-tested).  A broken law raises a structured
:class:`InvariantViolation` carrying layer, invariant name, simulated
time, and context.

Import discipline: this module must stay dependency-free within the
package (the :class:`Environment` itself imports it), so the offset-tiling
validation is restated here rather than imported from ``repro.core``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Injector-written trace rows that echo a fault plan's *windows* rather
#: than measured activity: a plan may legally schedule overlapping windows
#: on one server, and a window may outlive the run.
_PLAN_WINDOW_STATES = frozenset(
    {"server_degraded", "server_outage", "server_killed"}
)


class InvariantViolation(Exception):
    """A cross-layer law was broken; structured for post-mortem tooling."""

    def __init__(
        self,
        layer: str,
        invariant: str,
        message: str,
        time: Optional[float] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.layer = layer
        self.invariant = invariant
        self.message = message
        self.time = time
        self.context = dict(context or {})
        when = f" at t={time:.9g}" if time is not None else ""
        ctx = f" {self.context}" if self.context else ""
        super().__init__(f"[{layer}/{invariant}]{when}: {message}{ctx}")


class NullChecker:
    """The disabled checker: ``enabled = False`` and no hooks at all.

    Every instrumented site guards with ``if check.enabled`` (one attribute
    load and a branch), so no hook is ever called on it;
    ``tests/check/test_hook_guards.py`` holds every hook call in
    ``src/repro`` to that guard.
    """

    enabled = False

    def __repr__(self) -> str:
        return "<NullChecker>"


#: The process-wide disabled checker (default on every Environment).
NULL_CHECKER = NullChecker()

#: Admission-ledger shape (global and per shard).  ``donated``/``stolen``
#: only move in sharded runs: a donated query leaves its shard's pending
#: set without completing; the same query re-enters the thief's ledger as
#: one ``stolen`` plus one ``admitted`` event.
_EMPTY_ARRIVALS: Dict[str, int] = {
    "offered": 0,
    "admitted": 0,
    "rejected": 0,
    "shed": 0,
    "completed": 0,
    "donated": 0,
    "stolen": 0,
}


class _ServerLedger:
    """Byte accounting of one I/O server's write path.

    Replication/recovery fields: ``lost`` is dirty cache data dropped by a
    failing daemon (volatile buffer), ``missed`` is bytes acked to clients
    while this server was down (degraded writes + re-drive targets),
    ``rebuilt`` is the portion the background rebuild has landed, and
    ``abandoned`` is the portion discarded because the server was killed
    permanently.  ``missed - rebuilt - abandoned`` is the server's open
    durability gap and must never go negative.
    """

    __slots__ = (
        "write_in",
        "disk_written",
        "absorbed",
        "merged",
        "dirty",
        "lost",
        "missed",
        "rebuilt",
        "abandoned",
        "dead",
    )

    def __init__(self) -> None:
        self.write_in = 0
        self.disk_written = 0
        self.absorbed = 0
        self.merged = 0
        self.dirty = 0
        self.lost = 0
        self.missed = 0
        self.rebuilt = 0
        self.abandoned = 0
        self.dead = False


class InvariantChecker:
    """The live checker: accumulates per-layer ledgers and raises on breakage.

    Continuous laws (per hook call) fail at the offending simulated
    instant; global conservation laws run in :meth:`finalize`, after the
    run's results are captured (the event queue is *not* drained — pending
    background work like idle cache flushes stays pending, exactly as in
    an unchecked run).
    """

    enabled = True

    def __init__(self, env=None) -> None:
        self.env = env
        self.checks = 0  # hook invocations (reporting only)
        # MPI wire ledger (NIC-serialized payload bytes; OOB pays neither).
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.dropped_bytes = 0
        # MPI message ledger: kind -> [sent, sent_B, delivered, delivered_B].
        self.messages: Dict[str, List[int]] = {}
        # PVFS per-server ledgers.
        self.servers: Dict[int, _ServerLedger] = {}
        # Replicated-write ledger: every replicated request's chain must be
        # the same width, and no write may ever be acked with zero live
        # replicas.
        self._chain_width: Optional[int] = None
        self.replica_writes = 0
        self.replica_acked_bytes = 0
        # Offset-layout cursor per output file (one per shard; single-file
        # runs only ever use shard 0): None until the first block (supports
        # resumed runs, whose first base is nonzero).
        self._offset_cursor: Dict[int, Optional[int]] = {}
        # Serve-mode arrival ledgers: one global, one per shard.
        # "admitted" counts admission *events* (a shed slot's takeover is a
        # fresh admission of the new arrival, and a stolen query is a fresh
        # admission at the thief), so every offered-or-stolen arrival lands
        # in exactly one of admitted or rejected, and every admission event
        # ends as completed, shed, donated, or still-open at run end.
        self.arrivals: Dict[str, int] = dict(_EMPTY_ARRIVALS)
        self.shard_arrivals: Dict[int, Dict[str, int]] = {}
        # Per-query strategy ledgers (every run): the name the master chose
        # (a static run's own strategy, or hybrid-auto's selector pick), the
        # name the write path actually executed, and the name stamped into
        # the trace, keyed by (shard, query).  All three must agree: a second
        # record with a different name fails on the spot, executed = chosen
        # is checked when the write is recorded, traced = chosen at finalize.
        self.strategy_chosen_by: Dict[Tuple[int, int], str] = {}
        self.strategy_executed_by: Dict[Tuple[int, int], str] = {}
        self.strategy_traced_by: Dict[Tuple[int, int], str] = {}

    def __repr__(self) -> str:
        return f"<InvariantChecker checks={self.checks}>"

    # -- violation plumbing -------------------------------------------------
    def _now(self) -> Optional[float]:
        return self.env.now if self.env is not None else None

    def _fail(self, layer: str, invariant: str, message: str, **context) -> None:
        raise InvariantViolation(
            layer=layer,
            invariant=invariant,
            message=message,
            time=self._now(),
            context=context,
        )

    def _server(self, server_id: int) -> _ServerLedger:
        ledger = self.servers.get(server_id)
        if ledger is None:
            ledger = self.servers[server_id] = _ServerLedger()
        return ledger

    # -- MPI layer ----------------------------------------------------------
    def _wire_fail(self, message: str) -> None:
        self._fail(
            "mpi",
            "wire-conservation",
            message,
            tx=self.tx_bytes,
            rx=self.rx_bytes,
            dropped=self.dropped_bytes,
        )

    def nic_tx(self, nbytes: int) -> None:
        self.checks += 1
        self.tx_bytes += nbytes

    def nic_rx(self, nbytes: int) -> None:
        self.checks += 1
        self.rx_bytes += nbytes
        if self.rx_bytes + self.dropped_bytes > self.tx_bytes:
            self._wire_fail("received+dropped bytes exceed transmitted bytes")

    def wire_drop(self, nbytes: int) -> None:
        self.checks += 1
        self.dropped_bytes += nbytes
        if self.rx_bytes + self.dropped_bytes > self.tx_bytes:
            self._wire_fail("received+dropped bytes exceed transmitted bytes")

    def msg_sent(self, kind: str, nbytes: int) -> None:
        self.checks += 1
        entry = self.messages.setdefault(kind, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def msg_delivered(self, kind: str, nbytes: int) -> None:
        self.checks += 1
        entry = self.messages.setdefault(kind, [0, 0, 0, 0])
        entry[2] += 1
        entry[3] += nbytes
        if entry[2] > entry[0]:
            self._fail(
                "mpi",
                "message-conservation",
                f"more {kind} messages delivered than sent",
                kind=kind,
                sent=entry[0],
                delivered=entry[2],
            )

    # -- PVFS layer ---------------------------------------------------------
    def server_write_in(self, server_id: int, nbytes: int) -> None:
        self.checks += 1
        self._server(server_id).write_in += nbytes

    def server_disk_write(self, server_id: int, nbytes: int) -> None:
        self.checks += 1
        ledger = self._server(server_id)
        ledger.disk_written += nbytes
        if ledger.disk_written > ledger.write_in:
            self._fail(
                "pvfs",
                "server-conservation",
                f"server {server_id} wrote more bytes to disk than it received",
                server=server_id,
                write_in=ledger.write_in,
                disk_written=ledger.disk_written,
            )

    def cache_absorb(self, server_id: int, nbytes: int, merged_away: int) -> None:
        self.checks += 1
        if not 0 <= merged_away <= nbytes:
            self._fail(
                "pvfs",
                "cache-accounting",
                f"server {server_id} cache absorbed {nbytes} B but the dirty "
                f"set grew by {nbytes - merged_away} B",
                server=server_id,
                absorbed=nbytes,
                merged_away=merged_away,
            )
        ledger = self._server(server_id)
        ledger.absorbed += nbytes
        ledger.merged += merged_away

    def cache_state(
        self, server_id: int, runs: Sequence[Tuple[int, int]], dirty_bytes: int
    ) -> None:
        self.checks += 1
        self._validate_runs(server_id, runs, dirty_bytes, "cache-gauge", "gauge")
        self._server(server_id).dirty = dirty_bytes

    def cache_flush(
        self, server_id: int, runs: Sequence[Tuple[int, int]], nbytes: int
    ) -> None:
        self.checks += 1
        self._validate_runs(server_id, runs, nbytes, "cache-flush", "flushed")

    def _validate_runs(
        self,
        server_id: int,
        runs: Sequence[Tuple[int, int]],
        expected: int,
        invariant: str,
        label: str,
    ) -> None:
        """Dirty extents must be sorted, positive, non-overlapping, and sum
        to ``expected`` (the dirty-byte gauge, or the bytes a flush wrote)."""
        total = 0
        prev_end: Optional[int] = None
        for lo, hi in runs:
            if hi <= lo:
                self._fail(
                    "pvfs",
                    "cache-extents",
                    f"server {server_id} holds an empty/inverted extent",
                    server=server_id,
                    extent=(lo, hi),
                )
            if prev_end is not None and lo < prev_end:
                self._fail(
                    "pvfs",
                    "cache-extents",
                    f"server {server_id} dirty extents overlap or are unsorted",
                    server=server_id,
                    prev_end=prev_end,
                    next_start=lo,
                )
            prev_end = hi
            total += hi - lo
        if total != expected:
            self._fail(
                "pvfs",
                invariant,
                f"server {server_id} {label} {expected} B != extent sum {total}",
                server=server_id,
                extent_sum=total,
                **{label: expected},
            )

    def cache_lost(self, server_id: int, nbytes: int) -> None:
        self.checks += 1
        ledger = self._server(server_id)
        if nbytes < 0 or nbytes > ledger.dirty:
            self._fail(
                "pvfs",
                "cache-loss",
                f"server {server_id} lost {nbytes} B of dirty data but the "
                f"gauge held {ledger.dirty} B",
                server=server_id,
                lost=nbytes,
                dirty=ledger.dirty,
            )
        ledger.lost += nbytes

    def replica_write(
        self, primary: int, nbytes: int, nlive: int, nmissed: int, ndead: int
    ) -> None:
        self.checks += 1
        if nlive < 1:
            self._fail(
                "pvfs",
                "replica-liveness",
                f"write on chain of primary {primary} acked with zero live "
                f"replicas",
                primary=primary,
                nbytes=nbytes,
                nmissed=nmissed,
                ndead=ndead,
            )
        width = nlive + nmissed + ndead
        if self._chain_width is None:
            self._chain_width = width
        elif width != self._chain_width:
            self._fail(
                "pvfs",
                "replica-chain-width",
                f"chain of primary {primary} has {width} members, "
                f"expected {self._chain_width}",
                primary=primary,
                width=width,
                expected=self._chain_width,
            )
        self.replica_writes += 1
        self.replica_acked_bytes += nbytes * nlive

    def replica_missed(self, server_id: int, nbytes: int) -> None:
        self.checks += 1
        if nbytes <= 0:
            self._fail(
                "pvfs",
                "replica-ledger",
                f"server {server_id} recorded a non-positive miss",
                server=server_id,
                nbytes=nbytes,
            )
        self._server(server_id).missed += nbytes

    def replica_rebuilt(self, server_id: int, nbytes: int) -> None:
        self.checks += 1
        ledger = self._server(server_id)
        ledger.rebuilt += nbytes
        self._missed_overrun(server_id, ledger, "rebuild-overrun", "rebuilt")

    def server_dead(self, server_id: int, abandoned_bytes: int) -> None:
        self.checks += 1
        ledger = self._server(server_id)
        ledger.dead = True
        ledger.abandoned += abandoned_bytes
        self._missed_overrun(server_id, ledger, "replica-ledger", "abandoned")

    def _missed_overrun(
        self, server_id: int, ledger: _ServerLedger, invariant: str, verb: str
    ) -> None:
        """Rebuilt plus abandoned bytes never exceed the bytes missed."""
        if ledger.rebuilt + ledger.abandoned > ledger.missed:
            self._fail(
                "pvfs",
                invariant,
                f"server {server_id} {verb} more bytes than were ever missed",
                server=server_id,
                missed=ledger.missed,
                rebuilt=ledger.rebuilt,
                abandoned=ledger.abandoned,
            )

    def layout_mapped(self, logical_bytes: int, physical_bytes: int) -> None:
        self.checks += 1
        if logical_bytes != physical_bytes:
            self._fail(
                "pvfs",
                "layout-conservation",
                "striping layout lost or duplicated bytes",
                logical=logical_bytes,
                physical=physical_bytes,
            )

    # -- offset layer -------------------------------------------------------
    def offsets_assigned(
        self,
        query_id,
        base,
        block_size,
        offsets_by_fragment,
        sizes_by_fragment,
        shard: int = 0,
    ) -> None:
        self.checks += 1
        base = int(base)
        block_size = int(block_size)
        cursor = self._offset_cursor.get(shard)
        if cursor is not None and base != cursor:
            self._fail(
                "offsets",
                "ledger-continuity",
                f"query {query_id} block starts at {base}, expected "
                f"{cursor} (blocks must abut)",
                query=query_id,
                shard=shard,
                base=base,
                expected=cursor,
            )
        spans: List[Tuple[int, int]] = []
        for frag, offsets in offsets_by_fragment.items():
            sizes = sizes_by_fragment.get(frag)
            if sizes is None or len(offsets) != len(sizes):
                self._fail(
                    "offsets",
                    "fragment-alignment",
                    f"query {query_id} fragment {frag}: offsets/sizes mismatch",
                    query=query_id,
                    fragment=frag,
                    noffsets=len(offsets),
                    nsizes=-1 if sizes is None else len(sizes),
                )
            spans.extend(
                (int(o), int(o) + int(s)) for o, s in zip(offsets, sizes)
            )
        spans.sort()
        cursor = base
        for start, end in spans:
            if start != cursor:
                kind = "overlap" if start < cursor else "gap"
                self._fail(
                    "offsets",
                    "dense-tiling",
                    f"query {query_id}: {kind} at offset {min(start, cursor)}",
                    query=query_id,
                    expected=cursor,
                    got=start,
                )
            cursor = end
        if cursor != base + block_size:
            self._fail(
                "offsets",
                "dense-tiling",
                f"query {query_id}: block ends at {cursor}, expected "
                f"{base + block_size}",
                query=query_id,
                end=cursor,
                expected=base + block_size,
            )
        self._offset_cursor[shard] = base + block_size

    def entry_alignment(
        self, query_id: int, fragment_id: int, noffsets: int, nsizes: int
    ) -> None:
        self.checks += 1
        if noffsets != nsizes:
            self._fail(
                "offsets",
                "entry-alignment",
                f"worker got {noffsets} offsets for {nsizes} stored results "
                f"of query {query_id} fragment {fragment_id}",
                query=query_id,
                fragment=fragment_id,
                noffsets=noffsets,
                nsizes=nsizes,
            )

    # -- serve layer --------------------------------------------------------
    def _shard_ledger(self, shard: int) -> Dict[str, int]:
        ledger = self.shard_arrivals.get(shard)
        if ledger is None:
            ledger = self.shard_arrivals[shard] = dict(_EMPTY_ARRIVALS)
        return ledger

    def arrival(self, outcome: str, shard: int = 0) -> None:
        """One admission event: offered/admitted/rejected/shed/donated/stolen."""
        self.checks += 1
        if outcome not in self.arrivals:
            self._fail(
                "serve",
                "arrival-outcome",
                f"unknown arrival outcome {outcome!r}",
                outcome=outcome,
            )
        self.arrivals[outcome] += 1
        self._shard_ledger(shard)[outcome] += 1
        self._arrival_laws()

    def arrival_completed(self, shard: int = 0) -> None:
        """An admitted query became result-durable."""
        self.checks += 1
        self.arrivals["completed"] += 1
        self._shard_ledger(shard)["completed"] += 1
        self._arrival_laws()

    def _arrival_laws(self) -> None:
        # The global laws, then the same laws per shard: a stolen query is
        # an extra admission source (beyond offered arrivals), a donated
        # query an extra way to leave the admitted set without completing.
        for name, a in [("global", self.arrivals)] + [
            (f"shard {s}", led) for s, led in self.shard_arrivals.items()
        ]:
            if a["admitted"] + a["rejected"] > a["offered"] + a["stolen"]:
                self._fail(
                    "serve",
                    "arrival-conservation",
                    f"{name}: more arrivals decided than offered+stolen",
                    ledger=name,
                    **a,
                )
            if a["completed"] + a["shed"] + a["donated"] > a["admitted"]:
                self._fail(
                    "serve",
                    "arrival-conservation",
                    f"{name}: more queries completed+shed+donated than "
                    "admission events",
                    ledger=name,
                    **a,
                )
        if self.arrivals["stolen"] > self.arrivals["donated"]:
            self._fail(
                "serve",
                "arrival-conservation",
                "more queries stolen than donated",
                **self.arrivals,
            )

    # -- per-query strategy ledger (every run) -------------------------------
    def _strategy_record(
        self,
        ledger: Dict[Tuple[int, int], str],
        which: str,
        query_id: int,
        name: str,
        shard: int,
    ) -> None:
        self.checks += 1
        key = (shard, query_id)
        prior = ledger.get(key)
        if prior is None:
            ledger[key] = name
        elif prior != name:
            self._fail(
                "adapt",
                "strategy-ledger",
                f"query {query_id} {which} as {name!r} after {prior!r}",
                query=query_id,
                shard=shard,
                prior=prior,
                name=name,
            )

    def strategy_chosen(self, query_id: int, name: str, shard: int = 0) -> None:
        """The master chose ``name`` for the query (once, at its first
        assignment; a static run always chooses its own strategy)."""
        self._strategy_record(
            self.strategy_chosen_by, "chosen", query_id, name, shard
        )

    def strategy_executed(self, query_id: int, name: str, shard: int = 0) -> None:
        """The write path ran the query under ``name`` (master inline for
        MW; once per offset entry at the owning workers for WW)."""
        self._strategy_record(
            self.strategy_executed_by, "executed", query_id, name, shard
        )
        key = (shard, query_id)
        chosen = self.strategy_chosen_by.get(key)
        if chosen != name:
            self._fail(
                "adapt",
                "strategy-ledger",
                f"query {query_id} executed as {name!r} but chosen as "
                f"{chosen!r}",
                query=query_id,
                shard=shard,
                chosen=chosen,
                executed=name,
            )

    def strategy_traced(self, query_id: int, name: str, shard: int = 0) -> None:
        """The choice was stamped into the trace."""
        self._strategy_record(
            self.strategy_traced_by, "traced", query_id, name, shard
        )

    def _finalize_strategies(self, fault_free: bool) -> None:
        for key, chosen in sorted(self.strategy_chosen_by.items()):
            shard, q = key
            traced = self.strategy_traced_by.get(key)
            if traced != chosen:
                self._fail(
                    "adapt",
                    "strategy-ledger",
                    f"query {q} chosen as {chosen!r} but traced as {traced!r}",
                    query=q,
                    shard=shard,
                    chosen=chosen,
                    traced=traced,
                )
            if fault_free and key not in self.strategy_executed_by:
                self._fail(
                    "adapt",
                    "strategy-ledger",
                    f"query {q} chosen as {chosen!r} but never executed",
                    query=q,
                    shard=shard,
                    chosen=chosen,
                )

    # -- end-of-run conservation --------------------------------------------
    def finalize(
        self,
        now: float,
        recorder=None,
        fault_free: bool = True,
        open_queries=None,
    ) -> None:
        """Run the global laws once the simulation has stopped.

        ``open_queries`` maps each master's shard to its count of
        admitted-but-not-durable queries (``None`` for a closed batch); the
        admission ledger must leave exactly that many open, per shard and
        in total.

        ``fault_free`` selects strict equalities: with an empty fault plan
        every non-OOB message is consumed by its receiver before the ranks
        can terminate, so sent == delivered and TX == RX exactly.  With
        faults, messages a crashed worker stopped waiting for (stale
        scores, retransmissions mid-backoff) may legitimately be in flight
        when the last rank exits, so the laws relax to monotone
        inequalities — already enforced continuously by the hooks.  Laws
        whose only writer is a hook that checks them at once (executed =
        chosen strategy, rebuilt + abandoned <= missed) are not restated
        here.
        """
        self._finalize_mpi(fault_free)
        self._finalize_servers()
        self._finalize_arrivals(open_queries)
        self._finalize_strategies(fault_free)
        if recorder is not None:
            self._finalize_trace(recorder, now)

    def _finalize_arrivals(self, open_queries) -> None:
        if not self.arrivals["offered"]:
            return
        if self.arrivals["stolen"] != self.arrivals["donated"]:
            self._fail(
                "serve",
                "arrival-conservation",
                "donated queries not all re-admitted by a thief at end of run",
                **self.arrivals,
            )
        open_by_shard: Dict[int, int] = open_queries or {}
        open_total = sum(open_by_shard.values()) if open_by_shard else None
        ledgers = [("global", self.arrivals, open_total)] + [
            (f"shard {s}", led, open_by_shard.get(s))
            for s, led in sorted(self.shard_arrivals.items())
        ]
        for name, a, expected in ledgers:
            if a["admitted"] + a["rejected"] != a["offered"] + a["stolen"]:
                self._fail(
                    "serve",
                    "arrival-conservation",
                    f"{name}: every offered or stolen arrival must be "
                    "admitted or rejected (decisions are synchronous)",
                    ledger=name,
                    **a,
                )
            if expected is not None:
                open_events = (
                    a["admitted"] - a["shed"] - a["donated"] - a["completed"]
                )
                if open_events != expected:
                    self._fail(
                        "serve",
                        "arrival-conservation",
                        f"{name}: admission ledger leaves {open_events} open "
                        f"queries but the master holds {expected}",
                        ledger=name,
                        open_queries=expected,
                        **a,
                    )

    def _finalize_mpi(self, fault_free: bool) -> None:
        if fault_free and self.tx_bytes != self.rx_bytes + self.dropped_bytes:
            self._wire_fail("transmitted bytes not fully received at end of run")
        for kind, (sent, sent_b, delivered, delivered_b) in sorted(
            self.messages.items()
        ):
            strict = fault_free and kind != "oob"
            if strict and (sent != delivered or sent_b != delivered_b):
                self._fail(
                    "mpi",
                    "message-conservation",
                    f"{kind} messages sent != delivered at end of run",
                    kind=kind,
                    sent=sent,
                    delivered=delivered,
                    sent_bytes=sent_b,
                    delivered_bytes=delivered_b,
                )
            if delivered > sent or delivered_b > sent_b:
                self._fail(
                    "mpi",
                    "message-conservation",
                    f"more {kind} messages delivered than sent",
                    kind=kind,
                    sent=sent,
                    delivered=delivered,
                )

    def _finalize_servers(self) -> None:
        for server_id in sorted(self.servers):
            ledger = self.servers[server_id]
            accounted = (
                ledger.disk_written + ledger.dirty + ledger.merged + ledger.lost
            )
            if ledger.write_in != accounted:
                self._fail(
                    "pvfs",
                    "server-conservation",
                    f"server {server_id}: {ledger.write_in} B entered but "
                    f"{accounted} B accounted "
                    f"(disk {ledger.disk_written} + dirty {ledger.dirty} + "
                    f"merged {ledger.merged} + lost {ledger.lost})",
                    server=server_id,
                    write_in=ledger.write_in,
                    disk_written=ledger.disk_written,
                    dirty=ledger.dirty,
                    merged=ledger.merged,
                    lost=ledger.lost,
                )
            gap = ledger.missed - ledger.rebuilt - ledger.abandoned
            if ledger.dead and gap:
                self._fail(
                    "pvfs",
                    "replica-ledger",
                    f"server {server_id} is dead but still carries a "
                    f"{gap} B durability gap (kills must abandon the ledger)",
                    server=server_id,
                    gap=gap,
                )

    def _finalize_trace(self, recorder, now: float) -> None:
        open_intervals = sorted(getattr(recorder, "_open", {}))
        if open_intervals:
            self._fail(
                "trace",
                "intervals-close",
                f"{len(open_intervals)} interval(s) never closed",
                open=open_intervals,
            )
        rows: Dict[Tuple[int, str], List[Tuple[float, float]]] = {}
        for interval in recorder.intervals:
            if interval.start < 0:
                self._fail(
                    "trace",
                    "interval-bounds",
                    "interval starts before t=0",
                    rank=interval.rank,
                    state=interval.state,
                    start=interval.start,
                )
            if interval.state in _PLAN_WINDOW_STATES:
                continue  # plan-window echoes may overlap / outlive the run
            if interval.end > now:
                self._fail(
                    "trace",
                    "interval-bounds",
                    f"interval ends at {interval.end:.9g}, after the run "
                    f"ended at {now:.9g}",
                    rank=interval.rank,
                    state=interval.state,
                    end=interval.end,
                )
            rows.setdefault((interval.rank, interval.state), []).append(
                (interval.start, interval.end)
            )
        for (rank, state), spans in sorted(rows.items()):
            spans.sort()
            prev_end = None
            for start, end in spans:
                if prev_end is not None and start < prev_end:
                    self._fail(
                        "trace",
                        "row-overlap",
                        f"rank {rank} state {state!r} has overlapping "
                        f"intervals",
                        rank=rank,
                        state=state,
                        prev_end=prev_end,
                        next_start=start,
                    )
                prev_end = end

    # -- reporting ----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Counters for display (``s3asim run --check``) and tests."""
        return {
            "checks": self.checks,
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
            "dropped_bytes": self.dropped_bytes,
            "messages": {k: list(v) for k, v in sorted(self.messages.items())},
            "servers": {
                sid: {
                    "write_in": led.write_in,
                    "disk_written": led.disk_written,
                    "dirty": led.dirty,
                    "merged": led.merged,
                    "lost": led.lost,
                    "missed": led.missed,
                    "rebuilt": led.rebuilt,
                    "abandoned": led.abandoned,
                    "dead": led.dead,
                }
                for sid, led in sorted(self.servers.items())
            },
            "arrivals": dict(self.arrivals),
            "shard_arrivals": {
                s: dict(led) for s, led in sorted(self.shard_arrivals.items())
            },
            "strategies": {
                f"{shard}:{q}": name
                for (shard, q), name in sorted(self.strategy_chosen_by.items())
            },
            "replica_writes": self.replica_writes,
            "replica_acked_bytes": self.replica_acked_bytes,
            "replica_outstanding_bytes": sum(
                led.missed - led.rebuilt - led.abandoned
                for led in self.servers.values()
            ),
        }
