//! The gateway's flow table.
//!
//! Tracks every transport flow crossing the gateway: who initiated it (the
//! containment policy allows replies within attacker-initiated flows but not
//! honeypot-initiated ones), byte/packet counts, and last-activity times for
//! idle eviction. Eviction uses the hierarchical timer wheel so sustained
//! scan loads (tens of thousands of one-packet flows) stay O(1) per packet.
//!
//! A packet on an existing flow updates the policy-visible state at once
//! but only queues its idle-timer re-arm; the queue is applied last-wins
//! per flow before anything reads the timers ([`FlowTable::expire`] and
//! the window barrier). Under sustained per-flow packet rates that turns
//! O(packets) timer churn into O(flows) per window without changing which
//! flows idle out, or when.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use potemkin_net::{FlowKey, Transport};
use potemkin_sim::{FastMap, SimTime, TimerHandle, TimerWheel};
use potemkin_snapshot::{SnapReader, SnapWriter, SnapshotError};

/// Who sent the first packet of the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowDirection {
    /// First packet arrived from outside (attacker → honeypot).
    InboundInitiated,
    /// First packet was emitted by a honeypot (worm → victim).
    OutboundInitiated,
}

/// Per-flow state.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Who initiated the flow.
    pub direction: FlowDirection,
    /// When the first packet was seen.
    pub first_seen: SimTime,
    /// When the most recent packet was seen.
    pub last_seen: SimTime,
    /// Packets seen in either direction.
    pub packets: u64,
    /// Bytes seen in either direction.
    pub bytes: u64,
    timer: TimerHandle,
    /// Recency stamp (time, tiebreak) for LRU eviction; kept current only
    /// in a capped table.
    stamp: (SimTime, u64),
    /// Interned flow id, assigned in first-seen order. Tells a queued
    /// refresh of this flow from one of an earlier flow under the same key,
    /// and orders flows in snapshots.
    id: u64,
}

/// One broken flow-table invariant, as found by [`FlowTable::audit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowAuditViolation {
    /// A live flow is missing from the address index at one endpoint.
    Unindexed {
        /// The flow.
        key: FlowKey,
        /// The endpoint whose index lacks it.
        addr: Ipv4Addr,
    },
    /// An address's list holds a flow that is not live or does not touch
    /// the address.
    StaleIndexEntry {
        /// The indexed address.
        addr: Ipv4Addr,
        /// The listed flow's id.
        id: u64,
    },
    /// An address's flow list is malformed: a link out of the slab, out of
    /// step with its neighbour, or a cycle.
    BrokenAddrList {
        /// The address.
        addr: Ipv4Addr,
    },
    /// A capped table's LRU index does not hold exactly one entry per live
    /// flow under its current stamp.
    LruMismatch {
        /// LRU entries.
        entries: usize,
        /// Live flows.
        flows: usize,
    },
    /// An uncapped table keeps LRU entries it never reads.
    LruNotEmpty {
        /// LRU entries.
        entries: usize,
    },
    /// A live flow's idle timer is not scheduled, or the wheel holds timers
    /// for flows that are gone.
    TimerMismatch {
        /// Live timers.
        timers: usize,
        /// Live flows.
        flows: usize,
    },
}

/// No slab slot: the end of an address list.
const NIL: u32 = u32::MAX;

/// A flow's neighbours in one endpoint's address list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// One live flow: its canonical key, its state, and its links in the
/// address lists of its two endpoints (`links[0]` for `key.src`,
/// `links[1]` for `key.dst`; a flow whose endpoints are equal is listed
/// once, through `links[0]`).
#[derive(Debug)]
struct Slot {
    key: FlowKey,
    state: FlowState,
    links: [Link; 2],
}

impl Slot {
    /// This flow's links in `addr`'s list.
    fn link(&self, addr: Ipv4Addr) -> Link {
        self.links[usize::from(self.key.src != addr)]
    }

    fn link_mut(&mut self, addr: Ipv4Addr) -> &mut Link {
        &mut self.links[usize::from(self.key.src != addr)]
    }
}

/// The flow table: canonical flow key → state, with idle eviction.
///
/// # Examples
///
/// ```
/// use potemkin_gateway::flowtable::{FlowDirection, FlowTable};
/// use potemkin_net::FlowKey;
/// use potemkin_sim::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut ft = FlowTable::new(SimTime::from_secs(30));
/// let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 9999, Ipv4Addr::new(10, 0, 0, 1), 445);
/// ft.observe(SimTime::ZERO, key, 40, FlowDirection::InboundInitiated);
/// assert_eq!(ft.len(), 1);
/// let evicted = ft.expire(SimTime::from_secs(31));
/// assert_eq!(evicted.len(), 1);
/// assert!(ft.is_empty());
/// ```
pub struct FlowTable {
    /// Canonical key → slab slot of each live flow.
    flows: FastMap<FlowKey, u32>,
    /// Flow storage. A removed flow's slot goes on `free` and is reused by
    /// the next new flow, so the slab stays as large as the peak table.
    slots: Vec<Slot>,
    free: Vec<u32>,
    timers: TimerWheel<FlowKey>,
    idle_timeout: SimTime,
    /// Optional hard capacity; exceeding it evicts the least-recently-seen
    /// flow (the software gateway's memory is finite under scan floods).
    max_flows: Option<usize>,
    /// Recency index for LRU eviction. Maintained only when `max_flows` is
    /// set; empty otherwise.
    lru: BTreeMap<(SimTime, u64), FlowKey>,
    next_stamp: u64,
    /// Queued idle-timer re-arms as `(flow id, canonical key, observation
    /// time)`, in observation order. Applied last-wins per flow before
    /// anything reads the timers.
    pending: Vec<(u64, FlowKey, SimTime)>,
    /// Endpoint index: address → head slot of the doubly linked list of
    /// live flows touching it, threaded through the slab newest first.
    /// Keeps [`FlowTable::retire_addr`] and [`FlowTable::flows_for`]
    /// O(flows at the address) and unlinking O(1), for one small entry per
    /// address plus two links per flow: no allocation per address or per
    /// flow. List order follows the (deterministic) order of creation.
    by_addr: FastMap<Ipv4Addr, u32>,
    next_id: u64,
    /// Lifetime counters.
    created: u64,
    evicted: u64,
    lru_evicted: u64,
}

impl FlowTable {
    /// Creates a flow table with the given idle timeout.
    #[must_use]
    pub fn new(idle_timeout: SimTime) -> Self {
        FlowTable {
            flows: FastMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            timers: TimerWheel::new(SimTime::from_millis(100)),
            idle_timeout,
            max_flows: None,
            lru: BTreeMap::new(),
            next_stamp: 0,
            pending: Vec::new(),
            by_addr: FastMap::default(),
            next_id: 0,
            created: 0,
            evicted: 0,
            lru_evicted: 0,
        }
    }

    /// Stores a new flow and pushes it onto both endpoints' address lists.
    fn insert_flow(&mut self, key: FlowKey, state: FlowState) {
        let unlinked = Link { prev: NIL, next: NIL };
        let slot = Slot { key, state, links: [unlinked; 2] };
        let at = match self.free.pop() {
            Some(at) => {
                self.slots[at as usize] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1).expect("flow slab exceeds u32 slots")
            }
        };
        self.flows.insert(key, at);
        self.link(at, key.src);
        if key.dst != key.src {
            self.link(at, key.dst);
        }
    }

    /// Pushes slot `at` onto the front of `addr`'s list.
    fn link(&mut self, at: u32, addr: Ipv4Addr) {
        let next = self.by_addr.insert(addr, at).unwrap_or(NIL);
        if next != NIL {
            self.slots[next as usize].link_mut(addr).prev = at;
        }
        *self.slots[at as usize].link_mut(addr) = Link { prev: NIL, next };
    }

    /// Takes slot `at` out of `addr`'s list, dropping the list when it
    /// empties.
    fn unlink(&mut self, at: u32, addr: Ipv4Addr) {
        let Link { prev, next } = self.slots[at as usize].link(addr);
        if next != NIL {
            self.slots[next as usize].link_mut(addr).prev = prev;
        }
        if prev != NIL {
            self.slots[prev as usize].link_mut(addr).next = next;
        } else if next != NIL {
            self.by_addr.insert(addr, next);
        } else {
            self.by_addr.remove(&addr);
        }
    }

    /// Removes the live flow `key` from the table and both address lists;
    /// returns its state. The caller settles its timer and LRU entry.
    fn remove_flow(&mut self, key: &FlowKey) -> Option<FlowState> {
        let at = self.flows.remove(key)?;
        self.unlink(at, key.src);
        if key.dst != key.src {
            self.unlink(at, key.dst);
        }
        self.free.push(at);
        Some(self.slots[at as usize].state.clone())
    }

    /// Bounds the table at `max` flows; the least-recently-seen flow is
    /// evicted to make room.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    #[must_use]
    pub fn with_max_flows(mut self, max: usize) -> Self {
        assert!(max > 0, "flow capacity must be positive");
        self.max_flows = Some(max);
        self
    }

    /// Records a packet on a flow, creating the entry on first sight.
    ///
    /// `direction` is only consulted when the flow is new — it records who
    /// initiated. Returns whether the flow was newly created.
    pub fn observe(
        &mut self,
        now: SimTime,
        key: FlowKey,
        bytes: usize,
        direction: FlowDirection,
    ) -> bool {
        let canonical = key.canonical();
        if let Some(&at) = self.flows.get(&canonical) {
            let state = &mut self.slots[at as usize].state;
            state.last_seen = now;
            state.packets += 1;
            state.bytes += bytes as u64;
            self.pending.push((state.id, canonical, now));
            if self.max_flows.is_some() {
                let stamp = (now, self.next_stamp);
                self.next_stamp += 1;
                self.lru.remove(&state.stamp);
                state.stamp = stamp;
                self.lru.insert(stamp, canonical);
            }
            return false;
        }
        if let Some(max) = self.max_flows {
            while self.flows.len() >= max {
                let Some((oldest, victim)) = self.lru.pop_first() else { break };
                if let Some(old) = self.remove_flow(&victim) {
                    debug_assert_eq!(old.stamp, oldest);
                    self.timers.cancel(old.timer);
                    self.lru_evicted += 1;
                    self.evicted += 1;
                }
            }
        }
        let timer = self.timers.schedule(now + self.idle_timeout, canonical);
        let stamp = (now, self.next_stamp);
        self.next_stamp += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.insert_flow(
            canonical,
            FlowState {
                direction,
                first_seen: now,
                last_seen: now,
                packets: 1,
                bytes: bytes as u64,
                timer,
                stamp,
                id,
            },
        );
        if self.max_flows.is_some() {
            self.lru.insert(stamp, canonical);
        }
        self.created += 1;
        true
    }

    /// Window-barrier hook, also run before the timers are read: applies
    /// the queued timer re-arms. Each flow with pending observations
    /// gets its idle timer re-armed from its *latest* observation
    /// (last-wins — intermediate refreshes were subsumed). Entries whose
    /// flow was evicted or recreated since are skipped via the interned-id
    /// guard. Deterministic: applies in flow-id order, independent of
    /// hash-map iteration.
    pub fn flush_window(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Entries with equal (id, time) are interchangeable, so an unstable
        // sort is safe and allocation-free.
        pending.sort_unstable_by_key(|&(id, _, at)| (id, at));
        let mut i = 0;
        while i < pending.len() {
            let mut j = i;
            while j + 1 < pending.len() && pending[j + 1].0 == pending[i].0 {
                j += 1;
            }
            let (id, key, at) = pending[j];
            i = j + 1;
            let Some(&slot) = self.flows.get(&key) else { continue };
            let state = &mut self.slots[slot as usize].state;
            if state.id != id {
                continue;
            }
            self.timers.cancel(state.timer);
            state.timer = self.timers.schedule(at + self.idle_timeout, key);
        }
        // Hand the (empty) buffer back so steady state reuses its capacity.
        pending.clear();
        self.pending = pending;
    }

    /// Looks up the flow containing `key` (either direction).
    #[must_use]
    pub fn get(&self, key: FlowKey) -> Option<&FlowState> {
        self.flows.get(&key.canonical()).map(|&at| &self.slots[at as usize].state)
    }

    /// Whether an attacker-initiated flow exists for `key`.
    #[must_use]
    pub fn is_reply_to_inbound(&self, key: FlowKey) -> bool {
        self.get(key).is_some_and(|s| s.direction == FlowDirection::InboundInitiated)
    }

    /// Evicts flows idle past the timeout, up to virtual time `now`.
    /// Returns the evicted keys.
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowKey> {
        // Queued refreshes must re-arm their timers before the wheel
        // advances, or a refreshed flow would idle out on its stale timer.
        self.flush_window();
        let mut evicted = Vec::new();
        for key in self.timers.advance_to(now) {
            // A fired timer is authoritative: every refresh cancels and
            // re-schedules it, so any firing means idle.
            if let Some(state) = self.remove_flow(&key) {
                self.lru.remove(&state.stamp);
                evicted.push(key);
                self.evicted += 1;
            }
        }
        evicted
    }

    /// Retires every flow touching `addr` as either endpoint. Returns how
    /// many were removed.
    ///
    /// Called when an address's VM binding ends (expiry, pressure eviction,
    /// host crash): a stale attacker-initiated flow must not survive the
    /// binding, or its "reply" allowance would let a *recycled* VM's packets
    /// out through a dialogue the new occupant never had. Queued refreshes
    /// of retired flows are left in place; the id guard skips them.
    pub fn retire_addr(&mut self, addr: Ipv4Addr) -> usize {
        // The address index makes this O(flows at addr): walk the list
        // instead of scanning the whole table.
        let mut at = self.by_addr.remove(&addr).unwrap_or(NIL);
        let mut retired = 0;
        while at != NIL {
            let slot = &self.slots[at as usize];
            let (key, next) = (slot.key, slot.link(addr).next);
            let other = if key.src == addr { key.dst } else { key.src };
            if other != addr {
                self.unlink(at, other);
            }
            self.flows.remove(&key);
            self.free.push(at);
            let state = &self.slots[at as usize].state;
            self.lru.remove(&state.stamp);
            self.timers.cancel(state.timer);
            self.evicted += 1;
            retired += 1;
            at = next;
        }
        retired
    }

    /// Live flows touching `addr` as either endpoint (indexed lookup).
    #[must_use]
    pub fn flows_for(&self, addr: Ipv4Addr) -> usize {
        let mut at = self.by_addr.get(&addr).copied().unwrap_or(NIL);
        let mut count = 0;
        while at != NIL {
            at = self.slots[at as usize].link(addr).next;
            count += 1;
        }
        count
    }

    /// Number of live flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Lifetime `(created, evicted)` counts.
    #[must_use]
    pub fn lifetime_counts(&self) -> (u64, u64) {
        (self.created, self.evicted)
    }

    /// Flows evicted specifically by the LRU capacity bound.
    #[must_use]
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evicted
    }

    /// Checks the table's structural invariants: the address index holds
    /// exactly the live flows, under both endpoints and their ids; the LRU
    /// index holds exactly one entry per live flow when the table is
    /// capped, and nothing when it is not; and each live flow has exactly
    /// one scheduled idle timer.
    ///
    /// # Errors
    ///
    /// Returns the first [`FlowAuditViolation`] found.
    pub fn audit(&self) -> Result<(), FlowAuditViolation> {
        let mut listed = std::collections::HashSet::new();
        for (&addr, &head) in &self.by_addr {
            let broken = FlowAuditViolation::BrokenAddrList { addr };
            let (mut at, mut prev) = (head, NIL);
            if head == NIL {
                return Err(broken);
            }
            while at != NIL {
                let Some(slot) = self.slots.get(at as usize) else { return Err(broken) };
                let live = self.flows.get(&slot.key) == Some(&at);
                if !live || (slot.key.src != addr && slot.key.dst != addr) {
                    return Err(FlowAuditViolation::StaleIndexEntry { addr, id: slot.state.id });
                }
                let link = slot.link(addr);
                // A revisited slot means the list loops.
                if link.prev != prev || !listed.insert((addr, at)) {
                    return Err(broken);
                }
                (prev, at) = (at, link.next);
            }
        }
        for (key, &at) in &self.flows {
            for addr in [key.src, key.dst] {
                if !listed.contains(&(addr, at)) {
                    return Err(FlowAuditViolation::Unindexed { key: *key, addr });
                }
            }
        }
        let lru_mismatch =
            FlowAuditViolation::LruMismatch { entries: self.lru.len(), flows: self.flows.len() };
        if self.max_flows.is_some() {
            if self.lru.len() != self.flows.len() {
                return Err(lru_mismatch);
            }
            for (stamp, key) in &self.lru {
                if self.get(*key).map(|s| s.stamp) != Some(*stamp) {
                    return Err(lru_mismatch);
                }
            }
        } else if !self.lru.is_empty() {
            return Err(FlowAuditViolation::LruNotEmpty { entries: self.lru.len() });
        }
        let timer_mismatch = FlowAuditViolation::TimerMismatch {
            timers: self.timers.len(),
            flows: self.flows.len(),
        };
        if self.timers.len() != self.flows.len()
            || !self
                .flows
                .values()
                .all(|&at| self.timers.is_scheduled(self.slots[at as usize].state.timer))
        {
            return Err(timer_mismatch);
        }
        Ok(())
    }

    /// Checkpoint support: serializes every mutable field. Configuration
    /// (idle timeout, capacity bound) is not included — restore goes into a
    /// table freshly built from the same policy config. The LRU and
    /// per-address indexes are derivable from the flows, so only the flows
    /// and the timer wheel go on the wire.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Flows sorted by interned id: unique and monotone (first-seen
        // order), so the byte stream is hash-map-order independent.
        let mut flows: Vec<&Slot> =
            self.flows.values().map(|&at| &self.slots[at as usize]).collect();
        flows.sort_by_key(|slot| slot.state.id);
        w.usize(flows.len());
        for Slot { key, state: s, .. } in flows {
            encode_flow_key(&mut w, *key);
            w.u8(match s.direction {
                FlowDirection::InboundInitiated => 0,
                FlowDirection::OutboundInitiated => 1,
            });
            w.u64(s.first_seen.as_nanos());
            w.u64(s.last_seen.as_nanos());
            w.u64(s.packets);
            w.u64(s.bytes);
            w.u64(s.timer.raw());
            w.u64(s.stamp.0.as_nanos());
            w.u64(s.stamp.1);
            w.u64(s.id);
        }
        let (tick, now_ticks, next_timer_id, timers) = self.timers.snapshot_parts();
        w.u64(tick.as_nanos());
        w.u64(now_ticks);
        w.u64(next_timer_id);
        w.usize(timers.len());
        for (id, deadline_ticks, &key) in timers {
            w.u64(id);
            w.u64(deadline_ticks);
            encode_flow_key(&mut w, key);
        }
        w.u64(self.next_stamp);
        w.u64(self.next_id);
        w.u64(self.created);
        w.u64(self.evicted);
        w.u64(self.lru_evicted);
        // Queued refreshes ride along so a snapshot taken mid-window
        // resumes with the exact same flush outcome as the uninterrupted
        // run — no flush-before-checkpoint discipline required of callers.
        w.usize(self.pending.len());
        for &(id, key, at) in &self.pending {
            w.u64(id);
            encode_flow_key(&mut w, key);
            w.u64(at.as_nanos());
        }
        w.into_bytes()
    }

    /// Restores mutable state encoded by [`FlowTable::encode_state`] into
    /// this table (its configuration fields are kept). The LRU and
    /// per-address indexes are rebuilt from the restored flows.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input;
    /// the table is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        const CTX: &str = "gateway.flows";
        let mut r = SnapReader::new(bytes, CTX);
        let n_flows = r.usize()?;
        let mut decoded = Vec::new();
        let mut lru = BTreeMap::new();
        for _ in 0..n_flows {
            let key = decode_flow_key(&mut r)?;
            let direction = match r.u8()? {
                0 => FlowDirection::InboundInitiated,
                1 => FlowDirection::OutboundInitiated,
                _ => return Err(SnapshotError::Decode { context: CTX }),
            };
            let first_seen = SimTime::from_nanos(r.u64()?);
            let last_seen = SimTime::from_nanos(r.u64()?);
            let packets = r.u64()?;
            let bytes_seen = r.u64()?;
            let timer = TimerHandle::from_raw(r.u64()?);
            let stamp = (SimTime::from_nanos(r.u64()?), r.u64()?);
            let id = r.u64()?;
            if self.max_flows.is_some() {
                lru.insert(stamp, key);
            }
            decoded.push((
                key,
                FlowState {
                    direction,
                    first_seen,
                    last_seen,
                    packets,
                    bytes: bytes_seen,
                    timer,
                    stamp,
                    id,
                },
            ));
        }
        let tick = SimTime::from_nanos(r.u64()?);
        let now_ticks = r.u64()?;
        let next_timer_id = r.u64()?;
        let n_timers = r.usize()?;
        let mut timers = Vec::new();
        for _ in 0..n_timers {
            let id = r.u64()?;
            if id >= next_timer_id {
                return Err(SnapshotError::Decode { context: CTX });
            }
            let deadline_ticks = r.u64()?;
            timers.push((id, deadline_ticks, decode_flow_key(&mut r)?));
        }
        let next_stamp = r.u64()?;
        let next_id = r.u64()?;
        let created = r.u64()?;
        let evicted = r.u64()?;
        let lru_evicted = r.u64()?;
        let n_pending = r.usize()?;
        let mut pending = Vec::new();
        for _ in 0..n_pending {
            let id = r.u64()?;
            let key = decode_flow_key(&mut r)?;
            let at = SimTime::from_nanos(r.u64()?);
            pending.push((id, key, at));
        }
        r.finish()?;
        // Rebuild the slab and address lists in id order, as the flows were
        // first created.
        decoded.sort_by_key(|(_, state)| state.id);
        let mut keys: Vec<FlowKey> = decoded.iter().map(|(key, _)| *key).collect();
        keys.sort_unstable();
        if decoded.windows(2).any(|pair| pair[0].1.id == pair[1].1.id)
            || keys.windows(2).any(|pair| pair[0] == pair[1])
        {
            return Err(SnapshotError::Decode { context: CTX });
        }
        self.flows = FastMap::default();
        self.slots = Vec::with_capacity(decoded.len());
        self.free = Vec::new();
        self.by_addr = FastMap::default();
        for (key, state) in decoded {
            self.insert_flow(key, state);
        }
        self.timers = TimerWheel::from_parts(tick, now_ticks, next_timer_id, timers);
        self.lru = lru;
        self.next_stamp = next_stamp;
        self.next_id = next_id;
        self.created = created;
        self.evicted = evicted;
        self.lru_evicted = lru_evicted;
        self.pending = pending;
        Ok(())
    }
}

fn encode_flow_key(w: &mut SnapWriter, key: FlowKey) {
    w.u32(u32::from(key.src));
    w.u32(u32::from(key.dst));
    match key.transport {
        Transport::Tcp { src_port, dst_port } => {
            w.u8(0);
            w.u16(src_port);
            w.u16(dst_port);
        }
        Transport::Udp { src_port, dst_port } => {
            w.u8(1);
            w.u16(src_port);
            w.u16(dst_port);
        }
        Transport::Icmp { ident } => {
            w.u8(2);
            w.u16(ident);
        }
        Transport::Other { protocol } => {
            w.u8(3);
            w.u8(protocol);
        }
    }
}

fn decode_flow_key(r: &mut SnapReader<'_>) -> Result<FlowKey, SnapshotError> {
    let src = std::net::Ipv4Addr::from(r.u32()?);
    let dst = std::net::Ipv4Addr::from(r.u32()?);
    let transport = match r.u8()? {
        0 => Transport::Tcp { src_port: r.u16()?, dst_port: r.u16()? },
        1 => Transport::Udp { src_port: r.u16()?, dst_port: r.u16()? },
        2 => Transport::Icmp { ident: r.u16()? },
        3 => Transport::Other { protocol: r.u8()? },
        _ => return Err(SnapshotError::Decode { context: "gateway.flows" }),
    };
    Ok(FlowKey { src, dst, transport })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const ATK: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn key() -> FlowKey {
        FlowKey::tcp(ATK, 9999, HP, 445)
    }

    #[test]
    fn create_and_update() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        assert!(ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated));
        assert!(!ft.observe(SimTime::from_secs(1), key(), 60, FlowDirection::InboundInitiated));
        let s = ft.get(key()).unwrap();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.first_seen, SimTime::ZERO);
        assert_eq!(s.last_seen, SimTime::from_secs(1));
    }

    #[test]
    fn both_directions_share_state() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        // The reply direction updates the same flow and keeps the original
        // initiator.
        assert!(!ft.observe(
            SimTime::from_secs(1),
            key().reversed(),
            40,
            FlowDirection::OutboundInitiated
        ));
        assert!(ft.is_reply_to_inbound(key().reversed()));
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn initiator_recorded_for_outbound() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        let k = FlowKey::tcp(HP, 1025, Ipv4Addr::new(9, 9, 9, 9), 445);
        ft.observe(SimTime::ZERO, k, 40, FlowDirection::OutboundInitiated);
        assert!(!ft.is_reply_to_inbound(k));
    }

    #[test]
    fn idle_eviction() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        assert!(ft.expire(SimTime::from_secs(4)).is_empty());
        let evicted = ft.expire(SimTime::from_secs(6));
        assert_eq!(evicted, vec![key().canonical()]);
        assert!(ft.get(key()).is_none());
        assert_eq!(ft.lifetime_counts(), (1, 1));
    }

    #[test]
    fn activity_refreshes_timeout() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        // Keep the flow alive with periodic packets.
        for s in 1..10 {
            ft.observe(SimTime::from_secs(s * 3), key(), 40, FlowDirection::InboundInitiated);
            assert!(ft.expire(SimTime::from_secs(s * 3)).is_empty());
        }
        assert_eq!(ft.len(), 1);
        // Now go quiet.
        let evicted = ft.expire(SimTime::from_secs(27 + 6));
        assert_eq!(evicted.len(), 1);
    }

    #[test]
    fn lru_capacity_evicts_least_recent() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600)).with_max_flows(3);
        let keys: Vec<FlowKey> = (0..5u16).map(|i| FlowKey::tcp(ATK, 1_000 + i, HP, 445)).collect();
        for (i, &k) in keys.iter().take(3).enumerate() {
            ft.observe(SimTime::from_secs(i as u64), k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 3);
        // Refresh the oldest flow so it becomes the newest.
        ft.observe(SimTime::from_secs(10), keys[0], 40, FlowDirection::InboundInitiated);
        // A fourth flow evicts keys[1] (now the least recent), not keys[0].
        ft.observe(SimTime::from_secs(11), keys[3], 40, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 3);
        assert!(ft.get(keys[0]).is_some(), "refreshed flow survives");
        assert!(ft.get(keys[1]).is_none(), "LRU flow evicted");
        assert!(ft.get(keys[2]).is_some());
        assert!(ft.get(keys[3]).is_some());
        assert_eq!(ft.lru_evictions(), 1);
        // A fifth flow evicts keys[2].
        ft.observe(SimTime::from_secs(12), keys[4], 40, FlowDirection::InboundInitiated);
        assert!(ft.get(keys[2]).is_none());
        assert_eq!(ft.lru_evictions(), 2);
    }

    #[test]
    fn lru_evicted_flow_timer_does_not_fire_later() {
        let mut ft = FlowTable::new(SimTime::from_secs(5)).with_max_flows(1);
        let k1 = FlowKey::tcp(ATK, 1, HP, 445);
        let k2 = FlowKey::tcp(ATK, 2, HP, 445);
        ft.observe(SimTime::ZERO, k1, 40, FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(1), k2, 40, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 1);
        // k1's idle timer (cancelled at LRU eviction) must not evict k2 or
        // double-count.
        let expired = ft.expire(SimTime::from_secs(5) + SimTime::from_millis(500));
        assert!(expired.is_empty(), "k2 idles out at t=6, not before");
        let expired2 = ft.expire(SimTime::from_secs(7));
        assert_eq!(expired2, vec![k2.canonical()]);
    }

    #[test]
    fn unbounded_table_never_lru_evicts() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600));
        for i in 0..500u16 {
            let k = FlowKey::tcp(ATK, i, HP, 445);
            ft.observe(SimTime::ZERO, k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 500);
        assert_eq!(ft.lru_evictions(), 0);
    }

    #[test]
    fn retire_addr_removes_flows_on_both_sides() {
        let mut ft = FlowTable::new(SimTime::from_secs(60));
        let other = Ipv4Addr::new(10, 0, 0, 2);
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(ATK, 1, HP, 445),
            40,
            FlowDirection::InboundInitiated,
        );
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(HP, 1025, ATK, 80),
            40,
            FlowDirection::OutboundInitiated,
        );
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(ATK, 2, other, 445),
            40,
            FlowDirection::InboundInitiated,
        );
        assert_eq!(ft.len(), 3);

        assert_eq!(ft.retire_addr(HP), 2, "flows with HP as src or dst retired");
        assert_eq!(ft.len(), 1);
        assert_eq!(ft.audit(), Ok(()));
        assert!(ft.get(FlowKey::tcp(ATK, 2, other, 445)).is_some(), "unrelated flow survives");
        assert!(!ft.is_reply_to_inbound(FlowKey::tcp(ATK, 1, HP, 445)));
        // Cancelled timers never fire for retired flows.
        assert!(ft.expire(SimTime::from_secs(61)).iter().all(|k| k.src != HP && k.dst != HP));
        // Idempotent.
        assert_eq!(ft.retire_addr(HP), 0);
    }

    #[test]
    fn addr_index_tracks_churn() {
        // Exercise create, refresh, idle eviction, LRU eviction, and
        // retirement; the index must agree with a brute-force scan
        // throughout.
        let mut ft = FlowTable::new(SimTime::from_secs(5)).with_max_flows(6);
        let addrs: Vec<Ipv4Addr> = (1..=4u8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        for step in 0..40u64 {
            let src = addrs[(step % 4) as usize];
            let dst = addrs[((step / 4 + 1) % 4) as usize];
            if src != dst {
                let k = FlowKey::tcp(src, 1000 + (step % 7) as u16, dst, 445);
                ft.observe(SimTime::from_secs(step), k, 40, FlowDirection::InboundInitiated);
            }
            ft.expire(SimTime::from_secs(step));
            assert_eq!(ft.audit(), Ok(()), "audit failed at step {step}");
            for &a in &addrs {
                let brute = ft.flows.keys().filter(|k| k.src == a || k.dst == a).count();
                assert_eq!(ft.flows_for(a), brute, "index diverged at step {step} for {a}");
            }
        }
        let before = ft.len();
        let retired = ft.retire_addr(addrs[0]);
        assert_eq!(ft.len(), before - retired);
        assert_eq!(ft.flows_for(addrs[0]), 0);
        for &a in &addrs {
            let brute = ft.flows.keys().filter(|k| k.src == a || k.dst == a).count();
            assert_eq!(ft.flows_for(a), brute);
        }
    }

    #[test]
    fn queued_refreshes_keep_flows_alive() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        // Refresh at t=3 is queued: the timer still holds the t=5 deadline
        // until a flush point.
        ft.observe(SimTime::from_secs(3), key(), 40, FlowDirection::InboundInitiated);
        assert_eq!(ft.pending.len(), 1);
        // expire() flushes first, so the stale t=5 timer never fires.
        assert!(ft.expire(SimTime::from_secs(6)).is_empty(), "refresh moved the deadline to t=8");
        let s = ft.get(key()).unwrap();
        assert_eq!((s.packets, s.last_seen), (2, SimTime::from_secs(3)), "policy state is live");
        assert_eq!(ft.expire(SimTime::from_secs(9)), vec![key().canonical()]);
        assert_eq!(ft.audit(), Ok(()));
    }

    #[test]
    fn queued_refreshes_evict_like_an_eager_model() {
        // A model that re-arms every flow on every packet and evicts the
        // least recent flow at capacity. The table, which queues re-arms
        // to flush points, must agree with it at every step.
        let timeout = SimTime::from_secs(4);
        let mut ft = FlowTable::new(timeout).with_max_flows(3);
        let mut model: Vec<(FlowKey, SimTime, u64)> = Vec::new(); // (key, last seen, seq)
        let keys: Vec<FlowKey> = (0..6u16).map(|i| FlowKey::tcp(ATK, 2_000 + i, HP, 445)).collect();
        for step in 0..60u64 {
            let now = SimTime::from_secs(step / 2);
            // Quadratic residues revisit recent keys, mixing refreshes of
            // resident flows with creations that trigger LRU eviction.
            let k = keys[((step * step) % keys.len() as u64) as usize].canonical();
            ft.observe(now, k, 40, FlowDirection::InboundInitiated);
            if let Some(entry) = model.iter_mut().find(|e| e.0 == k) {
                (entry.1, entry.2) = (now, step);
            } else {
                if model.len() == 3 {
                    let lru = (0..3).min_by_key(|&i| (model[i].1, model[i].2)).unwrap();
                    model.remove(lru);
                }
                model.push((k, now, step));
            }
            if step % 3 == 2 {
                let mut got = ft.expire(now);
                let mut want: Vec<FlowKey> =
                    model.iter().filter(|e| e.1 + timeout <= now).map(|e| e.0).collect();
                model.retain(|e| e.1 + timeout > now);
                got.sort_unstable_by_key(|k| k.transport.src_port());
                want.sort_unstable_by_key(|k| k.transport.src_port());
                assert_eq!(got, want, "eviction diverged at step {step}");
            }
            assert_eq!(ft.len(), model.len(), "table size diverged at step {step}");
            for &k in &keys {
                let in_model = model.iter().any(|e| e.0 == k.canonical());
                assert_eq!(ft.get(k).is_some(), in_model, "flow presence diverged at step {step}");
            }
            assert_eq!(ft.audit(), Ok(()), "audit failed at step {step}");
        }
        assert!(ft.lru_evictions() > 0, "the model run exercised the capacity bound");
    }

    #[test]
    fn capacity_eviction_sees_queued_refreshes() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600)).with_max_flows(3);
        let keys: Vec<FlowKey> = (0..5u16).map(|i| FlowKey::tcp(ATK, 1_000 + i, HP, 445)).collect();
        for (i, &k) in keys.iter().take(3).enumerate() {
            ft.observe(SimTime::from_secs(i as u64), k, 40, FlowDirection::InboundInitiated);
        }
        // The refresh of the oldest flow is queued for its timer, but the
        // capacity eviction below must already see it as recent.
        ft.observe(SimTime::from_secs(10), keys[0], 40, FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(11), keys[3], 40, FlowDirection::InboundInitiated);
        assert!(ft.get(keys[0]).is_some(), "refreshed flow survives");
        assert!(ft.get(keys[1]).is_none(), "true LRU flow evicted");
        assert_eq!(ft.lru_evictions(), 1);
        assert_eq!(ft.audit(), Ok(()));
    }

    #[test]
    fn pending_refreshes_survive_snapshot() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(3), key(), 40, FlowDirection::InboundInitiated);
        // Snapshot with the refresh still queued.
        let bytes = ft.encode_state();
        let mut restored = FlowTable::new(SimTime::from_secs(5));
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes, "encode∘restore∘encode ≠ encode");
        assert_eq!(restored.pending.len(), 1);
        assert_eq!(restored.audit(), Ok(()));
        // The queued refresh lands after restore exactly as it would have
        // in the uninterrupted run.
        assert!(restored.expire(SimTime::from_secs(6)).is_empty());
        assert_eq!(restored.expire(SimTime::from_secs(9)), vec![key().canonical()]);
    }

    #[test]
    fn restore_rejects_duplicate_flows() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        let bytes = ft.encode_state();
        // A TCP key (13 bytes), the direction byte, then eight u64 fields
        // ending with the flow id.
        const RECORD: usize = 13 + 1 + 8 * 8;
        let (record, rest) = bytes[8..].split_at(RECORD);
        // The same flow twice, then the same key under a second id.
        for second_id in [0u64, 1] {
            let mut second = record.to_vec();
            second[RECORD - 8..].copy_from_slice(&second_id.to_le_bytes());
            let forged = [&2u64.to_le_bytes()[..], record, &second, rest].concat();
            let mut target = FlowTable::new(SimTime::from_secs(5));
            assert!(target.restore_state(&forged).is_err(), "second copy under id {second_id}");
            assert!(target.is_empty(), "a rejected restore leaves the table untouched");
        }
    }

    #[test]
    fn capped_table_restores_its_lru_index() {
        let mut ft = FlowTable::new(SimTime::from_secs(60)).with_max_flows(4);
        for i in 0..6u16 {
            let k = FlowKey::tcp(ATK, 3_000 + i, HP, 445);
            ft.observe(SimTime::from_secs(u64::from(i)), k, 40, FlowDirection::InboundInitiated);
        }
        let mut restored = FlowTable::new(SimTime::from_secs(60)).with_max_flows(4);
        restored.restore_state(&ft.encode_state()).unwrap();
        assert_eq!(restored.audit(), Ok(()));
        assert_eq!(restored.lru.len(), 4);
    }

    #[test]
    fn flush_window_is_idempotent() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        for s in 1..4u64 {
            ft.observe(SimTime::from_secs(s), key(), 40, FlowDirection::InboundInitiated);
        }
        ft.flush_window();
        ft.flush_window();
        // Last-wins: the deadline tracks the final observation (t=3 + 5).
        assert!(ft.expire(SimTime::from_secs(7)).is_empty());
        assert_eq!(ft.expire(SimTime::from_secs(8)).len(), 1);
    }

    #[test]
    fn audit_names_each_broken_index() {
        let k = key().canonical();
        let fresh = || {
            let mut ft = FlowTable::new(SimTime::from_secs(5));
            ft.observe(SimTime::ZERO, k, 40, FlowDirection::InboundInitiated);
            ft
        };
        let mut ft = fresh();
        ft.by_addr.remove(&HP);
        assert_eq!(ft.audit(), Err(FlowAuditViolation::Unindexed { key: k, addr: HP }));

        let mut ft = fresh();
        ft.slots[0].link_mut(HP).next = 0;
        assert_eq!(ft.audit(), Err(FlowAuditViolation::BrokenAddrList { addr: HP }));

        let mut ft = fresh();
        ft.by_addr.insert(Ipv4Addr::new(9, 9, 9, 9), 0);
        let stale = FlowAuditViolation::StaleIndexEntry { addr: Ipv4Addr::new(9, 9, 9, 9), id: 0 };
        assert_eq!(ft.audit(), Err(stale));

        let mut ft = fresh();
        ft.lru.insert((SimTime::ZERO, 0), k);
        assert_eq!(ft.audit(), Err(FlowAuditViolation::LruNotEmpty { entries: 1 }));

        let mut ft = fresh().with_max_flows(4);
        assert_eq!(ft.audit(), Err(FlowAuditViolation::LruMismatch { entries: 0, flows: 1 }));
        ft.lru.insert((SimTime::ZERO, 0), k);
        assert_eq!(ft.audit(), Ok(()));

        let mut ft = fresh();
        let timer = ft.get(k).unwrap().timer;
        ft.timers.cancel(timer);
        assert_eq!(ft.audit(), Err(FlowAuditViolation::TimerMismatch { timers: 0, flows: 1 }));
    }

    #[test]
    fn many_flows_independent_timers() {
        let mut ft = FlowTable::new(SimTime::from_secs(1));
        for i in 0..1000u32 {
            let k = FlowKey::tcp(Ipv4Addr::from(0x0101_0000 + i), 1000, HP, 445);
            ft.observe(SimTime::from_millis(u64::from(i)), k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 1000);
        // Half the flows idle out by t = 1.5s.
        let evicted = ft.expire(SimTime::from_millis(1_500));
        assert!((400..=600).contains(&evicted.len()), "evicted {}", evicted.len());
    }
}
