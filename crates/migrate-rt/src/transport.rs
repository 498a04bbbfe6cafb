//! The recovery transport: sequence-numbered envelopes, acknowledgements,
//! retransmission, duplicate suppression and crash-restart windows.
//!
//! It exists only under fault injection: [`crate::System`] holds it as an
//! `Option<Transport>`, built exactly when [`crate::MachineConfig::faults`]
//! is set. With it absent every message travels on the plain fault-free
//! path, bit-identical to a build without fault injection.
//!
//! A sequenced payload stays in the sender's retransmission buffer
//! ([`InFlight`]) until acknowledged; only its [`Envelope`] metadata travels
//! through the event queue, so drops and duplicates never clone (unclonable)
//! activation frames. The receive path takes the payload out of the buffer on
//! first delivery and acks it when the delivered task executes.
//!
//! Sequence numbers are handed out globally and in order, so the buffer and
//! the duplicate-suppression table are one *recovery window* over
//! `acked_below..next_seq`: a slot per envelope, holding a handle into a slab
//! of [`InFlight`] records until the envelope is retired. An envelope counts
//! as delivered once its slot is retired or its payload taken; everything
//! below the watermark is delivered by definition.

use std::collections::VecDeque;

use proteus::event::EventQueue;
use proteus::fault::{FaultInjector, FaultPlan};
use proteus::{Cycles, ProcId};

use crate::message::{MessageKind, Payload};
use crate::system::Event;

/// Tuning of the ack/timeout/retry recovery protocol (only active under
/// fault injection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retransmission timeout for the first copy of an envelope. Chosen well
    /// above one round-trip *plus service queueing*: the ack is sent when the
    /// delivered task executes, not when the envelope lands, so tight
    /// timeouts cause spurious (correct but wasteful) retransmissions.
    pub base_timeout: Cycles,
    /// Cap on the exponentially backed-off retransmission timeout.
    pub backoff_cap: Cycles,
    /// Send attempts a Migration envelope gets before the sender gives up
    /// and degrades the call to plain RPC
    /// ([`crate::DispatchKind::RpcFallback`]). Non-migration envelopes retry
    /// indefinitely (with capped backoff) — they are the fallback path, so
    /// they must eventually go through.
    pub max_migration_attempts: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            base_timeout: Cycles(25_000),
            backoff_cap: Cycles(200_000),
            max_migration_attempts: 4,
        }
    }
}

/// Counters of recovery-protocol activity in a window (only collected under
/// fault injection).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Delivery acknowledgements sent.
    pub acks_sent: u64,
    /// Envelope retransmissions after a timeout.
    pub retries: u64,
    /// Duplicate deliveries suppressed at a receiver.
    pub duplicates_suppressed: u64,
    /// Migrations that exhausted retries and fell back to RPC.
    pub fallbacks: u64,
    /// Activation frames reclaimed because their thread had terminated by
    /// the time its migration gave up.
    pub frames_reclaimed: u64,
    /// Messages that never arrived (dropped by the plan, or lost to a
    /// crashed receiver).
    pub messages_lost: u64,
}

/// Receive-path figures of a payload: what the receiver pays to take it in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Wire {
    /// Wire words (the sender marshals, and the receiver unmarshals, this
    /// many).
    pub words: u64,
    /// Payload kind.
    pub kind: MessageKind,
    /// Whether the payload takes the short-method receive path (no thread
    /// creation).
    pub short: bool,
}

/// Metadata of one copy of a sequence-numbered envelope on the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Envelope sequence number.
    pub seq: u64,
    /// Receive-path figures, so a duplicate is charged like the original
    /// even after the payload has left the buffer.
    pub wire: Wire,
}

/// Sender-side retransmission buffer entry for one unacked envelope.
pub(crate) struct InFlight {
    pub(crate) env: Envelope,
    /// The buffered payload; taken by the first delivery, so a `Some` here
    /// means no copy has been delivered yet.
    pub(crate) payload: Option<Payload>,
    /// Send attempts so far (1 = the original send).
    pub(crate) attempt: u32,
}

/// What the receiver makes of an arriving envelope copy.
pub(crate) enum Arrival {
    /// The receiver is mid crash-restart: the copy is lost.
    Lost,
    /// Already delivered (an injected duplicate, a retransmission racing its
    /// own ack, or a retired envelope): suppress, but still pay the receive
    /// path and re-ack.
    Duplicate,
    /// First delivery: the payload leaves the retransmission buffer.
    Fresh(Payload),
}

/// Window slot of a retired envelope.
const RETIRED: u32 = u32::MAX;

/// The fault-only protocol state of a machine.
pub(crate) struct Transport {
    pub(crate) injector: FaultInjector,
    config: RecoveryConfig,
    /// Next envelope sequence number (global across processors; the *order*
    /// of allocation is deterministic, so fault decisions replay exactly).
    next_seq: u64,
    /// Duplicate-suppression watermark: the oldest unretired envelope
    /// (`next_seq` when there is none). Any copy of an envelope below it
    /// still in the network is a duplicate by definition.
    acked_below: u64,
    /// The recovery window: the slot of envelope `seq` is at `seq -
    /// acked_below`, holding its `records` handle or [`RETIRED`]. Slots stay
    /// four bytes however many retired ones wait behind a slow envelope.
    window: VecDeque<u32>,
    /// Records of the unretired envelopes; retired places are reused
    /// through `free`.
    records: Vec<Option<InFlight>>,
    free: Vec<u32>,
    /// Per-processor crash-restart horizon: arrivals before this time are
    /// lost.
    crashed_until: Vec<Cycles>,
    pub(crate) stats: RecoveryStats,
}

impl Transport {
    pub(crate) fn new(plan: FaultPlan, config: RecoveryConfig, processors: usize) -> Transport {
        Transport {
            injector: FaultInjector::new(plan),
            config,
            next_seq: 0,
            acked_below: 0,
            window: VecDeque::new(),
            records: Vec::new(),
            free: Vec::new(),
            crashed_until: vec![Cycles::ZERO; processors],
            stats: RecoveryStats::default(),
        }
    }

    /// Restart the window's counters; the fault decision stream continues so
    /// the window replays identically whether or not a warm-up preceded it.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = RecoveryStats::default();
        self.injector.reset_stats();
    }

    /// Current size of the duplicate-suppression table: the envelopes in
    /// the window that count as delivered.
    pub(crate) fn dedup_len(&self) -> usize {
        let undelivered = self
            .records
            .iter()
            .flatten()
            .filter(|e| e.payload.is_some());
        self.window.len() - undelivered.count()
    }

    /// The records handle of unretired envelope `seq`.
    fn handle(&self, seq: u64) -> Option<usize> {
        let slot = usize::try_from(seq.checked_sub(self.acked_below)?).ok()?;
        let h = *self.window.get(slot)?;
        (h != RETIRED).then_some(h as usize)
    }

    /// The buffer entry of unretired envelope `seq`.
    pub(crate) fn get(&self, seq: u64) -> Option<&InFlight> {
        self.records[self.handle(seq)?].as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        let h = self.handle(seq)?;
        self.records[h].as_mut()
    }

    /// Put `payload` in the retransmission buffer under a fresh sequence
    /// number; returns the envelope to launch.
    pub(crate) fn buffer(
        &mut self,
        src: ProcId,
        dst: ProcId,
        wire: Wire,
        payload: Payload,
    ) -> Envelope {
        let env = Envelope {
            src,
            dst,
            seq: self.next_seq,
            wire,
        };
        self.next_seq += 1;
        // A handle never reaches RETIRED: that would take 2^32 buffered
        // payloads at once.
        let h = self.free.pop().unwrap_or(self.records.len() as u32);
        if h as usize == self.records.len() {
            self.records.push(None);
        }
        self.records[h as usize] = Some(InFlight {
            env,
            payload: Some(payload),
            attempt: 1,
        });
        self.window.push_back(h);
        env
    }

    /// Retransmission timeout for send attempt `attempt` (exponential
    /// backoff, capped).
    pub(crate) fn rto(&self, attempt: u32) -> Cycles {
        let shift = attempt.saturating_sub(1).min(16);
        let backed_off = self.config.base_timeout.get().saturating_mul(1 << shift);
        Cycles(backed_off.min(self.config.backoff_cap.get()))
    }

    /// Draw the fault fate of one wire copy `src` → `dst` (decided at
    /// `fate_at`, due at `arrive`) and schedule what survives: an injected
    /// disruption of the receiver, the arrival `copy()`, and an injected
    /// duplicate of it. Returns `Some(arrive)` when the plan duplicated the
    /// copy, so the caller can book the duplicate's wire traffic.
    pub(crate) fn launch(
        &mut self,
        fate_at: Cycles,
        arrive: Cycles,
        src: ProcId,
        dst: ProcId,
        copy: impl Fn() -> Event,
        queue: &mut EventQueue<Event>,
    ) -> Option<Cycles> {
        let fate = self.injector.fate(fate_at, src, dst);
        if fate.dropped {
            self.stats.messages_lost += 1;
            return None;
        }
        let arrive = arrive + fate.delay;
        let disruption = match (fate.crash, fate.stall) {
            (Some(d), _) => Some((d, true)),
            (None, Some(d)) => Some((d, false)),
            (None, None) => None,
        };
        if let Some((duration, crash)) = disruption {
            queue.schedule_at(
                arrive,
                Event::Disrupt {
                    proc: dst,
                    duration,
                    crash,
                },
            );
        }
        queue.schedule_at(arrive, copy());
        let extra = fate.duplicate?;
        queue.schedule_at(arrive + extra, copy());
        Some(arrive)
    }

    /// `true` (and the copy counted lost) when `dst` is mid crash-restart at
    /// `now`.
    pub(crate) fn lost_at(&mut self, dst: ProcId, now: Cycles) -> bool {
        let lost = now < self.crashed_until[dst.index()];
        if lost {
            self.stats.messages_lost += 1;
        }
        lost
    }

    /// Receive one envelope copy at `now`.
    pub(crate) fn accept(&mut self, env: Envelope, now: Cycles) -> Arrival {
        if self.lost_at(env.dst, now) {
            return Arrival::Lost;
        }
        match self.get_mut(env.seq).and_then(|e| e.payload.take()) {
            Some(payload) => Arrival::Fresh(payload),
            None => Arrival::Duplicate,
        }
    }

    /// An injected crash-restart keeps `proc` down until `until`.
    pub(crate) fn crash(&mut self, proc: ProcId, until: Cycles) {
        let c = &mut self.crashed_until[proc.index()];
        *c = until.max(*c);
    }

    /// A permanent crash is a restart window that never closes: every later
    /// arrival at `proc` is lost.
    pub(crate) fn kill(&mut self, proc: ProcId) {
        self.crashed_until[proc.index()] = Cycles(u64::MAX);
    }

    /// A delivered payload died un-executed in a killed receiver's queue:
    /// put it back in the sender's buffer and undo the delivery, so the next
    /// timeout redelivers (or, once the death is declared, reroutes) it.
    /// Hands the payload back when the envelope was retired meanwhile: its
    /// sender has forgotten it, so nothing can deliver it again.
    pub(crate) fn restore(&mut self, seq: u64, payload: Payload) -> Result<(), Payload> {
        let Some(entry) = self.get_mut(seq) else {
            return Err(payload);
        };
        debug_assert!(
            entry.payload.is_none(),
            "restoring an envelope that was never delivered"
        );
        entry.payload = Some(payload);
        Ok(())
    }

    /// Count one more send attempt of `seq` (a retransmission).
    pub(crate) fn count_retry(&mut self, seq: u64) {
        if let Some(entry) = self.get_mut(seq) {
            entry.attempt += 1;
            self.stats.retries += 1;
        }
    }

    /// Point `seq` at a new destination, as a fresh first attempt; returns
    /// the redirected envelope.
    pub(crate) fn redirect(&mut self, seq: u64, dst: ProcId) -> Option<Envelope> {
        let entry = self.get_mut(seq)?;
        entry.env.dst = dst;
        entry.attempt = 1;
        Some(entry.env)
    }

    /// Take `seq` out of the retransmission buffer (acknowledged, abandoned,
    /// or rerouted nowhere). A retired envelope counts as delivered, so any
    /// straggler copy is suppressed as a duplicate; the watermark then
    /// advances past every retired slot at the front of the window.
    pub(crate) fn retire(&mut self, seq: u64) -> Option<InFlight> {
        let h = self.handle(seq)?;
        self.window[(seq - self.acked_below) as usize] = RETIRED;
        self.free.push(h as u32);
        let entry = self.records[h].take();
        while self.window.front() == Some(&RETIRED) {
            self.window.pop_front();
            self.acked_below += 1;
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::rng::SplitMix64;

    const PROCS: usize = 4;
    const WIRE: Wire = Wire {
        words: 1,
        kind: MessageKind::Ack,
        short: true,
    };

    /// Test payloads carry a tag in an ack's sequence field.
    fn payload(tag: u64) -> Payload {
        Payload::Ack { seq: tag }
    }

    fn tag(payload: &Payload) -> u64 {
        match payload {
            Payload::Ack { seq } => *seq,
            _ => unreachable!("test payloads are tagged acks"),
        }
    }

    /// What one arrival looked like, comparable across the two models.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Lost,
        Duplicate,
        Fresh(u64),
    }

    /// An envelope's buffer entry: metadata, payload tag, attempt.
    type Entry = (Envelope, Option<u64>, u32);

    fn entry(e: &InFlight) -> Entry {
        (e.env, e.payload.as_ref().map(tag), e.attempt)
    }

    /// The transport's bookkeeping before the recovery window, kept as the
    /// reference: unacked envelopes in an ordered map, delivered sequence
    /// numbers in an ordered set split off at the watermark.
    struct Reference {
        next_seq: u64,
        in_flight: BTreeMap<u64, Entry>,
        delivered_seqs: BTreeSet<u64>,
        acked_below: u64,
        crashed_until: Vec<Cycles>,
    }

    impl Reference {
        fn new() -> Reference {
            Reference {
                next_seq: 0,
                in_flight: BTreeMap::new(),
                delivered_seqs: BTreeSet::new(),
                acked_below: 0,
                crashed_until: vec![Cycles::ZERO; PROCS],
            }
        }

        fn buffer(&mut self, src: ProcId, dst: ProcId, tag: u64) -> Envelope {
            let env = Envelope {
                src,
                dst,
                seq: self.next_seq,
                wire: WIRE,
            };
            self.next_seq += 1;
            self.in_flight.insert(env.seq, (env, Some(tag), 1));
            env
        }

        fn accept(&mut self, env: Envelope, now: Cycles) -> Seen {
            if now < self.crashed_until[env.dst.index()] {
                return Seen::Lost;
            }
            let seq = env.seq;
            if seq < self.acked_below || self.delivered_seqs.contains(&seq) {
                return Seen::Duplicate;
            }
            match self.in_flight.get_mut(&seq).and_then(|e| e.1.take()) {
                Some(tag) => {
                    self.delivered_seqs.insert(seq);
                    Seen::Fresh(tag)
                }
                None => Seen::Duplicate,
            }
        }

        /// `Err` where the old transport dropped the payload silently.
        fn restore(&mut self, seq: u64, tag: u64) -> Result<(), u64> {
            let entry = self.in_flight.get_mut(&seq).ok_or(tag)?;
            entry.1 = Some(tag);
            self.delivered_seqs.remove(&seq);
            Ok(())
        }

        fn count_retry(&mut self, seq: u64) {
            if let Some(entry) = self.in_flight.get_mut(&seq) {
                entry.2 += 1;
            }
        }

        fn redirect(&mut self, seq: u64, dst: ProcId) -> Option<Envelope> {
            let entry = self.in_flight.get_mut(&seq)?;
            entry.0.dst = dst;
            entry.2 = 1;
            Some(entry.0)
        }

        fn retire(&mut self, seq: u64) -> Option<Entry> {
            let entry = self.in_flight.remove(&seq)?;
            if entry.1.is_some() {
                self.delivered_seqs.insert(seq);
            }
            let floor = self
                .in_flight
                .keys()
                .next()
                .copied()
                .unwrap_or(self.next_seq);
            if floor > self.acked_below {
                self.acked_below = floor;
                self.delivered_seqs = self.delivered_seqs.split_off(&floor);
            }
            Some(entry)
        }
    }

    fn seen(arrival: Arrival) -> Seen {
        match arrival {
            Arrival::Lost => Seen::Lost,
            Arrival::Duplicate => Seen::Duplicate,
            Arrival::Fresh(p) => Seen::Fresh(tag(&p)),
        }
    }

    /// Drive the window and the reference with the same random operations:
    /// sends, arrivals of fresh and duplicate copies (including copies of
    /// long-retired envelopes), executions that ack, kills that restore,
    /// retries, redirects, retires in any order, and crash-restarts. The
    /// first envelope stays unacked for most of the run, so retired slots
    /// pile up behind it; after that, phases without sends drain the window
    /// oldest first until it empties.
    #[test]
    fn window_matches_ordered_map_reference() {
        const STEPS: u64 = 3600;
        const SLOW_UNTIL: u64 = 2400;
        // Arrivals seen lost, duplicate and fresh; restores refused and done;
        // steps that end with nothing left unretired.
        let mut coverage = [0u32; 6];
        for seed in 0..48 {
            let mut rng = SplitMix64::new(seed);
            let mut real = Transport::new(FaultPlan::disabled(), RecoveryConfig::default(), PROCS);
            let mut model = Reference::new();
            // Delivered payloads waiting in a receiver's queue: (seq, tag).
            let mut held: Vec<(u64, u64)> = Vec::new();
            let mut max_window = 0;
            for step in 0..STEPS {
                let now = Cycles(step);
                let proc = |rng: &mut SplitMix64| ProcId(rng.below(PROCS as u64) as u32);
                let issued = model.next_seq;
                // Mostly recent envelopes, sometimes any envelope ever sent.
                let pick = |rng: &mut SplitMix64| match rng.below(10) {
                    0..=6 => issued - 1 - rng.below(issued.min(24)),
                    _ => rng.below(issued),
                };
                let slow = |seq: u64| seq == 0 && step < SLOW_UNTIL;
                let op = if issued == 0 { 0 } else { rng.below(100) };
                let draining = step >= SLOW_UNTIL && (step / 200) % 2 == 1;
                if let Some(&seq) = model.in_flight.keys().next().filter(|_| draining) {
                    let got = real.retire(seq).as_ref().map(entry);
                    assert_eq!(got, model.retire(seq), "seed {seed} step {step}");
                }
                match op {
                    0..=24 if draining => {}
                    0..=24 => {
                        let (src, dst) = (proc(&mut rng), proc(&mut rng));
                        let env = real.buffer(src, dst, WIRE, payload(step));
                        assert_eq!(env, model.buffer(src, dst, step));
                    }
                    25..=49 => {
                        let seq = pick(&mut rng);
                        let env = Envelope {
                            dst: proc(&mut rng),
                            ..model.in_flight.get(&seq).map_or(
                                Envelope {
                                    src: ProcId(0),
                                    dst: ProcId(0),
                                    seq,
                                    wire: WIRE,
                                },
                                |e| e.0,
                            )
                        };
                        let got = seen(real.accept(env, now));
                        assert_eq!(got, model.accept(env, now), "seed {seed} step {step}");
                        match got {
                            Seen::Lost => coverage[0] += 1,
                            Seen::Duplicate => coverage[1] += 1,
                            Seen::Fresh(tag) => {
                                coverage[2] += 1;
                                held.push((seq, tag));
                            }
                        }
                    }
                    50..=59 if !held.is_empty() => {
                        // The delivered task executes and its ack retires it.
                        let (seq, _) = held.swap_remove(rng.below(held.len() as u64) as usize);
                        if !slow(seq) {
                            let got = real.retire(seq).as_ref().map(entry);
                            assert_eq!(got, model.retire(seq), "seed {seed} step {step}");
                        }
                    }
                    60..=64 if !held.is_empty() => {
                        // The receiver dies: its queued delivery goes back.
                        let (seq, tag) = held.swap_remove(rng.below(held.len() as u64) as usize);
                        let got = real.restore(seq, payload(tag)).map_err(|p| self::tag(&p));
                        assert_eq!(got, model.restore(seq, tag), "seed {seed} step {step}");
                        coverage[if got.is_err() { 3 } else { 4 }] += 1;
                    }
                    65..=72 => {
                        let seq = pick(&mut rng);
                        real.count_retry(seq);
                        model.count_retry(seq);
                    }
                    73..=79 => {
                        let (seq, dst) = (pick(&mut rng), proc(&mut rng));
                        assert_eq!(real.redirect(seq, dst), model.redirect(seq, dst));
                    }
                    80..=94 => {
                        let seq = pick(&mut rng);
                        if !slow(seq) {
                            let got = real.retire(seq).as_ref().map(entry);
                            assert_eq!(got, model.retire(seq), "seed {seed} step {step}");
                        }
                    }
                    95..=99 => {
                        let (p, until) = (proc(&mut rng), now + Cycles(rng.below(30)));
                        real.crash(p, until);
                        let c = &mut model.crashed_until[p.index()];
                        *c = until.max(*c);
                    }
                    _ => {}
                }
                let probe = rng.below(model.next_seq.max(1));
                assert_eq!(
                    real.get(probe).map(entry),
                    model.in_flight.get(&probe).copied(),
                    "seed {seed} step {step} seq {probe}"
                );
                assert_eq!(
                    real.acked_below, model.acked_below,
                    "seed {seed} step {step}"
                );
                assert_eq!(real.dedup_len(), model.delivered_seqs.len());
                assert_eq!(real.window.len() as u64, real.next_seq - real.acked_below);
                assert_eq!(real.records.len() - real.free.len(), model.in_flight.len());
                max_window = max_window.max(real.window.len());
                coverage[5] += u32::from(issued > 0 && model.in_flight.is_empty());
            }
            assert!(
                max_window > 200,
                "seed {seed}: the slow envelope held back the watermark"
            );
        }
        assert!(coverage.iter().all(|&n| n > 20), "{coverage:?}");
    }

    #[test]
    fn restoring_a_retired_envelope_hands_the_payload_back() {
        let mut t = Transport::new(FaultPlan::disabled(), RecoveryConfig::default(), PROCS);
        let env = t.buffer(ProcId(0), ProcId(1), WIRE, payload(7));
        let Arrival::Fresh(p) = t.accept(env, Cycles::ZERO) else {
            panic!("first copy is fresh");
        };
        // A fallback retires the delivered envelope; its receiver then dies.
        assert!(t.retire(env.seq).is_some_and(|e| e.payload.is_none()));
        let back = t
            .restore(env.seq, p)
            .expect_err("retired: nothing to restore into");
        assert_eq!(tag(&back), 7);
        assert!(matches!(t.accept(env, Cycles(1)), Arrival::Duplicate));
    }
}
