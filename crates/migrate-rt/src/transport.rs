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

use std::collections::{BTreeMap, BTreeSet};

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

/// The fault-only protocol state of a machine.
pub(crate) struct Transport {
    pub(crate) injector: FaultInjector,
    config: RecoveryConfig,
    /// Next envelope sequence number (global across processors; the *order*
    /// of allocation is deterministic, so fault decisions replay exactly).
    next_seq: u64,
    /// Unacked envelopes, by sequence number.
    pub(crate) in_flight: BTreeMap<u64, InFlight>,
    /// Sequence numbers already delivered (or retired), for duplicate
    /// suppression. Ordered so the watermark prune can split off everything
    /// below `acked_below` in one call.
    delivered_seqs: BTreeSet<u64>,
    /// Duplicate-suppression watermark: every envelope with `seq <
    /// acked_below` has been acknowledged (or retired) and its
    /// `delivered_seqs` entry pruned — any copy still in the network is a
    /// duplicate by definition. Advanced to the smallest in-flight sequence
    /// number whenever an envelope leaves the retransmission buffer, keeping
    /// the table O(in-flight window) on long chaos runs.
    acked_below: u64,
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
            in_flight: BTreeMap::new(),
            delivered_seqs: BTreeSet::new(),
            acked_below: 0,
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

    /// Current size of the duplicate-suppression table.
    pub(crate) fn dedup_len(&self) -> usize {
        self.delivered_seqs.len()
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
        self.in_flight.insert(
            env.seq,
            InFlight {
                env,
                payload: Some(payload),
                attempt: 1,
            },
        );
        env
    }

    /// Retransmission timeout for send attempt `attempt` (exponential
    /// backoff, capped).
    fn rto(&self, attempt: u32) -> Cycles {
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

    /// Put one copy of `env` (send attempt `attempt`) on the wire at
    /// `launch_time` and arm its retransmission timer. Returns the
    /// duplicate's departure time, as [`Transport::launch`].
    pub(crate) fn launch_envelope(
        &mut self,
        env: Envelope,
        attempt: u32,
        launch_time: Cycles,
        latency: Cycles,
        queue: &mut EventQueue<Event>,
    ) -> Option<Cycles> {
        let dup = self.launch(
            launch_time,
            launch_time + latency,
            env.src,
            env.dst,
            || Event::ArriveSeq(env),
            queue,
        );
        queue.schedule_at(launch_time + self.rto(attempt), Event::Timeout(env.seq));
        dup
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
        let seq = env.seq;
        if seq < self.acked_below || self.delivered_seqs.contains(&seq) {
            return Arrival::Duplicate;
        }
        match self.in_flight.get_mut(&seq).and_then(|e| e.payload.take()) {
            Some(payload) => {
                self.delivered_seqs.insert(seq);
                Arrival::Fresh(payload)
            }
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
    pub(crate) fn restore(&mut self, seq: u64, payload: Payload) {
        if let Some(entry) = self.in_flight.get_mut(&seq) {
            debug_assert!(
                entry.payload.is_none(),
                "restoring an envelope that was never delivered"
            );
            entry.payload = Some(payload);
            self.delivered_seqs.remove(&seq);
        }
    }

    /// Count one more send attempt of `seq` (a retransmission).
    pub(crate) fn count_retry(&mut self, seq: u64) {
        if let Some(entry) = self.in_flight.get_mut(&seq) {
            entry.attempt += 1;
            self.stats.retries += 1;
        }
    }

    /// Point `seq` at a new destination, as a fresh first attempt; returns
    /// the redirected envelope.
    pub(crate) fn redirect(&mut self, seq: u64, dst: ProcId) -> Option<Envelope> {
        let entry = self.in_flight.get_mut(&seq)?;
        entry.env.dst = dst;
        entry.attempt = 1;
        Some(entry.env)
    }

    /// Take `seq` out of the retransmission buffer (acknowledged, abandoned,
    /// or rerouted nowhere). A retired envelope counts as delivered, so any
    /// straggler copy is suppressed as a duplicate; the watermark then
    /// advances past everything no live envelope can replay.
    pub(crate) fn retire(&mut self, seq: u64) -> Option<InFlight> {
        let entry = self.in_flight.remove(&seq)?;
        if entry.payload.is_some() {
            // Never delivered; a delivered one is already recorded.
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
