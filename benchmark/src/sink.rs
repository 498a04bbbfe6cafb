//! The trace sink the traced run feeds: record counts by source and kind,
//! host self time per engine event kind, and the coherence miss split.

use std::collections::BTreeMap;
use std::time::Instant;

use proteus::{TraceEvent, TraceSink};

/// What one traced window recorded.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Records by `(source, kind)`.
    pub records: BTreeMap<(&'static str, &'static str), u64>,
    /// Host nanoseconds per engine event kind: each `engine` record opens a
    /// span that the next one closes, so a kind's time covers its handler
    /// and every hook that handler fired.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Coherence misses on reads.
    pub read_misses: u64,
    /// Coherence misses on writes.
    pub write_misses: u64,
    /// Cycles read misses waited behind another transaction on their line.
    pub wait_read: u64,
    /// Cycles write misses waited behind another transaction on their line.
    pub wait_write: u64,
    /// Coherence miss records whose `op=` field was neither `Read` nor
    /// `Write`: the record format changed and the split above is wrong.
    pub malformed: u64,
}

impl LayerCounts {
    /// Records of one `(source, kind)`.
    pub fn count(&self, source: &'static str, kind: &'static str) -> u64 {
        self.records.get(&(source, kind)).copied().unwrap_or(0)
    }

    /// Records from one source, of any kind.
    pub fn total(&self, source: &str) -> u64 {
        self.records
            .iter()
            .filter(|((s, _), _)| *s == source)
            .map(|(_, n)| n)
            .sum()
    }

    /// Add another window's counts to this one.
    pub fn merge(&mut self, other: &LayerCounts) {
        for (key, n) in &other.records {
            *self.records.entry(*key).or_default() += n;
        }
        for (kind, ns) in &other.self_ns {
            *self.self_ns.entry(kind).or_default() += ns;
        }
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.wait_read += other.wait_read;
        self.wait_write += other.wait_write;
        self.malformed += other.malformed;
    }

    /// The deterministic part (everything but host time), for comparing
    /// two traced runs of the same cells.
    pub fn simulated(&self) -> (&BTreeMap<(&'static str, &'static str), u64>, [u64; 5]) {
        (
            &self.records,
            [
                self.read_misses,
                self.write_misses,
                self.wait_read,
                self.wait_write,
                self.malformed,
            ],
        )
    }
}

/// A [`TraceSink`] that keeps counts and spans, not records.
#[derive(Default)]
pub struct LayerSink {
    counts: LayerCounts,
    open: Option<(&'static str, Instant)>,
}

impl LayerSink {
    /// Close the open span and return what was recorded.
    pub fn finish(&mut self) -> LayerCounts {
        self.close(Instant::now());
        std::mem::take(&mut self.counts)
    }

    fn close(&mut self, now: Instant) {
        if let Some((kind, start)) = self.open.take() {
            *self.counts.self_ns.entry(kind).or_default() += (now - start).as_nanos() as u64;
        }
    }
}

impl TraceSink for LayerSink {
    fn record(&mut self, event: TraceEvent) {
        if event.source == "engine" {
            let now = Instant::now();
            self.close(now);
            self.open = Some((event.kind, now));
        }
        *self
            .counts
            .records
            .entry((event.source, event.kind))
            .or_default() += 1;
        if event.source == "coherence" && event.kind == "miss" {
            let field = |key: &str| {
                event
                    .detail
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key))
            };
            let wait = field("wait=").and_then(|w| w.parse::<u64>().ok());
            match (field("op="), wait) {
                (Some("Read"), Some(wait)) => {
                    self.counts.read_misses += 1;
                    self.counts.wait_read += wait;
                }
                (Some("Write"), Some(wait)) => {
                    self.counts.write_misses += 1;
                    self.counts.wait_write += wait;
                }
                _ => self.counts.malformed += 1,
            }
        }
    }
}
