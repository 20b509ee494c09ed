//! Structured trace log.
//!
//! Domain state machines append [`TraceEvent`]s as they transition; tests
//! and the fault-localization logic assert on the sequence. The log is
//! bounded (a ring) so week-long simulated runs cannot exhaust memory.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Coarse category, e.g. `"ems"`, `"roadm"`, `"conn"`, `"alarm"`.
    pub category: &'static str,
    /// Free-form detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:<6} {}", self.at, self.category, self.detail)
    }
}

/// Bounded in-memory trace log.
#[derive(Debug, Clone)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new(65_536)
    }
}

impl TraceLog {
    /// A log holding at most `capacity` events (oldest dropped first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceLog {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event.
    pub fn emit(&mut self, at: SimTime, category: &'static str, detail: impl Into<String>) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            category,
            detail: detail.into(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events in a category.
    pub fn in_category<'a>(
        &'a self,
        category: &'static str,
    ) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Count of events whose detail contains `needle` (test helper).
    pub fn count_containing(&self, needle: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.detail.contains(needle))
            .count()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A one-line warning when the ring evicted events, for repro targets
    /// to surface instead of silently reporting from a truncated log.
    pub fn drop_warning(&self) -> Option<String> {
        (self.dropped > 0).then(|| {
            format!(
                "warning: trace ring dropped {} events (capacity {}); oldest history is missing",
                self.dropped, self.capacity
            )
        })
    }

    /// Render the whole retained log.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_query() {
        let mut log = TraceLog::new(16);
        log.emit(SimTime::from_secs(1), "ems", "cmd start");
        log.emit(SimTime::from_secs(2), "roadm", "wss reconfig");
        log.emit(SimTime::from_secs(3), "ems", "cmd done");
        assert_eq!(log.len(), 3);
        assert_eq!(log.in_category("ems").count(), 2);
        assert_eq!(log.count_containing("cmd"), 2);
        assert!(log.dump().contains("wss reconfig"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = TraceLog::new(3);
        for i in 0..5u64 {
            log.emit(SimTime::from_secs(i), "t", format!("e{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let first = log.events().next().unwrap();
        assert_eq!(first.detail, "e2");
    }

    #[test]
    fn drop_warning_tracks_dropped_count() {
        let mut log = TraceLog::new(2);
        log.emit(SimTime::ZERO, "t", "a");
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.drop_warning(), None);
        log.emit(SimTime::ZERO, "t", "b");
        log.emit(SimTime::ZERO, "t", "c");
        log.emit(SimTime::ZERO, "t", "d");
        assert_eq!(log.dropped(), 2);
        let w = log.drop_warning().unwrap();
        assert!(w.contains("dropped 2 events"), "{w}");
        assert!(w.contains("capacity 2"), "{w}");
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            at: SimTime::from_secs(5),
            category: "conn",
            detail: "active".into(),
        };
        assert_eq!(e.to_string(), "[t+5.00s] conn   active");
    }
}
