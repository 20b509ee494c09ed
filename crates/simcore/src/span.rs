//! Hierarchical, sim-time-stamped spans for control-plane latency
//! attribution.
//!
//! A [`Span`] names an interval of *simulated* time — a whole workflow
//! ("conn.setup"), a phase within it ("phase.roadm"), or a single device
//! operation ("wss.reconfigure") — and carries typed attributes. Spans
//! form a tree through parent ids, so an aggregator can roll per-device
//! operations up into per-phase rows and per-phase rows up into the
//! end-to-end workflow latency (the mechanism behind the Table 2
//! breakdown the `repro trace` target regenerates).
//!
//! ## Determinism contract
//!
//! The recorder never reads a wall clock: ids are assigned sequentially,
//! timestamps are the [`SimTime`] values the caller passes in, and
//! storage is a plain append-only vector. Two runs of the same seeded
//! scenario therefore produce byte-identical span streams — asserted by
//! the golden-file test under `tests/`. The one escape hatch is
//! *host attributes* (wall-clock measurements such as planning latency in
//! host nanoseconds): they are gated behind a separate opt-in flag
//! ([`SpanRecorder::set_host_attrs`]) so deterministic artifacts stay
//! deterministic by default.
//!
//! ## Overhead contract
//!
//! Recording is disabled by default. Every mutating method starts with a
//! single `enabled` branch and returns immediately when disabled; the
//! backing vector is never allocated ([`SpanRecorder::buffered_capacity`]
//! stays 0), so an instrumented controller with recording off does the
//! same work as an uninstrumented one. Span and attribute names are
//! `&'static str` — no formatting happens on the disabled path.
//!
//! The recorder is bounded: once `capacity` spans are buffered, further
//! opens are counted in [`SpanRecorder::dropped`] and return
//! [`SpanId::INVALID`] (which every other method ignores). Dropping new
//! spans rather than evicting old ones keeps parent links intact.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::LatencyRecorder;
use crate::time::{SimDuration, SimTime};

/// Identifier of a recorded span, assigned sequentially from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// Sentinel returned when the recorder is disabled or full. All
    /// recorder methods accept and ignore it, so call sites need no
    /// branches of their own.
    pub const INVALID: SpanId = SpanId(u32::MAX);

    /// Does this id refer to a recorded span?
    pub fn is_valid(self) -> bool {
        self.0 != u32::MAX
    }

    /// The raw index (ids are dense, so this indexes the span vector).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (ids, counts, nanoseconds).
    U64(u64),
    /// A float (seconds, ratios).
    F64(f64),
    /// A string (names resolved at record time).
    Str(String),
}

/// One recorded span: a named interval of simulated time in a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Coarse grouping ("conn", "phase", "device", "plan", "policy").
    pub category: &'static str,
    /// The span's name ("conn.setup", "phase.roadm", "wss.reconfigure").
    pub name: &'static str,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval; `None` while still open.
    pub end: Option<SimTime>,
    /// Typed key/value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// The span's duration, if closed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }

    /// Read a `U64` attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    }
}

/// Default bound on buffered spans (drop-new beyond this).
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// A bounded, deterministic recorder of [`Span`]s (see module docs for
/// the determinism and overhead contracts).
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    enabled: bool,
    host_attrs: bool,
    capacity: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for SpanRecorder {
    /// A *disabled* recorder with the default capacity — the state every
    /// controller starts in, so un-instrumented workloads pay nothing.
    fn default() -> Self {
        SpanRecorder {
            enabled: false,
            host_attrs: false,
            capacity: DEFAULT_SPAN_CAPACITY,
            spans: Vec::new(),
            dropped: 0,
        }
    }
}

impl SpanRecorder {
    /// An *enabled* recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            enabled: true,
            ..SpanRecorder::default()
        }
        .with_capacity(capacity)
    }

    fn with_capacity(mut self, capacity: usize) -> SpanRecorder {
        self.capacity = capacity;
        self
    }

    /// Turn recording on or off. Spans already buffered are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opt in to wall-clock ("host") attributes such as planning latency
    /// in host nanoseconds. Off by default: host attributes are
    /// non-deterministic, and deterministic artifacts (golden traces,
    /// Chrome exports) must not contain them.
    pub fn set_host_attrs(&mut self, on: bool) {
        self.host_attrs = on;
    }

    /// Are wall-clock attributes being recorded?
    pub fn host_attrs_enabled(&self) -> bool {
        self.enabled && self.host_attrs
    }

    fn push(
        &mut self,
        start: SimTime,
        end: Option<SimTime>,
        category: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::INVALID;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return SpanId::INVALID;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            id,
            parent: parent.filter(|p| p.is_valid()),
            category,
            name,
            start,
            end,
            attrs: Vec::new(),
        });
        id
    }

    /// Open a span at `start` under `parent` (`None` for a root). Close
    /// it later with [`Self::close`]. Returns [`SpanId::INVALID`] when
    /// disabled or full.
    pub fn open(
        &mut self,
        start: SimTime,
        category: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.push(start, None, category, name, parent)
    }

    /// Close an open span at `end`. Ignores [`SpanId::INVALID`] and
    /// already-closed spans.
    pub fn close(&mut self, id: SpanId, end: SimTime) {
        if !self.enabled || !id.is_valid() {
            return;
        }
        if let Some(s) = self.spans.get_mut(id.index()) {
            if s.end.is_none() {
                s.end = Some(end);
            }
        }
    }

    /// Record an already-closed span over `[start, end]`. This is the
    /// workhorse for phase attribution: the controller computes workflow
    /// durations analytically up front, so phase intervals are known at
    /// request time rather than bracketing executing code.
    pub fn record(
        &mut self,
        start: SimTime,
        end: SimTime,
        category: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.push(start, Some(end), category, name, parent)
    }

    /// Attach an unsigned-integer attribute to `id`.
    pub fn attr_u64(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.attr(id, key, AttrValue::U64(value));
    }

    /// Attach a float attribute to `id`.
    pub fn attr_f64(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.attr(id, key, AttrValue::F64(value));
    }

    /// Attach a string attribute to `id`.
    pub fn attr_str(&mut self, id: SpanId, key: &'static str, value: String) {
        self.attr(id, key, AttrValue::Str(value));
    }

    fn attr(&mut self, id: SpanId, key: &'static str, value: AttrValue) {
        if !self.enabled || !id.is_valid() {
            return;
        }
        if let Some(s) = self.spans.get_mut(id.index()) {
            s.attrs.push((key, value));
        }
    }

    /// All recorded spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A one-line warning when spans were dropped, for repro targets.
    pub fn drop_warning(&self) -> Option<String> {
        (self.dropped > 0).then(|| {
            format!(
                "warning: span recorder dropped {} spans (capacity {})",
                self.dropped, self.capacity
            )
        })
    }

    /// Allocated capacity of the backing vector — 0 until the first span
    /// is actually recorded, which is the cheap in-repo guard that a
    /// disabled recorder performs no work.
    pub fn buffered_capacity(&self) -> usize {
        self.spans.capacity()
    }

    /// Take ownership of the buffered spans, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Structural invariants the Chrome exporter and aggregator rely on:
/// every span closed, parents recorded before children, children
/// contained in their parent's interval. Returns the first violation.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        let Some(end) = s.end else {
            return Err(format!("{} span {} never closed", s.name, s.id.index()));
        };
        if end < s.start {
            return Err(format!(
                "{} span {} ends before it starts",
                s.name,
                s.id.index()
            ));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p.index()) else {
                return Err(format!(
                    "{} span {} has unknown parent",
                    s.name,
                    s.id.index()
                ));
            };
            if p >= s.id {
                return Err(format!(
                    "{} span {} parented to a later span",
                    s.name,
                    s.id.index()
                ));
            }
            let pend = parent.end.unwrap_or(SimTime::ZERO);
            if s.start < parent.start || end > pend {
                return Err(format!(
                    "{} span {} [{}..{}] escapes parent {} [{}..{}]",
                    s.name,
                    s.id.index(),
                    s.start,
                    end,
                    parent.name,
                    parent.start,
                    pend
                ));
            }
        }
    }
    Ok(())
}

// ── Chrome trace-event export ───────────────────────────────────────────

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_micros(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; emit fixed 3-decimal
    // values so the output is byte-stable across platforms.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Lane (`tid`) of a span: the id of its root ancestor, so every
/// top-level workflow renders as its own row in Perfetto.
fn root_of(spans: &[Span], s: &Span) -> SpanId {
    let mut cur = s;
    while let Some(p) = cur.parent {
        cur = &spans[p.index()];
    }
    cur.id
}

/// Export span groups as Chrome trace-event JSON ("X" complete events,
/// `ts`/`dur` in microseconds), loadable in Perfetto or chrome://tracing.
/// Each `(label, spans)` group becomes one process (`pid`), named by a
/// metadata event; each root span becomes one thread lane (`tid`).
pub fn chrome_trace(groups: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n  ");
    };
    for (gi, (label, spans)) in groups.iter().enumerate() {
        let pid = gi + 1;
        push_sep(&mut out, &mut first);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid}");
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
        json_escape(&mut out, label);
        out.push_str("\"}}");
        // One thread-name metadata event per root span (lane).
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{}",
                s.id.index()
            );
            out.push_str(",\"args\":{\"name\":\"");
            json_escape(&mut out, &format!("{} #{}", s.name, s.id.index()));
            out.push_str("\"}}");
        }
        for s in spans.iter() {
            let Some(end) = s.end else { continue };
            let tid = root_of(spans, s).index();
            push_sep(&mut out, &mut first);
            out.push_str("{\"name\":\"");
            json_escape(&mut out, s.name);
            out.push_str("\",\"cat\":\"");
            json_escape(&mut out, s.category);
            let _ = write!(out, "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
            write_micros(&mut out, s.start.as_nanos());
            out.push_str(",\"dur\":");
            write_micros(&mut out, end.saturating_since(s.start).as_nanos());
            let _ = write!(out, ",\"args\":{{\"span\":{}", s.id.index());
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{}", p.index());
            }
            for (k, v) in &s.attrs {
                out.push_str(",\"");
                json_escape(&mut out, k);
                out.push_str("\":");
                match v {
                    AttrValue::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    AttrValue::F64(x) => {
                        let _ = write!(out, "{x:.6}");
                    }
                    AttrValue::Str(t) => {
                        out.push('"');
                        json_escape(&mut out, t);
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ── Aggregation ─────────────────────────────────────────────────────────

/// Accumulated statistics of one phase (direct child name) under a root.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Occurrences of the phase.
    pub count: u64,
    /// Summed duration across occurrences.
    pub total: SimDuration,
}

/// Per-group rollup of root spans named `root_name`: workflow totals plus
/// per-phase sums of their direct children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RootRollup {
    /// The grouping attribute's value (0 when no grouping was asked for).
    pub group: u64,
    /// Root spans aggregated into this row.
    pub count: u64,
    /// Summed end-to-end duration of the roots.
    pub total: SimDuration,
    /// Direct-child phase sums, keyed by phase name.
    pub phases: BTreeMap<&'static str, PhaseStat>,
}

impl RootRollup {
    /// Sum of all phase durations — equals `total` when the phases tile
    /// the root exactly (the invariant `repro trace` checks).
    pub fn phase_sum(&self) -> SimDuration {
        self.phases
            .values()
            .fold(SimDuration::ZERO, |acc, p| acc + p.total)
    }
}

/// Roll closed root spans named `root_name` up into per-phase rows,
/// grouped by the root's `group_attr` `U64` attribute (all in one row
/// with group 0 when `group_attr` is `None`). Phases are the roots'
/// *direct* children; deeper descendants (per-device operations) are
/// already contained in their phase's interval.
pub fn rollup(spans: &[Span], root_name: &str, group_attr: Option<&str>) -> Vec<RootRollup> {
    let mut by_group: BTreeMap<u64, RootRollup> = BTreeMap::new();
    for root in spans.iter().filter(|s| s.name == root_name) {
        let Some(dur) = root.duration() else { continue };
        let group = group_attr.and_then(|k| root.attr_u64(k)).unwrap_or(0);
        let row = by_group.entry(group).or_insert_with(|| RootRollup {
            group,
            ..RootRollup::default()
        });
        row.count += 1;
        row.total += dur;
        for child in spans.iter().filter(|s| s.parent == Some(root.id)) {
            if let Some(d) = child.duration() {
                let p = row.phases.entry(child.name).or_default();
                p.count += 1;
                p.total += d;
            }
        }
    }
    by_group.into_values().collect()
}

/// Feed the `U64` attribute `key` of every span named `name` into a
/// [`LatencyRecorder`] — the bridge that lets wall-clock percentiles
/// (e.g. planning latency recorded as `host_ns`) come out of the span
/// pipeline with exactly the same nearest-rank arithmetic as the
/// recorder they replaced.
pub fn latency_from_attr(spans: &[Span], name: &str, key: &str) -> LatencyRecorder {
    let mut rec = LatencyRecorder::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(ns) = s.attr_u64(key) {
            rec.record_ns(ns);
        }
    }
    rec
}

// ── Deterministic tail sampling ─────────────────────────────────────────

/// Configuration of a [`TailSampler`].
#[derive(Debug, Clone, Copy)]
pub struct TailSampleConfig {
    /// Width of the sampling window; root spans are bucketed by
    /// `start / window`. A zero window puts every root in one bucket.
    pub window: SimDuration,
    /// Slowest root traces kept per (root name, window) bucket.
    pub keep_slowest: usize,
    /// Roots at least this slow are *always* kept, beyond `keep_slowest`
    /// — SLO violators must never be sampled away.
    pub slow_threshold: Option<SimDuration>,
}

impl Default for TailSampleConfig {
    fn default() -> Self {
        TailSampleConfig {
            window: SimDuration::from_mins(5),
            keep_slowest: 4,
            slow_threshold: None,
        }
    }
}

/// Counters describing one sampler's lifetime (exact, not estimates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailSampleStats {
    /// Closed root spans ingested.
    pub roots_seen: u64,
    /// Root traces currently retained.
    pub roots_kept: u64,
    /// Retained roots that crossed `slow_threshold`.
    pub violators_kept: u64,
    /// Total spans ingested (roots plus descendants).
    pub spans_seen: u64,
    /// Spans currently retained.
    pub spans_kept: u64,
    /// Roots discarded because they were never closed.
    pub open_roots_dropped: u64,
}

struct KeptRoot {
    spans: Vec<Span>,
    duration: SimDuration,
}

/// Keeps the slowest-N and every SLO-violating root trace per window,
/// dropping the rest — the release valve that stops a bounded
/// [`SpanRecorder`] from silently saturating on long fleet-scale runs.
///
/// Feed it the batches a periodic [`SpanRecorder::take_spans`] drain
/// produces. Batch-local ids (dense, restarting at 0 per drain) are
/// remapped onto one global id space, and whole trees are kept or
/// dropped together, so parent links inside every retained trace stay
/// valid. Selection is a pure function of the ingested spans: eviction
/// removes the minimum `(duration, global id)` root, so the survivors
/// are independent of batch boundaries and thread count.
pub struct TailSampler {
    config: TailSampleConfig,
    next_id: u32,
    kept: BTreeMap<u32, KeptRoot>,
    /// Non-violator survivors per (root name, window index).
    buckets: BTreeMap<(&'static str, u64), Vec<u32>>,
    roots_seen: u64,
    violators_kept: u64,
    spans_seen: u64,
    open_roots_dropped: u64,
}

impl TailSampler {
    /// A sampler with the given retention policy.
    pub fn new(config: TailSampleConfig) -> TailSampler {
        TailSampler {
            config,
            next_id: 0,
            kept: BTreeMap::new(),
            buckets: BTreeMap::new(),
            roots_seen: 0,
            violators_kept: 0,
            spans_seen: 0,
            open_roots_dropped: 0,
        }
    }

    fn window_index(&self, start: SimTime) -> u64 {
        // A zero window means one global bucket.
        start
            .as_nanos()
            .checked_div(self.config.window.as_nanos())
            .unwrap_or(0)
    }

    /// Ingest one drained batch (dense batch-local ids, parents before
    /// children — exactly what [`SpanRecorder::take_spans`] yields).
    pub fn ingest(&mut self, batch: &[Span]) {
        let base = self.next_id;
        self.next_id += batch.len() as u32;
        self.spans_seen += batch.len() as u64;
        // Root of every batch-local index (parents precede children).
        let mut root_of = vec![0usize; batch.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); batch.len()];
        for (i, s) in batch.iter().enumerate() {
            debug_assert_eq!(s.id.index(), i, "batches must carry dense ids");
            match s.parent {
                Some(p) => {
                    root_of[i] = root_of[p.index()];
                    children[root_of[i]].push(i);
                }
                None => root_of[i] = i,
            }
        }
        for (i, root) in batch.iter().enumerate() {
            if root.parent.is_some() {
                continue;
            }
            let Some(dur) = root.duration() else {
                self.open_roots_dropped += 1;
                continue;
            };
            self.roots_seen += 1;
            let gid = base + i as u32;
            let violator = self
                .config
                .slow_threshold
                .is_some_and(|thr| dur >= thr && !thr.is_zero());
            if !violator && self.config.keep_slowest == 0 {
                continue;
            }
            let remap = |idx: usize| SpanId(base + idx as u32);
            let mut spans = Vec::with_capacity(1 + children[i].len());
            for &idx in std::iter::once(&i).chain(children[i].iter()) {
                let mut s = batch[idx].clone();
                s.id = remap(idx);
                s.parent = s.parent.map(|p| remap(p.index()));
                spans.push(s);
            }
            self.kept.insert(
                gid,
                KeptRoot {
                    spans,
                    duration: dur,
                },
            );
            if violator {
                self.violators_kept += 1;
                continue;
            }
            let key = (root.name, self.window_index(root.start));
            let bucket = self.buckets.entry(key).or_default();
            bucket.push(gid);
            if bucket.len() > self.config.keep_slowest {
                // Evict the fastest survivor; gid breaks exact ties so
                // the choice is total regardless of arrival order.
                let evict_at = (0..bucket.len())
                    .min_by_key(|&j| (self.kept[&bucket[j]].duration, bucket[j]))
                    .expect("bucket is non-empty");
                let evicted = bucket.swap_remove(evict_at);
                self.kept.remove(&evicted);
            }
        }
    }

    /// The retained traces, flattened in global-id order (each root
    /// immediately followed by its descendants). Ids are globally unique
    /// but no longer dense, so [`validate`] does not apply to the output.
    pub fn into_spans(self) -> Vec<Span> {
        self.kept
            .into_values()
            .flat_map(|k| k.spans.into_iter())
            .collect()
    }

    /// Global ids of the retained roots, ascending — the linkage set
    /// exemplar `span_id`s are checked against.
    pub fn kept_root_ids(&self) -> Vec<u64> {
        self.kept.keys().map(|&gid| gid as u64).collect()
    }

    /// Current counters.
    pub fn stats(&self) -> TailSampleStats {
        TailSampleStats {
            roots_seen: self.roots_seen,
            roots_kept: self.kept.len() as u64,
            violators_kept: self.violators_kept,
            spans_seen: self.spans_seen,
            spans_kept: self.kept.values().map(|k| k.spans.len() as u64).sum(),
            open_roots_dropped: self.open_roots_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn ids_are_sequential_and_tree_links_hold() {
        let mut r = SpanRecorder::new(16);
        let root = r.open(t(0), "conn", "conn.setup", None);
        let a = r.record(t(0), t(2), "phase", "phase.session", Some(root));
        let b = r.record(t(2), t(5), "phase", "phase.roadm", Some(root));
        r.close(root, t(5));
        assert_eq!(root.index(), 0);
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(r.spans()[1].parent, Some(root));
        assert_eq!(r.spans()[0].duration(), Some(SimDuration::from_secs(5)));
        validate(r.spans()).unwrap();
    }

    #[test]
    fn disabled_recorder_is_inert_and_allocation_free() {
        let mut r = SpanRecorder::default();
        assert!(!r.is_enabled());
        for _ in 0..10_000 {
            let id = r.open(t(1), "conn", "conn.setup", None);
            assert_eq!(id, SpanId::INVALID);
            r.attr_u64(id, "hops", 3);
            r.record(t(1), t(2), "phase", "phase.fxc", Some(id));
            r.close(id, t(2));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(
            r.buffered_capacity(),
            0,
            "no backing allocation when disabled"
        );
    }

    #[test]
    fn capacity_bound_drops_new_spans_and_counts_them() {
        let mut r = SpanRecorder::new(2);
        let a = r.record(t(0), t(1), "x", "a", None);
        let b = r.record(t(1), t(2), "x", "b", None);
        let c = r.record(t(2), t(3), "x", "c", None);
        assert!(a.is_valid() && b.is_valid());
        assert_eq!(c, SpanId::INVALID);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 1);
        assert!(r.drop_warning().unwrap().contains("dropped 1"));
    }

    #[test]
    fn validate_rejects_open_and_escaping_spans() {
        let mut r = SpanRecorder::new(8);
        let root = r.open(t(0), "conn", "conn.setup", None);
        assert!(validate(r.spans()).unwrap_err().contains("never closed"));
        r.close(root, t(4));
        validate(r.spans()).unwrap();
        r.record(t(3), t(6), "phase", "phase.late", Some(root));
        assert!(validate(r.spans()).unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn chrome_trace_layout() {
        let mut r = SpanRecorder::new(8);
        let root = r.open(t(0), "conn", "conn.setup", None);
        r.attr_u64(root, "hops", 2);
        let ph = r.record(t(0), t(20), "phase", "phase.session", Some(root));
        r.attr_f64(ph, "share", 0.5);
        r.close(root, t(60));
        let json = chrome_trace(&[("setup", r.spans())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"conn.setup\""));
        // 60 s root → ts 0.000 µs, dur 60e6 µs.
        assert!(json.contains("\"ts\":0.000,\"dur\":60000000.000"), "{json}");
        assert!(json.contains("\"hops\":2"));
        assert!(json.contains("\"share\":0.500000"));
        // Child rides its root's lane.
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn rollup_groups_and_tiles() {
        let mut r = SpanRecorder::new(16);
        for (hops, dur) in [(1u64, 10u64), (2, 20)] {
            let root = r.open(t(100 * hops), "conn", "conn.setup", None);
            r.attr_u64(root, "hops", hops);
            r.record(
                t(100 * hops),
                t(100 * hops + dur / 2),
                "phase",
                "phase.a",
                Some(root),
            );
            r.record(
                t(100 * hops + dur / 2),
                t(100 * hops + dur),
                "phase",
                "phase.b",
                Some(root),
            );
            r.close(root, t(100 * hops + dur));
        }
        let rows = rollup(r.spans(), "conn.setup", Some("hops"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].group, 1);
        assert_eq!(rows[1].group, 2);
        assert_eq!(rows[1].total, SimDuration::from_secs(20));
        assert_eq!(rows[1].phase_sum(), rows[1].total);
        assert_eq!(rows[0].phases["phase.a"].count, 1);
    }

    #[test]
    fn latency_pipeline_matches_direct_recorder() {
        let mut r = SpanRecorder::new(16);
        r.set_host_attrs(true);
        let mut direct = LatencyRecorder::new();
        for ns in [500u64, 1500, 2500, 10_000] {
            let s = r.record(t(0), t(0), "plan", "rwa.plan", None);
            r.attr_u64(s, "host_ns", ns);
            direct.record_ns(ns);
        }
        let derived = latency_from_attr(r.spans(), "rwa.plan", "host_ns");
        assert_eq!(derived.summary(), direct.summary());
    }

    fn root_with_child(r: &mut SpanRecorder, start: u64, dur: u64) -> SpanId {
        let root = r.open(t(start), "conn", "conn.setup", None);
        r.record(t(start), t(start + dur), "phase", "phase.roadm", Some(root));
        r.close(root, t(start + dur));
        root
    }

    #[test]
    fn tail_sampler_keeps_slowest_and_violators() {
        let mut rec = SpanRecorder::new(64);
        // Four roots in one window: durations 1, 9, 5, 30 s.
        for dur in [1u64, 9, 5, 30] {
            root_with_child(&mut rec, 10, dur);
        }
        let mut sampler = TailSampler::new(TailSampleConfig {
            window: SimDuration::from_mins(5),
            keep_slowest: 2,
            slow_threshold: Some(SimDuration::from_secs(25)),
        });
        sampler.ingest(&rec.take_spans());
        let stats = sampler.stats();
        assert_eq!(stats.roots_seen, 4);
        assert_eq!(stats.violators_kept, 1, "30 s root crosses the threshold");
        assert_eq!(stats.roots_kept, 3, "violator + two slowest survivors");
        assert_eq!(stats.spans_kept, 6);
        // 1 s root (gid 0) evicted; 9 s (gid 2), 5 s (gid 4), 30 s (gid 6) kept.
        assert_eq!(sampler.kept_root_ids(), vec![2, 4, 6]);
        let spans = sampler.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].id.index(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id), "links survive remap");
    }

    #[test]
    fn tail_sampler_is_batch_boundary_independent() {
        let build = |splits: &[usize]| {
            let mut sampler = TailSampler::new(TailSampleConfig {
                window: SimDuration::from_secs(60),
                keep_slowest: 3,
                slow_threshold: Some(SimDuration::from_secs(40)),
            });
            let mut rec = SpanRecorder::new(1024);
            let durs = [7u64, 3, 50, 11, 11, 2, 45, 9, 1, 30];
            for (i, dur) in durs.iter().enumerate() {
                root_with_child(&mut rec, (i as u64) * 70, *dur);
                if splits.contains(&i) {
                    sampler.ingest(&rec.take_spans());
                }
            }
            sampler.ingest(&rec.take_spans());
            let stats = sampler.stats();
            let spans = sampler.into_spans();
            (stats, spans)
        };
        let (s1, spans1) = build(&[]);
        let (s2, spans2) = build(&[0, 3, 4, 7]);
        assert_eq!(s1, s2);
        assert_eq!(spans1, spans2, "drain cadence must not change survivors");
        assert_eq!(s1.roots_seen, 10);
        assert_eq!(s1.violators_kept, 2);
    }

    #[test]
    fn tail_sampler_drops_open_roots_and_handles_zero_window() {
        let mut rec = SpanRecorder::new(16);
        rec.open(t(0), "conn", "conn.setup", None); // never closed
        root_with_child(&mut rec, 1_000_000, 5);
        root_with_child(&mut rec, 2_000_000, 9);
        let mut sampler = TailSampler::new(TailSampleConfig {
            window: SimDuration::ZERO,
            keep_slowest: 1,
            slow_threshold: None,
        });
        sampler.ingest(&rec.take_spans());
        let stats = sampler.stats();
        assert_eq!(stats.open_roots_dropped, 1);
        assert_eq!(stats.roots_kept, 1, "zero window = one global bucket");
        assert_eq!(sampler.kept_root_ids(), vec![3], "9 s root wins");
    }

    #[test]
    fn host_attrs_are_opt_in() {
        let r = SpanRecorder::new(4);
        assert!(!r.host_attrs_enabled(), "deterministic by default");
        let mut r = r;
        r.set_host_attrs(true);
        assert!(r.host_attrs_enabled());
        r.set_enabled(false);
        assert!(!r.host_attrs_enabled(), "disabled recorder records nothing");
    }
}
