//! Experiment metrics: counters, gauges, histograms, and time series.
//!
//! The benchmark harness regenerates the paper's tables from these
//! recorders. Everything is plain data — snapshots are cheap and the whole
//! registry can be dumped as text for `EXPERIMENTS.md`.
//!
//! [`Histogram`] keeps exact running moments (count, sum, min, max, sum of
//! squares) *and* log-linear buckets for quantile estimation, the same
//! trade-off HdrHistogram makes: bounded memory, ~4 % relative quantile
//! error, no stored samples.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
    /// Add one.
    pub fn incr(&mut self) {
        self.value += 1;
    }
    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }
    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A point-in-time value that can move both ways (e.g. wavelengths in use).
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    value: f64,
    max_seen: f64,
    seen: bool,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }
    /// Set the current value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
        if !self.seen || v > self.max_seen {
            self.max_seen = v;
            self.seen = true;
        }
    }
    /// Adjust by a delta.
    pub fn adjust(&mut self, delta: f64) {
        self.set(self.value + delta);
    }
    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
    /// High-water mark over every value ever set — *not* clamped to zero,
    /// so a gauge that has only held negative values (e.g. a power margin
    /// in dB below tolerance) reports its true maximum rather than 0.
    /// Returns 0 only before the first `set`/`adjust`.
    pub fn max_seen(&self) -> f64 {
        if self.seen {
            self.max_seen
        } else {
            0.0
        }
    }

    /// Fold another gauge into this one: the other gauge's value wins
    /// (last-writer semantics, matching how a fleet rollup absorbs a
    /// cell's final sample) and the high-water mark is the max of both.
    /// A never-set `other` leaves `self` untouched.
    pub fn merge_from(&mut self, other: &Gauge) {
        if !other.seen {
            return;
        }
        self.max_seen = if self.seen {
            self.max_seen.max(other.max_seen)
        } else {
            other.max_seen
        };
        self.value = other.value;
        self.seen = true;
    }
}

/// One exemplar: an observed value linked back to the span (trace) that
/// produced it, plus the labels that identify where it came from. The
/// OpenMetrics idea — every latency bucket can name the exact trace
/// behind its tail — realised deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// Id of the span that produced the observation (a tail-sampled,
    /// globally remapped id — see `simcore::span::TailSampler`).
    pub span_id: u64,
    /// Labels identifying the origin (e.g. `region`).
    pub labels: LabelSet,
}

/// SplitMix64 finaliser — the same mixer `SimRng` seeds with.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded, deterministic exemplar reservoir using bottom-k hashing:
/// every observation gets a priority that is a pure hash of
/// `(seed, value, span id, labels)`, and the reservoir keeps the k
/// smallest priorities. Selection is therefore *content-addressed* —
/// independent of arrival order and of how observations were sharded —
/// so merging per-cell reservoirs yields byte-identical exemplars to a
/// single-stream run with the same seed (proptested in
/// `tests/properties.rs`).
#[derive(Debug, Clone, PartialEq)]
struct ExemplarReservoir {
    seed: u64,
    capacity: usize,
    /// Ascending by `(priority, span_id, value bits)`; at most
    /// `capacity` entries.
    entries: Vec<(u64, Exemplar)>,
}

impl ExemplarReservoir {
    fn new(seed: u64, capacity: usize) -> Self {
        ExemplarReservoir {
            seed,
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    fn priority(&self, ex: &Exemplar) -> u64 {
        let mut h = mix64(self.seed ^ ex.value.to_bits());
        h = mix64(h ^ ex.span_id);
        for (k, v) in &ex.labels {
            for b in k.bytes().chain(v.bytes()) {
                h = mix64(h ^ u64::from(b));
            }
        }
        h
    }

    fn sort_key(pr: u64, ex: &Exemplar) -> (u64, u64, u64) {
        (pr, ex.span_id, ex.value.to_bits())
    }

    fn insert(&mut self, pr: u64, ex: Exemplar) {
        let key = Self::sort_key(pr, &ex);
        let pos = self
            .entries
            .partition_point(|(p, e)| Self::sort_key(*p, e) < key);
        self.entries.insert(pos, (pr, ex));
        self.entries.truncate(self.capacity);
    }

    fn offer(&mut self, ex: Exemplar) {
        let pr = self.priority(&ex);
        self.insert(pr, ex);
    }

    /// Union-then-truncate: because priorities are stored, merging is
    /// exactly "offer every entry again", and bottom-k of a union equals
    /// bottom-k of bottom-k's.
    fn merge(&mut self, other: &ExemplarReservoir) {
        self.capacity = self.capacity.max(other.capacity);
        for (pr, ex) in &other.entries {
            self.insert(*pr, ex.clone());
        }
    }

    /// Exemplars in display order: value descending (the tail first),
    /// span id ascending on ties.
    fn exemplars(&self) -> Vec<&Exemplar> {
        let mut v: Vec<&Exemplar> = self.entries.iter().map(|(_, e)| e).collect();
        v.sort_by(|a, b| {
            b.value
                .total_cmp(&a.value)
                .then_with(|| a.span_id.cmp(&b.span_id))
        });
        v
    }
}

const BUCKETS_PER_DECADE: usize = 16;

/// Log-linear histogram over non-negative values with exact moments.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    /// bucket index -> count; index derived from log10 of the value.
    buckets: BTreeMap<i32, u64>,
    zeros: u64,
    /// Deterministic exemplar reservoir; absent (and free) unless
    /// [`Histogram::enable_exemplars`] was called.
    exemplars: Option<Box<ExemplarReservoir>>,
}

/// Same as [`Histogram::new`]. (A derived `Default` would zero `min`,
/// which silently corrupts `min()` and quantile clamping for registries
/// that create histograms with `or_default()`.)
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
            zeros: 0,
            exemplars: None,
        }
    }

    /// Attach a deterministic bottom-k exemplar reservoir (see
    /// [`Exemplar`]): subsequent [`record_linked`](Self::record_linked) /
    /// [`link_exemplar`](Self::link_exemplar) calls may keep up to
    /// `capacity` exemplars, selected purely by a hash of
    /// `(seed, value, span id, labels)` so the kept set is independent of
    /// arrival order and sharding.
    pub fn enable_exemplars(&mut self, seed: u64, capacity: usize) {
        self.exemplars = Some(Box::new(ExemplarReservoir::new(seed, capacity)));
    }

    /// Record an observation *and* offer it to the exemplar reservoir
    /// (a no-op link when exemplars are not enabled).
    pub fn record_linked(&mut self, v: f64, span_id: u64, labels: &[(&str, &str)]) {
        self.record(v);
        self.link_exemplar(v, span_id, labels);
    }

    /// Offer an exemplar for an observation that was already recorded —
    /// the path tail samplers use: the histogram sees *every* root span's
    /// duration via [`record`](Self::record), while only the retained
    /// traces are offered as exemplars so every kept exemplar links to a
    /// span that still exists.
    pub fn link_exemplar(&mut self, v: f64, span_id: u64, labels: &[(&str, &str)]) {
        if let Some(res) = self.exemplars.as_mut() {
            res.offer(Exemplar {
                value: v,
                span_id,
                labels: canon_labels(labels),
            });
        }
    }

    /// Kept exemplars in display order (value descending, span id
    /// ascending on ties); empty when exemplars are disabled.
    pub fn exemplars(&self) -> Vec<&Exemplar> {
        self.exemplars
            .as_deref()
            .map(ExemplarReservoir::exemplars)
            .unwrap_or_default()
    }

    fn bucket_of(v: f64) -> i32 {
        // log-linear: BUCKETS_PER_DECADE buckets per power of ten.
        (v.log10() * BUCKETS_PER_DECADE as f64).floor() as i32
    }

    fn bucket_midpoint(b: i32) -> f64 {
        10f64.powf((b as f64 + 0.5) / BUCKETS_PER_DECADE as f64)
    }

    /// Record one observation. Negative values are a logic error and panic.
    pub fn record(&mut self, v: f64) {
        assert!(v >= 0.0 && v.is_finite(), "histogram value {v}");
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v == 0.0 {
            self.zeros += 1;
        } else {
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
    /// Population standard deviation, or 0 for fewer than 2 samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0);
        var.sqrt()
    }
    /// Smallest observation (exact). 0 for empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Largest observation (exact). 0 for empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile (`q` in `[0,1]`), within one log-linear bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q}");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zeros;
        if seen >= target {
            return 0.0;
        }
        for (b, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Self::bucket_midpoint(*b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.zeros += other.zeros;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (b, c) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += c;
        }
        if let Some(theirs) = other.exemplars.as_deref() {
            match self.exemplars.as_deref_mut() {
                Some(ours) => ours.merge(theirs),
                None => self.exemplars = Some(Box::new(theirs.clone())),
            }
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p95={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.max()
        )
    }
}

/// A `(time, value)` series, e.g. provisioned bandwidth over a day.
#[derive(Debug, Default, Clone)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Time must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some((last, _)) = self.points.last() {
            assert!(t >= *last, "time series must be appended in order");
        }
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Value in force at time `t` (step interpolation), or `None` before
    /// the first point.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.partition_point(|(pt, _)| *pt <= t) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }

    /// Time integral of the step function over `[start, end]` — e.g.
    /// gigabit-seconds of provisioned capacity, for the cost model.
    pub fn integral(&self, start: SimTime, end: SimTime) -> f64 {
        assert!(end >= start);
        let mut acc = 0.0;
        let mut cur_t = start;
        let mut cur_v = self.value_at(start).unwrap_or(0.0);
        for (t, v) in &self.points {
            if *t <= start {
                continue;
            }
            if *t >= end {
                break;
            }
            acc += cur_v * (*t - cur_t).as_secs_f64();
            cur_t = *t;
            cur_v = *v;
        }
        acc += cur_v * (end - cur_t).as_secs_f64();
        acc
    }

    /// Largest value in the series (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// Wall-clock latency percentiles from raw samples — for *host-side*
/// performance measurement (e.g. how long `plan_wavelength` takes on this
/// machine), not simulated time.
///
/// Deliberately **not** part of [`MetricsRegistry`]: registry reports feed
/// deterministic scenario comparisons, and wall-clock readings would break
/// the same-seed ⇒ same-report contract. Keep recorders of this type in a
/// side channel and surface them only in performance summaries.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// The raw samples, in recording order — lets callers merge several
    /// recorders (e.g. per-shard) before taking percentiles.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// Nearest-rank percentile in nanoseconds (`p` in 0..=100).
    /// Returns 0 with no samples.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Median latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }
    /// 95th-percentile latency in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(95.0)
    }
    /// 99th-percentile latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// One-line human summary, e.g. `n=120 p50=14µs p95=89µs p99=210µs`.
    pub fn summary(&self) -> String {
        fn us(ns: u64) -> String {
            if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else {
                format!("{:.0}µs", ns as f64 / 1e3)
            }
        }
        format!(
            "n={} p50={} p95={} p99={}",
            self.count(),
            us(self.p50_ns()),
            us(self.p95_ns()),
            us(self.p99_ns())
        )
    }
}

/// `map[name]`, created on first use. Looks up by `&str` and builds the
/// owned key only on a miss, so a write to an existing entry does not
/// allocate. (Two lookups on a hit: the borrow checker rejects returning
/// out of a single `get_mut`.)
fn entry<'a, T: Default>(map: &'a mut BTreeMap<String, T>, name: &str) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), T::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// A named collection of metrics for one experiment run.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Named counter (created on first use).
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        entry(&mut self.counters, name)
    }
    /// Named gauge (created on first use).
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        entry(&mut self.gauges, name)
    }
    /// Named histogram (created on first use).
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        entry(&mut self.histograms, name)
    }
    /// Named time series (created on first use).
    pub fn series(&mut self, name: &str) -> &mut TimeSeries {
        entry(&mut self.series, name)
    }

    /// Read a counter if it exists.
    pub fn get_counter(&self, name: &str) -> Option<&Counter> {
        self.counters.get(name)
    }
    /// Read a histogram if it exists.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
    /// Read a gauge if it exists.
    pub fn get_gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Human-readable dump of everything, globally sorted by metric name
    /// (ties between metric kinds break counter < gauge < hist < series),
    /// so golden files can depend on the order.
    pub fn report(&self) -> String {
        let mut lines: Vec<(&str, String)> = Vec::new();
        for (k, v) in &self.counters {
            lines.push((k, format!("counter  {k} = {}\n", v.get())));
        }
        for (k, v) in &self.gauges {
            lines.push((
                k,
                format!("gauge    {k} = {:.3} (max {:.3})\n", v.get(), v.max_seen()),
            ));
        }
        for (k, v) in &self.histograms {
            lines.push((k, format!("hist     {k}: {v}\n")));
        }
        for (k, v) in &self.series {
            lines.push((
                k,
                format!(
                    "series   {k}: {} points, max {:.3}\n",
                    v.points().len(),
                    v.max()
                ),
            ));
        }
        // Stable sort: equal names keep the kind order they were pushed in.
        lines.sort_by(|a, b| a.0.cmp(b.0));
        lines.into_iter().map(|(_, l)| l).collect()
    }
}

/// A canonical label set: key/value pairs sorted by key. Families index
/// their children by this, so `[("a","1"),("b","2")]` and
/// `[("b","2"),("a","1")]` name the same child.
pub type LabelSet = Vec<(String, String)>;

/// Label pairs [`Canon`] sorts on the stack; longer sets spill to the heap.
const INLINE_LABELS: usize = 8;

/// A caller's labels in canonical (key-sorted) order, still borrowed. The
/// sort runs in a stack buffer, so resolving a child that already exists
/// allocates nothing. Duplicate label keys panic.
struct Canon<'a> {
    inline: [(&'a str, &'a str); INLINE_LABELS],
    spill: Vec<(&'a str, &'a str)>,
    len: usize,
}

impl<'a> Canon<'a> {
    fn new(labels: &[(&'a str, &'a str)]) -> Self {
        let mut canon = Canon {
            inline: [("", ""); INLINE_LABELS],
            spill: Vec::new(),
            len: labels.len(),
        };
        let sorted = match canon.inline.get_mut(..labels.len()) {
            Some(buf) => {
                buf.copy_from_slice(labels);
                buf
            }
            None => {
                canon.spill.extend_from_slice(labels);
                &mut canon.spill[..]
            }
        };
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate label key {:?}", w[0].0);
        }
        canon
    }

    fn pairs(&self) -> &[(&'a str, &'a str)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn to_owned(&self) -> LabelSet {
        self.pairs()
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

fn canon_labels(labels: &[(&str, &str)]) -> LabelSet {
    Canon::new(labels).to_owned()
}

/// Order an owned label set against canonical borrowed pairs exactly as
/// `LabelSet: Ord` orders two owned sets.
fn cmp_labels(owned: &LabelSet, pairs: &[(&str, &str)]) -> Ordering {
    owned
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .cmp(pairs.iter().copied())
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// One exported sample of a counter family child.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CounterSample {
    /// Family name.
    pub name: String,
    /// Sorted label set identifying the child.
    pub labels: LabelSet,
    /// Counter value.
    pub value: u64,
}

/// One exported sample of a gauge family child.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GaugeSample {
    /// Family name.
    pub name: String,
    /// Sorted label set identifying the child.
    pub labels: LabelSet,
    /// Current value.
    pub value: f64,
    /// High-water mark (see [`Gauge::max_seen`]).
    pub max_seen: f64,
}

/// One exported sample of a histogram family child (summary form).
#[derive(Debug, Clone, serde::Serialize)]
pub struct HistogramSample {
    /// Family name.
    pub name: String,
    /// Sorted label set identifying the child.
    pub labels: LabelSet,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Median (log-linear bucket estimate).
    pub p50: f64,
    /// 95th percentile (log-linear bucket estimate).
    pub p95: f64,
    /// 99th percentile (log-linear bucket estimate).
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// A typed point-in-time snapshot of a [`FamilyRegistry`], serializable to
/// JSON via the vendored serde stand-in. Children appear in deterministic
/// (name, sorted-label) order.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MetricsSnapshot {
    /// All counter children.
    pub counters: Vec<CounterSample>,
    /// All gauge children.
    pub gauges: Vec<GaugeSample>,
    /// All histogram children.
    pub histograms: Vec<HistogramSample>,
}

/// One metric kind's families: name → children ordered by label set →
/// slot in `slab`. Slots are append-only, so a slot index identifies its
/// child for the life of the registry and of every clone of it.
#[derive(Debug, Clone, Default)]
struct Family<T> {
    index: BTreeMap<String, Vec<(LabelSet, u32)>>,
    slab: Vec<T>,
}

impl<T: Default> Family<T> {
    /// Slot of the child `(name, labels)`, created on first use. A hit
    /// compares the borrowed labels against the owned keys and allocates
    /// nothing; only a miss builds the owned key.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)]) -> u32 {
        let canon = Canon::new(labels);
        let children = match self.index.get_mut(name) {
            Some(children) => children,
            None => self.index.entry(name.to_string()).or_default(),
        };
        match children.binary_search_by(|(own, _)| cmp_labels(own, canon.pairs())) {
            Ok(i) => children[i].1,
            Err(i) => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 metric children");
                children.insert(i, (canon.to_owned(), slot));
                self.slab.push(T::default());
                slot
            }
        }
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&T> {
        let canon = Canon::new(labels);
        let children = self.index.get(name)?;
        let i = children
            .binary_search_by(|(own, _)| cmp_labels(own, canon.pairs()))
            .ok()?;
        Some(&self.slab[children[i].1 as usize])
    }

    /// Families in name order, each with its children in label-set order.
    fn iter(&self) -> impl Iterator<Item = (&String, impl Iterator<Item = (&LabelSet, &T)>)> {
        self.index.iter().map(|(name, children)| {
            let children = children
                .iter()
                .map(|(labels, slot)| (labels, &self.slab[*slot as usize]));
            (name, children)
        })
    }

    /// Every child as `(name, labels, value)`, in `(name, labels)` order.
    fn children(&self) -> impl Iterator<Item = (&String, &LabelSet, &T)> {
        self.iter()
            .flat_map(|(name, children)| children.map(move |(labels, v)| (name, labels, v)))
    }

    /// Fold every child of `other` into the child of the same name and
    /// labels (plus `extra`, if given) here.
    fn merge(&mut self, other: &Family<T>, extra: Option<(&str, &str)>, fold: impl Fn(&mut T, &T)) {
        let mut labels: Vec<(&str, &str)> = Vec::new();
        for (name, theirs_labels, theirs) in other.children() {
            labels.clear();
            labels.extend(theirs_labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            if let Some((k, v)) = extra {
                assert!(
                    labels.iter().all(|(ek, _)| *ek != k),
                    "merge_labeled: child already carries label key {k:?}"
                );
                labels.push((k, v));
            }
            let slot = self.resolve(name, &labels);
            fold(&mut self.slab[slot as usize], theirs);
        }
    }
}

/// A counter child's slot in the [`FamilyRegistry`] that resolved it.
/// Valid for that registry and its clones only; on any other registry it
/// names an unrelated child or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A gauge child's slot (see [`CounterId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// A histogram child's slot (see [`CounterId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Labeled metric families: counters, gauges, and histograms keyed by a
/// sorted label set, in the mold of a Prometheus client registry.
///
/// Children are indexed in `(name, label set)` order, so iteration — and
/// therefore [`expose`] output and [`snapshot`] contents — is
/// deterministic for a given set of recordings, independent of insertion
/// order.
///
/// A write is `resolve` + one indexed store: `counter(name, labels)` is
/// `counter_at(counter_id(name, labels))`. A caller that writes the same
/// child repeatedly keeps the id and skips the lookup.
///
/// [`expose`]: FamilyRegistry::expose
/// [`snapshot`]: FamilyRegistry::snapshot
#[derive(Debug, Default, Clone)]
pub struct FamilyRegistry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

impl FamilyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id of the counter child `(name, labels)`, created on first use.
    /// Label order does not matter; duplicate label keys panic.
    pub fn counter_id(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.counters.resolve(name, labels))
    }
    /// Id of the gauge child `(name, labels)`, created on first use.
    pub fn gauge_id(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.gauges.resolve(name, labels))
    }
    /// Id of the histogram child `(name, labels)`, created on first use.
    pub fn histogram_id(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.histograms.resolve(name, labels))
    }

    /// The counter child `id` names.
    pub fn counter_at(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters.slab[id.0 as usize]
    }
    /// The gauge child `id` names.
    pub fn gauge_at(&mut self, id: GaugeId) -> &mut Gauge {
        &mut self.gauges.slab[id.0 as usize]
    }
    /// The histogram child `id` names.
    pub fn histogram_at(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms.slab[id.0 as usize]
    }

    /// Counter child for `(name, labels)`, created on first use.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Counter {
        let id = self.counter_id(name, labels);
        self.counter_at(id)
    }
    /// Gauge child for `(name, labels)`, created on first use.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Gauge {
        let id = self.gauge_id(name, labels);
        self.gauge_at(id)
    }
    /// Histogram child for `(name, labels)`, created on first use.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Histogram {
        let id = self.histogram_id(name, labels);
        self.histogram_at(id)
    }

    /// Read a counter child if it exists.
    pub fn get_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Counter> {
        self.counters.get(name, labels)
    }
    /// Read a gauge child if it exists.
    pub fn get_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Gauge> {
        self.gauges.get(name, labels)
    }
    /// Read a histogram child if it exists.
    pub fn get_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(name, labels)
    }

    /// Sum a counter family across all children (0 if the family is absent).
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.counters.index.get(name).map_or(0, |children| {
            children
                .iter()
                .map(|(_, slot)| self.counters.slab[*slot as usize].get())
                .sum()
        })
    }

    /// True if nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.slab.is_empty()
            && self.gauges.slab.is_empty()
            && self.histograms.slab.is_empty()
    }

    /// Merge another registry into this one: counters add, histograms
    /// [`merge`](Histogram::merge) (including exemplar reservoirs), and
    /// gauges fold via [`Gauge::merge_from`]. Children are matched by
    /// `(name, label set)`.
    pub fn merge_from(&mut self, other: &FamilyRegistry) {
        self.merge_with_extra(other, None);
    }

    /// Merge another registry while appending one extra label to every
    /// absorbed child — the per-region rollup primitive: a cell's
    /// registry comes in unlabeled and lands in the fleet view as
    /// `...{region="3"}`. Panics if a child already carries `key`.
    pub fn merge_labeled(&mut self, other: &FamilyRegistry, key: &str, value: &str) {
        self.merge_with_extra(other, Some((key, value)));
    }

    fn merge_with_extra(&mut self, other: &FamilyRegistry, extra: Option<(&str, &str)>) {
        self.counters
            .merge(&other.counters, extra, |c, theirs| c.add(theirs.get()));
        self.gauges.merge(&other.gauges, extra, Gauge::merge_from);
        self.histograms
            .merge(&other.histograms, extra, Histogram::merge);
    }

    /// Prometheus-style text exposition. Counter families come first, then
    /// gauges, then histograms (as summaries with `quantile` labels plus
    /// `_sum`/`_count`); families sort by name and children by label set.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, children) in self.counters.iter() {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (labels, c) in children {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(labels, None),
                    c.get()
                ));
            }
        }
        for (name, children) in self.gauges.iter() {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (labels, g) in children {
                out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(labels, None),
                    g.get()
                ));
            }
        }
        for (name, children) in self.histograms.iter() {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (labels, h) in children {
                for (q, v) in [
                    ("0.5", h.quantile(0.5)),
                    ("0.95", h.quantile(0.95)),
                    ("0.99", h.quantile(0.99)),
                ] {
                    out.push_str(&format!(
                        "{name}{} {v}\n",
                        render_labels(labels, Some(("quantile", q)))
                    ));
                }
                out.push_str(&format!(
                    "{name}_sum{} {}\n",
                    render_labels(labels, None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{name}_count{} {}\n",
                    render_labels(labels, None),
                    h.count()
                ));
                // OpenMetrics-style exemplars: one line per kept
                // exemplar, value-descending, carrying the span id that
                // links the observation back to its retained trace.
                // Only present when the histogram enabled exemplars, so
                // pre-existing expositions are byte-unchanged.
                for ex in h.exemplars() {
                    let mut all = labels.clone();
                    for (k, v) in &ex.labels {
                        if !all.iter().any(|(ek, _)| ek == k) {
                            all.push((k.clone(), v.clone()));
                        }
                    }
                    all.sort();
                    out.push_str(&format!(
                        "{name}_count{} {} # {{span_id=\"{}\"}} {}\n",
                        render_labels(&all, None),
                        h.count(),
                        ex.span_id,
                        ex.value
                    ));
                }
            }
        }
        out
    }

    /// Typed snapshot of every child, in deterministic order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .children()
                .map(|(name, labels, c)| CounterSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: self
                .gauges
                .children()
                .map(|(name, labels, g)| GaugeSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.get(),
                    max_seen: g.max_seen(),
                })
                .collect(),
            histograms: self
                .histograms
                .children()
                .map(|(name, labels, h)| HistogramSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    p50: h.quantile(0.5),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                    max: h.max(),
                })
                .collect(),
        }
    }

    /// [`snapshot`](FamilyRegistry::snapshot) serialized as pretty JSON.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes")
    }
}

/// An itemised memory-footprint estimate: labelled byte counts that sum
/// to a total. Subsystems report their estimated heap usage into one of
/// these (plant tables, route cache, scheduler queue, …) so scale
/// benchmarks can publish a per-component memory column. Estimates, not
/// allocator measurements — the point is relative growth across plant
/// sizes, not absolute RSS.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Footprint {
    items: Vec<(String, u64)>,
}

impl Footprint {
    /// An empty footprint.
    pub fn new() -> Footprint {
        Footprint::default()
    }

    /// Add a labelled byte count.
    pub fn add(&mut self, label: impl Into<String>, bytes: u64) {
        self.items.push((label.into(), bytes));
    }

    /// The labelled items, in insertion order.
    pub fn items(&self) -> &[(String, u64)] {
        &self.items
    }

    /// Sum of all items in bytes.
    pub fn total(&self) -> u64 {
        self.items.iter().map(|(_, b)| b).sum()
    }

    /// One `label: N KiB` line per item plus a total line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, bytes) in &self.items {
            out.push_str(&format!("  {label}: {:.1} KiB\n", *bytes as f64 / 1024.0));
        }
        out.push_str(&format!(
            "  total: {:.1} KiB\n",
            self.total() as f64 / 1024.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn latency_recorder_percentiles() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.p50_ns(), 0);
        for ns in (1..=100).rev() {
            r.record_ns(ns * 1000);
        }
        assert_eq!(r.count(), 100);
        assert_eq!(r.p50_ns(), 50_000);
        assert_eq!(r.p95_ns(), 95_000);
        assert_eq!(r.p99_ns(), 99_000);
        assert_eq!(r.percentile_ns(100.0), 100_000);
        assert!(r.summary().contains("n=100"));
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut g = Gauge::new();
        g.set(3.0);
        g.adjust(-1.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(g.max_seen(), 3.0);
    }

    #[test]
    fn histogram_exact_moments() {
        let mut h = Histogram::new();
        for v in [2.0, 4.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 6.0);
        assert!((h.std_dev() - (8.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.16, "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.16, "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn histogram_zeros_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        h.record(0.0);
        h.record(0.0);
        h.record(10.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(0.99) > 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    #[should_panic(expected = "histogram value")]
    fn histogram_rejects_negative() {
        Histogram::new().record(-1.0);
    }

    #[test]
    fn series_step_semantics() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(20), 3.0);
        assert_eq!(ts.value_at(SimTime::from_secs(5)), None);
        assert_eq!(ts.value_at(SimTime::from_secs(10)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(15)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(25)), Some(3.0));
        assert_eq!(ts.max(), 3.0);
    }

    #[test]
    fn series_integral() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::ZERO, 2.0);
        ts.push(SimTime::from_secs(10), 4.0);
        // [0,10)=2.0, [10,20)=4.0 → integral over [0,20] = 20 + 40 = 60.
        let i = ts.integral(SimTime::ZERO, SimTime::from_secs(20));
        assert!((i - 60.0).abs() < 1e-9);
        // Partial window [5, 15] = 2*5 + 4*5 = 30.
        let i2 = ts.integral(SimTime::from_secs(5), SimTime::from_secs(15));
        assert!((i2 - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn gauge_max_seen_survives_downward_then_upward() {
        let mut g = Gauge::new();
        g.set(5.0);
        g.adjust(-4.0);
        g.adjust(2.0); // 3.0 — below the old peak
        assert_eq!(g.get(), 3.0);
        assert_eq!(g.max_seen(), 5.0);
        g.adjust(4.0); // 7.0 — new peak after the dip
        assert_eq!(g.max_seen(), 7.0);
    }

    #[test]
    fn gauge_max_seen_tracks_negative_only_values() {
        // Regression: max_seen used to start at 0.0, so a gauge that only
        // ever held negative values (a power margin below tolerance)
        // reported a high-water mark of 0.0 it never actually reached.
        let mut g = Gauge::new();
        g.set(-5.0);
        g.set(-2.0);
        g.set(-3.0);
        assert_eq!(g.max_seen(), -2.0);
        // Untouched gauges still report 0.
        assert_eq!(Gauge::new().max_seen(), 0.0);
    }

    #[test]
    fn report_is_globally_name_sorted_and_format_locked() {
        let mut m = MetricsRegistry::new();
        // Insert deliberately out of name order and across kinds.
        m.series("zz.series").push(SimTime::ZERO, 1.0);
        m.gauge("aa.gauge").set(1.5);
        m.counter("mm.counter").add(7);
        m.histogram("bb.hist").record(2.0);
        let expected = "gauge    aa.gauge = 1.500 (max 1.500)\n\
             hist     bb.hist: n=1 mean=2.000 sd=0.000 min=2.000 p50=2.000 p95=2.000 max=2.000\n\
             counter  mm.counter = 7\n\
             series   zz.series: 1 points, max 1.000\n";
        assert_eq!(
            m.report(),
            expected,
            "report format is load-bearing for golden files"
        );
    }

    #[test]
    fn family_registry_label_order_is_canonical() {
        let mut f = FamilyRegistry::new();
        f.counter("alarms_total", &[("kind", "los"), ("sev", "crit")])
            .incr();
        f.counter("alarms_total", &[("sev", "crit"), ("kind", "los")])
            .incr();
        assert_eq!(
            f.get_counter("alarms_total", &[("kind", "los"), ("sev", "crit")])
                .unwrap()
                .get(),
            2,
            "label order must not mint a new child"
        );
        assert_eq!(f.counter_family_total("alarms_total"), 2);
        assert_eq!(f.counter_family_total("missing"), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn family_registry_rejects_duplicate_label_keys() {
        FamilyRegistry::new().counter("x", &[("k", "1"), ("k", "2")]);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn family_registry_rejects_duplicate_label_keys_on_an_existing_child() {
        let mut f = FamilyRegistry::new();
        f.counter("x", &[("k", "1")]).incr();
        f.counter("x", &[("k", "1"), ("k", "1")]);
    }

    #[test]
    fn family_ids_name_the_child_the_labels_name() {
        let mut f = FamilyRegistry::new();
        let id = f.counter_id("c", &[("b", "2"), ("a", "1")]);
        assert_eq!(id, f.counter_id("c", &[("a", "1"), ("b", "2")]));
        assert_ne!(id, f.counter_id("c", &[("a", "1")]));
        f.counter_at(id).add(3);
        f.counter("c", &[("a", "1"), ("b", "2")]).incr();
        assert_eq!(f.counter_at(id).get(), 4);
        // Ids survive a clone and later growth of the slab.
        let mut g = f.clone();
        for i in 0..100 {
            g.counter("c", &[("a", &i.to_string())]).incr();
        }
        g.counter_at(id).incr();
        assert_eq!(
            g.get_counter("c", &[("a", "1"), ("b", "2")]).unwrap().get(),
            5
        );
        // More labels than the stack buffer holds still canonicalise.
        let many: Vec<(String, String)> = (0..INLINE_LABELS + 3)
            .map(|i| (format!("k{i:02}"), i.to_string()))
            .collect();
        let fwd: Vec<(&str, &str)> = many.iter().map(|(k, v)| (&**k, &**v)).collect();
        let rev: Vec<(&str, &str)> = fwd.iter().rev().copied().collect();
        assert_eq!(f.gauge_id("wide", &fwd), f.gauge_id("wide", &rev));
    }

    #[test]
    fn family_exposition_is_deterministic_and_prometheus_shaped() {
        let build = || {
            let mut f = FamilyRegistry::new();
            f.gauge("occupancy", &[("roadm", "b"), ("degree", "1")])
                .set(4.0);
            f.gauge("occupancy", &[("degree", "0"), ("roadm", "a")])
                .set(2.0);
            f.counter("alarms_total", &[("kind", "los")]).add(3);
            let h = f.histogram("latency_seconds", &[]);
            h.record(0.5);
            h.record(1.5);
            f
        };
        let a = build().expose();
        let b = build().expose();
        assert_eq!(a, b, "expose() must be byte-identical across runs");
        assert!(a.contains("# TYPE alarms_total counter\n"));
        assert!(a.contains("alarms_total{kind=\"los\"} 3\n"));
        assert!(a.contains("occupancy{degree=\"0\",roadm=\"a\"} 2\n"));
        assert!(a.contains("latency_seconds_count 2\n"));
        assert!(a.contains("latency_seconds_sum 2\n"));
        assert!(a.contains("quantile=\"0.5\""));
        // Children sort by label set: degree=0 before degree=1.
        let i0 = a.find("degree=\"0\"").unwrap();
        let i1 = a.find("degree=\"1\"").unwrap();
        assert!(i0 < i1);
    }

    #[test]
    fn family_snapshot_json_round_trips_structure() {
        let mut f = FamilyRegistry::new();
        f.counter("c", &[("a", "x")]).incr();
        f.gauge("g", &[]).set(-1.25);
        f.histogram("h", &[("l", "v")]).record(3.0);
        let js = f.snapshot_json();
        assert_eq!(js, f.snapshot_json(), "snapshot JSON must be stable");
        assert!(js.contains("\"name\": \"c\""));
        assert!(js.contains("\"max_seen\": -1.25"));
        assert!(js.contains("\"count\": 1"));
        let snap = f.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(
            snap.histograms[0].labels,
            vec![("l".to_string(), "v".to_string())]
        );
    }

    #[test]
    fn exemplar_reservoir_is_order_and_shard_independent() {
        let obs: Vec<(f64, u64)> = (0..40).map(|i| (10.0 + i as f64, 1000 + i)).collect();
        let single = {
            let mut h = Histogram::new();
            h.enable_exemplars(7, 4);
            for (v, id) in &obs {
                h.record_linked(*v, *id, &[("region", "0")]);
            }
            h
        };
        // Same observations, reversed order, sharded into three
        // histograms then merged.
        let mut shards = vec![Histogram::new(), Histogram::new(), Histogram::new()];
        for s in &mut shards {
            s.enable_exemplars(7, 4);
        }
        for (i, (v, id)) in obs.iter().enumerate().rev() {
            shards[i % 3].record_linked(*v, *id, &[("region", "0")]);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), single.count());
        let a: Vec<Exemplar> = single.exemplars().into_iter().cloned().collect();
        let b: Vec<Exemplar> = merged.exemplars().into_iter().cloned().collect();
        assert_eq!(a, b, "bottom-k selection must not depend on sharding");
        assert_eq!(a.len(), 4);
        // A different seed keeps different exemplars.
        let mut other = Histogram::new();
        other.enable_exemplars(8, 4);
        for (v, id) in &obs {
            other.record_linked(*v, *id, &[("region", "0")]);
        }
        let c: Vec<Exemplar> = other.exemplars().into_iter().cloned().collect();
        assert_ne!(a, c, "seed must steer the reservoir");
    }

    #[test]
    fn link_exemplar_does_not_record() {
        let mut h = Histogram::new();
        h.enable_exemplars(1, 2);
        h.record(5.0);
        h.link_exemplar(5.0, 42, &[]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.exemplars()[0].span_id, 42);
        // Without a reservoir the link is a free no-op.
        let mut plain = Histogram::new();
        plain.link_exemplar(5.0, 42, &[]);
        assert!(plain.exemplars().is_empty());
    }

    #[test]
    fn expose_emits_exemplar_lines_only_when_enabled() {
        let mut f = FamilyRegistry::new();
        f.histogram("lat_seconds", &[("region", "2")]).record(1.0);
        assert!(!f.expose().contains("span_id"), "no exemplars by default");
        let h = f.histogram("lat_seconds", &[("region", "2")]);
        h.enable_exemplars(3, 2);
        h.link_exemplar(1.0, 9, &[]);
        let exp = f.expose();
        assert!(
            exp.contains("lat_seconds_count{region=\"2\"} 1 # {span_id=\"9\"} 1\n"),
            "{exp}"
        );
    }

    #[test]
    fn registry_merge_labeled_equals_direct_recording() {
        let mut cell = FamilyRegistry::new();
        cell.counter("reqs_total", &[("kind", "setup")]).add(3);
        cell.gauge("inflight", &[]).set(2.0);
        cell.histogram("lat", &[]).record(4.0);
        let mut fleet = FamilyRegistry::new();
        fleet.merge_labeled(&cell, "region", "3");
        fleet.merge_labeled(&cell, "region", "4");
        let mut direct = FamilyRegistry::new();
        for r in ["3", "4"] {
            direct
                .counter("reqs_total", &[("kind", "setup"), ("region", r)])
                .add(3);
            direct.gauge("inflight", &[("region", r)]).set(2.0);
            direct.histogram("lat", &[("region", r)]).record(4.0);
        }
        assert_eq!(fleet.expose(), direct.expose());
        // Unlabeled merge accumulates instead.
        let mut sum = FamilyRegistry::new();
        sum.merge_from(&cell);
        sum.merge_from(&cell);
        assert_eq!(sum.counter_family_total("reqs_total"), 6);
        assert_eq!(sum.get_histogram("lat", &[]).unwrap().count(), 2);
        assert_eq!(sum.get_gauge("inflight", &[]).unwrap().get(), 2.0);
    }

    #[test]
    #[should_panic(expected = "already carries label key")]
    fn merge_labeled_rejects_duplicate_region_key() {
        let mut cell = FamilyRegistry::new();
        cell.counter("c", &[("region", "1")]).incr();
        FamilyRegistry::new().merge_labeled(&cell, "region", "2");
    }

    #[test]
    fn gauge_merge_from_semantics() {
        let mut a = Gauge::new();
        a.set(5.0);
        a.set(1.0);
        let mut b = Gauge::new();
        b.set(3.0);
        a.merge_from(&b);
        assert_eq!(a.get(), 3.0, "other's value wins");
        assert_eq!(a.max_seen(), 5.0, "high-water is the max of both");
        let untouched = Gauge::new();
        a.merge_from(&untouched);
        assert_eq!(a.get(), 3.0, "never-set gauges merge as no-ops");
    }

    #[test]
    fn registry_report_contains_entries() {
        let mut m = MetricsRegistry::new();
        m.counter("setup.count").add(3);
        m.histogram("setup.seconds").record(62.5);
        m.gauge("lambdas.active").set(4.0);
        m.series("bw").push(SimTime::ZERO, 10.0);
        let r = m.report();
        assert!(r.contains("setup.count = 3"));
        assert!(r.contains("setup.seconds"));
        assert!(r.contains("lambdas.active"));
        assert!(r.contains("bw"));
        let _ = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod family_props {
    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 3] = ["alpha", "beta_total", "b"];
    const KEYS: [&str; 3] = ["a", "b", "c"];
    const VALUES: [&str; 5] = ["", "1", "10", "2", "x"];

    /// Decode a label set from `bits`: each key is absent or takes one of
    /// `VALUES`; `bits` also picks the order the caller passes them in.
    fn labels_from(bits: u64) -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        for (i, key) in KEYS.iter().enumerate() {
            let pick = (bits >> (3 * i)) % 8;
            if let Some(value) = VALUES.get(pick as usize) {
                out.push((*key, *value));
            }
        }
        let len = out.len().max(1);
        out.rotate_left((bits >> 9) as usize % len);
        if (bits >> 12) & 1 == 1 {
            out.reverse();
        }
        out
    }

    /// One by-name write of `value` to child `(kind, name, labels)`.
    fn write(reg: &mut FamilyRegistry, kind: u64, name: &str, labels: &[(&str, &str)], value: u64) {
        match kind {
            0 => reg.counter(name, labels).add(value),
            1 => reg.gauge(name, labels).set(value as f64 - 8.0),
            _ => reg.histogram(name, labels).record(value as f64),
        }
    }

    proptest! {
        /// Whatever mix of by-name writes, by-id writes, label orders,
        /// merges and clones produced a registry, it renders exactly as
        /// a fresh registry given the same writes by name.
        #[test]
        fn any_interleaving_matches_by_name_reference(
            ops in prop::collection::vec(any::<u64>(), 1..120),
        ) {
            let mut subject = FamilyRegistry::new();
            let mut reference = FamilyRegistry::new();
            let mut counter_ids = BTreeMap::new();
            let mut gauge_ids = BTreeMap::new();
            let mut histogram_ids = BTreeMap::new();
            for op in ops {
                let kind = op % 3;
                let name = NAMES[(op >> 2) as usize % NAMES.len()];
                let labels = labels_from(op >> 8);
                let value = (op >> 24) % 16;
                let key = (name, canon_labels(&labels));
                match (op >> 32) % 8 {
                    // By id: resolved once per child, then reused — also
                    // across the clones below.
                    0..=2 => match kind {
                        0 => {
                            let id = *counter_ids
                                .entry(key)
                                .or_insert_with(|| subject.counter_id(name, &labels));
                            subject.counter_at(id).add(value);
                        }
                        1 => {
                            let id = *gauge_ids
                                .entry(key)
                                .or_insert_with(|| subject.gauge_id(name, &labels));
                            subject.gauge_at(id).set(value as f64 - 8.0);
                        }
                        _ => {
                            let id = *histogram_ids
                                .entry(key)
                                .or_insert_with(|| subject.histogram_id(name, &labels));
                            subject.histogram_at(id).record(value as f64);
                        }
                    },
                    3..=4 => write(&mut subject, kind, name, &labels, value),
                    5 => {
                        let mut side = FamilyRegistry::new();
                        write(&mut side, kind, name, &labels, value);
                        subject.merge_from(&side);
                    }
                    6 => {
                        let mut side = FamilyRegistry::new();
                        write(&mut side, kind, name, &labels, value);
                        let region = VALUES[value as usize % VALUES.len()];
                        subject.merge_labeled(&side, "region", region);
                        let mut relabeled = labels.clone();
                        relabeled.push(("region", region));
                        write(&mut reference, kind, name, &relabeled, value);
                        continue;
                    }
                    _ => {
                        subject = subject.clone();
                        continue;
                    }
                }
                let sorted = Canon::new(&labels);
                write(&mut reference, kind, name, sorted.pairs(), value);
            }
            prop_assert_eq!(subject.expose(), reference.expose());
            prop_assert_eq!(subject.snapshot_json(), reference.snapshot_json());
        }

        /// The borrowed comparison a lookup uses orders label sets
        /// exactly as the owned keys order among themselves.
        #[test]
        fn borrowed_comparison_orders_as_owned(a in any::<u64>(), b in any::<u64>()) {
            let owned = canon_labels(&labels_from(a));
            let query = labels_from(b);
            prop_assert_eq!(
                cmp_labels(&owned, Canon::new(&query).pairs()),
                owned.cmp(&canon_labels(&query))
            );
        }
    }
}
