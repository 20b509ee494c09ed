//! Benchmark-side span recorder. Spans wrap every call the benchmark makes
//! into a product layer; they live in a `Vec` and are written out in
//! Chrome-trace form only after measuring ends. The layer of a span is the
//! part of its name before the first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Which round or attribution pass of the process recorded it.
    pub run_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run_id: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run_id: 0,
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Record nothing until [`Tracer::resume`]: untraced rounds of a traced
    /// process run the same code with the recorder switched off.
    pub fn pause(&mut self) -> bool {
        std::mem::replace(&mut self.enabled, false)
    }

    pub fn resume(&mut self, was: bool) {
        self.enabled = was;
    }

    /// Start a new round or pass: returns the index its spans start at.
    pub fn begin_run(&mut self) -> usize {
        self.run_id += 1;
        self.spans.len()
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
        }
    }

    /// Span a call that does not itself need the tracer.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per-name totals of the spans recorded since `from` (an index
    /// returned by [`Tracer::begin_run`]), and self time per name for the
    /// spans under the round's `region` span.
    pub fn summarize(&self, from: usize) -> Summary {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        // Parents are recorded before their children, so one forward pass
        // settles which spans lie inside the timed region.
        let mut in_region = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent.map(|p| p as usize).filter(|p| *p >= from) {
                child_ns[p - from] += s.dur_ns();
                in_region[i] = in_region[p - from] || spans[p - from].name == "region";
            }
        }
        let mut sum = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            sum.by_name.entry(s.name).or_default().push(s.dur_ns());
            if in_region[i] {
                *sum.self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        sum
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering of every span.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"run_id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.run_id,
                s.run_id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What one round's spans add up to.
#[derive(Default)]
pub struct Summary {
    /// Every duration recorded under a span name, in call order.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Self time (duration minus child spans) per span name, counted only
    /// inside the timed region.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Summary {
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |ns| *ns as f64 / 1e9)
    }

    /// Region self time per layer (the part of a span name before `.`).
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ns) in &self.self_ns {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += *ns as f64 / 1e9;
        }
        layers
    }

    /// The `q`-quantile (nearest rank) of a span name's durations, in µs.
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let mut v = self.by_name.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        crate::report::nearest_rank(&v, q) as f64 / 1e3
    }
}
