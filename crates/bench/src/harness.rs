//! The experiment harness behind every artifact target of `repro`.
//!
//! An artifact target (`trace`, `noc`, `ha`, `scale`, `slo`, `measure`,
//! `serve`) is one [`Experiment`]. It supplies its sweep (points of the
//! full and reduced profile, cells of each point), a cell function
//! returning a [`CellRun`], and [`Experiment::finish`]: its own gates,
//! the report, the side files and the golden bytes.
//!
//! Everything else happens here and only here: `SCALE_SWEEP` and
//! `REPRO_THREADS` are read once; cells are sharded through
//! [`parallel_cells_with`]; every cell runs twice when the target has an
//! observer (off, then on) or a shard identity (one worker, then
//! sharded) and the digests must agree; the probe point runs on 1, 2 and
//! 8 workers and digests and texts must agree ([`identity`]); every run
//! must drop no span, trace event or scrape; the [`BenchHeader`] is
//! stamped and the artifacts written ([`emit`]). The goldens under
//! `tests/golden/` are the golden bytes of a reduced run ([`goldens`]),
//! rendered from the same values as the artifact files. A failed gate is
//! a [`GateError`] naming the target, the cell and both digests (or the
//! first differing line); `repro` prints it and exits 1.

use std::fmt;
use std::time::Instant;

use serde::{Content, Serialize};

use crate::BenchHeader;

/// Sweep profile: `SCALE_SWEEP=reduced` selects the CI-sized sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Every point (paper scale to continental scale).
    Full,
    /// The subset CI runs on every push.
    Reduced,
}

impl Sweep {
    /// The profile `SCALE_SWEEP` selects (`full` unless it is `reduced`).
    fn from_env() -> Sweep {
        match std::env::var("SCALE_SWEEP").as_deref() {
            Ok("reduced") => Sweep::Reduced,
            _ => Sweep::Full,
        }
    }

    /// Label stamped into reports.
    pub fn label(self) -> &'static str {
        match self {
            Sweep::Full => "full",
            Sweep::Reduced => "reduced",
        }
    }
}

/// Worker-thread count: the `REPRO_THREADS` override wins (CI pins it
/// for reproducible sharding), else the machine's available
/// parallelism. WAL decode reads the same override, so
/// [`decode_threads`](griphon::durability::decode_threads) defines it.
fn repro_threads() -> usize {
    griphon::durability::decode_threads()
}

/// [`parallel_cells_with`] on `REPRO_THREADS` workers (else the
/// machine's available parallelism).
pub fn parallel_cells<C, R, F>(cells: Vec<C>, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    parallel_cells_with(repro_threads(), cells, f)
}

/// Fan independent cells across `threads` OS threads, preserving input
/// order in the output. Each cell is moved into exactly one worker and
/// every output slot is fixed up front, so the result equals a
/// sequential `map` whenever each cell carries its own seed and state.
pub fn parallel_cells_with<C, R, F>(threads: usize, cells: Vec<C>, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    let threads = threads.max(1).min(cells.len().max(1));
    let mut slots: Vec<Option<R>> = Vec::with_capacity(cells.len());
    slots.resize_with(cells.len(), || None);
    let mut work: Vec<Vec<(&mut Option<R>, C)>> = Vec::new();
    work.resize_with(threads, Vec::new);
    for (i, pair) in slots.iter_mut().zip(cells).enumerate() {
        work[i % threads].push(pair);
    }
    let f = &f;
    std::thread::scope(|s| {
        for lot in work {
            s.spawn(move || {
                for (slot, cell) in lot {
                    *slot = Some(f(cell));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker filled slot"))
        .collect()
}

/// What a point's reference run varies against its main run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Identity {
    /// The observer off (spans, NOC, WAL, telemetry, probing).
    Observer,
    /// One worker; the main run is sharded.
    Shard,
    /// No reference run; the 1/2/8-thread probe alone checks placement.
    Threads,
}

/// One cell's result.
pub struct CellRun<O> {
    /// State digest: the identity gates compare it.
    pub digest: u32,
    /// Deterministic text (an exposition, a report row) that must not
    /// depend on the worker count.
    pub text: String,
    /// Span, trace and scrape drops; any non-zero count fails the run.
    pub drops: u64,
    /// Everything else the target folds into its report.
    pub out: O,
}

impl<O> CellRun<O> {
    /// A cell with a digest and its output, no text and no drops.
    pub fn new(digest: u32, out: O) -> CellRun<O> {
        CellRun {
            digest,
            text: String::new(),
            drops: 0,
            out,
        }
    }
}

/// A point after the harness ran its cells.
pub struct PointRun<P, C, O> {
    /// The point.
    pub point: P,
    /// Its cells, in run order.
    pub cells: Vec<C>,
    /// The main run (observer on, sharded).
    pub main: Vec<CellRun<O>>,
    /// Host seconds of the main run.
    pub main_secs: f64,
    /// The reference run; empty for [`Identity::Threads`].
    pub reference: Vec<CellRun<O>>,
    /// Host seconds of the reference run.
    pub reference_secs: f64,
}

/// The run-wide settings `finish` sees.
pub struct Ctx {
    /// The sweep profile.
    pub sweep: Sweep,
    /// Workers of the main run.
    pub threads: usize,
}

/// What `finish` hands back.
pub struct Finished<R> {
    /// Written to `BENCH_<target>.json` behind the harness's envelope
    /// ([`report_json`]).
    pub report: R,
    /// Human-readable summary `repro` prints.
    pub summary: String,
    /// Side files written beside the report: `(file name, bytes)`.
    pub files: Vec<(&'static str, String)>,
    /// `(name under tests/golden, bytes)`, meaningful for a reduced run.
    pub goldens: Vec<(&'static str, String)>,
}

/// Every point and its runs, as `finish` receives them.
pub type Runs<E> =
    Vec<PointRun<<E as Experiment>::Point, <E as Experiment>::Cell, <E as Experiment>::Out>>;

/// One artifact target.
pub trait Experiment: Sync {
    /// `repro` target name; the report is `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// What the reference run varies.
    const IDENTITY: Identity;
    /// The report's `benchmark` field.
    const BENCHMARK: &'static str = Self::NAME;
    /// Whether the sweep has a reduced profile: the envelope then
    /// carries `sweep` and `threads`, else the header says `default`.
    const SWEEPS: bool = false;
    /// What a point's cells share (a plant, a scenario).
    type Point: Sync;
    /// One cell of a point.
    type Cell: Sync;
    /// What a cell returns besides its digest, text and drops.
    type Out: Send;
    /// The target's own fields of `BENCH_<NAME>.json`: a struct.
    type Report: Serialize;

    /// The points of `sweep`, in run order.
    fn points(&self, sweep: Sweep) -> Vec<Self::Point>;
    /// The point the identity gates run; by default the first reduced one.
    fn probe(&self) -> Self::Point {
        self.points(Sweep::Reduced).swap_remove(0)
    }
    /// The cells of `point`.
    fn cells(&self, point: &Self::Point) -> Vec<Self::Cell>;
    /// A cell's name in gate failures.
    fn label(&self, point: &Self::Point, cell: &Self::Cell) -> String;
    /// Run one cell; `observe` is false only in an [`Identity::Observer`]
    /// reference run. `Err` is a failed cell gate.
    fn run(
        &self,
        point: &Self::Point,
        cell: &Self::Cell,
        observe: bool,
    ) -> Result<CellRun<Self::Out>, String>;
    /// The target's own gates, then its report, summary and files.
    fn finish(&self, ctx: &Ctx, runs: Runs<Self>) -> Result<Finished<Self::Report>, GateError>;
}

/// A failed gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateError {
    /// The target.
    pub target: &'static str,
    /// The cell (or point) the gate failed at.
    pub cell: String,
    /// What differed: both digests, the first differing line, the value.
    pub detail: String,
}

impl GateError {
    /// A failure of `target` at `cell`.
    pub fn new(target: &'static str, cell: impl Into<String>, detail: impl Into<String>) -> Self {
        GateError {
            target,
            cell: cell.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let GateError {
            target,
            cell,
            detail,
        } = self;
        write!(f, "repro {target}: gate failed at {cell}: {detail}")
    }
}

impl std::error::Error for GateError {}

/// `return Err(format!(..))` unless the condition holds: a gate inside
/// a cell or a report builder, whose caller names the cell.
macro_rules! ensure {
    ($ok:expr, $($detail:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err(format!($($detail)+));
        }
    };
}
pub(crate) use ensure;

/// Pretty JSON, no trailing newline.
pub fn json<R: Serialize>(value: &R) -> String {
    serde_json::to_string_pretty(value).expect("report serialises")
}

/// `BENCH_<target>.json` as written: the envelope — the [`BenchHeader`],
/// the `benchmark` name and, for a sweeping target, the `sweep` and
/// `threads` — then the report's own fields.
pub fn report_json<E: Experiment>(ctx: &Ctx, report: &E::Report) -> String {
    /// A value already in serde's data model.
    struct Raw(Content);
    impl Serialize for Raw {
        fn serialize(&self) -> Content {
            self.0.clone()
        }
    }
    let profile = if E::SWEEPS {
        ctx.sweep.label()
    } else {
        "default"
    };
    let mut fields = vec![
        ("header", BenchHeader::new(E::NAME, profile).serialize()),
        ("benchmark", E::BENCHMARK.serialize()),
    ];
    if E::SWEEPS {
        fields.push(("sweep", profile.serialize()));
        fields.push(("threads", ctx.threads.serialize()));
    }
    let Content::Map(own) = report.serialize() else {
        panic!("a report serialises to a map");
    };
    let envelope = fields.into_iter().map(|(k, v)| (k.serialize(), v));
    json(&Raw(Content::Map(envelope.chain(own).collect())))
}

/// The first line where `a` and `b` differ, for a gate message.
pub fn first_difference(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        let (x, y) = (la.next(), lb.next());
        if x != y {
            let (x, y) = (x.unwrap_or("<end>"), y.unwrap_or("<end>"));
            return format!("line {n}: {x:?} vs {y:?}");
        }
        if x.is_none() {
            break;
        }
    }
    "texts differ only in line endings".to_string()
}

/// A run's cells and its host seconds.
type Timed<O> = (Vec<CellRun<O>>, f64);

/// Run every cell of `point` on `threads` workers, failing on a cell
/// gate or on any drop; returns the runs and their host seconds.
fn run_cells<E: Experiment>(
    exp: &E,
    point: &E::Point,
    cells: &[E::Cell],
    threads: usize,
    observe: bool,
) -> Result<Timed<E::Out>, GateError> {
    let t0 = Instant::now();
    let runs = parallel_cells_with(threads, cells.iter().collect(), |c| {
        exp.run(point, c, observe)
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(runs.len());
    for (cell, run) in cells.iter().zip(runs) {
        let gate = |detail| GateError::new(E::NAME, exp.label(point, cell), detail);
        let run = run.map_err(gate)?;
        if run.drops > 0 {
            return Err(gate(format!("{} span/trace/scrape drops", run.drops)));
        }
        out.push(run);
    }
    Ok((out, secs))
}

/// Require equal digests (and, with `texts`, equal texts) cell by cell.
fn compare<E: Experiment>(
    exp: &E,
    point: &E::Point,
    cells: &[E::Cell],
    what: &str,
    a: &[CellRun<E::Out>],
    b: &[CellRun<E::Out>],
    texts: bool,
) -> Result<(), GateError> {
    for ((cell, x), y) in cells.iter().zip(a).zip(b) {
        let detail = if x.digest != y.digest {
            let (dx, dy) = (x.digest, y.digest);
            format!("{what} digests differ: {dx:#010x} vs {dy:#010x}")
        } else if texts && x.text != y.text {
            let at = first_difference(&x.text, &y.text);
            format!("{what} texts differ at {at}")
        } else {
            continue;
        };
        return Err(GateError::new(E::NAME, exp.label(point, cell), detail));
    }
    Ok(())
}

/// Run `exp`'s `sweep` on `threads` workers: each point's reference and
/// main run and their identity gate, then the target's `finish`.
pub fn run<E: Experiment>(
    exp: &E,
    sweep: Sweep,
    threads: usize,
) -> Result<Finished<E::Report>, GateError> {
    let mut runs = Vec::new();
    for point in exp.points(sweep) {
        let cells = exp.cells(&point);
        let (reference, reference_secs) = match E::IDENTITY {
            Identity::Observer => run_cells(exp, &point, &cells, threads, false)?,
            Identity::Shard => run_cells(exp, &point, &cells, 1, true)?,
            Identity::Threads => (Vec::new(), 0.0),
        };
        let (main, main_secs) = run_cells(exp, &point, &cells, threads, true)?;
        if !reference.is_empty() {
            let what = match E::IDENTITY {
                Identity::Observer => "observer off/on",
                _ => "unsharded/sharded",
            };
            compare(exp, &point, &cells, what, &reference, &main, false)?;
        }
        runs.push(PointRun {
            point,
            cells,
            main,
            main_secs,
            reference,
            reference_secs,
        });
    }
    exp.finish(&Ctx { sweep, threads }, runs)
}

/// The identity gates over `exp`'s probe point: the observer off and on
/// (for an [`Identity::Observer`] target), then 1, 2 and 8 workers with
/// equal digests and texts. Returns the number of probe cells.
pub fn identity<E: Experiment>(exp: &E) -> Result<usize, GateError> {
    probe_gates(exp, true, true)
}

/// The observer off/on gate of [`identity`] alone (nothing beyond the
/// zero-drop gate for a target without an observer).
pub fn observer_identity<E: Experiment>(exp: &E) -> Result<usize, GateError> {
    probe_gates(exp, true, false)
}

/// The 1/2/8-worker gate of [`identity`] alone.
pub fn thread_identity<E: Experiment>(exp: &E) -> Result<usize, GateError> {
    probe_gates(exp, false, true)
}

fn probe_gates<E: Experiment>(exp: &E, observer: bool, threads: bool) -> Result<usize, GateError> {
    let point = exp.probe();
    let cells = exp.cells(&point);
    let (base, _) = run_cells(exp, &point, &cells, 1, true)?;
    if observer && E::IDENTITY == Identity::Observer {
        let (off, _) = run_cells(exp, &point, &cells, 2, false)?;
        compare(exp, &point, &cells, "observer off/on", &off, &base, false)?;
    }
    if threads {
        for workers in [2, 8] {
            let (other, _) = run_cells(exp, &point, &cells, workers, true)?;
            let what = format!("1- vs {workers}-thread");
            compare(exp, &point, &cells, &what, &base, &other, true)?;
        }
    }
    Ok(cells.len())
}

/// The golden bytes of a reduced run, as `tests/golden/` pins them.
pub fn goldens<E: Experiment>(exp: &E) -> Result<Vec<(&'static str, String)>, GateError> {
    Ok(run(exp, Sweep::Reduced, 2)?.goldens)
}

/// `repro <target>`: run the sweep `SCALE_SWEEP` selects on
/// `REPRO_THREADS` workers and the identity gates, write
/// `BENCH_<target>.json` and the side files, return the summary.
pub fn emit<E: Experiment>(exp: &E) -> Result<String, GateError> {
    let ctx = Ctx {
        sweep: Sweep::from_env(),
        threads: repro_threads(),
    };
    let done = run(exp, ctx.sweep, ctx.threads)?;
    let probed = identity(exp)?;
    let bench = format!("BENCH_{}.json", E::NAME);
    std::fs::write(&bench, report_json::<E>(&ctx, &done.report)).expect("write report");
    let mut wrote = vec![bench];
    for (name, bytes) in &done.files {
        std::fs::write(name, bytes).expect("write artifact");
        wrote.push(name.to_string());
    }
    let reference = match E::IDENTITY {
        Identity::Observer => "observer off/on digests identical, ",
        Identity::Shard => "unsharded/sharded digests identical, ",
        Identity::Threads => "",
    };
    let summary = done.summary.trim_end();
    let wrote = wrote.join(", ");
    Ok(format!(
        "{summary}\ngates: {reference}1/2/8-thread identical over {probed} probe \
         cell(s), 0 telemetry drops\nwrote {wrote}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three cells; `drop_at` drops one span, `skew_at` moves its digest
    /// with the observer off.
    struct Stub(Option<u32>, Option<u32>);

    impl Experiment for Stub {
        const NAME: &'static str = "stub";
        const IDENTITY: Identity = Identity::Observer;
        type Point = ();
        type Cell = u32;
        type Out = ();
        type Report = Vec<u32>;

        fn points(&self, _: Sweep) -> Vec<()> {
            vec![()]
        }

        fn cells(&self, _: &()) -> Vec<u32> {
            vec![0, 1, 2]
        }

        fn label(&self, _: &(), cell: &u32) -> String {
            format!("cell {cell}")
        }

        fn run(&self, _: &(), &cell: &u32, observe: bool) -> Result<CellRun<()>, String> {
            let Stub(drop_at, skew_at) = *self;
            let skew = !observe && skew_at == Some(cell);
            let drops = u64::from(drop_at == Some(cell));
            let run = CellRun::new(cell * 7 + u32::from(skew), ());
            Ok(CellRun { drops, ..run })
        }

        fn finish(&self, _: &Ctx, runs: Runs<Self>) -> Result<Finished<Vec<u32>>, GateError> {
            Ok(Finished {
                report: runs[0].main.iter().map(|c| c.digest).collect(),
                summary: String::new(),
                files: Vec::new(),
                goldens: Vec::new(),
            })
        }
    }

    #[test]
    fn a_clean_stub_passes_every_gate() {
        let stub = Stub(None, None);
        assert_eq!(run(&stub, Sweep::Full, 2).unwrap().report, [0, 7, 14]);
        assert_eq!(identity(&stub).unwrap(), 3);
    }

    #[test]
    fn a_dropped_span_fails_naming_the_cell() {
        let stub = Stub(Some(1), None);
        let e = run(&stub, Sweep::Full, 2).err().expect("drop gate");
        assert_eq!((e.target, e.cell.as_str()), ("stub", "cell 1"));
        assert_eq!(e.detail, "1 span/trace/scrape drops");
        assert_eq!(identity(&stub), Err(e));
    }

    #[test]
    fn an_observer_that_moves_a_digest_fails_with_both_digests() {
        let stub = Stub(None, Some(2));
        let e = run(&stub, Sweep::Full, 2).err().expect("on/off gate");
        let expected = "repro stub: gate failed at cell 2: \
                        observer off/on digests differ: 0x0000000f vs 0x0000000e";
        assert_eq!(e.to_string(), expected);
        assert_eq!(observer_identity(&stub), Err(e.clone()));
        assert_eq!(thread_identity(&stub), Ok(3));
        assert_eq!(identity(&stub), Err(e));
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb", "a\nx"), r#"line 2: "b" vs "x""#);
        assert_eq!(first_difference("a", "a\nb"), r#"line 2: "<end>" vs "b""#);
    }

    #[test]
    fn parallel_cells_preserve_order_and_values() {
        let out = parallel_cells_with(3, (0..100u64).collect(), |i| i * 3);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
        assert!(parallel_cells_with(3, Vec::<u64>::new(), |i| i).is_empty());
    }
}
