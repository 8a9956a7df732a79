//! The traced run's span collection.
//!
//! Every call the benchmark makes into a layer goes through [`timed`], which
//! times it and, when a sink is installed, also records it as a `bench.*`
//! span. [`LayerSink`] is installed only for the traced run. It receives
//! those spans together with the ones the program emits itself (`get_v`,
//! `get_e`, `build_orders`, `run_formation`, `merge_pass`, `semi`,
//! `color_round`, `expand`, ...) and folds them by name into call counts,
//! wall time and self time (wall minus the part covered by child spans).
//! Per-span memory is constant, so a reader issuing millions of traced
//! queries stays small.
//!
//! Sinks are thread-local. Spans from the sort workers of the parallel
//! paths never reach a sink, so their time shows in the enclosing span of
//! the thread that started them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use contract_expand::obs::{self, Field, Sink, SinkGuard, Span};

use crate::probe;

/// Times `f` and, when tracing is on, records it as span `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let span = Span::new(name, &[]);
    let t = Instant::now();
    let r = f();
    let wall = t.elapsed();
    span.close(&[], wall.as_nanos() as u64);
    (r, wall)
}

/// Calls, total wall and self time of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

/// Span totals by name.
pub type SpanTable = BTreeMap<&'static str, SpanTotals>;

/// Adds `other`'s totals into `into` (used to fold the reader thread's
/// table into the main thread's).
pub fn merge_tables(into: &mut SpanTable, other: &SpanTable) {
    for (name, t) in other {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.wall_ns += t.wall_ns;
        e.self_ns += t.self_ns;
    }
}

#[derive(Default)]
struct State {
    /// Wall time of the closed children of each open span.
    open: Vec<u64>,
    table: SpanTable,
    scratch_root: Option<PathBuf>,
    scratch_peak: u64,
}

/// The benchmark's sink: span totals by name, plus the largest size the
/// scratch directory reached at any span close (the peak scratch sample).
#[derive(Default)]
pub struct LayerSink {
    state: RefCell<State>,
}

impl LayerSink {
    /// Installs a fresh sink on this thread until the guard drops.
    pub fn install() -> (Rc<LayerSink>, SinkGuard) {
        let sink = Rc::new(LayerSink::default());
        let guard = sink.attach();
        (sink, guard)
    }

    /// Installs this sink on this thread until the guard drops; its totals
    /// keep adding up over several attachments.
    pub fn attach(self: &Rc<Self>) -> SinkGuard {
        obs::install(self.clone())
    }

    /// Samples the bytes under `root` at every span close from now on.
    pub fn watch_scratch(&self, root: PathBuf) {
        self.state.borrow_mut().scratch_root = Some(root);
    }

    pub fn scratch_peak(&self) -> u64 {
        self.state.borrow().scratch_peak
    }

    pub fn table(&self) -> SpanTable {
        self.state.borrow().table.clone()
    }
}

impl Sink for LayerSink {
    fn span_start(&self, _name: &'static str, _fields: &[Field], _depth: usize) {
        self.state.borrow_mut().open.push(0);
    }

    fn span_end(
        &self,
        name: &'static str,
        _fields: &[Field],
        _counters: &[Field],
        wall_ns: u64,
        _depth: usize,
    ) {
        let mut st = self.state.borrow_mut();
        let children = st.open.pop().unwrap_or(0);
        if let Some(parent) = st.open.last_mut() {
            *parent += wall_ns;
        }
        let t = st.table.entry(name).or_default();
        t.count += 1;
        t.wall_ns += wall_ns;
        t.self_ns += wall_ns.saturating_sub(children);
        if let Some(root) = &st.scratch_root {
            let bytes = probe::dir_bytes(root);
            st.scratch_peak = st.scratch_peak.max(bytes);
        }
    }
}
