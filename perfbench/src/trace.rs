//! In-memory trace of one benchmark run: spans the benchmark records
//! around each public call it makes, plus every event the program sends
//! to the benchmark's metrics sink, each with a timestamp and a thread.
//!
//! Nothing is written while the run is measured; [`Trace::to_chrome_json`]
//! dumps the log once the run has ended. [`analyze`] derives the
//! per-layer figures from it: the self time of each layer, the per-batch
//! solve-time distribution and the per-round work/idle/serial split.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use vm1_obs::{Counter, SchedGauge, Stage, TrajectoryPoint};

/// One event received by the sink.
#[derive(Clone, Copy, Debug)]
pub enum EventKind {
    /// `MetricsSink::add`.
    Add(Counter, u64),
    /// `MetricsSink::record_time` (nanoseconds, recorded when the timed
    /// section ends).
    Time(Stage, u64),
    /// `MetricsSink::record_gauge`.
    Gauge(SchedGauge, u64),
    /// `MetricsSink::record_point`.
    Point(TrajectoryPoint),
}

/// A sink event with its arrival time and thread.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Benchmark-local thread number (0 = first thread to record).
    pub thread: u32,
    /// What was recorded.
    pub kind: EventKind,
}

/// A span around one public call made by the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call` (e.g. `netlist.def_read`), or a bare name for the
    /// enclosing `setup` / `iteration` spans.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Benchmark-local thread number.
    pub thread: u32,
}

#[derive(Debug, Default)]
struct Log {
    events: Vec<Event>,
    spans: Vec<Span>,
}

/// The in-memory trace log shared by the sink and the benchmark's spans.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    log: Mutex<Log>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_no() -> u32 {
    THREAD.with(|t| *t)
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    /// Creates an empty trace whose epoch is now.
    #[must_use]
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        // Every push leaves the log valid, so a poisoned lock is usable.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one sink event. The timestamp is taken under the lock, so
    /// the log order is the arrival order and timestamps never go back.
    pub fn event(&self, kind: EventKind) {
        let thread = thread_no();
        let mut log = self.log();
        let t_ns = nanos(self.epoch.elapsed());
        log.events.push(Event { t_ns, thread, kind });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = nanos(self.epoch.elapsed());
        let out = f();
        let end_ns = nanos(self.epoch.elapsed());
        self.log().spans.push(Span {
            name,
            start_ns,
            end_ns,
            thread: thread_no(),
        });
        out
    }

    /// A copy of the events recorded so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.log().events.clone()
    }

    /// A copy of the spans recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// The log as Chrome trace-event JSON (loadable by Perfetto and
    /// `chrome://tracing`): benchmark spans and the spans derived by
    /// [`analyze`] as complete events, sink events as instant events.
    #[must_use]
    pub fn to_chrome_json(&self, derived: &[LayerSpan], provenance: &str) -> String {
        let log = self.log();
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        let us = |ns: u64| ns as f64 / 1e3;
        for s in &log.spans {
            push(format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                s.name,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.thread
            ));
        }
        for s in derived {
            push(format!(
                "{{\"name\":\"{}\",\"cat\":\"derived\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{}}}",
                s.layer,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.thread
            ));
        }
        for e in &log.events {
            let (name, value) = match e.kind {
                EventKind::Add(c, v) => (c.name(), v as f64),
                EventKind::Time(s, v) => (s.name(), v as f64),
                EventKind::Gauge(g, v) => (g.name(), v as f64),
                EventKind::Point(p) => ("trajectory_objective", p.objective),
            };
            push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"sink\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"value\":{value}}}}}",
                us(e.t_ns),
                e.thread
            ));
        }
        let _ = write!(out, "\n],\"otherData\":{provenance}}}\n");
        out
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

/// Records spans into a [`Trace`] when tracing is on; a no-op otherwise.
#[derive(Clone, Debug, Default)]
pub struct Tracer(Option<Arc<Trace>>);

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A tracer recording into `trace`.
    #[must_use]
    pub fn on(trace: Arc<Trace>) -> Tracer {
        Tracer(Some(trace))
    }

    /// Runs `f`, inside a span named `name` when tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }
}

/// A span attributed to a layer, with its nesting depth: where spans
/// overlap, the deepest one owns the time.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpan {
    /// Layer name (`core.solver`, `route`, …).
    pub layer: &'static str,
    /// Nesting depth (0 = the timed iteration itself).
    pub depth: u8,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Thread the span ran on.
    pub thread: u32,
}

/// Layer name of the time inside the timed iteration that no layer span
/// covers.
pub const UNATTRIBUTED: &str = "bench";

/// One diagonal `DistOpt` round as seen by the sink.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Round start: the `QueueHighWater` gauge the committing thread
    /// records before dispatching the round.
    pub start_ns: u64,
    /// Round end: the last event of the round (its commit).
    pub end_ns: u64,
    /// Busy time of each worker that took part (`WorkerBusyNanos`).
    pub busy_ns: Vec<u64>,
}

impl Round {
    /// Wall time of the round.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Busy time of the busiest worker.
    #[must_use]
    pub fn max_busy_ns(&self) -> u64 {
        self.busy_ns.iter().copied().max().unwrap_or(0)
    }
}

/// Figures derived from a trace for one timed iteration.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Every span attributed to a layer (benchmark spans and spans
    /// derived from sink events), for the trace file.
    pub spans: Vec<LayerSpan>,
    /// Self time per layer within the iteration, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall time of the iteration, nanoseconds.
    pub wall_ns: u64,
    /// Duration of every window-batch solve, nanoseconds.
    pub batch_ns: Vec<u64>,
    /// The `DistOpt` rounds, in order.
    pub rounds: Vec<Round>,
}

impl Analysis {
    /// Share of the iteration's wall time owned by a named layer.
    #[must_use]
    pub fn attributed_share(&self) -> f64 {
        let unattributed = self.self_ns.get(UNATTRIBUTED).copied().unwrap_or(0);
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - unattributed as f64 / self.wall_ns as f64
    }

    /// Combines the analyses of two iterations.
    #[must_use]
    pub fn merge(mut self, other: Analysis) -> Analysis {
        self.spans.extend(other.spans);
        for (layer, ns) in other.self_ns {
            *self.self_ns.entry(layer).or_insert(0) += ns;
        }
        self.wall_ns += other.wall_ns;
        self.batch_ns.extend(other.batch_ns);
        self.rounds.extend(other.rounds);
        self
    }

    /// The named layers by self time, largest first.
    #[must_use]
    pub fn layers_by_share(&self) -> Vec<(&'static str, f64)> {
        let mut v: Vec<(&'static str, f64)> = self
            .self_ns
            .iter()
            .filter(|(l, _)| **l != UNATTRIBUTED)
            .map(|(l, ns)| (*l, *ns as f64 / self.wall_ns.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

/// Layer and depth of a benchmark span: `iteration` and `setup` are the
/// roots; `layer.call` belongs to `layer` one level down.
fn bench_span_layer(name: &'static str) -> (&'static str, u8) {
    match name.split_once('.') {
        Some((layer, _)) => (layer, 1),
        None => (UNATTRIBUTED, 0),
    }
}

/// Whether a main-thread stage event closes the round in progress.
fn ends_round(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Time(
            Stage::Perturb | Stage::Flip | Stage::ObjectiveEval | Stage::Vm1Opt,
            _
        )
    )
}

/// Derives the per-layer figures of the iteration `iteration` from the
/// events and spans of `trace`.
///
/// Stage times arrive when their section ends, so each becomes the span
/// `[t − d, t]`: `Perturb`/`Flip`/`ObjectiveEval`/`Vm1Opt` belong to
/// `core`, `Route` to `route`, `Analysis` to `timing`, and every
/// `WindowSolve` (one per window batch, on whichever worker solved it) to
/// `core.solver`. A round runs from its `QueueHighWater` gauge to its last
/// event and belongs to `core.sched`. At every instant the deepest active
/// span owns the time; time no layer span covers stays `bench`.
#[must_use]
pub fn analyze(trace: &Trace, iteration: Span) -> Analysis {
    let inside = |t: u64| t >= iteration.start_ns && t <= iteration.end_ns;
    let mut spans: Vec<LayerSpan> = vec![LayerSpan {
        layer: UNATTRIBUTED,
        depth: 0,
        start_ns: iteration.start_ns,
        end_ns: iteration.end_ns,
        thread: iteration.thread,
    }];
    for s in trace.spans() {
        let (layer, depth) = bench_span_layer(s.name);
        if depth > 0 && inside(s.start_ns) && inside(s.end_ns) {
            spans.push(LayerSpan {
                layer,
                depth,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                thread: s.thread,
            });
        }
    }

    let mut batch_ns = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut open: Option<Round> = None;
    for e in trace.events().into_iter().filter(|e| inside(e.t_ns)) {
        let closes = matches!(e.kind, EventKind::Gauge(SchedGauge::QueueHighWater, _))
            || (e.thread == iteration.thread && ends_round(e.kind));
        if closes {
            rounds.extend(open.take());
        }
        match e.kind {
            EventKind::Gauge(SchedGauge::QueueHighWater, _) => {
                open = Some(Round {
                    start_ns: e.t_ns,
                    end_ns: e.t_ns,
                    busy_ns: Vec::new(),
                });
            }
            EventKind::Gauge(SchedGauge::WorkerBusyNanos, ns) => {
                if let Some(r) = open.as_mut() {
                    r.busy_ns.push(ns);
                }
            }
            EventKind::Time(stage, d) => {
                let layer = match stage {
                    Stage::WindowSolve => {
                        batch_ns.push(d);
                        Some(("core.solver", 4))
                    }
                    Stage::Perturb | Stage::Flip | Stage::ObjectiveEval | Stage::Vm1Opt => {
                        Some(("core", 2))
                    }
                    Stage::Route => Some(("route", 2)),
                    Stage::Analysis => Some(("timing", 2)),
                    _ => None,
                };
                if let Some((layer, depth)) = layer {
                    spans.push(LayerSpan {
                        layer,
                        depth,
                        start_ns: e.t_ns.saturating_sub(d).max(iteration.start_ns),
                        end_ns: e.t_ns,
                        thread: e.thread,
                    });
                }
            }
            _ => {}
        }
        if let Some(r) = open.as_mut() {
            r.end_ns = e.t_ns;
        }
    }
    rounds.extend(open);
    for r in &rounds {
        spans.push(LayerSpan {
            layer: "core.sched",
            depth: 3,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            thread: iteration.thread,
        });
    }

    Analysis {
        self_ns: self_times(&spans),
        wall_ns: iteration.end_ns - iteration.start_ns,
        spans,
        batch_ns,
        rounds,
    }
}

/// Sweeps the span boundaries; each elementary interval goes to the
/// deepest span active over it (ties: the lowest layer name).
fn self_times(spans: &[LayerSpan]) -> BTreeMap<&'static str, u64> {
    // (time, +1 open / -1 close, span index)
    let mut edges: Vec<(u64, i8, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns > s.start_ns {
            edges.push((s.start_ns, 1, i));
            edges.push((s.end_ns, -1, i));
        }
    }
    edges.sort_unstable();
    let mut active: BTreeMap<(std::cmp::Reverse<u8>, &'static str), usize> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last = edges.first().map_or(0, |e| e.0);
    for (t, delta, i) in edges {
        if let Some((&(_, layer), _)) = active.iter().next() {
            *out.entry(layer).or_insert(0) += t - last;
        }
        last = t;
        let key = (std::cmp::Reverse(spans[i].depth), spans[i].layer);
        if delta > 0 {
            *active.entry(key).or_insert(0) += 1;
        } else if let Some(n) = active.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                active.remove(&key);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, depth: u8, start_ns: u64, end_ns: u64) -> LayerSpan {
        LayerSpan {
            layer,
            depth,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn deepest_span_owns_overlapping_time() {
        let spans = [
            span(UNATTRIBUTED, 0, 0, 100),
            span("core", 1, 10, 90),
            span("core.sched", 3, 20, 80),
            span("core.solver", 4, 30, 50),
            span("core.solver", 4, 40, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st["bench"], 20);
        assert_eq!(st["core"], 20);
        assert_eq!(st["core.sched"], 30);
        assert_eq!(st["core.solver"], 30);
        assert_eq!(st.values().sum::<u64>(), 100);
    }
}
