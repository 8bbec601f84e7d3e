//! The benchmark's implementation of the public `vm1_obs::MetricsSink`
//! trait. It keeps its own counters and stage totals, recognises window
//! batches whose DFS solve stopped at the node cap, and, when a trace is
//! attached, logs every call it receives.

use crate::trace::{EventKind, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vm1_obs::{Counter, GaugeAgg, MetricsSink, SchedGauge, Stage, TrajectoryPoint};

/// The deterministic counter vector that pins down what a run computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// DFS search nodes over all window batches.
    pub dfs_nodes: u64,
    /// Window batches handed to the solver.
    pub batches_solved: u64,
    /// Windows that held at least one movable cell.
    pub windows_visited: u64,
    /// Cells moved or flipped.
    pub cells_changed: u64,
}

/// Counting sink; optionally logs every call into a [`Trace`].
#[derive(Debug)]
pub struct BenchSink {
    max_nodes: u64,
    counters: [AtomicU64; Counter::ALL.len()],
    stage_nanos: [AtomicU64; Stage::ALL.len()],
    gauges: [AtomicU64; SchedGauge::ALL.len()],
    capped_batches: AtomicU64,
    trace: Option<Arc<Trace>>,
}

impl BenchSink {
    /// A sink for runs whose DFS node cap is `max_nodes`: a batch whose
    /// solve reports at least that many nodes stopped at the cap.
    #[must_use]
    pub fn new(max_nodes: usize, trace: Option<Arc<Trace>>) -> BenchSink {
        BenchSink {
            max_nodes: max_nodes as u64,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            capped_batches: AtomicU64::new(0),
            trace,
        }
    }

    /// Total of one counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Total time recorded for one stage, in seconds (summed over
    /// threads for stages recorded on workers).
    #[must_use]
    pub fn stage_s(&self, s: Stage) -> f64 {
        self.stage_nanos[s as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// One scheduler gauge, combined as `SchedGauge::agg` says.
    #[must_use]
    pub fn gauge(&self, g: SchedGauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Window batches whose DFS solve stopped at the node cap.
    #[must_use]
    pub fn capped_batches(&self) -> u64 {
        self.capped_batches.load(Ordering::Relaxed)
    }

    /// The deterministic counter vector.
    #[must_use]
    pub fn work(&self) -> Work {
        Work {
            dfs_nodes: self.counter(Counter::DfsNodes),
            batches_solved: self.counter(Counter::BatchesSolved),
            windows_visited: self.counter(Counter::WindowsVisited),
            cells_changed: self.counter(Counter::CellsChanged),
        }
    }

    fn log(&self, kind: EventKind) {
        if let Some(t) = &self.trace {
            t.event(kind);
        }
    }
}

impl MetricsSink for BenchSink {
    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
        // The DFS solver reports each batch's node count in one `add`.
        // The search unwinds once the count reaches the cap (each level
        // it unwinds through counts one more node), so only capped
        // batches reach it.
        if counter == Counter::DfsNodes && delta >= self.max_nodes {
            self.capped_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.log(EventKind::Add(counter, delta));
    }

    fn record_time(&self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
        self.log(EventKind::Time(stage, nanos));
    }

    fn record_point(&self, point: TrajectoryPoint) {
        self.log(EventKind::Point(point));
    }

    fn record_gauge(&self, gauge: SchedGauge, value: u64) {
        let cell = &self.gauges[gauge as usize];
        match gauge.agg() {
            GaugeAgg::Sum => cell.fetch_add(value, Ordering::Relaxed),
            GaugeAgg::Max => cell.fetch_max(value, Ordering::Relaxed),
        };
        self.log(EventKind::Gauge(gauge, value));
    }
}
