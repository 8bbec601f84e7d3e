//! One `DistOpt` round: the windows of a diagonal set solved on scoped
//! threads.
//!
//! [`run_round`] runs `min(threads, windows)` workers inside
//! [`std::thread::scope`]; the calling thread is worker 0, so a 1-thread
//! config or a 1-window round spawns nothing. Workers borrow the round's
//! design, occupancy index, configuration and no-gain cache, claim window
//! indices from one shared cursor, and write each [`WindowOutcome`] into
//! that window's slot. Each worker reuses one [`SolveScratch`] of the
//! caller's vector across rounds.
//!
//! # Determinism
//!
//! Scheduling never reaches the results. A window outcome depends only on
//! the round's immutable inputs (windows of one diagonal set are
//! disjoint, and workers only read the no-gain cache; the committing
//! thread inserts the round's digests afterwards), and the outcomes come
//! back in window-index order. So placements and every
//! [`vm1_obs::Counter`] are bit-identical for any thread count; only the
//! [`SchedGauge`] channel (busy times, tasks per worker) depends on it.
//!
//! # Schedule-permutation model checking
//!
//! [`ClaimShuffle`] permutes each round's claim order with a seeded
//! xorshift64 stream (armed by `Vm1Optimizer::with_adversarial_sched`),
//! so windows are solved, and their outcomes land in their slots, in an
//! order unlike the ascending default. Results must stay bit-identical
//! under any seed; the `sched_permutation` integration tests assert that.

use crate::distopt::{solve_one_window, DistOptParams, SolveCache, WindowOutcome};
use crate::problem::SolveScratch;
use crate::window::Window;
use crate::Vm1Config;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use vm1_netlist::Design;
use vm1_obs::timer::Stopwatch;
use vm1_obs::{MetricsHandle, SchedGauge};
use vm1_place::RowMap;

/// Everything the workers of one round borrow.
pub(crate) struct Round<'a> {
    /// The design, unchanged for the whole round.
    pub design: &'a Design,
    /// Occupancy index matching `design`.
    pub rowmap: &'a RowMap,
    /// The round's windows (one diagonal set, in window-index order).
    pub windows: &'a [Window],
    /// DistOpt parameters of the pass.
    pub p: &'a DistOptParams,
    /// Solver configuration; `cfg.threads` bounds the worker count.
    pub cfg: &'a Vm1Config,
    /// Smart window-selection cache, if enabled (read-only here).
    pub cache: Option<&'a SolveCache>,
    /// Metrics fan-out of the pass.
    pub metrics: &'a MetricsHandle,
    /// Claim order as a permutation of window indices; `None` claims them
    /// in ascending order.
    pub order: Option<&'a [usize]>,
}

/// Solves every window of `round` and returns the outcomes in
/// window-index order. `scratch` holds one buffer set per worker and
/// grows to the worker count on first use. A worker panic is re-raised
/// on the caller with its original payload.
pub(crate) fn run_round(round: &Round<'_>, scratch: &mut Vec<SolveScratch>) -> Vec<WindowOutcome> {
    let n = round.windows.len();
    // `threads` is a public field: a zero there runs on the caller.
    let workers = round.cfg.threads.max(1).min(n);
    if scratch.len() < workers {
        scratch.resize_with(workers, SolveScratch::default);
    }
    let Some((own, helpers)) = scratch[..workers].split_first_mut() else {
        return Vec::new(); // zero-window round
    };
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<WindowOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let work = |scratch: &mut SolveScratch| {
        let start = Stopwatch::start();
        let mut executed = 0u64;
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let w = round.order.map_or(k, |o| o[k]);
            let outcome = solve_one_window(
                round.design,
                round.rowmap,
                round.windows[w],
                round.p,
                round.cfg,
                round.cache,
                round.metrics,
                scratch,
            );
            // Each index is claimed exactly once, so the slot is empty.
            let _ = slots[w].set(outcome);
            executed += 1;
        }
        let busy = start.elapsed_nanos();
        let m = round.metrics;
        m.record_gauge(SchedGauge::TasksExecuted, executed);
        m.record_gauge(SchedGauge::WorkerBusyNanos, busy);
        m.record_gauge(SchedGauge::WorkerBusyMaxNanos, busy);
    };
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|scratch| s.spawn(move || work(scratch)))
            .collect();
        work(own);
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let outcomes: Vec<WindowOutcome> = slots.into_iter().filter_map(OnceLock::into_inner).collect();
    debug_assert_eq!(outcomes.len(), n, "every window of the round was solved");
    outcomes
}

/// Seeded permutation of each round's claim order (test hook; see the
/// module docs). The xorshift64 stream runs on across rounds, so one
/// seed replays the same sequence of permutations exactly.
#[derive(Clone, Debug)]
pub(crate) struct ClaimShuffle(u64);

impl ClaimShuffle {
    /// A stream for `seed`; every seed, 0 included, gives a nonzero state.
    pub(crate) fn new(seed: u64) -> ClaimShuffle {
        ClaimShuffle((seed ^ 0x1234_5678_9ABC_DEF1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub(crate) fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowGrid;
    use std::sync::{Arc, PoisonError, RwLock};
    use std::thread::ThreadId;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_obs::MetricsSink;
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    /// Records the thread of each worker: every worker reports its
    /// `TasksExecuted` gauge exactly once per round.
    #[derive(Debug, Default)]
    struct ThreadSink(RwLock<Vec<ThreadId>>);

    impl MetricsSink for ThreadSink {
        fn record_gauge(&self, gauge: SchedGauge, _value: u64) {
            if gauge == SchedGauge::TasksExecuted {
                let mut v = self.0.write().unwrap_or_else(PoisonError::into_inner);
                v.push(std::thread::current().id());
            }
        }
    }

    struct Fixture {
        design: Design,
        rowmap: RowMap,
        windows: Vec<Window>,
        p: DistOptParams,
    }

    /// A placed design and its first diagonal set of windows.
    fn fixture() -> Fixture {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut design = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(160)
            .generate(&lib, 5);
        place(&mut design, &PlaceConfig::default(), 5);
        let p = DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: (design.sites_per_row / 4).max(10),
            bh_rows: (design.num_rows / 4).max(2),
            lx: 3,
            ly: 1,
            flip: false,
        };
        let grid = WindowGrid::partition(&design, p.tx, p.ty, p.bw_sites, p.bh_rows);
        let windows = grid
            .diagonal_sets()
            .iter()
            .max_by_key(|set| set.len())
            .map(|set| set.iter().map(|&i| grid.windows[i]).collect())
            .unwrap_or_default();
        let rowmap = RowMap::build(&design);
        Fixture {
            design,
            rowmap,
            windows,
            p,
        }
    }

    /// Runs one round over `windows` with `threads`; returns the outcome
    /// moves, the threads of the round's workers and the scratch count.
    fn run(
        f: &Fixture,
        windows: &[Window],
        threads: usize,
        order: Option<&[usize]>,
    ) -> (Vec<String>, Vec<ThreadId>, usize) {
        let mut cfg = Vm1Config::closedm1();
        cfg.threads = threads;
        let sink = Arc::new(ThreadSink::default());
        let metrics = MetricsHandle::of(sink.clone());
        let mut scratch = Vec::new();
        let outcomes = run_round(
            &Round {
                design: &f.design,
                rowmap: &f.rowmap,
                windows,
                p: &f.p,
                cfg: &cfg,
                cache: None,
                metrics: &metrics,
                order,
            },
            &mut scratch,
        );
        let moves = outcomes.iter().map(|o| format!("{:?}", o.moves)).collect();
        let threads = sink.0.read().unwrap_or_else(PoisonError::into_inner);
        (moves, threads.clone(), scratch.len())
    }

    #[test]
    fn more_threads_than_windows_spawns_one_worker_per_window() {
        let f = fixture();
        assert!(f.windows.len() >= 2, "fixture needs a multi-window round");
        let (reference, _, _) = run(&f, &f.windows, 1, None);
        let (moves, threads, scratch) = run(&f, &f.windows, f.windows.len() + 5, None);
        assert_eq!(moves, reference, "outcomes are in window-index order");
        assert_eq!(scratch, f.windows.len(), "one scratch per worker");
        assert_eq!(threads.len(), f.windows.len(), "one worker per window");
    }

    #[test]
    fn zero_window_round_returns_nothing() {
        let f = fixture();
        let (moves, threads, scratch) = run(&f, &[], 8, None);
        assert!(moves.is_empty());
        assert!(threads.is_empty(), "no worker ran");
        assert_eq!(scratch, 0, "no scratch allocated");
    }

    #[test]
    fn zero_threads_field_runs_on_the_caller() {
        // `with_threads` rejects 0, but the field is public.
        let f = fixture();
        let (reference, _, _) = run(&f, &f.windows, 1, None);
        let (moves, threads, scratch) = run(&f, &f.windows, 0, None);
        assert_eq!(moves, reference);
        assert_eq!(scratch, 1);
        assert_eq!(
            threads,
            [std::thread::current().id()],
            "every window solved on the caller"
        );
    }

    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let f = fixture();
        let (_, threads, _) = run(&f, &f.windows, 1, None);
        assert_eq!(
            threads,
            [std::thread::current().id()],
            "threads=1 runs on the caller"
        );
    }

    #[test]
    fn multi_thread_pool_spawns_and_joins_workers() {
        let f = fixture();
        assert!(f.windows.len() >= 3, "fixture needs three windows");
        let (reference, _, _) = run(&f, &f.windows, 1, None);
        let (moves, threads, scratch) = run(&f, &f.windows, 3, None);
        assert_eq!(moves, reference);
        assert_eq!(scratch, 3);
        // Three distinct workers, the caller among them, all joined by
        // the time `run_round` returns.
        assert_eq!(threads.len(), 3);
        assert!(threads.contains(&std::thread::current().id()));
        assert!((1..3).all(|i| !threads[..i].contains(&threads[i])));
    }

    #[test]
    fn permuted_claim_order_keeps_window_order() {
        let f = fixture();
        let (reference, _, _) = run(&f, &f.windows, 1, None);
        let mut shuffle = ClaimShuffle::new(3);
        for threads in [1, 3] {
            let order = shuffle.order(f.windows.len());
            let (moves, _, _) = run(&f, &f.windows, threads, Some(&order));
            assert_eq!(moves, reference, "threads={threads} order={order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn worker_panic_keeps_its_payload() {
        // Every claim indexes past the windows, on the caller and the
        // helper alike; the original panic message must survive.
        let f = fixture();
        let bad: Vec<usize> = vec![usize::MAX; f.windows.len()];
        let _ = run(&f, &f.windows, 2, Some(&bad));
    }

    #[test]
    fn adversary_stream_is_deterministic_per_round() {
        let orders = |seed| {
            let mut s = ClaimShuffle::new(seed);
            [s.order(23), s.order(23)]
        };
        let [first, second] = orders(42);
        assert_eq!(
            [first.clone(), second.clone()],
            orders(42),
            "same seed replays"
        );
        assert_ne!(first, second, "rounds draw distinct orders");
        assert_ne!(orders(42), orders(43), "seeds draw distinct streams");
        assert_ne!(ClaimShuffle::new(0).next(), 0, "seed 0 keeps a live state");
    }

    #[test]
    fn adversarial_distribution_covers_every_task_once() {
        for seed in 0..32u64 {
            let mut order = ClaimShuffle::new(seed).order(23);
            order.sort_unstable();
            assert_eq!(order, (0..23).collect::<Vec<_>>(), "seed {seed}");
        }
    }
}
