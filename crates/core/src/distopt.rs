//! Algorithm 2 — `DistOpt`: distributable window optimization.
//!
//! The layout is partitioned into windows (shifted by `(tx, ty)`); the
//! diagonal sets of [`crate::window::WindowGrid::diagonal_sets`] are
//! processed one after another, and the windows *within* a set are solved
//! in parallel on scoped threads by [`crate::sched::run_round`] (their
//! projections are disjoint, so window-local ΔHPWL is exact — Figure 4b).
//! Windows holding more movable cells than `max_cells_per_milp` are
//! solved in sequential batches with earlier batches fixed (the
//! documented CPLEX-scale substitution, DESIGN.md §5).
//!
//! Occupancy is maintained incrementally: the [`RowMap`] is built once
//! per pass and patched with the committed moves after every round (see
//! [`vm1_place::RowMap::patch_moves`]), so round setup cost scales with
//! what changed instead of with design size.

use crate::problem::{Candidate, Overrides, SolveScratch, WindowProblem};
use crate::sched::{run_round, ClaimShuffle, Round};
use crate::solver::solve_window_with;
use crate::window::{Window, WindowGrid};
use crate::Vm1Config;
use std::collections::HashSet;
use vm1_netlist::{Design, InstId};
use vm1_obs::{Counter, MetricsHandle, MetricsReport, SchedGauge, Stage};
use vm1_place::{RowMap, SpanMove};

/// Cache for the smart window selection: remembers problem-state digests
/// whose (deterministic) solve produced no improvement, so re-solving an
/// unchanged window is skipped. Sound because
/// [`WindowProblem::state_digest`] covers everything a solver observes.
///
/// Round workers only read the cache; the committing thread inserts the
/// digests a round reports (see [`WindowOutcome::no_gain`]).
#[derive(Clone, Debug, Default)]
pub struct SolveCache {
    no_gain: HashSet<u64>,
}

impl SolveCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> SolveCache {
        SolveCache::default()
    }

    /// Number of remembered no-gain states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.no_gain.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parameters of one `DistOpt` call (Algorithm 2's arguments).
#[derive(Clone, Copy, Debug)]
pub struct DistOptParams {
    /// Window-grid x shift, in sites.
    pub tx: i64,
    /// Window-grid y shift, in rows.
    pub ty: i64,
    /// Window width in sites.
    pub bw_sites: i64,
    /// Window height in rows.
    pub bh_rows: i64,
    /// Max x displacement in sites (`l_x`).
    pub lx: i64,
    /// Max y displacement in rows (`l_y`).
    pub ly: i64,
    /// Whether flipping is allowed (`f`).
    pub flip: bool,
}

/// Statistics of one `DistOpt` call — a *view* over the telemetry
/// counters recorded during the pass (see [`DistOptStats::from_report`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use = "dropping pass statistics usually means a result went unchecked"]
pub struct DistOptStats {
    /// Windows whose solve produced at least one cell move or flip.
    pub windows: usize,
    /// Total cells moved or flipped.
    pub cells_changed: usize,
    /// Parallel rounds executed (= number of diagonal sets).
    pub rounds: usize,
    /// Window batches skipped by the smart selection cache.
    pub batches_skipped: usize,
}

impl DistOptStats {
    /// Builds the stats view from recorded telemetry counters.
    pub fn from_report(r: &MetricsReport) -> DistOptStats {
        DistOptStats {
            windows: r.counter(Counter::WindowsImproved) as usize,
            cells_changed: r.counter(Counter::CellsChanged) as usize,
            rounds: r.counter(Counter::DistOptRounds) as usize,
            batches_skipped: r.counter(Counter::BatchCacheHits) as usize,
        }
    }
}

/// Algorithm 2 proper: one pass over the shifted window grid, committed
/// into `design` round by round. All accounting goes through `metrics`;
/// callers wanting a [`DistOptStats`] attach a [`vm1_obs::Telemetry`]
/// sink and build the view from its report. `scratch` holds one solver
/// scratch per round worker, reused across rounds and passes; `shuffle`
/// permutes each round's claim order (schedule-permutation tests only).
pub(crate) fn dist_opt_impl(
    design: &mut Design,
    p: &DistOptParams,
    cfg: &Vm1Config,
    mut cache: Option<&mut SolveCache>,
    metrics: &MetricsHandle,
    scratch: &mut Vec<SolveScratch>,
    mut shuffle: Option<&mut ClaimShuffle>,
) {
    let grid = WindowGrid::partition(design, p.tx, p.ty, p.bw_sites, p.bh_rows);
    let sets = grid.diagonal_sets();
    metrics.incr(Counter::DistOptPasses);
    metrics.add(Counter::DistOptRounds, sets.len() as u64);

    // Build occupancy once per pass; rounds patch it incrementally.
    let mut rowmap = RowMap::build(design);
    metrics.incr(Counter::RowMapBuilds);

    for set in &sets {
        let windows: Vec<Window> = set.iter().map(|&i| grid.windows[i]).collect();
        metrics.record_gauge(SchedGauge::QueueHighWater, windows.len() as u64);
        let order = shuffle.as_deref_mut().map(|s| s.order(windows.len()));
        let outcomes = run_round(
            &Round {
                design,
                rowmap: &rowmap,
                windows: &windows,
                p,
                cfg,
                cache: cache.as_deref(),
                metrics,
                order: order.as_deref(),
            },
            scratch,
        );

        // Commit in window-index order on this single thread; every
        // deterministic counter is emitted here.
        let mut span_moves: Vec<SpanMove> = Vec::new();
        for outcome in outcomes {
            if outcome.visited {
                metrics.incr(Counter::WindowsVisited);
            }
            metrics.add(Counter::BatchCacheHits, outcome.batches_skipped as u64);
            metrics.add(Counter::BatchesSolved, outcome.batches_solved as u64);
            if let Some(c) = cache.as_deref_mut() {
                c.no_gain.extend(outcome.no_gain);
            }
            if !outcome.moves.is_empty() {
                metrics.incr(Counter::WindowsImproved);
            }
            for (inst, cand) in outcome.moves {
                let (site, row, orient) = {
                    let i = design.inst(inst);
                    (i.site, i.row, i.orient)
                };
                if (site, row, orient) == (cand.site, cand.row, cand.orient) {
                    continue; // solvers record only real changes; guard anyway
                }
                metrics.incr(Counter::CellsChanged);
                if (site, row) != (cand.site, cand.row) {
                    // Flips keep their span; only positional moves
                    // patch the occupancy index.
                    let w = design.library().cell(design.inst(inst).cell).width_sites;
                    span_moves.push(SpanMove {
                        inst,
                        old_row: row,
                        new_row: cand.row,
                        new_start: cand.site,
                        new_end: cand.site + w,
                    });
                }
                design.move_inst(inst, cand.site, cand.row, cand.orient);
            }
        }
        if !span_moves.is_empty() {
            let patched = rowmap.patch_moves(&span_moves);
            metrics.add(Counter::RowMapRowsPatched, patched as u64);
        }
        debug_assert!(
            rowmap.consistent_with(design),
            "incremental occupancy diverged from the placement"
        );
    }

    debug_assert!(
        design.validate_placement().is_ok(),
        "DistOpt produced an illegal placement"
    );
}

/// What happened inside one window.
pub(crate) struct WindowOutcome {
    /// Moves to commit: only cells whose placement actually changed
    /// (unchanged candidates of a changed batch are *not* recorded — they
    /// are not moves, and recording them would churn occupancy and break
    /// incremental `RowMap` patching).
    pub(crate) moves: Vec<(InstId, Candidate)>,
    /// Whether the window contained any movable cell.
    pub(crate) visited: bool,
    /// Batches handed to a window solver.
    pub(crate) batches_solved: usize,
    /// Batches skipped by the smart-selection cache.
    pub(crate) batches_skipped: usize,
    /// State digests of batches solved without gain, for the committing
    /// thread to insert into the cache. A round can never hit its own
    /// digests (they cover the window position and the batch's cells),
    /// so deferring the inserts changes no result.
    pub(crate) no_gain: Vec<u64>,
}

/// Solves one window (with batching); returns the moves to commit plus
/// batch accounting for the metrics layer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_one_window(
    design: &Design,
    rowmap: &RowMap,
    win: Window,
    p: &DistOptParams,
    cfg: &Vm1Config,
    cache: Option<&SolveCache>,
    metrics: &MetricsHandle,
    scratch: &mut SolveScratch,
) -> WindowOutcome {
    let mut overrides = Overrides::new();
    WindowProblem::movable_in_window_into(design, rowmap, &win, &overrides, scratch);
    // Take the buffer out so `scratch` stays available for the per-batch
    // problem construction; returned before exit to keep its capacity.
    let movable = std::mem::take(&mut scratch.movable);
    let mut outcome = WindowOutcome {
        moves: Vec::new(),
        visited: !movable.is_empty(),
        batches_solved: 0,
        batches_skipped: 0,
        no_gain: Vec::new(),
    };
    for batch in movable.chunks(cfg.max_cells_per_milp.max(1)) {
        let prob = WindowProblem::build_with_scratch(
            design, rowmap, win, batch, p.lx, p.ly, p.flip, cfg, &overrides, scratch,
        );
        let digest = prob.state_digest();
        if cache.is_some_and(|c| c.no_gain.contains(&digest)) {
            outcome.batches_skipped += 1;
            continue; // identical state solved before with no gain
        }
        outcome.batches_solved += 1;
        let assign = metrics.timed(Stage::WindowSolve, || {
            solve_window_with(&prob, cfg, metrics)
        });
        if assign == prob.current_assign() {
            if cache.is_some() {
                outcome.no_gain.push(digest);
            }
            continue;
        }
        for (cell, &k) in prob.cells.iter().zip(&assign) {
            if k == cell.current {
                continue; // cell kept its placement — not a move
            }
            let cand = cell.cands[k];
            overrides.insert(cell.inst, cand);
            outcome.moves.push((cell.inst, cand));
        }
    }
    scratch.movable = movable;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculate_obj;
    use crate::session::Vm1Optimizer;
    use std::sync::Arc;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_obs::Telemetry;
    use vm1_place::{place, PlaceConfig};
    use vm1_tech::{CellArch, Library};

    fn setup(arch: CellArch, n: usize, seed: u64) -> (Design, Vm1Config) {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let cfg = if arch == CellArch::OpenM1 {
            Vm1Config::openm1()
        } else {
            Vm1Config::closedm1()
        };
        (d, cfg)
    }

    /// One uncached pass through the session API.
    fn pass(d: &mut Design, p: &DistOptParams, cfg: &Vm1Config) -> DistOptStats {
        Vm1Optimizer::new(cfg.clone())
            .without_cache()
            .run_pass(d, p)
    }

    fn params(d: &Design) -> DistOptParams {
        DistOptParams {
            tx: 0,
            ty: 0,
            bw_sites: (d.sites_per_row / 3).max(10),
            bh_rows: (d.num_rows / 3).max(2),
            lx: 3,
            ly: 1,
            flip: false,
        }
    }

    #[test]
    fn distopt_improves_objective_and_stays_legal() {
        let (mut d, cfg) = setup(CellArch::ClosedM1, 250, 1);
        let before = calculate_obj(&d, &cfg);
        let p = params(&d);
        let stats = pass(&mut d, &p, &cfg);
        let after = calculate_obj(&d, &cfg);
        d.validate_placement().expect("legal after DistOpt");
        assert!(after.value <= before.value + 1e-6);
        assert!(stats.windows > 0);
        assert!(stats.rounds > 0);
        // The optimizer's purpose: more alignments.
        assert!(after.alignments >= before.alignments);
    }

    #[test]
    fn distopt_openm1_improves_overlaps() {
        let (mut d, cfg) = setup(CellArch::OpenM1, 250, 2);
        let before = calculate_obj(&d, &cfg);
        let p = params(&d);
        let _ = pass(&mut d, &p, &cfg);
        let after = calculate_obj(&d, &cfg);
        d.validate_placement().unwrap();
        assert!(after.value <= before.value + 1e-6);
        assert!(after.alignments >= before.alignments);
    }

    #[test]
    fn flip_only_pass_preserves_positions() {
        let (mut d, cfg) = setup(CellArch::ClosedM1, 200, 3);
        let positions: Vec<(i64, i64)> = d.insts().map(|(_, i)| (i.site, i.row)).collect();
        let p = DistOptParams {
            lx: 0,
            ly: 0,
            flip: true,
            ..params(&d)
        };
        let _ = pass(&mut d, &p, &cfg);
        for ((_, inst), before) in d.insts().zip(positions) {
            assert_eq!((inst.site, inst.row), before, "flip-only must not move");
        }
        d.validate_placement().unwrap();
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut d1, cfg) = setup(CellArch::ClosedM1, 200, 4);
        let (mut d2, _) = setup(CellArch::ClosedM1, 200, 4);
        let p1 = params(&d1);
        let p2 = params(&d2);
        let t1 = Arc::new(Telemetry::new());
        let t2 = Arc::new(Telemetry::new());
        let mut scratch = Vec::new();
        let m1 = MetricsHandle::of(t1.clone());
        dist_opt_impl(&mut d1, &p1, &cfg, None, &m1, &mut scratch, None);
        let m2 = MetricsHandle::of(t2.clone());
        dist_opt_impl(&mut d2, &p2, &cfg, None, &m2, &mut scratch, None);
        for ((_, a), (_, b)) in d1.insts().zip(d2.insts()) {
            assert_eq!((a.site, a.row, a.orient), (b.site, b.row, b.orient));
        }
        // Counters track algorithmic events only, so a repeated run must
        // reproduce every one of them exactly (stage *times* may differ).
        let (r1, r2) = (t1.report(), t2.report());
        for c in Counter::ALL {
            assert_eq!(r1.counter(c), r2.counter(c), "counter {}", c.name());
        }
        assert!(r1.counter(Counter::BatchesSolved) > 0);
        assert!(r1.counter(Counter::DfsNodes) > 0, "default solver is DFS");
        assert!(r1.counter(Counter::RowMapBuilds) > 0);
    }

    #[test]
    fn thread_counts_bit_identical() {
        // Placements AND counters must be invariant under the thread
        // count (the round's determinism contract).
        type Snapshot = (Vec<(i64, i64, bool)>, Vec<u64>);
        let mut reference: Option<Snapshot> = None;
        for threads in [1, 4] {
            let (mut d, cfg) = setup(CellArch::ClosedM1, 200, 6);
            let cfg = cfg.with_threads(threads);
            let p = params(&d);
            let t = Arc::new(Telemetry::new());
            let m = MetricsHandle::of(t.clone());
            dist_opt_impl(&mut d, &p, &cfg, None, &m, &mut Vec::new(), None);
            let placement: Vec<(i64, i64, bool)> = d
                .insts()
                .map(|(_, i)| (i.site, i.row, i.orient.is_flipped()))
                .collect();
            let r = t.report();
            let counters: Vec<u64> = Counter::ALL.iter().map(|&c| r.counter(c)).collect();
            match &reference {
                None => reference = Some((placement, counters)),
                Some((p0, c0)) => {
                    assert_eq!(&placement, p0, "threads={threads}");
                    assert_eq!(&counters, c0, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn outcome_moves_are_real_changes() {
        // Regression: `solve_one_window` used to record every cell of a
        // changed batch as a move, including cells that kept their
        // placement. Every recorded move must differ from the design.
        let (d, cfg) = setup(CellArch::ClosedM1, 250, 7);
        let p = params(&d);
        let rm = RowMap::build(&d);
        let grid = WindowGrid::partition(&d, p.tx, p.ty, p.bw_sites, p.bh_rows);
        let metrics = MetricsHandle::disabled();
        let mut scratch = SolveScratch::new();
        let mut moves_seen = 0usize;
        for &win in &grid.windows {
            let out = solve_one_window(&d, &rm, win, &p, &cfg, None, &metrics, &mut scratch);
            for (inst, cand) in &out.moves {
                let i = d.inst(*inst);
                assert_ne!(
                    (i.site, i.row, i.orient),
                    (cand.site, cand.row, cand.orient),
                    "recorded move must change the placement"
                );
                moves_seen += 1;
            }
        }
        assert!(moves_seen > 0, "test design must produce some moves");
    }

    #[test]
    fn hpwl_cannot_explode() {
        // With α = 0 the optimizer is purely HPWL-driven and must not make
        // wirelength worse.
        let (mut d, cfg) = setup(CellArch::ClosedM1, 200, 5);
        let cfg = cfg.with_alpha(0.0);
        let before = d.total_hpwl();
        let p = params(&d);
        let _ = pass(&mut d, &p, &cfg);
        assert!(d.total_hpwl() <= before);
    }
}
