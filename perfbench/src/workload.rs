//! The three workloads. Each builds a suite of seeded designs and calls
//! the layers' public functions in the order `vm1dp gen` → `vm1dp opt`
//! or `expt_b` call them, with a benchmark span around each call.

use crate::cpu;
use crate::sink::BenchSink;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use vm1_core::{OptStats, Vm1Config, Vm1Optimizer};
use vm1_flow::{measure_with, Snapshot, Testcase};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::io::{read_def, write_def};
use vm1_netlist::Design;
use vm1_obs::MetricsHandle;
use vm1_place::{greedy_refine, place, PlaceConfig};
use vm1_route::{route, RouterConfig};
use vm1_tech::{CellArch, Library};
use vm1_timing::min_clock_period;

/// What a workload's timed part runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `vm1dp opt`: `read_def`, `Vm1Optimizer::run`, `write_def`.
    Opt,
    /// One Table-2 row of `expt_b`: `measure_with` (Init),
    /// `Vm1Optimizer::run`, `measure_with` (Final).
    Flow,
}

/// A workload: a suite of seeded designs and how each is optimized.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What the timed part runs.
    pub kind: Kind,
    /// Design profile of the generator.
    pub profile: DesignProfile,
    /// Cell architecture.
    pub arch: CellArch,
    /// Instance-count scale of each design relative to the paper's.
    pub scale: f64,
    /// Designs in the suite one run measures.
    pub designs: usize,
    /// Window-solver threads.
    pub threads: usize,
}

/// Every workload.
///
/// A run measures a suite of designs rather than one: the number of
/// Algorithm-1 iterations, and with it the work, jumps from design to
/// design, and a suite keeps the seed-to-seed spread of a run's totals
/// within the benchmark's bounds.
pub const WORKLOADS: [Workload; 3] = [
    // The DFS window solve is ~99 % of the time; the only workload whose
    // worker pool runs in parallel. No routing.
    Workload {
        name: "opt-aes-closedm1",
        kind: Kind::Opt,
        profile: DesignProfile::Aes,
        arch: CellArch::ClosedM1,
        scale: 0.025,
        designs: 22,
        threads: 2,
    },
    // The same solver on the OpenM1 overlap objective (Eq. 10), with the
    // pool inline. Runnable on demand; `BENCHMARK.json` leaves it out
    // because the benchmark's run-time budget has room for two workloads.
    Workload {
        name: "opt-m0-openm1",
        kind: Kind::Opt,
        profile: DesignProfile::M0,
        arch: CellArch::OpenM1,
        scale: 0.025,
        designs: 5,
        threads: 1,
    },
    // One Table-2 row per design: the only workload that routes, runs
    // STA and power, and reports routed quality.
    Workload {
        name: "flow-m0-closedm1",
        kind: Kind::Flow,
        profile: DesignProfile::M0,
        arch: CellArch::ClosedM1,
        scale: 0.02,
        designs: 24,
        threads: 1,
    },
];

/// Core utilization of Table-2 testcases (`FlowConfig::new`).
const FLOW_UTILIZATION: f64 = 0.75;

/// Clock margin over the minimum period (`build_testcase`).
const CLOCK_MARGIN: f64 = 1.02;

/// Seed stride between the designs of a suite: design `i` of the run
/// seeded `seed` uses `seed + i * DESIGN_SEED_STRIDE`, so design 0 is the
/// run's own seed and the suites of small seeds never share a design.
pub const DESIGN_SEED_STRIDE: u64 = 1_000_003;

/// Seed of design `i` of the suite of the run seeded `seed`.
#[must_use]
pub fn design_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(DESIGN_SEED_STRIDE))
}

/// The workload named `name`.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The result of a workload's set-up: the design its timed part starts
/// from.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The placed, refined design.
    pub design: Design,
    /// `write_def` of `design` (the `opt-*` timed part reads it back).
    pub def_text: String,
    /// Calibrated clock period (ps) of the flow's timing and power
    /// analysis (0 for the `opt-*` workloads, which analyze nothing).
    pub clock_ps: f64,
}

/// Routed quality of a placement, as Table 2 reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Routed wirelength, µm.
    pub rwl_um: f64,
    /// Direct vertical M1 routes.
    pub dm1: usize,
    /// M1–M2 vias.
    pub via12: usize,
    /// Design-rule-violation proxy.
    pub drvs: usize,
    /// Total power, mW.
    pub power_mw: f64,
    /// Subnets the router could not connect.
    pub unrouted: usize,
}

impl Quality {
    fn of(snap: &Snapshot, unrouted: usize) -> Quality {
        Quality {
            rwl_um: snap.rwl.to_um(),
            dm1: snap.dm1,
            via12: snap.via12,
            drvs: snap.drvs,
            power_mw: snap.power_mw,
            unrouted,
        }
    }
}

/// One timed run of a workload.
#[derive(Debug)]
pub struct RunOutput {
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// CPU time of the timed part, every thread of the process, seconds.
    pub cpu_s: f64,
    /// The optimized design.
    pub design: Design,
    /// `Vm1Optimizer::run` statistics.
    pub stats: OptStats,
    /// Routed quality before and after optimization (`Flow` only).
    pub quality: Option<(Quality, Quality)>,
}

impl Workload {
    /// The optimizer configuration: the paper's, at `threads` threads.
    #[must_use]
    pub fn config(&self, threads: usize) -> Vm1Config {
        let cfg = match self.arch {
            CellArch::OpenM1 => Vm1Config::openm1(),
            _ => Vm1Config::closedm1(),
        };
        cfg.with_threads(threads)
    }

    /// Builds the design: `vm1dp gen` for the `opt-*` workloads,
    /// `build_testcase` (gen, place, refine, calibration route, clock)
    /// for the flow.
    ///
    /// # Panics
    ///
    /// Panics if the generated netlist has a combinational loop or the
    /// placer leaves an illegal placement; neither can happen for the
    /// levelized generator and the legalizing placer.
    #[must_use]
    pub fn setup(&self, seed: u64, scale: f64, tr: &Tracer) -> Prepared {
        let lib = Library::synthetic_7nm(self.arch);
        let mut gen = GeneratorConfig::profile(self.profile).with_scale(scale);
        if self.kind == Kind::Flow {
            gen = gen.with_utilization(FLOW_UTILIZATION);
        }
        let mut design = tr.span("netlist.gen", || gen.generate(&lib, seed));
        tr.span("place.place", || {
            place(&mut design, &PlaceConfig::default(), seed);
        });
        let _refine = tr.span("place.refine", || greedy_refine(&mut design, 3, 2));
        design
            .validate_placement()
            .expect("placer leaves a legal placement");
        let clock_ps = match self.kind {
            Kind::Flow => {
                let r = tr.span("route.calibrate", || {
                    route(&design, &RouterConfig::default())
                });
                tr.span("timing.clock", || min_clock_period(&design, Some(&r)))
                    .expect("generated netlists are acyclic")
                    * CLOCK_MARGIN
            }
            Kind::Opt => 0.0,
        };
        let def_text = tr.span("netlist.def_write", || write_def(&design));
        Prepared {
            design,
            def_text,
            clock_ps,
        }
    }

    /// Runs the timed part once.
    ///
    /// # Panics
    ///
    /// Panics if the DEF the set-up wrote does not read back or the
    /// process CPU clock cannot be read.
    pub fn run(
        &self,
        prep: &Prepared,
        cfg: &Vm1Config,
        sink: &Arc<BenchSink>,
        tr: &Tracer,
    ) -> RunOutput {
        match self.kind {
            Kind::Opt => {
                let lib = prep.design.library();
                let (start, cpu0) = (Instant::now(), cpu::process_s());
                let (design, stats) = tr.span("iteration", || {
                    let mut design = tr
                        .span("netlist.def_read", || read_def(&prep.def_text, lib))
                        .expect("the set-up's DEF reads back");
                    let stats = tr.span("core.run", || {
                        Vm1Optimizer::new(cfg.clone())
                            .with_metrics(sink.clone())
                            .run(&mut design)
                    });
                    let text = tr.span("netlist.def_write", || write_def(&design));
                    std::hint::black_box(text);
                    (design, stats)
                });
                RunOutput {
                    wall_s: start.elapsed().as_secs_f64(),
                    cpu_s: cpu::process_s() - cpu0,
                    design,
                    stats,
                    quality: None,
                }
            }
            Kind::Flow => {
                let mut tc = Testcase {
                    design: prep.design.clone(),
                    clock_ps: prep.clock_ps,
                    router: RouterConfig::default(),
                };
                let metrics = MetricsHandle::of(sink.clone());
                let (start, cpu0) = (Instant::now(), cpu::process_s());
                let (stats, init, fin) = tr.span("iteration", || {
                    let (init, r) =
                        tr.span("flow.measure_init", || measure_with(&tc, cfg, &metrics));
                    let init = Quality::of(&init, r.metrics.unrouted);
                    let stats = tr.span("core.run", || {
                        Vm1Optimizer::new(cfg.clone())
                            .with_metrics(sink.clone())
                            .run(&mut tc.design)
                    });
                    let (fin, r) =
                        tr.span("flow.measure_final", || measure_with(&tc, cfg, &metrics));
                    (stats, init, Quality::of(&fin, r.metrics.unrouted))
                });
                RunOutput {
                    wall_s: start.elapsed().as_secs_f64(),
                    cpu_s: cpu::process_s() - cpu0,
                    design: tc.design,
                    stats,
                    quality: Some((init, fin)),
                }
            }
        }
    }
}
