//! Benchmark of the vm1dp vertical-M1 detailed placer, end to end and
//! per layer.
//!
//! A run measures a suite of designs generated from `--seed` (see
//! [`workload`]). It sets the suite up (`setup_s` is the median CPU
//! time of one set-up of the whole suite), runs the timed part of each
//! design once per pass (`cpu_s` sums, over the designs, the median CPU
//! time of each design's timed part), passes every run through the
//! correctness [`gate`], and prints one JSON result line. Both times are
//! scaled to a nominal host speed by a reference computation run between
//! them; [`cpu`] says why.
//! With `--trace 1` it times design 0 untraced, then makes one traced
//! pass and reports per-layer figures instead (see [`trace`]); the
//! tracing overhead is design 0's traced wall time minus its untraced
//! wall time.
//!
//! An operation is one solved window batch; it fails when its run failed
//! the gate. Batches whose DFS solve stopped at the node cap are not
//! failures but unproven work, reported as `unproven_share`.

pub mod cpu;
pub mod gate;
pub mod sink;
pub mod trace;
pub mod workload;

use gate::Gate;
use sink::{BenchSink, Work};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{analyze, Analysis, Trace, Tracer};
use vm1_core::Vm1Config;
use vm1_obs::{Counter, GaugeAgg, SchedGauge, Stage};
use workload::{design_seed, Prepared, Quality, Workload};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 7;

/// Least set-ups of the suite per untraced run; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

/// An untraced run keeps setting the suite up until this much time has
/// passed (and [`SETUPS`] set-ups are done), so fast set-ups get a
/// steady median.
pub const SETUP_MIN_S: f64 = 1.0;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated design.
    pub seed: u64,
    /// How long to repeat the timed part.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Scale of each design (defaults to the workload's).
    pub scale: f64,
    /// Designs in the suite (defaults to the workload's).
    pub designs: usize,
    /// Window-solver threads (defaults to the workload's).
    pub threads: usize,
    /// Where the traced run writes its trace file (none: not written).
    pub trace_dir: Option<PathBuf>,
}

impl Args {
    /// Arguments for `workload` with every option at its default.
    #[must_use]
    pub fn new(workload: Workload) -> Args {
        Args {
            workload,
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
            scale: workload.scale,
            designs: workload.designs,
            threads: workload.threads,
            trace_dir: None,
        }
    }

    /// Parses `--workload NAME [--seed N] [--seconds S] [--trace 0|1]
    /// [--scale F] [--designs N] [--threads N]`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a bad value or a missing
    /// `--workload`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        if argv.len() % 2 == 1 {
            return Err("every flag needs a value".into());
        }
        let pairs: Vec<(&str, &str)> = argv
            .chunks(2)
            .map(|p| (p[0].as_str(), p[1].as_str()))
            .collect();
        let name = pairs
            .iter()
            .find(|(flag, _)| *flag == "--workload")
            .ok_or("--workload is required")?
            .1;
        let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let mut args = Args::new(workload);
        for (flag, val) in pairs {
            match flag {
                "--workload" => {}
                "--seed" => args.seed = value(flag, val)?,
                "--seconds" => args.seconds = value(flag, val)?,
                "--trace" => {
                    args.trace = match val {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for {flag}: {val}")),
                    }
                }
                "--scale" => args.scale = value(flag, val)?,
                "--designs" => args.designs = value(flag, val)?,
                "--threads" => args.threads = value(flag, val)?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.scale.is_nan() || args.scale <= 0.0 || args.designs == 0 || args.threads == 0 {
            return Err("--scale, --designs and --threads must be positive".into());
        }
        Ok(args)
    }
}

fn value<T: std::str::FromStr>(flag: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("bad value for {flag}: {val}"))
}

/// One named metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one benchmark run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Whether every repetition passed the gate.
    pub correct: bool,
    /// Window batches solved over every measured repetition.
    pub attempted: u64,
    /// Batches of the repetitions that failed the gate (all of them when
    /// a set-up failed it).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Gate findings.
    pub failures: Vec<String>,
    /// Per design of the suite, from its first untraced pass (from the
    /// traced pass in a traced run).
    pub designs: Vec<DesignResult>,
    /// Named layers by share of the traced repetition's wall time.
    pub layers: Vec<(&'static str, f64)>,
    /// Provenance as one JSON object.
    pub provenance: String,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `v` (`q` in 0..=1).
fn percentile(v: &[u64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `rustc --version` of the toolchain on `PATH`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The commit being measured: `BENCH_GIT_REV` if set, else the `HEAD` of
/// a `.git` directory in the working directory, else `unknown`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("BENCH_GIT_REV") {
        return rev;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|mt| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(mt.name),
                    json_num(mt.value),
                    json_str(mt.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|mt| mt.name == name)
            .map(|mt| mt.value)
    }
}

/// What one design of the suite computed in its first measured run.
#[derive(Clone, Debug)]
pub struct DesignResult {
    /// Generator and placer seed of the design.
    pub seed: u64,
    /// Deterministic counter vector.
    pub work: Work,
    /// Placement digest of the optimized design.
    pub digest: u64,
    /// Batches stopped at the DFS node cap.
    pub capped: u64,
    /// Final objective (1)/(10), nm.
    pub objective: f64,
    /// Final Σ d_pq.
    pub alignments: usize,
    /// Final HPWL, µm.
    pub hpwl_um: f64,
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// CPU time of the timed part, seconds.
    pub cpu_s: f64,
    /// Routed quality at Init and Final (flow only).
    pub quality: Option<(Quality, Quality)>,
}

/// One benchmark run: its arguments, the gate, and totals over every
/// measured run of a design.
struct Runner<'a> {
    args: &'a Args,
    cfg: Vm1Config,
    gate: Gate,
    /// Wall time of each untraced pass over the suite.
    pass_walls: Vec<f64>,
    /// Per design, the CPU time of each of its untraced runs, at the
    /// nominal host speed.
    cpu_s: Vec<Vec<f64>>,
    /// Time of every reference run ([`cpu::reference_s`]).
    refs: Vec<f64>,
    attempted: u64,
    capped: u64,
    /// Batches of the runs that failed the gate.
    failed: u64,
    /// Per design, from the first pass.
    designs: Vec<DesignResult>,
}

impl Runner<'_> {
    /// Sets the suite up. An untraced run repeats the set-up until it has
    /// done [`SETUPS`] and [`SETUP_MIN_S`] have passed; a traced run sets
    /// up once. Returns the suite and the CPU time of each set-up of the
    /// whole suite at the nominal host speed (set-up runs on the calling
    /// thread alone).
    fn set_up(&mut self, tracer: &Tracer) -> (Vec<Prepared>, Vec<f64>) {
        let (args, wl) = (self.args, self.args.workload);
        let mut setup_s = Vec::new();
        let start = Instant::now();
        let mut before = self.reference(1);
        loop {
            let cpu0 = cpu::thread_s();
            let suite: Vec<Prepared> = (0..args.designs)
                .map(|i| {
                    let p = tracer.span("setup", || {
                        wl.setup(design_seed(args.seed, i), args.scale, tracer)
                    });
                    self.gate.check_setup(i, &p.def_text);
                    p
                })
                .collect();
            let cpu_s = cpu::thread_s() - cpu0;
            let after = self.reference(1);
            setup_s.push(cpu::at_nominal_speed(cpu_s, before, after));
            before = after;
            let enough = setup_s.len() >= SETUPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S;
            if args.trace || enough {
                return (suite, setup_s);
            }
        }
    }

    /// Runs the host-speed reference on `threads` threads and records
    /// its time.
    fn reference(&mut self, threads: usize) -> f64 {
        let t = cpu::reference_s(threads);
        self.refs.push(t);
        t
    }

    /// Runs design `i` once, gates it and counts its batches.
    fn measure(
        &mut self,
        pass: &str,
        i: usize,
        prep: &Prepared,
        sink: &Arc<BenchSink>,
        tracer: &Tracer,
    ) -> DesignResult {
        let out = self.args.workload.run(prep, &self.cfg, sink, tracer);
        let work = sink.work();
        let findings = self.gate.failures().len();
        let digest = self.gate.check_run(
            i,
            &format!("{pass} design {i}"),
            &out.design,
            &self.cfg,
            work,
        );
        let batches = sink.counter(Counter::BatchesSolved);
        self.attempted += batches;
        self.capped += sink.capped_batches();
        if self.gate.failures().len() > findings {
            self.failed += batches;
        }
        DesignResult {
            seed: design_seed(self.args.seed, i),
            work,
            digest,
            capped: sink.capped_batches(),
            objective: out.stats.final_obj,
            alignments: out.stats.final_alignments,
            hpwl_um: out.stats.final_hpwl as f64 / 1e3,
            wall_s: out.wall_s,
            cpu_s: out.cpu_s,
            quality: out.quality,
        }
    }

    /// Untraced passes over the suite: one in a traced run; otherwise at
    /// least one, and more while the next one is expected to end within
    /// `args.seconds`.
    fn untraced_passes(&mut self, suite: &[Prepared]) {
        let start = Instant::now();
        let mut before = self.reference(self.args.threads);
        loop {
            let pass_start = Instant::now();
            let pass = format!("pass {}", self.pass_walls.len() + 1);
            let mut wall = 0.0;
            for (i, prep) in suite.iter().enumerate() {
                let sink = Arc::new(BenchSink::new(self.cfg.max_nodes, None));
                let r = self.measure(&pass, i, prep, &sink, &Tracer::off());
                wall += r.wall_s;
                let after = self.reference(self.args.threads);
                if self.cpu_s.len() <= i {
                    self.cpu_s.push(Vec::new());
                }
                self.cpu_s[i].push(cpu::at_nominal_speed(r.cpu_s, before, after));
                before = after;
                if self.pass_walls.is_empty() {
                    self.designs.push(r);
                }
            }
            self.pass_walls.push(wall);
            let projected = start.elapsed().as_secs_f64() + pass_start.elapsed().as_secs_f64();
            if self.args.trace || projected > self.args.seconds {
                return;
            }
        }
    }
}

/// Runs the benchmark as `args` says.
///
/// # Panics
///
/// Panics if a set-up or a timed part panics (see [`Workload::setup`]
/// and [`Workload::run`]), or a CPU clock cannot be read.
#[must_use]
pub fn run(args: &Args) -> Report {
    let mut r = Runner {
        args,
        cfg: args.workload.config(args.threads),
        gate: Gate::new(),
        pass_walls: Vec::new(),
        cpu_s: Vec::new(),
        refs: Vec::new(),
        attempted: 0,
        capped: 0,
        failed: 0,
        designs: Vec::new(),
    };
    let steal0 = cpu::steal_s();
    let trace = args.trace.then(|| Arc::new(Trace::new()));
    let (suite, setup_s) = r.set_up(&trace.clone().map_or_else(Tracer::off, Tracer::on));
    let setup_ok = r.gate.passed();
    // A traced run times only design 0 untraced, as the reference for
    // the tracing overhead.
    r.untraced_passes(if args.trace { &suite[..1] } else { &suite });
    let wall_s = median(&r.pass_walls);
    let traced = trace
        .as_ref()
        .map(|t| traced_pass(&mut r, &suite, t, wall_s));

    let correct = r.gate.passed();
    // A set-up that fails the gate spoils every run made from it.
    let failed = if setup_ok { r.failed } else { r.attempted };
    let (metrics, analysis) = match traced {
        Some((metrics, an)) => (metrics, Some(an)),
        None => {
            let sum = |f: fn(&DesignResult) -> f64| r.designs.iter().map(f).sum::<f64>();
            let cpu_s = r.cpu_s.iter().map(|runs| median(runs)).sum::<f64>();
            let metrics = vec![
                m("cpu_s", cpu_s, "s"),
                m("setup_s", median(&setup_s), "s"),
                m("peak_rss_mb", peak_rss_mb(), "MiB"),
                m("objective", sum(|d| d.objective), "nm"),
                m("alignments", sum(|d| d.alignments as f64), "count"),
                m("hpwl_um", sum(|d| d.hpwl_um), "um"),
                m(
                    "unproven_share",
                    ratio(r.capped as f64, r.attempted as f64),
                    "share",
                ),
            ];
            (metrics, None)
        }
    };

    let mut report = Report {
        correct,
        attempted: r.attempted.max(1),
        failed,
        metrics,
        failures: r.gate.failures().to_vec(),
        designs: std::mem::take(&mut r.designs),
        layers: analysis
            .as_ref()
            .map(Analysis::layers_by_share)
            .unwrap_or_default(),
        provenance: String::new(),
    };
    let steal_s = cpu::steal_s() - steal0;
    report.provenance = provenance(args, &report, &r, &setup_s, steal_s);
    if let (Some(trace), Some(an), Some(dir)) = (&trace, &analysis, &args.trace_dir) {
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name, args.seed
        ));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, trace.to_chrome_json(&an.spans, &report.provenance))
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    report
}

/// The traced `iteration` spans (one per design of the traced pass).
fn iterations(trace: &Trace) -> Vec<trace::Span> {
    trace
        .spans()
        .into_iter()
        .filter(|s| s.name == "iteration")
        .collect()
}

/// The traced pass over the suite and the per-layer metrics derived
/// from it.
fn traced_pass(
    r: &mut Runner<'_>,
    suite: &[Prepared],
    trace: &Arc<Trace>,
    untraced_design0_s: f64,
) -> (Vec<Metric>, Analysis) {
    let (args, max_nodes) = (r.args, r.cfg.max_nodes);
    let tracer = Tracer::on(trace.clone());
    let sinks: Vec<Arc<BenchSink>> = suite
        .iter()
        .map(|_| Arc::new(BenchSink::new(max_nodes, Some(trace.clone()))))
        .collect();
    let traced: Vec<DesignResult> = suite
        .iter()
        .zip(&sinks)
        .enumerate()
        .map(|(i, (prep, sink))| r.measure("traced", i, prep, sink, &tracer))
        .collect();
    // Suite totals of the sinks' counters, stage times and gauges.
    let c = |ctr: Counter| sinks.iter().map(|s| s.counter(ctr) as f64).sum::<f64>();
    let stage_s = |st: Stage| sinks.iter().map(|s| s.stage_s(st)).sum::<f64>();
    let gauge = |g: SchedGauge| match g.agg() {
        GaugeAgg::Sum => sinks.iter().map(|s| s.gauge(g)).sum::<u64>(),
        GaugeAgg::Max => sinks.iter().map(|s| s.gauge(g)).max().unwrap_or(0),
    } as f64;

    let its = iterations(trace);
    let an = its
        .iter()
        .map(|&it| analyze(trace, it))
        .fold(Analysis::default(), Analysis::merge);
    let in_iterations = |t: u64| its.iter().any(|it| t >= it.start_ns && t <= it.end_ns);
    // The flow routes twice per design (Init, Final); `Route` times
    // arrive in that order.
    let routes: Vec<u64> = trace
        .events()
        .into_iter()
        .filter(|e| in_iterations(e.t_ns))
        .filter_map(|e| match e.kind {
            trace::EventKind::Time(Stage::Route, ns) => Some(ns),
            _ => None,
        })
        .collect();
    let route_s = |parity: usize| {
        routes
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|&ns| ns as f64 / 1e9)
            .sum::<f64>()
    };
    let fin = |f: fn(&Quality) -> f64| -> f64 {
        traced
            .iter()
            .filter_map(|d| d.quality)
            .map(|(_, q)| f(&q))
            .sum()
    };

    // Total time of the spans named `name`, in the traced set-up or in
    // the traced pass.
    let span_s = |name: &str, in_pass: bool| -> f64 {
        trace
            .spans()
            .iter()
            .filter(|s| s.name == name && in_iterations(s.start_ns) == in_pass)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    };
    let self_s = |layer: &str| an.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9;

    let dfs_nodes = c(Counter::DfsNodes);
    let capped = traced.iter().map(|d| d.capped as f64).sum::<f64>();
    let solver_cpu_s = stage_s(Stage::WindowSolve);
    let workers = args.threads.max(1) as f64;
    let busy_s = gauge(SchedGauge::WorkerBusyNanos) / 1e9;
    let round_wall_s: f64 = an.rounds.iter().map(|r| r.wall_ns() as f64 / 1e9).sum();
    let max_busy_s: f64 = an.rounds.iter().map(|r| r.max_busy_ns() as f64 / 1e9).sum();
    let mean_busy_s: f64 = an
        .rounds
        .iter()
        .map(|r| r.busy_ns.iter().sum::<u64>() as f64 / 1e9 / workers)
        .sum();
    let serial_s: f64 = an
        .rounds
        .iter()
        .map(|r| r.wall_ns().saturating_sub(r.max_busy_ns()) as f64 / 1e9)
        .sum();
    let ms = |ns: f64| ns / 1e6;

    let metrics = vec![
        m("core.solver.cpu_s", solver_cpu_s, "s"),
        m("core.solver.dfs_nodes", dfs_nodes, "count"),
        m(
            "core.solver.nodes_per_s",
            ratio(dfs_nodes, solver_cpu_s),
            "1/s",
        ),
        m("core.solver.capped_batches", capped, "count"),
        m(
            "core.solver.capped_node_share",
            ratio(capped * max_nodes as f64, dfs_nodes),
            "share",
        ),
        m(
            "core.solver.batch_ms_p50",
            ms(percentile(&an.batch_ns, 0.50)),
            "ms",
        ),
        m(
            "core.solver.batch_ms_p98",
            ms(percentile(&an.batch_ns, 0.98)),
            "ms",
        ),
        m(
            "core.solver.batch_ms_max",
            ms(percentile(&an.batch_ns, 1.0)),
            "ms",
        ),
        m("core.solver.self_s", self_s("core.solver"), "s"),
        m("core.sched.busy_s", busy_s, "s"),
        m(
            "core.sched.idle_share",
            1.0 - ratio(busy_s, workers * round_wall_s),
            "share",
        ),
        m(
            "core.sched.imbalance",
            ratio(max_busy_s, mean_busy_s),
            "ratio",
        ),
        m("core.sched.serial_s", serial_s, "s"),
        m(
            "core.sched.windows_per_round_max",
            gauge(SchedGauge::QueueHighWater),
            "count",
        ),
        m("core.sched.steals", gauge(SchedGauge::Steals), "count"),
        m("core.sched.self_s", self_s("core.sched"), "s"),
        m("core.vm1opt_s", stage_s(Stage::Vm1Opt), "s"),
        m("core.perturb_s", stage_s(Stage::Perturb), "s"),
        m("core.flip_s", stage_s(Stage::Flip), "s"),
        m("core.objective_eval_s", stage_s(Stage::ObjectiveEval), "s"),
        m("core.iterations", c(Counter::Iterations), "count"),
        m("core.distopt_rounds", c(Counter::DistOptRounds), "count"),
        m("core.windows_visited", c(Counter::WindowsVisited), "count"),
        m(
            "core.windows_improved",
            c(Counter::WindowsImproved),
            "count",
        ),
        m(
            "core.improved_share",
            ratio(c(Counter::WindowsImproved), c(Counter::WindowsVisited)),
            "share",
        ),
        m("core.batches_solved", c(Counter::BatchesSolved), "count"),
        m("core.batch_cache_hits", c(Counter::BatchCacheHits), "count"),
        m("core.cells_changed", c(Counter::CellsChanged), "count"),
        m(
            "core.rowmap_rows_patched",
            c(Counter::RowMapRowsPatched),
            "count",
        ),
        m("core.self_s", self_s("core"), "s"),
        m("route.init_s", route_s(0), "s"),
        m("route.final_s", route_s(1), "s"),
        m("route.unrouted", fin(|q| q.unrouted as f64), "count"),
        m("route.rwl_um", fin(|q| q.rwl_um), "um"),
        m("route.dm1", fin(|q| q.dm1 as f64), "count"),
        m("route.via12", fin(|q| q.via12 as f64), "count"),
        m("route.drvs", fin(|q| q.drvs as f64), "count"),
        m("route.self_s", self_s("route"), "s"),
        m("timing.analysis_s", stage_s(Stage::Analysis), "s"),
        m("timing.power_mw", fin(|q| q.power_mw), "mW"),
        m("timing.self_s", self_s("timing"), "s"),
        m("flow.self_s", self_s("flow"), "s"),
        m("place.place_s", span_s("place.place", false), "s"),
        m("place.refine_s", span_s("place.refine", false), "s"),
        m("netlist.gen_s", span_s("netlist.gen", false), "s"),
        m("netlist.def_read_s", span_s("netlist.def_read", true), "s"),
        m(
            "netlist.def_write_s",
            span_s("netlist.def_write", true),
            "s",
        ),
        m("netlist.self_s", self_s("netlist"), "s"),
        m(
            "obs.trace_overhead_s",
            traced[0].wall_s - untraced_design0_s,
            "s",
        ),
        m("obs.attributed_share", an.attributed_share(), "share"),
    ];
    r.designs = traced;
    (metrics, an)
}

fn provenance(
    args: &Args,
    r: &Report,
    runner: &Runner<'_>,
    setup_s: &[f64],
    steal_s: f64,
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let nums = |v: &[f64]| {
        v.iter()
            .map(|x| json_num(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(l, s)| format!("{}: {}", json_str(l), json_num(*s)))
        .collect();
    let quality = |q: &Quality| {
        format!(
            "{{\"rwl_um\": {}, \"dm1\": {}, \"via12\": {}, \"drvs\": {}, \"power_mw\": {}}}",
            json_num(q.rwl_um),
            q.dm1,
            q.via12,
            q.drvs,
            json_num(q.power_mw)
        )
    };
    let designs: Vec<String> = r
        .designs
        .iter()
        .map(|d| {
            let (init, fin) = d
                .quality
                .map_or_else(|| ("null".to_owned(), "null".to_owned()), |(i, f)| (quality(&i), quality(&f)));
            format!(
                "{{\"seed\": {}, \"dfs_nodes\": {}, \"batches_solved\": {}, \"windows_visited\": {}, \
                 \"cells_changed\": {}, \"capped_batches\": {}, \"digest\": \"{:016x}\", \"wall_s\": {}, \
                 \"cpu_s\": {}, \"objective\": {}, \"alignments\": {}, \"hpwl_um\": {}, \"routed_init\": {init}, \
                 \"routed_final\": {fin}}}",
                d.seed,
                d.work.dfs_nodes,
                d.work.batches_solved,
                d.work.windows_visited,
                d.work.cells_changed,
                d.capped,
                d.digest,
                json_num(d.wall_s),
                json_num(d.cpu_s),
                json_num(d.objective),
                d.alignments,
                json_num(d.hpwl_um),
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"designs\": [{}], \"threads\": {}, \
         \"trace\": {}, \"available_parallelism\": {parallelism}, \"rustc\": {}, \"git_rev\": {}, \
         \"setups\": {}, \"setup_s_median\": {}, \"pass_wall_s\": [{}], \"steal_s\": {}, \
         \"references\": {}, \"reference_s_median\": {}, \"reference_nominal_s\": {}, \
         \"layers_by_share\": {{{}}}, \"gate_failures\": [{}]}}",
        json_str(args.workload.name),
        args.seed,
        json_num(args.scale),
        designs.join(", "),
        args.threads,
        args.trace,
        json_str(&rustc_version()),
        json_str(&git_rev()),
        setup_s.len(),
        json_num(median(setup_s)),
        nums(&runner.pass_walls),
        json_num(steal_s),
        runner.refs.len(),
        json_num(median(&runner.refs)),
        json_num(cpu::REF_NOMINAL_S),
        layers.join(", "),
        r.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    )
}
