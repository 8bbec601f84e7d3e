//! Micro-benchmarks of the core kernels: HPWL evaluation, window
//! partitioning, routing, window-problem construction, and the
//! solver-engine ablation (exact DFS vs MILP vs greedy on identical
//! window problems — the design choice DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use vm1_core::problem::{Overrides, WindowProblem};
use vm1_core::solver::{dfs_solve, greedy_solve, milp_window_solve, solve_window_with};
use vm1_core::window::{Window, WindowGrid};
use vm1_core::Vm1Config;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_obs::{Counter, MetricsHandle, Telemetry};
use vm1_place::{place, PlaceConfig, RowMap};
use vm1_route::{route, RouterConfig};
use vm1_tech::{CellArch, Library};

fn placed_design(n: usize) -> Design {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d = GeneratorConfig::profile(DesignProfile::Aes)
        .with_insts(n)
        .generate(&lib, 7);
    place(&mut d, &PlaceConfig::default(), 7);
    d
}

fn window_problem(d: &Design, cells: usize) -> WindowProblem {
    let cfg = Vm1Config::closedm1();
    let rm = RowMap::build(d);
    let win = Window {
        site0: 0,
        row0: 0,
        w_sites: d.sites_per_row.min(40),
        h_rows: d.num_rows.min(4),
    };
    let movable: Vec<_> = WindowProblem::movable_in_window(d, &rm, &win, &Overrides::new())
        .into_iter()
        .take(cells)
        .collect();
    WindowProblem::build(d, &rm, win, &movable, 3, 1, false, &cfg, &Overrides::new())
}

/// The first batch of the optimizer's first pass over `d`: the first
/// window of the default partition holding `max_cells_per_milp` movable
/// cells, with the default search ranges.
fn optimizer_batch(d: &Design, cfg: &Vm1Config) -> WindowProblem {
    let u = cfg.sequence[0];
    let tech = d.library().tech();
    let bw = (u.bw_um * 1000.0 / tech.site_width.nm() as f64).round() as i64;
    let bh = ((u.bh_um * 1000.0 / tech.row_height.nm() as f64).round() as i64).max(1);
    let rm = RowMap::build(d);
    let ov = Overrides::new();
    let grid = WindowGrid::partition(d, 0, 0, bw, bh);
    let (win, mut movable) = grid
        .windows
        .iter()
        .map(|w| (w, WindowProblem::movable_in_window(d, &rm, w, &ov)))
        .find(|(_, m)| m.len() >= cfg.max_cells_per_milp)
        .expect("design has a full window");
    movable.truncate(cfg.max_cells_per_milp);
    WindowProblem::build(d, &rm, *win, &movable, u.lx, u.ly, false, cfg, &ov)
}

fn bench_hpwl(c: &mut Criterion) {
    let d = placed_design(800);
    c.bench_function("total_hpwl_800cells", |b| {
        b.iter(|| black_box(d.total_hpwl()));
    });
}

fn bench_alignment_count(c: &mut Criterion) {
    let d = placed_design(800);
    let cfg = Vm1Config::closedm1();
    c.bench_function("count_alignments_800cells", |b| {
        b.iter(|| black_box(vm1_core::count_alignments(&d, &cfg)));
    });
}

fn bench_partition(c: &mut Criterion) {
    let d = placed_design(800);
    c.bench_function("window_partition_and_diagonals", |b| {
        b.iter(|| {
            let g = WindowGrid::partition(&d, 3, 1, 40, 4);
            black_box(g.diagonal_sets())
        });
    });
}

fn bench_problem_build(c: &mut Criterion) {
    let d = placed_design(800);
    c.bench_function("window_problem_build_8cells", |b| {
        b.iter(|| black_box(window_problem(&d, 8)));
    });
}

fn bench_route_small(c: &mut Criterion) {
    let d = placed_design(250);
    let mut g = c.benchmark_group("route");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("route_250cells", |b| {
        b.iter(|| black_box(route(&d, &RouterConfig::default())));
    });
    g.finish();
}

fn bench_solver_ablation(c: &mut Criterion) {
    let d = placed_design(800);
    let prob = window_problem(&d, 6);
    let cfg = Vm1Config::closedm1();
    let mut g = c.benchmark_group("window_solver_ablation");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("dfs_exact", |b| {
        b.iter(|| black_box(dfs_solve(&prob, 300_000)));
    });
    g.bench_function("milp_exact", |b| {
        b.iter(|| black_box(milp_window_solve(&prob, &cfg)));
    });
    g.bench_function("greedy", |b| b.iter(|| black_box(greedy_solve(&prob, 4))));
    // A batch the optimizer itself would solve, searched under a cap it
    // hits: one iteration is the DFS kernel's time for `CAPPED_NODES`
    // nodes plus its per-solve setup, independent of the end-to-end
    // benchmark. The batch's exact search takes 82 nodes.
    const CAPPED_NODES: usize = 50;
    let capped = optimizer_batch(&d, &cfg);
    let sink = Arc::new(Telemetry::new());
    let capped_cfg = Vm1Config {
        max_nodes: CAPPED_NODES,
        ..cfg.clone()
    };
    let _ = solve_window_with(&capped, &capped_cfg, &MetricsHandle::of(sink.clone()));
    assert_eq!(
        sink.counter(Counter::DfsNodeLimitHits),
        1,
        "window must hit the cap"
    );
    g.bench_function("dfs_capped", |b| {
        b.iter(|| black_box(dfs_solve(&capped, CAPPED_NODES)));
    });
    g.finish();
}

fn bench_milp_kernel(c: &mut Criterion) {
    // Pure MILP solver on a reference assignment problem.
    use vm1_milp::{solve, Model, SolveParams};
    let n = 6;
    let mut m = Model::new();
    let x: Vec<Vec<_>> = (0..n)
        .map(|i| (0..n).map(|j| m.add_binary(&format!("x{i}{j}"))).collect())
        .collect();
    for (i, row) in x.iter().enumerate() {
        m.add_eq(row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 1.0);
        m.add_eq(x.iter().map(|r| (r[i], 1.0)).collect::<Vec<_>>(), 1.0);
        m.add_sos1(row.clone());
    }
    let obj: Vec<_> = x
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, &v)| (v, ((i * 7 + j * 13) % 10) as f64))
        })
        .collect();
    m.set_objective(obj);
    c.bench_function("milp_assignment_6x6", |b| {
        b.iter(|| black_box(solve(&m, &SolveParams::default())));
    });
}

criterion_group!(
    micro,
    bench_hpwl,
    bench_alignment_count,
    bench_partition,
    bench_problem_build,
    bench_route_small,
    bench_solver_ablation,
    bench_milp_kernel
);
criterion_main!(micro);
