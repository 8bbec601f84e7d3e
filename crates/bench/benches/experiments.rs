//! One criterion bench per paper artifact, exercising the *real*
//! experiment code paths at smoke scale so `cargo bench` regenerates a
//! timed sample of every table and figure. The full-size artifacts are
//! produced by the `expt_*` binaries (see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vm1_flow::experiments::{expt_a1, expt_a2, expt_a3, expt_b, expt_fig8, ExperimentScale};
use vm1_tech::CellArch;

fn group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = group(c, "fig5_window_sweep");
    g.bench_function("expt_a1_smoke", |b| {
        b.iter(|| black_box(expt_a1(ExperimentScale::Smoke)));
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = group(c, "fig6_alpha_sweep");
    g.bench_function("expt_a2_smoke_closedm1", |b| {
        b.iter(|| black_box(expt_a2(ExperimentScale::Smoke, CellArch::ClosedM1)));
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = group(c, "fig7_sequences");
    g.bench_function("expt_a3_smoke", |b| {
        b.iter(|| black_box(expt_a3(ExperimentScale::Smoke)));
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    let mut g = group(c, "table2");
    g.bench_function("expt_b_smoke_closedm1", |b| {
        b.iter(|| black_box(expt_b(ExperimentScale::Smoke, CellArch::ClosedM1)));
    });
    g.bench_function("expt_b_smoke_openm1", |b| {
        b.iter(|| black_box(expt_b(ExperimentScale::Smoke, CellArch::OpenM1)));
    });
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let mut g = group(c, "fig8_drv_vs_util");
    g.bench_function("expt_fig8_smoke", |b| {
        b.iter(|| black_box(expt_fig8(ExperimentScale::Smoke)));
    });
    g.finish();
}

criterion_group!(
    experiments,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_table2,
    bench_fig8
);
criterion_main!(experiments);
