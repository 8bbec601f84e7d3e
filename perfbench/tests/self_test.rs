//! Self-test of the benchmark at a smoke scale: every workload runs end
//! to end, traced and untraced, and reports exactly the metrics
//! `BENCHMARK.json` lists; the gate trips on an injected overlap and on a
//! counter mismatch; the `opt-aes-closedm1` result does not depend on the
//! thread count; the flow's set-up reproduces `build_testcase`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Arc;
use vm1_flow::{build_testcase, FlowConfig};
use vm1_netlist::io::write_def;
use vm1_netlist::InstId;
use vm1_perfbench::gate::Gate;
use vm1_perfbench::sink::{BenchSink, Work};
use vm1_perfbench::trace::Tracer;
use vm1_perfbench::workload::{find, WORKLOADS};
use vm1_perfbench::{run, Args, Report};

const SMOKE_SCALE: f64 = 0.012;

fn smoke(name: &str) -> Args {
    let mut args = Args::new(find(name).expect("known workload"));
    args.scale = SMOKE_SCALE;
    args.seconds = 0.0;
    args.designs = 2;
    args
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_owned())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_owned()).collect()
}

/// Counter vector and placement digest of every design of the suite.
fn fingerprint(r: &Report) -> Vec<(Work, u64)> {
    r.designs.iter().map(|d| (d.work, d.digest)).collect()
}

#[test]
fn every_workload_runs_end_to_end() {
    for name in listed("workloads") {
        assert!(
            find(&name).is_some(),
            "BENCHMARK.json lists unknown workload {name}"
        );
    }
    for wl in WORKLOADS {
        let plain = run(&smoke(wl.name));
        assert!(plain.correct, "{}: {:?}", wl.name, plain.failures);
        assert!(plain.attempted > 0 && plain.failed == 0);
        assert_eq!(names(&plain), listed("end_to_end"), "{}", wl.name);
        assert!(plain.metrics.iter().all(|m| m.value.is_finite()));
        assert!(plain
            .result_json()
            .starts_with("{\"correct\": true, \"attempted\": "));

        let mut args = smoke(wl.name);
        args.trace = true;
        let traced = run(&args);
        assert!(traced.correct, "{}: {:?}", wl.name, traced.failures);
        assert_eq!(names(&traced), listed("per_layer"), "{}", wl.name);
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&plain),
            "{}: tracing changes nothing",
            wl.name
        );
        let attributed = traced.metric("obs.attributed_share").expect("listed");
        assert!(attributed >= 0.9, "{}: {attributed}", wl.name);
        assert!(!traced.layers.is_empty());
    }
}

#[test]
fn gate_trips_on_injected_overlap() {
    let wl = find("opt-m0-openm1").expect("known workload");
    let cfg = wl.config(1);
    let prep = wl.setup(3, SMOKE_SCALE, &Tracer::off());
    let sink = Arc::new(BenchSink::new(cfg.max_nodes, None));
    let out = wl.run(&prep, &cfg, &sink, &Tracer::off());
    let mut gate = Gate::new();
    gate.check_run(0, "clean", &out.design, &cfg, sink.work());
    assert!(gate.passed(), "{:?}", gate.failures());

    let mut bad = out.design.clone();
    let (site, row, orient) = {
        let i = bad.inst(InstId(0));
        (i.site, i.row, i.orient)
    };
    bad.move_inst(InstId(1), site, row, orient);
    let mut gate = Gate::new();
    gate.check_run(0, "overlap", &bad, &cfg, sink.work());
    assert!(!gate.passed());
    assert!(gate
        .failures()
        .iter()
        .any(|f| f.contains("illegal placement")));
}

#[test]
fn gate_trips_on_counter_mismatch() {
    let wl = find("opt-m0-openm1").expect("known workload");
    let cfg = wl.config(1);
    let prep = wl.setup(3, SMOKE_SCALE, &Tracer::off());
    let sink = Arc::new(BenchSink::new(cfg.max_nodes, None));
    let out = wl.run(&prep, &cfg, &sink, &Tracer::off());
    let mut gate = Gate::new();
    let work = sink.work();
    gate.check_run(0, "first", &out.design, &cfg, work);
    gate.check_run(0, "same", &out.design, &cfg, work);
    assert!(gate.passed(), "{:?}", gate.failures());
    let mut off = work;
    off.dfs_nodes += 1;
    gate.check_run(0, "tampered", &out.design, &cfg, off);
    assert!(!gate.passed());
    assert!(gate.failures().iter().any(|f| f.contains("counters")));

    let mut gate = Gate::new();
    gate.check_setup(0, &prep.def_text);
    gate.check_setup(0, &prep.def_text.replacen("INST", "INST ", 1));
    assert!(!gate.passed(), "a differing set-up trips the gate");
}

#[test]
fn aes_result_is_the_same_at_1_and_2_threads() {
    let mut one = smoke("opt-aes-closedm1");
    one.threads = 1;
    let mut two = smoke("opt-aes-closedm1");
    two.threads = 2;
    let (a, b) = (run(&one), run(&two));
    assert!(a.correct && b.correct);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.metric("unproven_share"), b.metric("unproven_share"));
}

#[test]
fn flow_setup_reproduces_build_testcase() {
    let wl = find("flow-m0-closedm1").expect("known workload");
    let prep = wl.setup(5, SMOKE_SCALE, &Tracer::off());
    let tc = build_testcase(
        &FlowConfig::new(wl.profile, wl.arch)
            .with_scale(SMOKE_SCALE)
            .with_seed(5),
    );
    assert_eq!(prep.def_text, write_def(&tc.design));
    assert_eq!(prep.clock_ps.to_bits(), tc.clock_ps.to_bits());
}
