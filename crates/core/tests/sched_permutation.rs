//! Schedule-permutation model checking of the window rounds.
//!
//! `Vm1Optimizer::with_adversarial_sched(seed)` permutes the order in
//! which every round's workers claim windows from the shared cursor,
//! drawing each round's permutation from a seeded xorshift stream. So
//! windows are solved, and their outcomes written, in orders unlike the
//! ascending default, spread over however many workers the round runs.
//! Because each outcome goes into the slot of its window index and the
//! committing thread drains the slots in window order, none of that may
//! reach the results: the DEF bytes and every telemetry counter must be
//! bit-identical to a `--threads 1` run for *any* seed. These tests
//! check exactly that, over 110 fixed seeds plus proptest-drawn random
//! ones.

use proptest::prelude::*;
use std::sync::Arc;
use vm1_core::{DistOptParams, ParamSet, Vm1Config, Vm1Optimizer};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::{io::write_def, Design};
use vm1_obs::{Counter, Telemetry};
use vm1_place::{place, PlaceConfig};
use vm1_tech::{CellArch, Library};

fn build(n: usize, seed: u64) -> Design {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d = GeneratorConfig::profile(DesignProfile::M0)
        .with_insts(n)
        .generate(&lib, seed);
    place(&mut d, &PlaceConfig::default(), seed);
    d
}

/// Window grid small enough that a round has many windows to schedule.
fn pass_params(d: &Design) -> DistOptParams {
    DistOptParams {
        tx: 0,
        ty: 0,
        bw_sites: (d.sites_per_row / 4).max(10),
        bh_rows: (d.num_rows / 4).max(2),
        lx: 3,
        ly: 1,
        flip: false,
    }
}

/// DEF bytes + the full counter section after one `DistOpt` pass.
fn run_one_pass(threads: usize, adversary: Option<u64>) -> (Vec<u8>, Vec<(&'static str, u64)>) {
    let mut d = build(140, 9);
    let p = pass_params(&d);
    let cfg = Vm1Config::closedm1().with_threads(threads);
    let sink = Arc::new(Telemetry::new());
    let mut opt = Vm1Optimizer::new(cfg).with_metrics(sink.clone());
    if let Some(seed) = adversary {
        opt = opt.with_adversarial_sched(seed);
    }
    let _ = opt.run_pass(&mut d, &p);
    let report = sink.report();
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), report.counter(c)))
        .collect();
    (write_def(&d).into_bytes(), counters)
}

/// DEF bytes + counters after a full Algorithm 1 run.
fn run_full(threads: usize, adversary: Option<u64>) -> (Vec<u8>, Vec<(&'static str, u64)>) {
    let mut d = build(150, 21);
    let cfg = Vm1Config::closedm1()
        .with_threads(threads)
        .with_sequence(vec![ParamSet::new(3.0, 3, 1)]);
    let sink = Arc::new(Telemetry::new());
    let mut opt = Vm1Optimizer::new(cfg).with_metrics(sink.clone());
    if let Some(seed) = adversary {
        opt = opt.with_adversarial_sched(seed);
    }
    let _ = opt.run(&mut d);
    d.validate_placement().expect("legal under adversary");
    let report = sink.report();
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), report.counter(c)))
        .collect();
    (write_def(&d).into_bytes(), counters)
}

#[test]
fn hundred_adversarial_steal_orders_are_bit_identical() {
    // The single-thread run is the reference semantics: it spawns no
    // thread and claims windows in ascending order.
    let (def_ref, counters_ref) = run_one_pass(1, None);
    for seed in 0..110u64 {
        let (def, counters) = run_one_pass(4, Some(seed));
        assert_eq!(
            def, def_ref,
            "DEF bytes diverged under adversary seed {seed}"
        );
        assert_eq!(
            counters, counters_ref,
            "telemetry counters diverged under adversary seed {seed}"
        );
    }
}

#[test]
fn full_runs_survive_adversarial_schedules() {
    let (def_ref, counters_ref) = run_full(1, None);
    // A full run exercises many rounds (several diagonal sets per pass,
    // several passes per iteration), so each seed already covers a long
    // sequence of permuted claim orders.
    for seed in [0u64, 1, 2, 17, 0xDEAD_BEEF, u64::MAX] {
        let (def, counters) = run_full(4, Some(seed));
        assert_eq!(def, def_ref, "DEF diverged under adversary seed {seed}");
        assert_eq!(
            counters, counters_ref,
            "counters diverged under adversary seed {seed}"
        );
    }
    // The normal 4-thread round agrees too, tying the permuted runs and
    // the production claim order to the same reference.
    let (def, counters) = run_full(4, None);
    assert_eq!(def, def_ref);
    assert_eq!(counters, counters_ref);
}

proptest! {
    // Each case replays a full pass under a freshly drawn claim-order
    // seed; the fixed-seed sweep above covers volume, this covers the
    // rest of the seed space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_steal_order_seeds_match_single_thread(
        seed in 0u64..u64::MAX,
        threads in 2usize..6,
    ) {
        let (def_ref, counters_ref) = run_one_pass(1, None);
        let (def, counters) = run_one_pass(threads, Some(seed));
        prop_assert_eq!(def, def_ref, "DEF bytes diverged (seed {})", seed);
        prop_assert_eq!(counters, counters_ref, "counters diverged (seed {})", seed);
    }
}
