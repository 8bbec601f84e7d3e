//! Property-based tests of the generator and the DEF round trip.

use proptest::prelude::*;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::io::{read_def, write_def};
use vm1_netlist::NetPin;
use vm1_place::{place, PlaceConfig};
use vm1_tech::{CellArch, Library, PinDir};

fn arch_from(idx: u8) -> CellArch {
    [CellArch::ClosedM1, CellArch::OpenM1, CellArch::Conv12T][idx as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_designs_are_structurally_valid(
        a in 0u8..3,
        n in 50usize..400,
        ff in 0.05f64..0.25,
        util in 0.5f64..0.85,
        seed in 0u64..10_000,
    ) {
        let lib = Library::synthetic_7nm(arch_from(a));
        let mut cfg = GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(n)
            .with_utilization(util);
        cfg.ff_ratio = ff;
        let d = cfg.generate(&lib, seed);
        prop_assert!(d.validate_connectivity().is_ok());
        // Every net has exactly one driver.
        for (id, _) in d.nets() {
            prop_assert!(d.net_driver(id).is_some());
        }
        // Every signal input pin of every instance is connected.
        for (_, inst) in d.insts() {
            let cell = d.library().cell(inst.cell);
            for (k, pin) in cell.pins.iter().enumerate() {
                if pin.dir == PinDir::In {
                    prop_assert!(inst.pin_nets[k].is_some(), "dangling input");
                }
            }
        }
        // Core capacity is sufficient.
        prop_assert!(d.utilization() <= 1.0);
    }

    #[test]
    fn def_round_trip_is_lossless(
        a in 0u8..3,
        n in 50usize..250,
        seed in 0u64..10_000,
    ) {
        let arch = arch_from(a);
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let text = write_def(&d);
        let d2 = read_def(&text, &lib).expect("parse");
        prop_assert_eq!(d.num_insts(), d2.num_insts());
        prop_assert_eq!(d.num_nets(), d2.num_nets());
        prop_assert_eq!(d.total_hpwl(), d2.total_hpwl());
        for ((_, x), (_, y)) in d.insts().zip(d2.insts()) {
            prop_assert_eq!(x.site, y.site);
            prop_assert_eq!(x.row, y.row);
            prop_assert_eq!(x.orient, y.orient);
            prop_assert_eq!(x.cell, y.cell);
        }
        for ((_, x), (_, y)) in d.nets().zip(d2.nets()) {
            prop_assert_eq!(&x.pins, &y.pins);
        }
        // Second round trip is byte-identical (canonical form).
        prop_assert_eq!(text, write_def(&d2));
    }

    #[test]
    fn nets_have_at_most_one_port_driver(
        n in 50usize..200,
        seed in 0u64..10_000,
    ) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = GeneratorConfig::profile(DesignProfile::Jpeg)
            .with_insts(n)
            .generate(&lib, seed);
        for (_, net) in d.nets() {
            let drivers = net
                .pins
                .iter()
                .filter(|&&p| match p {
                    NetPin::Inst(pr) => d.macro_pin(pr).dir == PinDir::Out,
                    NetPin::Port(pid) => d.port(pid).dir == PinDir::In,
                })
                .count();
            prop_assert_eq!(drivers, 1);
        }
    }
}

proptest! {
    // Each case is a small design and two parses, so many are cheap.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_def_never_panics_on_cut_or_mutated_input(
        n in 4usize..60,
        seed in 0u64..10_000,
        cut in 0.0f64..1.0,
        truncate in 0u8..2,
        mutations in proptest::collection::vec((0.0f64..1.0, 0u16..512), 0..6),
    ) {
        // Malformed VM1DEF must come back as `Err`, never as a panic;
        // whatever still parses must survive a write/read round trip.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let mut bytes = write_def(&d).into_bytes();
        // Half the picks are raw bytes, half come from the format's own
        // alphabet (digits, separators, name and keyword letters).
        const ALPHABET: &[u8] = b"0123456789 :\n#-PINUZuAYn";
        for (at, pick) in mutations {
            let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[i] = match pick {
                0..=255 => pick as u8,
                _ => ALPHABET[pick as usize % ALPHABET.len()],
            };
        }
        if truncate == 1 {
            bytes.truncate((cut * bytes.len() as f64) as usize);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = read_def(&text, &lib) {
            let canonical = write_def(&parsed);
            let again = read_def(&canonical, &lib);
            prop_assert!(again.is_ok(), "canonical form re-reads: {:?}", again.err());
            prop_assert_eq!(write_def(&again.unwrap()), canonical);
        }
    }
}
