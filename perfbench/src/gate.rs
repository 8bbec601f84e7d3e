//! The correctness gate every measured run must pass.
//!
//! After each timed run the gate checks the final placement
//! (`Design::validate_placement`), the independent dM1 recount
//! (`audit_design`), the DEF round trip (`write_def` → `read_def` →
//! `write_def` byte-identical), and that the deterministic counter vector
//! and the placement digest equal those of the design's first run in
//! this process. Each repeated set-up must also produce the same design.

use crate::sink::Work;
use std::collections::BTreeMap;
use vm1_core::{audit_design, Vm1Config};
use vm1_netlist::io::{read_def, write_def};
use vm1_netlist::Design;

/// FNV-1a digest of a DEF text (the placement digest).
#[must_use]
pub fn digest(def_text: &str) -> u64 {
    def_text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Accumulates gate findings over the runs of one benchmark process.
#[derive(Debug, Default)]
pub struct Gate {
    first_run: BTreeMap<usize, (Work, u64)>,
    first_setup: BTreeMap<usize, u64>,
    failures: Vec<String>,
}

impl Gate {
    /// An empty gate.
    #[must_use]
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Checks that a set-up of design `design` produced the same design
    /// as its first set-up.
    pub fn check_setup(&mut self, design: usize, def_text: &str) {
        let d = digest(def_text);
        let first = *self.first_setup.entry(design).or_insert(d);
        if first != d {
            self.failures.push(format!(
                "design {design}: set-up digest {d:016x} differs from the first set-up's {first:016x}"
            ));
        }
    }

    /// Checks one run of design `key`: its final placement and counter
    /// vector; returns the placement digest.
    pub fn check_run(
        &mut self,
        key: usize,
        label: &str,
        design: &Design,
        cfg: &Vm1Config,
        work: Work,
    ) -> u64 {
        if let Err(e) = design.validate_placement() {
            self.failures
                .push(format!("{label}: illegal placement: {e:?}"));
        }
        let audit = audit_design(design, cfg);
        if !audit.is_clean() {
            self.failures.push(format!(
                "{label}: audit not clean: {}",
                audit.summary().trim_end()
            ));
        }
        let text = write_def(design);
        match read_def(&text, design.library()) {
            Ok(back) if write_def(&back) == text => {}
            Ok(_) => self
                .failures
                .push(format!("{label}: DEF round trip is not byte-identical")),
            Err(e) => self
                .failures
                .push(format!("{label}: written DEF does not read back: {e:?}")),
        }
        let d = digest(&text);
        let (w0, d0) = *self.first_run.entry(key).or_insert((work, d));
        if w0 != work {
            self.failures.push(format!(
                "{label}: counters {work:?} differ from the first run's {w0:?}"
            ));
        }
        if d0 != d {
            self.failures.push(format!(
                "{label}: placement digest {d:016x} differs from the first run's {d0:016x}"
            ));
        }
        d
    }

    /// Whether every check so far passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The findings so far.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
