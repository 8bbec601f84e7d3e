//! Extraction of candidate pin pairs for vertical M1 alignment.

use crate::Vm1Config;
use vm1_geom::Dbu;
use vm1_netlist::{Design, NetId, NetPin, PinRef};
use vm1_tech::{CellArch, Layer};

/// All pin pairs eligible for a `d_pq` variable: cell-pin pairs of the
/// same (small enough) net, on the architecture's pin layer, from distinct
/// instances.
#[derive(Clone, Debug, Default)]
pub struct PinPairs {
    /// `(p, q, net)` with `p < q` by instance/pin order.
    pub pairs: Vec<(PinRef, PinRef, NetId)>,
}

impl PinPairs {
    /// Number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Enumerates eligible pairs per the paper ("∀(p, q) in n"): every
/// unordered pair of cell pins within each net, excluding ports, pins of
/// the same instance, over-large nets, and architectures without inter-row
/// M1.
#[must_use]
pub fn alignable_pairs(design: &Design, cfg: &Vm1Config) -> PinPairs {
    let mut pairs = Vec::new();
    if design.library().arch().allows_inter_row_m1() {
        for (net_id, _) in design.nets() {
            push_net_pairs(design, cfg, net_id, &mut pairs);
        }
    }
    PinPairs { pairs }
}

/// Appends the eligible pairs of net `net_id` to `out`, in the order
/// [`alignable_pairs`] lists them. The caller checks that the
/// architecture allows inter-row M1.
pub(crate) fn push_net_pairs(
    design: &Design,
    cfg: &Vm1Config,
    net_id: NetId,
    out: &mut Vec<(PinRef, PinRef, NetId)>,
) {
    let net = design.net(net_id);
    if net.pins.len() > cfg.max_net_pins {
        return;
    }
    let want_layer = pin_layer(design.library().arch());
    let cell_pins: Vec<PinRef> = net
        .pins
        .iter()
        .filter_map(|&np| match np {
            NetPin::Inst(pr) if design.macro_pin(pr).shape.layer == want_layer => Some(pr),
            _ => None,
        })
        .collect();
    for (i, &p) in cell_pins.iter().enumerate() {
        for &q in &cell_pins[i + 1..] {
            if p.inst != q.inst {
                out.push((p, q, net_id));
            }
        }
    }
}

/// The layer signal pins live on for each architecture.
#[must_use]
pub fn pin_layer(arch: CellArch) -> Layer {
    match arch {
        CellArch::OpenM1 => Layer::M0,
        CellArch::ClosedM1 | CellArch::Conv12T => Layer::M1,
    }
}

/// Tests whether pins `a` and `b` are vertically M1-connectable in the
/// *current* placement: within γ rows, and x-aligned (ClosedM1) or
/// overlapped by ≥ δ (OpenM1). Returns the overlap length beyond δ
/// (`Dbu::ZERO` for ClosedM1) when connectable.
#[must_use]
pub fn pair_aligned(design: &Design, cfg: &Vm1Config, a: PinRef, b: PinRef) -> Option<Dbu> {
    let tech = design.library().tech();
    let pa = design.pin_position(a);
    let pb = design.pin_position(b);
    if (pa.y - pb.y).abs() > tech.row_height * cfg.gamma {
        return None;
    }
    match design.library().arch() {
        CellArch::ClosedM1 => (pa.x == pb.x).then_some(Dbu::ZERO),
        CellArch::OpenM1 => {
            let ov = design.pin_x_range(a).overlap_len(design.pin_x_range(b));
            (ov >= cfg.delta).then(|| ov - cfg.delta)
        }
        CellArch::Conv12T => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_geom::Orient;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::Library;

    fn gen(arch: CellArch) -> Design {
        let lib = Library::synthetic_7nm(arch);
        GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(150)
            .generate(&lib, 1)
    }

    #[test]
    fn pairs_exist_for_m1_archs() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::ClosedM1);
        let p = alignable_pairs(&d, &cfg);
        assert!(!p.is_empty());
        // Pairs never repeat an instance.
        for &(a, b, _) in &p.pairs {
            assert_ne!(a.inst, b.inst);
        }
    }

    #[test]
    fn conv12t_has_no_pairs() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::Conv12T);
        assert!(alignable_pairs(&d, &cfg).is_empty());
    }

    #[test]
    fn clock_net_excluded_by_degree() {
        let cfg = Vm1Config::closedm1();
        let d = gen(CellArch::ClosedM1);
        let clk = d.nets().find(|(_, n)| n.name == "clk_net").unwrap().0;
        let p = alignable_pairs(&d, &cfg);
        assert!(p.pairs.iter().all(|&(_, _, n)| n != clk));
    }

    #[test]
    fn aligned_test_closedm1() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 5, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        let cfg = Vm1Config::closedm1();
        // ZN at cell col 2, A at cell col 1: site_b = site_a + 1 aligns.
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 6, 1, Orient::North);
        let zn = PinRef {
            inst: a,
            pin: d.library().cell(inv).pin_index("ZN").unwrap(),
        };
        let pa = PinRef {
            inst: b,
            pin: d.library().cell(inv).pin_index("A").unwrap(),
        };
        assert_eq!(pair_aligned(&d, &cfg, zn, pa), Some(Dbu(0)));
        // Misaligned by one site.
        d.move_inst(b, 7, 1, Orient::North);
        assert_eq!(pair_aligned(&d, &cfg, zn, pa), None);
        // Aligned again via flip: flipped A lands at width-72 => col 2.
        d.move_inst(b, 5, 1, Orient::FlippedNorth);
        assert_eq!(pair_aligned(&d, &cfg, zn, pa), Some(Dbu(0)));
        // Too far vertically (γ = 3).
        d.move_inst(b, 6, 4, Orient::North);
        assert_eq!(pair_aligned(&d, &cfg, zn, pa), None);
    }

    #[test]
    fn aligned_test_openm1_overlap() {
        let lib = Library::synthetic_7nm(CellArch::OpenM1);
        let mut d = Design::new("t", lib, 4, 40);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        let cfg = Vm1Config::openm1();
        let zn = PinRef {
            inst: a,
            pin: d.library().cell(inv).pin_index("ZN").unwrap(),
        };
        let pa = PinRef {
            inst: b,
            pin: d.library().cell(inv).pin_index("A").unwrap(),
        };
        // Overlapping placement: ZN spans cols [1,4) of a, A spans [0,2) of b.
        d.move_inst(a, 5, 0, Orient::North);
        d.move_inst(b, 7, 1, Orient::North);
        let ov = pair_aligned(&d, &cfg, zn, pa).expect("overlap");
        assert!(ov >= Dbu(0));
        // Far apart horizontally: no overlap.
        d.move_inst(b, 20, 1, Orient::North);
        assert_eq!(pair_aligned(&d, &cfg, zn, pa), None);
    }

    use vm1_netlist::Design;
}
