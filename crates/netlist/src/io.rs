//! A compact DEF-like text format for [`Design`] round-tripping.
//!
//! The paper's implementation consumes LEF/DEF via OpenAccess; the rest of
//! this workspace is in-memory, but experiments still need to snapshot and
//! reload placements (e.g. to compare optimizer variants on the identical
//! input). The format is line-oriented:
//!
//! ```text
//! VM1DEF 1
//! DESIGN aes_like
//! ARCH ClosedM1
//! CORE <num_rows> <sites_per_row>
//! COUNTS <ports> <insts> <nets>
//! PORT <name> <x_nm> <y_nm> <IN|OUT>
//! INST <name> <cell> <site> <row> <N|FN> <PLACED|FIXED>
//! NET <name> <conn> <conn> ...      # conn = P:<port> | I:<inst>:<pin>
//! END
//! ```
//!
//! `COUNTS` declares how many `PORT`, `INST` and `NET` lines follow, so a
//! file that lost whole lines is rejected even when its `END` survived.
//! Nothing but comments and blank lines may follow `END`.

use crate::{Design, DesignError, NetPin};
use std::error::Error;
use std::fmt;
use vm1_geom::{Dbu, Orient, Point};
use vm1_tech::{Library, PinDir};

/// Error from [`read_def`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadDefError {
    /// Line did not match the expected grammar.
    Syntax(usize, String),
    /// Reference to an unknown cell/pin/port/instance.
    Unknown(usize, String),
    /// The library's architecture does not match the file.
    ArchMismatch(String),
    /// The reconstructed design failed validation.
    Invalid(DesignError),
    /// The text ends before the closing `END` line (a cut-off file).
    Truncated,
    /// The `PORT`/`INST`/`NET` lines do not match the `COUNTS` line: as
    /// `[ports, insts, nets]`, what the file declares and what it holds.
    CountMismatch {
        /// The counts on the `COUNTS` line.
        declared: [usize; 3],
        /// The counts of lines read.
        found: [usize; 3],
    },
}

impl fmt::Display for ReadDefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadDefError::Syntax(line, msg) => write!(f, "line {line}: syntax error: {msg}"),
            ReadDefError::Unknown(line, what) => write!(f, "line {line}: unknown {what}"),
            ReadDefError::ArchMismatch(a) => {
                write!(f, "library architecture mismatch: file has {a}")
            }
            ReadDefError::Invalid(e) => write!(f, "invalid design: {e}"),
            ReadDefError::Truncated => write!(f, "truncated file: no END line"),
            ReadDefError::CountMismatch { declared, found } => write!(
                f,
                "COUNTS declares {declared:?} ports/insts/nets, the file holds {found:?}"
            ),
        }
    }
}

impl Error for ReadDefError {}

/// Serializes a design to the VM1DEF text format.
#[must_use]
pub fn write_def(design: &Design) -> String {
    let mut out = String::with_capacity(64 * design.num_insts());
    out.push_str("VM1DEF 1\n");
    out.push_str(&format!("DESIGN {}\n", design.name()));
    out.push_str(&format!("ARCH {}\n", design.library().arch()));
    out.push_str(&format!(
        "CORE {} {}\n",
        design.num_rows, design.sites_per_row
    ));
    out.push_str(&format!(
        "COUNTS {} {} {}\n",
        design.num_ports(),
        design.num_insts(),
        design.num_nets()
    ));
    for (_, p) in design.ports() {
        let dir = if p.dir == PinDir::In { "IN" } else { "OUT" };
        out.push_str(&format!(
            "PORT {} {} {} {}\n",
            p.name, p.position.x, p.position.y, dir
        ));
    }
    for (_, i) in design.insts() {
        let cell = design.library().cell(i.cell);
        out.push_str(&format!(
            "INST {} {} {} {} {} {}\n",
            i.name,
            cell.name,
            i.site,
            i.row,
            i.orient,
            if i.fixed { "FIXED" } else { "PLACED" }
        ));
    }
    for (_, n) in design.nets() {
        out.push_str(&format!("NET {}", n.name));
        for &pin in &n.pins {
            match pin {
                NetPin::Port(p) => {
                    out.push_str(&format!(" P:{}", design.port(p).name));
                }
                NetPin::Inst(pr) => {
                    let inst = design.inst(pr.inst);
                    let pin_name = &design.library().cell(inst.cell).pins[pr.pin].name;
                    out.push_str(&format!(" I:{}:{}", inst.name, pin_name));
                }
            }
        }
        out.push('\n');
    }
    out.push_str("END\n");
    out
}

/// Parses a VM1DEF file back into a [`Design`] mapped onto `library`.
///
/// # Errors
///
/// Returns [`ReadDefError`] on grammar violations (including a repeated
/// `CORE` or `COUNTS` line, a missing `COUNTS` line, a line after `END`,
/// a duplicate instance or port name, and a pin or port listed on two
/// nets), unknown references, architecture mismatch, a missing `END` line
/// ([`ReadDefError::Truncated`]), or section sizes that differ from the
/// `COUNTS` line ([`ReadDefError::CountMismatch`]). Connectivity is
/// re-validated after parsing. Malformed input never panics.
pub fn read_def(text: &str, library: &Library) -> Result<Design, ReadDefError> {
    use std::collections::HashMap;

    let mut design: Option<Design> = None;
    let mut name = String::from("unnamed");
    let mut port_ids: HashMap<String, crate::PortId> = HashMap::new();
    let mut inst_ids: HashMap<String, crate::InstId> = HashMap::new();
    let mut counts: Option<[usize; 3]> = None;
    let mut ended = false;

    let syntax = |ln: usize, m: &str| ReadDefError::Syntax(ln + 1, m.to_owned());

    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if ended {
            return Err(syntax(ln, "line after END"));
        }
        let mut tok = line.split_whitespace();
        let kw = tok.next().unwrap_or_default();
        match kw {
            "VM1DEF" => {}
            "END" => {
                // COUNTS is accepted only after CORE, so both are set here.
                let (Some(declared), Some(d)) = (counts, &design) else {
                    return Err(syntax(ln, "END before COUNTS"));
                };
                let found = [d.num_ports(), d.num_insts(), d.num_nets()];
                if found != declared {
                    return Err(ReadDefError::CountMismatch { declared, found });
                }
                ended = true;
            }
            "DESIGN" => {
                name = tok
                    .next()
                    .ok_or_else(|| syntax(ln, "DESIGN needs a name"))?
                    .to_owned();
            }
            "ARCH" => {
                let a = tok.next().ok_or_else(|| syntax(ln, "ARCH needs a value"))?;
                if a != library.arch().to_string() {
                    return Err(ReadDefError::ArchMismatch(a.to_owned()));
                }
            }
            "CORE" => {
                // A second CORE would rebuild the design under the ids
                // already handed out for its ports and instances.
                if design.is_some() {
                    return Err(syntax(ln, "repeated CORE"));
                }
                let rows: i64 = parse_tok(&mut tok, ln, "rows")?;
                let sites: i64 = parse_tok(&mut tok, ln, "sites")?;
                design = Some(Design::new(&name, library.clone(), rows, sites));
            }
            "COUNTS" => {
                if design.is_none() {
                    return Err(syntax(ln, "COUNTS before CORE"));
                }
                if counts.is_some() {
                    return Err(syntax(ln, "repeated COUNTS"));
                }
                counts = Some([
                    parse_tok(&mut tok, ln, "port count")?,
                    parse_tok(&mut tok, ln, "inst count")?,
                    parse_tok(&mut tok, ln, "net count")?,
                ]);
            }
            "PORT" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "PORT before CORE"))?;
                let pname = tok.next().ok_or_else(|| syntax(ln, "PORT name"))?;
                let x: i64 = parse_tok(&mut tok, ln, "x")?;
                let y: i64 = parse_tok(&mut tok, ln, "y")?;
                let dir = match tok.next() {
                    Some("IN") => PinDir::In,
                    Some("OUT") => PinDir::Out,
                    _ => return Err(syntax(ln, "PORT dir must be IN|OUT")),
                };
                if port_ids.contains_key(pname) {
                    return Err(syntax(ln, &format!("duplicate port {pname}")));
                }
                let id = d.add_port(pname, Point::new(Dbu(x), Dbu(y)), dir);
                port_ids.insert(pname.to_owned(), id);
            }
            "INST" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "INST before CORE"))?;
                let iname = tok.next().ok_or_else(|| syntax(ln, "INST name"))?;
                if inst_ids.contains_key(iname) {
                    return Err(syntax(ln, &format!("duplicate inst {iname}")));
                }
                let cname = tok.next().ok_or_else(|| syntax(ln, "INST cell"))?;
                let cell = library
                    .cell_index(cname)
                    .ok_or_else(|| ReadDefError::Unknown(ln + 1, format!("cell {cname}")))?;
                let site: i64 = parse_tok(&mut tok, ln, "site")?;
                let row: i64 = parse_tok(&mut tok, ln, "row")?;
                let orient = match tok.next() {
                    Some("N") => Orient::North,
                    Some("FN") => Orient::FlippedNorth,
                    _ => return Err(syntax(ln, "INST orient must be N|FN")),
                };
                let fixed = match tok.next() {
                    Some("FIXED") => true,
                    Some("PLACED") | None => false,
                    _ => return Err(syntax(ln, "INST status must be PLACED|FIXED")),
                };
                let id = d.add_inst(iname, cell);
                d.move_inst(id, site, row, orient);
                d.inst_mut(id).fixed = fixed;
                inst_ids.insert(iname.to_owned(), id);
            }
            "NET" => {
                let d = design
                    .as_mut()
                    .ok_or_else(|| syntax(ln, "NET before CORE"))?;
                let nname = tok.next().ok_or_else(|| syntax(ln, "NET name"))?;
                let net = d.add_net(nname);
                for conn in tok {
                    if let Some(pname) = conn.strip_prefix("P:") {
                        let &pid = port_ids.get(pname).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("port {pname}"))
                        })?;
                        if d.port(pid).net.is_some() {
                            return Err(syntax(ln, &format!("port {pname} on two nets")));
                        }
                        d.connect_port(pid, net);
                    } else if let Some(rest) = conn.strip_prefix("I:") {
                        let (iname, pin) = rest
                            .split_once(':')
                            .ok_or_else(|| syntax(ln, "conn must be I:<inst>:<pin>"))?;
                        let &iid = inst_ids.get(iname).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("inst {iname}"))
                        })?;
                        let inst = d.inst(iid);
                        let k = library.cell(inst.cell).pin_index(pin).ok_or_else(|| {
                            ReadDefError::Unknown(ln + 1, format!("pin {iname}:{pin}"))
                        })?;
                        if inst.pin_nets[k].is_some() {
                            return Err(syntax(ln, &format!("pin {iname}:{pin} on two nets")));
                        }
                        d.connect(iid, pin, net);
                    } else {
                        return Err(syntax(ln, "conn must start with P: or I:"));
                    }
                }
            }
            other => return Err(syntax(ln, &format!("unknown keyword {other}"))),
        }
    }

    if !ended {
        return Err(ReadDefError::Truncated);
    }
    let d = design.ok_or_else(|| syntax(0, "missing CORE section"))?;
    d.validate_connectivity().map_err(ReadDefError::Invalid)?;
    Ok(d)
}

fn parse_tok<'a, T: std::str::FromStr>(
    tok: &mut impl Iterator<Item = &'a str>,
    ln: usize,
    what: &str,
) -> Result<T, ReadDefError> {
    tok.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReadDefError::Syntax(ln + 1, format!("expected {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};
    use vm1_tech::CellArch;

    fn sample() -> (Design, Library) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(120)
            .generate(&lib, 3);
        (d, lib)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (d, lib) = sample();
        let text = write_def(&d);
        let d2 = read_def(&text, &lib).expect("parse back");
        assert_eq!(d.name(), d2.name());
        assert_eq!(d.num_insts(), d2.num_insts());
        assert_eq!(d.num_nets(), d2.num_nets());
        assert_eq!(d.num_ports(), d2.num_ports());
        assert_eq!(d.num_rows, d2.num_rows);
        assert_eq!(d.sites_per_row, d2.sites_per_row);
        for ((_, a), (_, b)) in d.insts().zip(d2.insts()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.site, b.site);
            assert_eq!(a.row, b.row);
            assert_eq!(a.orient, b.orient);
        }
        assert_eq!(d.total_hpwl(), d2.total_hpwl());
    }

    #[test]
    fn round_trip_preserves_placement_after_moves() {
        let (mut d, lib) = sample();
        d.move_inst(crate::InstId(0), 7, 1, Orient::FlippedNorth);
        d.inst_mut(crate::InstId(1)).fixed = true;
        let d2 = read_def(&write_def(&d), &lib).unwrap();
        assert_eq!(d2.inst(crate::InstId(0)).site, 7);
        assert_eq!(d2.inst(crate::InstId(0)).orient, Orient::FlippedNorth);
        assert!(d2.inst(crate::InstId(1)).fixed);
    }

    #[test]
    fn arch_mismatch_detected() {
        let (d, _) = sample();
        let open = Library::synthetic_7nm(CellArch::OpenM1);
        assert!(matches!(
            read_def(&write_def(&d), &open),
            Err(ReadDefError::ArchMismatch(_))
        ));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nFROB\n";
        match read_def(bad, &lib) {
            Err(ReadDefError::Syntax(5, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let bad = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nINST u0 NOCELL 0 0 N PLACED\n";
        assert!(matches!(
            read_def(bad, &lib),
            Err(ReadDefError::Unknown(5, _))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let (d, lib) = sample();
        let text = write_def(&d);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.last(), Some(&"END"));
        // Cuts at line boundaries in every section: the header, PORT,
        // before the first, a middle and the last INST, NET, and just
        // before END.
        let first = |kw: &str| lines.iter().position(|l| l.starts_with(kw)).unwrap();
        let (inst, net) = (first("INST "), first("NET "));
        for cut in [
            1,
            4,
            first("PORT ") + 1,
            inst,
            (inst + net) / 2,
            net - 1,
            net + 1,
            lines.len() - 1,
        ] {
            let cut_text = lines[..cut].join("\n") + "\n";
            assert_eq!(
                read_def(&cut_text, &lib).err(),
                Some(ReadDefError::Truncated),
                "cut after {cut} lines"
            );
        }
        // A cut mid-line fails too (here: an INST missing its status).
        let mid = lines[..(inst + net) / 2].join("\n")
            + "\n"
            + lines[(inst + net) / 2].rsplit_once(' ').unwrap().0;
        assert!(read_def(&mid, &lib).is_err());
    }

    /// A small valid file; `net_line` replaces its single NET line.
    fn tiny(net_line: &str) -> String {
        format!(
            "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nCOUNTS 2 2 1\n\
             PORT a 0 0 IN\nPORT z 0 0 OUT\n\
             INST u0 INV_X1 0 0 N PLACED\nINST u1 INV_X1 4 0 N PLACED\n\
             {net_line}\nEND\n"
        )
    }

    #[test]
    fn tiny_file_parses() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = read_def(&tiny("NET n0 P:a I:u0:A"), &lib).unwrap();
        assert_eq!((d.num_ports(), d.num_insts(), d.num_nets()), (2, 2, 1));
    }

    #[test]
    fn unknown_pin_of_known_inst_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        assert_eq!(
            read_def(&tiny("NET n0 P:a I:u0:ZZZ"), &lib).err(),
            Some(ReadDefError::Unknown(10, "pin u0:ZZZ".into()))
        );
    }

    #[test]
    fn inst_pin_on_two_nets_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let text = tiny("NET n0 P:a I:u0:A\nNET n1 I:u1:A I:u0:A");
        assert!(matches!(
            read_def(&text, &lib),
            Err(ReadDefError::Syntax(11, m)) if m.contains("u0:A")
        ));
    }

    #[test]
    fn port_on_two_nets_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let text = tiny("NET n0 P:a I:u0:A\nNET n1 P:a I:u1:A");
        assert!(matches!(
            read_def(&text, &lib),
            Err(ReadDefError::Syntax(11, m)) if m.contains("port a")
        ));
    }

    #[test]
    fn repeated_core_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let text = tiny("CORE 4 40\nNET n0 P:a I:u0:A");
        assert!(matches!(
            read_def(&text, &lib),
            Err(ReadDefError::Syntax(10, m)) if m.contains("CORE")
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let text = tiny("INST u0 INV_X1 8 1 N PLACED");
        assert!(matches!(
            read_def(&text, &lib),
            Err(ReadDefError::Syntax(10, m)) if m.contains("inst u0")
        ));
        let text = tiny("PORT a 9 9 IN");
        assert!(matches!(
            read_def(&text, &lib),
            Err(ReadDefError::Syntax(10, m)) if m.contains("port a")
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let txt = "VM1DEF 1\n# comment\n\nDESIGN x\nARCH ClosedM1\nCORE 2 20\nCOUNTS 0 0 0\nEND\n# trailing\n";
        let d = read_def(txt, &lib).unwrap();
        assert_eq!(d.name(), "x");
        assert_eq!(d.num_insts(), 0);
    }

    #[test]
    fn lost_lines_fail_the_counts() {
        // A file that lost whole NET lines but kept its END no longer
        // matches its COUNTS line.
        let (d, lib) = sample();
        let text = write_def(&d);
        let mut nets = 0;
        let cut: String = text
            .lines()
            .filter(|l| {
                nets += usize::from(l.starts_with("NET "));
                !(l.starts_with("NET ") && nets % 2 == 0)
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let declared = [d.num_ports(), d.num_insts(), d.num_nets()];
        let found = [d.num_ports(), d.num_insts(), d.num_nets().div_ceil(2)];
        assert_eq!(
            read_def(&cut, &lib).err(),
            Some(ReadDefError::CountMismatch { declared, found })
        );
    }

    #[test]
    fn missing_or_misplaced_counts_rejected() {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let no_counts = tiny("NET n0 P:a I:u0:A").replace("COUNTS 2 2 1\n", "");
        assert!(matches!(
            read_def(&no_counts, &lib),
            Err(ReadDefError::Syntax(10, m)) if m.contains("COUNTS")
        ));
        let twice = tiny("COUNTS 2 2 1\nNET n0 P:a I:u0:A");
        assert!(matches!(
            read_def(&twice, &lib),
            Err(ReadDefError::Syntax(10, m)) if m.contains("COUNTS")
        ));
        let early = "VM1DEF 1\nDESIGN x\nARCH ClosedM1\nCOUNTS 0 0 0\nCORE 2 20\nEND\n";
        assert!(matches!(
            read_def(early, &lib),
            Err(ReadDefError::Syntax(4, m)) if m.contains("COUNTS")
        ));
    }

    #[test]
    fn line_after_end_rejected() {
        // An INST line placed after END is an error, not part of the
        // design.
        let (d, lib) = sample();
        let text = write_def(&d) + "INST late INV_X1 0 0 N PLACED\n";
        let end = text.lines().count();
        assert_eq!(
            read_def(&text, &lib).err(),
            Some(ReadDefError::Syntax(end, "line after END".into()))
        );
    }
}
