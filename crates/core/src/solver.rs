//! Window solvers: exact DFS branch-and-bound, faithful MILP, and greedy.
//!
//! All three consume a [`WindowProblem`] and return a candidate assignment
//! that is legal and no worse than the input placement. The DFS and MILP
//! solvers find the same optimum (cross-checked in tests); the DFS solver
//! exploits the fact that every auxiliary MILP variable (net bounds,
//! `d_pq`, `o_pq`) is uniquely determined by the λ assignment, so the
//! search space is just one candidate choice per cell with admissible
//! bounds.

use crate::milp::{build_milp, extract_assignment, warm_start};
use crate::problem::{End, PinGeo, WindowProblem};
use crate::{SolverKind, Vm1Config};
use std::ops::Range;
use vm1_milp::{solve as milp_solve, solve_certified, SolveParams};
use vm1_obs::{Counter, MetricsHandle, Stage};

/// Solves a window problem with the engine selected in `cfg`.
///
/// The returned assignment is always legal and its objective never exceeds
/// the input placement's.
#[must_use]
pub fn solve_window(prob: &WindowProblem, cfg: &Vm1Config) -> Vec<usize> {
    solve_window_with(prob, cfg, &MetricsHandle::disabled())
}

/// [`solve_window`] with a metrics sink: records solver-engine counters
/// ([`Counter::DfsNodes`], [`Counter::GreedyPasses`], the MILP family) and
/// the MILP build/solve stage timers. A DFS solve that stops at
/// `cfg.max_nodes` is not exact; it also counts under
/// [`Counter::DfsNodeLimitHits`] and [`Counter::DfsNodesCapped`].
#[must_use]
pub fn solve_window_with(
    prob: &WindowProblem,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> Vec<usize> {
    if prob.cells.is_empty() {
        return Vec::new();
    }
    let result = match cfg.solver {
        SolverKind::Dfs => {
            let (assign, nodes) = dfs_solve_counted(prob, cfg.max_nodes);
            metrics.add(Counter::DfsNodes, nodes as u64);
            // The search stops as soon as the count reaches the cap, so
            // only a capped solve ends at or above it.
            if nodes >= cfg.max_nodes {
                metrics.incr(Counter::DfsNodeLimitHits);
                metrics.add(Counter::DfsNodesCapped, nodes as u64);
            }
            assign
        }
        SolverKind::Milp => milp_window_solve_with(prob, cfg, metrics),
        SolverKind::Greedy => {
            let (assign, passes) = greedy_solve_counted(prob, 4);
            metrics.add(Counter::GreedyPasses, passes as u64);
            assign
        }
    };
    // Safety net: never return something worse or illegal.
    let cur = prob.current_assign();
    if prob.is_legal(&result) && prob.eval(&result) <= prob.eval(&cur) + 1e-9 {
        result
    } else {
        cur
    }
}

// ---------------------------------------------------------------------------
// MILP
// ---------------------------------------------------------------------------

/// Solves the window through the faithful MILP formulation.
#[must_use]
pub fn milp_window_solve(prob: &WindowProblem, cfg: &Vm1Config) -> Vec<usize> {
    milp_window_solve_with(prob, cfg, &MetricsHandle::disabled())
}

/// [`milp_window_solve`] with a metrics sink. The B&B statistics
/// (nodes, prunes, LP solves, pivots, presolve reductions) are emitted by
/// `vm1-milp` itself through the handle passed in [`SolveParams`];
/// this layer adds the build/solve timers and the fallback counter.
#[must_use]
pub fn milp_window_solve_with(
    prob: &WindowProblem,
    cfg: &Vm1Config,
    metrics: &MetricsHandle,
) -> Vec<usize> {
    let (model, vars) = metrics.timed(Stage::MilpBuild, || build_milp(prob));
    // Pre-solve checkpoint: the emitted window model must lint clean of
    // structural errors (infeasible bounds, malformed SOS1 groups).
    #[cfg(debug_assertions)]
    {
        let lint = vm1_milp::audit::audit_with(&model, metrics);
        assert!(
            !lint.has_errors(),
            "window MILP failed the model lint:\n{}",
            lint.summary()
        );
    }
    let cur = prob.current_assign();
    let params = SolveParams {
        max_nodes: cfg.max_nodes,
        time_limit_ms: 30_000,
        abs_gap: 1e-6,
        warm_start: Some(warm_start(prob, &model, &vars, &cur)),
        metrics: metrics.clone(),
    };
    let sol = if cfg.certify {
        // Proof-carrying solve: record a certificate alongside the B&B
        // run and replay it through the independent exact-arithmetic
        // checker. A rejected certificate means the solve cannot be
        // trusted, so the window keeps its input placement.
        let certified = metrics.timed(Stage::MilpSolve, || solve_certified(&model, &params));
        metrics.incr(Counter::CertRecorded);
        let report = metrics.timed(Stage::Certify, || {
            vm1_certify::check(&model, &certified.certificate)
        });
        if report.accepted {
            metrics.incr(Counter::CertVerified);
        } else {
            metrics.incr(Counter::CertRejected);
            metrics.incr(Counter::MilpFallbacks);
            return cur;
        }
        certified.solution
    } else {
        metrics.timed(Stage::MilpSolve, || milp_solve(&model, &params))
    };
    if sol.has_solution() {
        extract_assignment(&vars, &sol.values)
    } else {
        metrics.incr(Counter::MilpFallbacks);
        cur
    }
}

// ---------------------------------------------------------------------------
// Exact DFS branch-and-bound
// ---------------------------------------------------------------------------

/// A net's bounding box in nm; [`BBox::EMPTY`] while the net has no
/// placed pin.
#[derive(Clone, Copy)]
struct BBox {
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
}

impl BBox {
    const EMPTY: BBox = BBox {
        x0: i64::MAX,
        y0: i64::MAX,
        x1: i64::MIN,
        y1: i64::MIN,
    };

    fn of(bb: Option<(i64, i64, i64, i64)>) -> BBox {
        bb.map_or(BBox::EMPTY, |(x0, y0, x1, y1)| BBox { x0, y0, x1, y1 })
    }

    /// The box grown by the pins `slots` of one cell placed with pin
    /// geometry `geo` (indexed by slot).
    fn grow(mut self, geo: &[PinGeo], slots: &[usize]) -> BBox {
        for &slot in slots {
            let g = geo[slot];
            self.x0 = self.x0.min(g.x);
            self.y0 = self.y0.min(g.y);
            self.x1 = self.x1.max(g.x);
            self.y1 = self.y1.max(g.y);
        }
        self
    }

    fn weighted_hpwl(self, weight: f64) -> f64 {
        if self.x0 > self.x1 {
            0.0
        } else {
            weight * ((self.x1 - self.x0) + (self.y1 - self.y0)) as f64
        }
    }
}

/// A net touching a cell, with that cell's pin slots on it.
struct NetInc {
    net: usize,
    weight: f64,
    /// Range of [`Incidence::slots`], in the net's pin order.
    slots: Range<usize>,
}

/// Per-solve incidence lists and pin geometry in flat form, so the search
/// never rescans a net's pin list, clones a per-cell list or chases the
/// nested [`WindowProblem::pin_geo`].
struct Incidence {
    /// Per cell: its range of `nets`.
    cell_nets: Vec<Range<usize>>,
    /// Per cell, the nets it touches in ascending order.
    nets: Vec<NetInc>,
    slots: Vec<usize>,
    /// Per cell: its range of `pairs`.
    cell_pairs: Vec<Range<usize>>,
    /// Pair indices per cell, ascending; a pair with both ends on the
    /// same cell appears twice.
    pairs: Vec<usize>,
    /// Per cell: offset of its candidate 0 in `geo` and its slot count.
    geo_base: Vec<(usize, usize)>,
    /// [`WindowProblem::pin_geo`] flattened.
    geo: Vec<PinGeo>,
}

impl Incidence {
    fn build(prob: &WindowProblem) -> Incidence {
        let n = prob.cells.len();
        let mut per_cell: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n];
        for (ni, net) in prob.nets.iter().enumerate() {
            for &(cell, slot) in &net.movable {
                match per_cell[cell].last_mut() {
                    Some((last, slots)) if *last == ni => slots.push(slot),
                    _ => per_cell[cell].push((ni, vec![slot])),
                }
            }
        }
        let mut inc = Incidence {
            cell_nets: Vec::with_capacity(n),
            nets: Vec::new(),
            slots: Vec::new(),
            cell_pairs: Vec::with_capacity(n),
            pairs: Vec::new(),
            geo_base: Vec::with_capacity(n),
            geo: Vec::new(),
        };
        for nets in per_cell {
            let start = inc.nets.len();
            for (net, slots) in nets {
                let s0 = inc.slots.len();
                inc.slots.extend(slots);
                inc.nets.push(NetInc {
                    net,
                    weight: prob.nets[net].weight,
                    slots: s0..inc.slots.len(),
                });
            }
            inc.cell_nets.push(start..inc.nets.len());
        }
        let mut per_cell: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pi, pair) in prob.pairs.iter().enumerate() {
            for e in [&pair.a, &pair.b] {
                if let End::Movable { cell, .. } = *e {
                    per_cell[cell].push(pi);
                }
            }
        }
        for pairs in per_cell {
            let start = inc.pairs.len();
            inc.pairs.extend(pairs);
            inc.cell_pairs.push(start..inc.pairs.len());
        }
        for per_cand in &prob.pin_geo {
            let stride = per_cand.first().map_or(0, Vec::len);
            inc.geo_base.push((inc.geo.len(), stride));
            inc.geo.extend(per_cand.iter().flatten());
        }
        inc
    }

    /// Pin geometry of `cell` at candidate `k`, indexed by slot.
    fn geo(&self, cell: usize, k: usize) -> &[PinGeo] {
        let (base, stride) = self.geo_base[cell];
        &self.geo[base + k * stride..base + (k + 1) * stride]
    }

    /// [`WindowProblem::pair_bonus`] of pair `pi` with `cell` at
    /// candidate `k` and every other cell at `assign`.
    fn pair_bonus(
        &self,
        prob: &WindowProblem,
        pi: usize,
        assign: &[usize],
        cell: usize,
        k: usize,
    ) -> f64 {
        let pair = &prob.pairs[pi];
        let geo = |e: &End| match *e {
            End::Fixed(g) => g,
            End::Movable { cell: c, slot } => {
                self.geo(c, if c == cell { k } else { assign[c] })[slot]
            }
        };
        prob.geo_bonus(geo(&pair.a), geo(&pair.b))
    }
}

/// A pair's share of the bound, held by the one cell that owns it: the
/// end the search order assigns last, or the only movable end.
#[derive(Clone, Copy)]
struct OwnedPair {
    /// The owner's pin slot on the pair.
    slot: usize,
    /// The other end's `(cell, slot)` when it is movable.
    partner: Option<(usize, usize)>,
    /// Offset of the owner's candidate 0 in [`Relaxation::reach`].
    reach: usize,
}

/// The cell-separable relaxation behind the DFS bound. Every pair and
/// every net is owned by one cell (its movable end or pin assigned last
/// in the search order), so each unassigned cell can take its own best
/// legal candidate for what it owns, independently of the others, without
/// crediting anything twice. Static per solve.
struct Relaxation {
    /// Per cell: its position in the search order.
    pos: Vec<usize>,
    /// Per cell: its range of `pairs`.
    cell_pairs: Vec<Range<usize>>,
    pairs: Vec<OwnedPair>,
    /// Per owned pair, per owner candidate: the bonus against a fixed
    /// partner, or the best bonus over every candidate of a movable one.
    reach: Vec<f64>,
    /// Per cell: its range of `nets`.
    cell_nets: Vec<Range<usize>>,
    /// Indices into [`Incidence::nets`] of the nets each cell owns.
    nets: Vec<usize>,
}

impl Relaxation {
    fn build(prob: &WindowProblem, inc: &Incidence, order: &[usize]) -> Relaxation {
        let n = prob.cells.len();
        let mut pos = vec![0; n];
        for (d, &c) in order.iter().enumerate() {
            pos[c] = d;
        }
        // Per cell: `(pair, share)` of each pair it owns; the reach offsets
        // are set below.
        let mut per_cell: Vec<Vec<(usize, OwnedPair)>> = vec![Vec::new(); n];
        for (pi, pair) in prob.pairs.iter().enumerate() {
            let (cell, slot, partner) = match (pair.a, pair.b) {
                (End::Movable { cell: a, slot: sa }, End::Movable { cell: b, slot: sb }) => {
                    if pos[a] >= pos[b] {
                        (a, sa, Some((b, sb)))
                    } else {
                        (b, sb, Some((a, sa)))
                    }
                }
                (End::Movable { cell, slot }, End::Fixed(_))
                | (End::Fixed(_), End::Movable { cell, slot }) => (cell, slot, None),
                (End::Fixed(_), End::Fixed(_)) => continue,
            };
            let share = OwnedPair {
                slot,
                partner,
                reach: 0,
            };
            per_cell[cell].push((pi, share));
        }
        let mut rx = Relaxation {
            pos,
            cell_pairs: Vec::with_capacity(n),
            pairs: Vec::new(),
            reach: Vec::new(),
            cell_nets: Vec::with_capacity(n),
            nets: Vec::new(),
        };
        for (cell, owned) in per_cell.into_iter().enumerate() {
            let start = rx.pairs.len();
            for (pi, mut share) in owned {
                let fixed = match (prob.pairs[pi].a, prob.pairs[pi].b) {
                    (End::Fixed(g), _) | (_, End::Fixed(g)) => Some(g),
                    _ => None,
                };
                share.reach = rx.reach.len();
                for k in 0..prob.cells[cell].cands.len() {
                    let own = inc.geo(cell, k)[share.slot];
                    rx.reach.push(match (fixed, share.partner) {
                        (Some(g), _) => prob.geo_bonus(own, g),
                        (None, Some((pc, ps))) => (0..prob.cells[pc].cands.len())
                            .map(|kp| prob.geo_bonus(own, inc.geo(pc, kp)[ps]))
                            .fold(0.0, f64::max),
                        (None, None) => 0.0,
                    });
                }
                rx.pairs.push(share);
            }
            rx.cell_pairs.push(start..rx.pairs.len());
        }
        let owner: Vec<Option<usize>> = prob
            .nets
            .iter()
            .map(|net| {
                net.movable
                    .iter()
                    .map(|&(c, _)| c)
                    .max_by_key(|&c| rx.pos[c])
            })
            .collect();
        for cell in 0..n {
            let start = rx.nets.len();
            rx.nets.extend(
                inc.cell_nets[cell]
                    .clone()
                    .filter(|&j| owner[inc.nets[j].net] == Some(cell)),
            );
            rx.cell_nets.push(start..rx.nets.len());
        }
        rx
    }
}

/// Per-row occupancy bitmask of the cells placed on the current search
/// path: bit `s` of row `r` is site `site0 + s` of row `row0 + r`, and a
/// row spans `words` 64-bit words. Placed spans never overlap, so set and
/// clear are exact inverses, and a span clashes with the placed cells iff
/// it shares a bit with them (cell widths are at least one site).
struct RowBits {
    row0: i64,
    site0: i64,
    words: usize,
    bits: Vec<u64>,
}

impl RowBits {
    /// Empty occupancy over the rows `row0..row1` and sites
    /// `site0..site1`.
    fn new(row0: i64, row1: i64, site0: i64, site1: i64) -> RowBits {
        let words = ((site1 - site0).max(0) as usize).div_ceil(64);
        RowBits {
            row0,
            site0,
            words,
            bits: vec![0; (row1 - row0).max(0) as usize * words],
        }
    }

    /// Empty occupancy covering every candidate span of `prob`.
    fn covering(prob: &WindowProblem) -> RowBits {
        let spans = prob
            .cells
            .iter()
            .flat_map(|c| c.cands.iter().map(|k| (k.row, k.site, k.site + c.width)));
        let bounds = spans.fold(None, |acc, (r, a, b)| {
            let (r0, r1, s0, s1) = acc.unwrap_or((r, r + 1, a, b));
            Some((r0.min(r), r1.max(r + 1), s0.min(a), s1.max(b)))
        });
        let (r0, r1, s0, s1) = bounds.unwrap_or_default();
        RowBits::new(r0, r1, s0, s1)
    }

    /// `(word index, mask)` of each word the sites `s0..s1` of `row`
    /// cover.
    fn words(&self, row: i64, s0: i64, s1: i64) -> impl Iterator<Item = (usize, u64)> {
        let base = (row - self.row0) as usize * self.words;
        let b0 = (s0 - self.site0) as usize;
        let b1 = (s1 - self.site0) as usize;
        (b0 / 64..b1.div_ceil(64)).map(move |w| {
            let lo = b0.max(w * 64) - w * 64;
            let hi = b1.min(w * 64 + 64) - w * 64;
            (base + w, (u64::MAX >> (64 - (hi - lo))) << lo)
        })
    }

    fn clashes(&self, row: i64, s0: i64, s1: i64) -> bool {
        self.words(row, s0, s1).any(|(w, m)| self.bits[w] & m != 0)
    }

    fn set(&mut self, row: i64, s0: i64, s1: i64) {
        for (w, m) in self.words(row, s0, s1) {
            self.bits[w] |= m;
        }
    }

    fn clear(&mut self, row: i64, s0: i64, s1: i64) {
        for (w, m) in self.words(row, s0, s1) {
            self.bits[w] &= !m;
        }
    }
}

struct DfsState<'a> {
    prob: &'a WindowProblem,
    inc: Incidence,
    rx: Relaxation,
    /// Cell order (most constrained first).
    order: Vec<usize>,
    assign: Vec<usize>,
    best_assign: Vec<usize>,
    best_obj: f64,
    nodes: usize,
    max_nodes: usize,
    /// Per pair: number of movable, not-yet-assigned endpoints.
    pair_open: Vec<u8>,
    /// Bonus collected from decided pairs.
    done_bonus: f64,
    /// Per net: current bbox (fixed ∪ assigned pins) and its HPWL.
    net_bb: Vec<BBox>,
    hpwl_partial: f64,
    /// Sites taken by the assigned cells, for legality.
    occupied: RowBits,
    /// Per depth: the candidate order of the cell expanded there.
    cand_bufs: Vec<Vec<(f64, usize)>>,
    /// Undo stacks shared by all depths: `(net, old bbox, old − new
    /// weighted HPWL)` and `(pair, bonus collected)`. Each expansion pops
    /// back to the length it found.
    undo_bb: Vec<(usize, BBox, f64)>,
    undo_pairs: Vec<(usize, f64)>,
}

/// Exact branch-and-bound over candidate assignments.
#[must_use]
pub fn dfs_solve(prob: &WindowProblem, max_nodes: usize) -> Vec<usize> {
    dfs_solve_counted(prob, max_nodes).0
}

/// [`dfs_solve`] also returning the number of search nodes explored.
fn dfs_solve_counted(prob: &WindowProblem, max_nodes: usize) -> (Vec<usize>, usize) {
    let cur = prob.current_assign();
    let inc = Incidence::build(prob);
    let mut pair_open = vec![0u8; prob.pairs.len()];
    for &pi in &inc.pairs {
        pair_open[pi] += 1;
    }

    let net_bb: Vec<BBox> = prob.nets.iter().map(|nt| BBox::of(nt.fixed)).collect();
    let hpwl_partial: f64 = prob
        .nets
        .iter()
        .zip(&net_bb)
        .map(|(nt, bb)| bb.weighted_hpwl(nt.weight))
        .sum();

    // Order: most constrained (fewest candidates) first.
    let mut order: Vec<usize> = (0..prob.cells.len()).collect();
    order.sort_by_key(|&c| prob.cells[c].cands.len());
    let cand_bufs = order
        .iter()
        .map(|&c| Vec::with_capacity(prob.cells[c].cands.len()))
        .collect();
    let rx = Relaxation::build(prob, &inc, &order);

    let mut st = DfsState {
        prob,
        order,
        assign: cur.clone(),
        best_assign: cur.clone(),
        best_obj: prob.eval(&cur),
        nodes: 0,
        max_nodes,
        pair_open,
        done_bonus: 0.0,
        net_bb,
        hpwl_partial,
        occupied: RowBits::covering(prob),
        cand_bufs,
        undo_bb: Vec::with_capacity(inc.nets.len()),
        undo_pairs: Vec::with_capacity(inc.pairs.len()),
        inc,
        rx,
    };
    dfs_recurse(&mut st, 0);
    (st.best_assign, st.nodes)
}

/// One expansion of the search. Allocation-free: every list it walks is
/// precomputed in [`Incidence`], and its buffers live in [`DfsState`].
fn dfs_recurse(st: &mut DfsState<'_>, depth: usize) {
    if st.nodes >= st.max_nodes {
        return;
    }
    if depth == st.order.len() {
        let obj = st.hpwl_partial - st.done_bonus;
        if obj < st.best_obj - 1e-9 {
            st.best_obj = obj;
            st.best_assign.copy_from_slice(&st.assign);
        }
        return;
    }
    let prob = st.prob;
    let cell = st.order[depth];
    let mc = &prob.cells[cell];

    // Candidate order: cheapest local cost first for early incumbents.
    let mut cand_order = std::mem::take(&mut st.cand_bufs[depth]);
    cand_order.clear();
    cand_order.extend((0..mc.cands.len()).map(|k| (local_score(st, cell, k), k)));
    cand_order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    for &(_, k) in &cand_order {
        st.nodes += 1;
        if st.nodes >= st.max_nodes {
            break;
        }
        let cand = mc.cands[k];
        // Legality against assigned cells.
        let (row, s0, s1) = (cand.row, cand.site, cand.site + mc.width);
        if st.occupied.clashes(row, s0, s1) {
            continue;
        }

        // ---- apply -----------------------------------------------------
        st.assign[cell] = k;
        st.occupied.set(row, s0, s1);
        let geo = st.inc.geo(cell, k);
        let bb_base = st.undo_bb.len();
        for ni in &st.inc.nets[st.inc.cell_nets[cell].clone()] {
            let old = st.net_bb[ni.net];
            let old_hp = old.weighted_hpwl(ni.weight);
            let bb = old.grow(geo, &st.inc.slots[ni.slots.clone()]);
            let new_hp = bb.weighted_hpwl(ni.weight);
            st.net_bb[ni.net] = bb;
            st.hpwl_partial += new_hp - old_hp;
            st.undo_bb.push((ni.net, old, old_hp - new_hp));
        }
        let pairs_base = st.undo_pairs.len();
        for &pi in &st.inc.pairs[st.inc.cell_pairs[cell].clone()] {
            st.pair_open[pi] -= 1;
            if st.pair_open[pi] == 0 {
                // Pair decided: collect its bonus.
                let actual = st.inc.pair_bonus(prob, pi, &st.assign, cell, k);
                st.done_bonus += actual;
                st.undo_pairs.push((pi, actual));
            }
        }

        // ---- bound & recurse ---------------------------------------------
        if let Some(credit) = open_credit(st, depth + 1) {
            let bound = st.hpwl_partial - st.done_bonus - credit;
            if bound < st.best_obj - 1e-9 {
                dfs_recurse(st, depth + 1);
            }
        }

        // ---- undo ---------------------------------------------------------
        for (_, actual) in st.undo_pairs.drain(pairs_base..).rev() {
            st.done_bonus -= actual;
        }
        for &pi in &st.inc.pairs[st.inc.cell_pairs[cell].clone()] {
            st.pair_open[pi] += 1;
        }
        for (ni, old, hp_delta) in st.undo_bb.drain(bb_base..).rev() {
            st.net_bb[ni] = old;
            st.hpwl_partial += hp_delta;
        }
        st.occupied.clear(row, s0, s1);
    }
    st.assign[cell] = mc.current;
    st.cand_bufs[depth] = cand_order;
}

/// The most the cells `order[depth..]` (all unassigned) can still take
/// off the objective: per cell, the best over its candidates that clash
/// with no assigned cell of the bonus of the pairs it owns minus the
/// weighted HPWL growth of the nets it owns; `None` if some cell has no
/// such candidate. Admissible: each pair and net is credited to one cell,
/// each cell to one candidate, and a net's box only grows.
fn open_credit(st: &DfsState<'_>, depth: usize) -> Option<f64> {
    let (prob, inc, rx) = (st.prob, &st.inc, &st.rx);
    let mut credit = 0.0;
    for &cell in &st.order[depth..] {
        let mc = &prob.cells[cell];
        let pairs = &rx.pairs[rx.cell_pairs[cell].clone()];
        let nets = &rx.nets[rx.cell_nets[cell].clone()];
        let mut best = None::<f64>;
        for (k, cand) in mc.cands.iter().enumerate() {
            if st
                .occupied
                .clashes(cand.row, cand.site, cand.site + mc.width)
            {
                continue;
            }
            let geo = inc.geo(cell, k);
            let mut v = 0.0;
            for op in pairs {
                v += match op.partner {
                    Some((pc, ps)) if rx.pos[pc] < depth => {
                        prob.geo_bonus(geo[op.slot], inc.geo(pc, st.assign[pc])[ps])
                    }
                    _ => rx.reach[op.reach + k],
                };
            }
            for &j in nets {
                let ni = &inc.nets[j];
                let bb = st.net_bb[ni.net];
                v -= bb
                    .grow(geo, &inc.slots[ni.slots.clone()])
                    .weighted_hpwl(ni.weight)
                    - bb.weighted_hpwl(ni.weight);
            }
            best = Some(best.map_or(v, |b| b.max(v)));
        }
        credit += best?;
    }
    Some(credit)
}

/// Heuristic per-candidate score used only for move ordering.
fn local_score(st: &DfsState<'_>, cell: usize, k: usize) -> f64 {
    let prob = st.prob;
    let geo = st.inc.geo(cell, k);
    let mut score = 0.0;
    for ni in &st.inc.nets[st.inc.cell_nets[cell].clone()] {
        let bb = st.net_bb[ni.net].grow(geo, &st.inc.slots[ni.slots.clone()]);
        score += bb.weighted_hpwl(ni.weight);
    }
    // Reward candidates that immediately decide pairs favourably.
    for &pi in &st.inc.pairs[st.inc.cell_pairs[cell].clone()] {
        if st.pair_open[pi] == 1 {
            score -= st.inc.pair_bonus(prob, pi, &st.assign, cell, k);
        }
    }
    score
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Greedy coordinate descent: repeatedly give each cell its locally best
/// candidate. Baseline/ablation engine.
#[must_use]
pub fn greedy_solve(prob: &WindowProblem, passes: usize) -> Vec<usize> {
    greedy_solve_counted(prob, passes).0
}

/// [`greedy_solve`] also returning the number of passes executed.
fn greedy_solve_counted(prob: &WindowProblem, passes: usize) -> (Vec<usize>, usize) {
    let mut assign = prob.current_assign();
    let mut executed = 0usize;
    for _ in 0..passes {
        executed += 1;
        let mut improved = false;
        for cell in 0..prob.cells.len() {
            let mut best_k = assign[cell];
            let mut best_v = prob.eval(&assign);
            let orig = assign[cell];
            for k in 0..prob.cells[cell].cands.len() {
                if k == orig {
                    continue;
                }
                assign[cell] = k;
                if prob.is_legal(&assign) {
                    let v = prob.eval(&assign);
                    if v < best_v - 1e-9 {
                        best_v = v;
                        best_k = k;
                    }
                }
            }
            assign[cell] = best_k;
            improved |= best_k != orig;
        }
        if !improved {
            break;
        }
    }
    (assign, executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Overrides;
    use crate::window::Window;
    use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
    use vm1_netlist::Design;
    use vm1_place::{place, PlaceConfig, RowMap};
    use vm1_tech::{CellArch, Library};

    fn problem(arch: CellArch, n_cells: usize, seed: u64) -> WindowProblem {
        problem_at(arch, n_cells, seed, 0, (2, 1, false))
    }

    /// Up to `n_cells` movable cells of a 36-site × 4-row window at site
    /// `site0` of a placed 200-inst m0 design, with displacement `lx`/`ly`
    /// and flip setting `flip`. Cells are picked in window order, each
    /// next one sharing a net with those already picked where possible,
    /// so the window holds pairs between movable cells.
    fn problem_at(
        arch: CellArch,
        n_cells: usize,
        seed: u64,
        site0: i64,
        (lx, ly, flip): (i64, i64, bool),
    ) -> WindowProblem {
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(200)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let cfg = if arch == CellArch::OpenM1 {
            Vm1Config::openm1()
        } else {
            Vm1Config::closedm1()
        };
        let rm = RowMap::build(&d);
        let w_sites = d.sites_per_row.min(36);
        let win = Window {
            site0: site0.min(d.sites_per_row - w_sites),
            row0: 0,
            w_sites,
            h_rows: d.num_rows.min(4),
        };
        let mut rest = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let mut movable = Vec::new();
        let mut nets = Vec::new();
        while movable.len() < n_cells && !rest.is_empty() {
            let next = rest
                .iter()
                .position(|&id| d.inst_nets(id).iter().any(|n| nets.contains(n)))
                .unwrap_or(0);
            let id = rest.remove(next);
            nets.extend(d.inst_nets(id));
            movable.push(id);
        }
        WindowProblem::build(
            &d,
            &rm,
            win,
            &movable,
            lx,
            ly,
            flip,
            &cfg,
            &Overrides::new(),
        )
    }

    /// Exhaustive optimum over all legal assignments (partial assignments
    /// that already overlap are cut, nothing else).
    fn brute_force(prob: &WindowProblem) -> f64 {
        fn rec(prob: &WindowProblem, assign: &mut Vec<usize>, cell: usize, best: &mut f64) {
            if !prob.is_legal(&assign[..cell]) {
                return;
            }
            if cell == prob.cells.len() {
                *best = best.min(prob.eval(assign));
                return;
            }
            for k in 0..prob.cells[cell].cands.len() {
                assign[cell] = k;
                rec(prob, assign, cell + 1, best);
            }
        }
        let mut best = f64::INFINITY;
        let mut assign = prob.current_assign();
        rec(prob, &mut assign, 0, &mut best);
        best
    }

    /// Asserts that the uncapped DFS returns a legal assignment with the
    /// brute-force optimum.
    fn assert_dfs_exact(prob: &WindowProblem, what: &str) {
        let expect = brute_force(prob);
        let got = dfs_solve(prob, usize::MAX);
        assert!(prob.is_legal(&got), "{what}: dfs assignment legal");
        assert!(
            (prob.eval(&got) - expect).abs() < 1e-6,
            "{what}: dfs {} vs brute {expect}",
            prob.eval(&got)
        );
    }

    #[test]
    fn dfs_on_empty_window_returns_empty() {
        let prob = problem(CellArch::ClosedM1, 0, 1);
        assert!(prob.cells.is_empty());
        assert!(dfs_solve(&prob, 1_000).is_empty());
    }

    #[test]
    fn dfs_matches_brute_force() {
        // Both architectures, with and without flipping, 4- and 5-cell
        // windows: a bound that prunes a subtree holding the optimum
        // fails here.
        for arch in [CellArch::ClosedM1, CellArch::OpenM1] {
            for flip in [false, true] {
                for seed in 1..=10 {
                    let cells = 4 + (seed % 2) as usize;
                    let displace = if flip { (1, 1, true) } else { (2, 1, false) };
                    let prob = problem_at(arch, cells, seed, 0, displace);
                    assert!(prob.cells.len() >= 4, "{arch} seed {seed}: full window");
                    assert_dfs_exact(&prob, &format!("{arch} flip {flip} seed {seed}"));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn dfs_equals_brute_force_on_random_windows(
            open in 0u8..2,
            seed in 0u64..1_000,
            cells in 2usize..6,
            site0 in 0i64..40,
            lx in 0i64..5,
            ly in 0i64..2,
            flip in 0u8..2,
        ) {
            let arch = [CellArch::ClosedM1, CellArch::OpenM1][open as usize];
            let prob = problem_at(arch, cells, seed, site0, (lx, ly, flip == 1));
            let leaves: usize = prob.cells.iter().map(|c| c.cands.len()).product();
            proptest::prop_assume!(!prob.cells.is_empty() && leaves <= 300_000);
            assert_dfs_exact(&prob, &format!("{arch} seed {seed} cells {cells} at {site0}"));
        }
    }

    #[test]
    fn milp_matches_dfs() {
        for arch in [CellArch::ClosedM1, CellArch::OpenM1] {
            let prob = problem(arch, 3, 4);
            if prob.cells.len() < 2 {
                continue;
            }
            let cfg = if arch == CellArch::OpenM1 {
                Vm1Config::openm1()
            } else {
                Vm1Config::closedm1()
            };
            let dfs = dfs_solve(&prob, 1_000_000);
            let milp = milp_window_solve(&prob, &cfg);
            assert!(prob.is_legal(&milp), "{arch}: milp assignment legal");
            assert!(
                (prob.eval(&dfs) - prob.eval(&milp)).abs() < 1e-6,
                "{arch}: dfs {} vs milp {}",
                prob.eval(&dfs),
                prob.eval(&milp)
            );
        }
    }

    #[test]
    fn certified_milp_matches_dfs_and_records_counters() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let prob = problem(CellArch::ClosedM1, 3, 4);
        if prob.cells.len() < 2 {
            return;
        }
        let cfg = Vm1Config::closedm1()
            .with_solver(SolverKind::Milp)
            .with_certify(true);
        let sink = Arc::new(Telemetry::new());
        let metrics = MetricsHandle::of(sink.clone());
        let a = solve_window_with(&prob, &cfg, &metrics);
        assert!(prob.is_legal(&a));
        let dfs = dfs_solve(&prob, 1_000_000);
        assert!(
            (prob.eval(&a) - prob.eval(&dfs)).abs() < 1e-6,
            "certified milp {} vs dfs {}",
            prob.eval(&a),
            prob.eval(&dfs)
        );
        let report = sink.report();
        assert!(report.counter(Counter::CertRecorded) >= 1);
        assert_eq!(
            report.counter(Counter::CertVerified),
            report.counter(Counter::CertRecorded),
            "every recorded certificate must verify"
        );
        assert_eq!(report.counter(Counter::CertRejected), 0);
    }

    #[test]
    fn greedy_never_worse_than_input() {
        let prob = problem(CellArch::ClosedM1, 5, 5);
        let cur = prob.current_assign();
        let greedy = greedy_solve(&prob, 4);
        assert!(prob.is_legal(&greedy));
        assert!(prob.eval(&greedy) <= prob.eval(&cur) + 1e-9);
    }

    #[test]
    fn dfs_improves_or_equals_greedy() {
        let prob = problem(CellArch::ClosedM1, 5, 6);
        let dfs = dfs_solve(&prob, 1_000_000);
        let greedy = greedy_solve(&prob, 4);
        assert!(prob.eval(&dfs) <= prob.eval(&greedy) + 1e-9);
    }

    #[test]
    fn solve_window_dispatch_respects_safety_net() {
        let prob = problem(CellArch::ClosedM1, 5, 7);
        for kind in [SolverKind::Dfs, SolverKind::Milp, SolverKind::Greedy] {
            let cfg = Vm1Config::closedm1().with_solver(kind);
            let a = solve_window(&prob, &cfg);
            assert!(prob.is_legal(&a), "{kind:?}");
            assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);
        }
    }

    #[test]
    fn node_cap_still_returns_legal() {
        use std::sync::Arc;
        use vm1_obs::Telemetry;
        let prob = problem(CellArch::ClosedM1, 6, 8);
        let a = dfs_solve(&prob, 10); // absurdly small budget
        assert!(prob.is_legal(&a));
        assert!(prob.eval(&a) <= prob.eval(&prob.current_assign()) + 1e-9);

        // Through the dispatcher the capped solve is counted as such; an
        // uncapped one is not.
        let solve = |max_nodes: usize| {
            let mut cfg = Vm1Config::closedm1();
            cfg.max_nodes = max_nodes;
            let sink = Arc::new(Telemetry::new());
            let a = solve_window_with(&prob, &cfg, &MetricsHandle::of(sink.clone()));
            assert!(prob.is_legal(&a));
            sink.report()
        };
        let capped = solve(10);
        assert_eq!(capped.counter(Counter::DfsNodeLimitHits), 1);
        assert_eq!(
            capped.counter(Counter::DfsNodesCapped),
            capped.counter(Counter::DfsNodes)
        );
        assert!(capped.counter(Counter::DfsNodes) >= 10);
        let exact = solve(1_000_000);
        assert!(exact.counter(Counter::DfsNodes) < 1_000_000);
        assert_eq!(exact.counter(Counter::DfsNodeLimitHits), 0);
        assert_eq!(exact.counter(Counter::DfsNodesCapped), 0);
    }

    #[test]
    fn row_bits_clash_matches_span_scan() {
        // Random span sets over rows wider than one word: the bitmask must
        // give the verdict of the O(n) scan it replaces, through both
        // placing and lifting spans.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = |n: i64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as i64
        };
        for _ in 0..200 {
            let (row0, rows) = (rand(5) - 2, 1 + rand(4));
            let (site0, sites) = (rand(40) - 20, 1 + rand(200));
            let mut bits = RowBits::new(row0, row0 + rows, site0, site0 + sites);
            let mut spans: Vec<(i64, i64, i64)> = Vec::new();
            for _ in 0..80 {
                let row = row0 + rand(rows);
                let w = 1 + rand(sites.min(12));
                let s0 = site0 + rand(sites - w + 1);
                let s1 = s0 + w;
                let scan = spans.iter().any(|&(r, a, b)| r == row && b > s0 && s1 > a);
                assert_eq!(
                    bits.clashes(row, s0, s1),
                    scan,
                    "{row} {s0}..{s1} vs {spans:?}"
                );
                if !scan {
                    bits.set(row, s0, s1);
                    spans.push((row, s0, s1));
                }
                if !spans.is_empty() && rand(3) == 0 {
                    let (r, a, b) = spans.swap_remove(rand(spans.len() as i64) as usize);
                    bits.clear(r, a, b);
                }
            }
        }
    }

    #[test]
    fn hand_case_dfs_aligns_pins() {
        // Two inverters, one net, plenty of room: the optimum must align
        // ZN over A (one alignment) without inflating HPWL.
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let mut d = Design::new("t", lib, 3, 30);
        let inv = d.library().cell_index("INV_X1").unwrap();
        let a = d.add_inst("a", inv);
        let b = d.add_inst("b", inv);
        let n = d.add_net("n");
        d.connect(a, "ZN", n);
        d.connect(b, "A", n);
        d.move_inst(a, 5, 0, vm1_geom::Orient::North);
        d.move_inst(b, 9, 1, vm1_geom::Orient::North); // off by 3 sites
        let cfg = Vm1Config::closedm1();
        let rm = RowMap::build(&d);
        let win = Window {
            site0: 0,
            row0: 0,
            w_sites: 30,
            h_rows: 3,
        };
        let movable = WindowProblem::movable_in_window(&d, &rm, &win, &Overrides::new());
        let prob =
            WindowProblem::build(&d, &rm, win, &movable, 4, 1, false, &cfg, &Overrides::new());
        let got = dfs_solve(&prob, 100_000);
        // Exactly one pair, and the optimal assignment realizes it.
        assert_eq!(prob.pairs.len(), 1);
        assert_eq!(prob.pair_bonus(&prob.pairs[0], &got), cfg.alpha);
    }
}
