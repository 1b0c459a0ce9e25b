//! The non-bonded neighbour list and force loop (statement S and loop L3 of Figure 2).
//!
//! Non-bonded forces nominally act between all pairs of atoms; CHARMM truncates them at a
//! cutoff radius and keeps, for every atom, the list of partners inside the cutoff (the
//! `inblo`/`jnb` CSR arrays of Figure 2).  Atoms move, so the list — and with it the data
//! access pattern of the dominant loop — adapts every 10–100 steps.
//!
//! The list is built on a grid of cells at least half a cutoff wide (never more cells than
//! atoms), filled by one counting sort into CSR cells of ascending ids.  Atoms within the
//! cutoff are at most two cells apart per axis, so a target's candidates are a 5×5×5
//! stencil, minus offsets that alias in a small box.  Targets are grouped by cell, and each
//! cell that holds one collects its stencil's candidates once: marked in a bitset over
//! atom ids and read back ascending, with their positions as lanes.  A row's partners
//! (`j > i`, minimum-image distance ≤ cutoff) are then found in the suffix of ids above
//! its atom, tested lane-wise in chunks of 16 and compressed into the row branch-free, so
//! rows come out ascending.  The cost is
//! O(n + target cells × (stencil candidates + n/64) + Σ suffix lengths): the read-back's
//! n/64 words are paid once a target cell, not once a row, and the suffix halves the
//! distance tests when both atoms are targets.
//!
//! The parallel driver's force loop, [`sweep_nonbonded_forces`], runs over one 32-byte
//! [`Slot`] per owned-plus-ghost atom: four partners at a time on AVX2 intrinsics when the
//! host has them, else one, with [`accumulate_nonbonded_forces`]'s bits either way.

use crate::system::{displacement_pbc, dist2};

/// Lennard-Jones-like parameters of the truncated pair potential.
pub const LJ_EPS: f64 = 0.05;
/// Pair-potential length scale.
pub const LJ_SIGMA: f64 = 1.1;

/// The non-bonded neighbour list in CSR form: partner indices of atom `i` are
/// `partners[offsets[i]..offsets[i+1]]` — exactly the `inblo`/`jnb` layout of Figure 2.
/// Each pair appears once, stored on the lower-indexed atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborList {
    /// CSR row offsets (`inblo`), length natoms + 1.
    pub offsets: Vec<usize>,
    /// Flattened partner indices (`jnb`).
    pub partners: Vec<usize>,
}

impl NeighborList {
    /// Total number of pair interactions in the list.
    pub fn interaction_count(&self) -> usize {
        self.partners.len()
    }

    /// Partners of atom `i`.
    pub fn partners_of(&self, i: usize) -> &[usize] {
        &self.partners[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of atoms the list covers.
    pub fn natoms(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Build the neighbour list of all atoms (sequential; the parallel code builds lists for
/// owned atoms only, see [`build_neighbor_list_for`]).
pub fn build_neighbor_list(positions: &[[f64; 3]], box_size: f64, cutoff: f64) -> NeighborList {
    let all: Vec<usize> = (0..positions.len()).collect();
    build_neighbor_list_for(&all, positions, box_size, cutoff)
}

/// Half-cutoff cells: their 5×5×5 stencil scans 1.7× less volume than 3×3×3 cutoff cells.
const CELLS_PER_CUTOFF: usize = 2;

/// Candidates a row tests per chunk, one bit each of a `u16` hit mask.
const LIST_CHUNK: usize = 16;

/// Build the neighbour list rows for the atoms in `targets` (global indices), searching
/// against *all* atoms in `positions`.  The produced CSR structure has one row per target,
/// in `targets` order; partner indices are global.  A pair (i, j) is stored on whichever of
/// its endpoints appears in `targets`, under the usual `i < j` convention, so summing over
/// rows never double-counts when every atom is a target exactly once across the machine.
/// Row `i` holds, ascending, every `j > i` within `cutoff` of `i` under the minimum image;
/// positions are expected in `[0, box_size]`, where the integrator keeps them.
///
/// # Panics
/// If `box_size` or `cutoff` is not finite and positive, or a target is not an atom index.
pub fn build_neighbor_list_for(
    targets: &[usize],
    positions: &[[f64; 3]],
    box_size: f64,
    cutoff: f64,
) -> NeighborList {
    assert!(
        box_size.is_finite() && box_size > 0.0 && cutoff.is_finite() && cutoff > 0.0,
        "neighbour list needs a finite positive box and cutoff, got box_size = {box_size}, \
         cutoff = {cutoff}"
    );
    let n = positions.len();
    if let Some(&bad) = targets.iter().find(|&&i| i >= n) {
        panic!("neighbour-list target {bad} is not an atom: there are {n} atoms");
    }
    lane_wise(
        #[inline(always)]
        || list_rows(targets, positions, box_size, cutoff),
    )
}

/// [`build_neighbor_list_for`]'s one body, after its checks.  The first pass over the
/// target cells tests every row and keeps one hit mask a chunk and the row's length; the
/// second collects each cell's candidate ids again and decodes the masks into rows laid
/// out in `targets` order.  The masks take a bit a tested lane, and each row is written
/// once, in place: no copy-out buffer.
#[inline(always)]
fn list_rows(
    targets: &[usize],
    positions: &[[f64; 3]],
    box_size: f64,
    cutoff: f64,
) -> NeighborList {
    let n = positions.len();
    let cutoff2 = cutoff * cutoff;
    // Never more cells than atoms: wider cells only widen the search, so the list is exact.
    let ncell = ((CELLS_PER_CUTOFF as f64 * box_size / cutoff) as usize)
        .min((n as f64).cbrt() as usize)
        .max(1);
    let cell_size = box_size / ncell as f64;
    // Cells are half-open, so an atom at exactly `box_size` is the periodic image of 0.
    let axis = |x: f64| ((x / cell_size) as usize) % ncell;
    let cell_of = |p: [f64; 3]| [axis(p[0]), axis(p[1]), axis(p[2])];
    let flat = |c: [usize; 3]| c[0] + ncell * (c[1] + ncell * c[2]);

    // Counting sort of the atom ids into CSR cells.
    let ncells = ncell * ncell * ncell;
    let atom_cell: Vec<usize> = positions.iter().map(|&p| flat(cell_of(p))).collect();
    let mut start = vec![0usize; ncells + 1];
    atom_cell.iter().for_each(|&c| start[c + 1] += 1);
    (1..=ncells).for_each(|c| start[c] += start[c - 1]);
    let mut fill = start.clone();
    let mut ids = vec![0u32; n];
    for (j, &c) in atom_cell.iter().enumerate() {
        ids[fill[c]] = u32::try_from(j).expect("atom ids fit in u32");
        fill[c] += 1;
    }

    // The stencil: per (y, z) offset in −2..=2, one run of cells along x centred on the
    // target's cell.  Offsets that alias in a small box count once.
    let reach = CELLS_PER_CUTOFF as i64;
    let mut axis_offsets: Vec<usize> = Vec::new();
    for d in -reach..=reach {
        let wrapped = d.rem_euclid(ncell as i64) as usize;
        if !axis_offsets.contains(&wrapped) {
            axis_offsets.push(wrapped);
        }
    }
    let width = (2 * CELLS_PER_CUTOFF + 1).min(ncell);
    let wrap = |c: usize| if c >= ncell { c - ncell } else { c };

    // Target rows in cell order: one group a target cell.
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_unstable_by_key(|&r| atom_cell[targets[r]]);
    let half = box_size / 2.0;
    let mut mark = vec![0u64; n.div_ceil(64)];
    let (mut cand, mut lanes) = (Vec::<u32>::new(), [vec![], vec![], vec![]]);
    let mut masks = Vec::<u16>::new();
    let mut offsets = vec![0usize; targets.len() + 1];
    let mut partners = Vec::new();
    for second in [false, true] {
        let mut next_mask = 0;
        for group in order.chunk_by(|&a, &b| atom_cell[targets[a]] == atom_cell[targets[b]]) {
            let [cx, cy, cz] = cell_of(positions[targets[group[0]]]);
            // The x-run starts at x0 and is split where it wraps.
            let x0 = wrap(cx + ncell - width / 2);
            let first = width.min(ncell - x0);
            let mut count = 0;
            for &oz in &axis_offsets {
                for &oy in &axis_offsets {
                    let row = flat([0, wrap(cy + oy), wrap(cz + oz)]);
                    for (c0, c1) in [(row + x0, row + x0 + first), (row, row + width - first)] {
                        let run = &ids[start[c0]..start[c1]];
                        run.iter()
                            .for_each(|&j| mark[j as usize >> 6] |= 1 << (j & 63));
                        count += run.len();
                    }
                }
            }
            // Read back from the group's lowest target's word: no row holds a lower id.
            // The second pass needs only the ids.  Lanes past the last candidate are
            // tested and masked off.
            let low_word = group.iter().map(|&r| targets[r]).min().unwrap_or(0) >> 6;
            mark[..low_word].fill(0);
            cand.resize(count + LIST_CHUNK, 0);
            if !second {
                lanes
                    .iter_mut()
                    .for_each(|l| l.resize(count + LIST_CHUNK, 0.0));
            }
            let mut len = 0;
            for (w, word) in mark.iter_mut().enumerate().skip(low_word) {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    cand[len] = j as u32;
                    if !second {
                        (0..3).for_each(|a| lanes[a][len] = positions[j][a]);
                    }
                    (len, bits) = (len + 1, bits & (bits - 1));
                }
            }
            for &r in group {
                let (i, pi) = (targets[r], positions[targets[r]]);
                let above = cand[..len].partition_point(|&j| j as usize <= i);
                let mut at = offsets[r];
                for s in (above..len).step_by(LIST_CHUNK) {
                    if second {
                        // Branch-free compress: a miss writes where the row's next hit
                        // goes, or past the row's end, where nothing is written.
                        let (mask, out) = (masks[next_mask], &mut partners[at..offsets[r + 1]]);
                        let mut m = 0;
                        for (k, &j) in cand[s..s + LIST_CHUNK].iter().enumerate() {
                            if let Some(slot) = out.get_mut(m) {
                                *slot = j as usize;
                            }
                            m += usize::from(mask >> k & 1 == 1);
                        }
                        (at, next_mask) = (at + m, next_mask + 1);
                        continue;
                    }
                    let [x, y, z] = [0, 1, 2].map(|a| &lanes[a][s..s + LIST_CHUNK]);
                    let mut mask = 0u32;
                    for k in 0..LIST_CHUNK {
                        let d = [x[k] - pi[0], y[k] - pi[1], z[k] - pi[2]];
                        let d = d.map(|d| min_image(d, box_size, half));
                        mask |= u32::from(dist2(d) <= cutoff2) << k;
                    }
                    let mask = mask & (u32::MAX >> (32 - (len - s).min(LIST_CHUNK)));
                    masks.push(mask as u16);
                    offsets[r + 1] += mask.count_ones() as usize;
                }
            }
        }
        if !second {
            (1..offsets.len()).for_each(|r| offsets[r] += offsets[r - 1]);
            partners = vec![0; offsets[targets.len()]];
        }
    }
    NeighborList { offsets, partners }
}

/// Run the list builder's lane-wise loop compiled for AVX2 when the host has it, else for
/// the baseline.  `body` and what it calls are `#[inline(always)]`, so the AVX2
/// instantiation is the whole loop.  FMA stays off (Rust never contracts `a * b + c`).
#[inline(always)]
fn lane_wise<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: `avx2` needs only AVX2, and the host has it: detected just above.
        return unsafe { avx2(body) };
    }
    body()
}

/// `displacement_pbc`'s per-axis branch as a select, bit for bit: the subtraction of
/// −box is its addition of box, and `d − 0.0` keeps a −0.0.
#[inline(always)]
fn min_image(d: f64, box_size: f64, half: f64) -> f64 {
    let below = if d < -half { -box_size } else { 0.0 };
    d - if d > half { box_size } else { below }
}

/// Pair force of the truncated, softened Lennard-Jones-like potential, given the
/// minimum-image displacement from atom `i` to its partner.  Returns the force on atom `i`
/// (the partner receives the negation).
pub fn pair_force(dx: [f64; 3]) -> [f64; 3] {
    let r2 = dist2(dx).max(0.25); // softened core to keep the toy integrator stable
    let s2 = LJ_SIGMA * LJ_SIGMA / r2;
    let s6 = s2 * s2 * s2;
    // d/dr of 4ε(s^12 − s^6), expressed per unit displacement.
    let magnitude = 24.0 * LJ_EPS * (2.0 * s6 * s6 - s6) / r2;
    [-magnitude * dx[0], -magnitude * dx[1], -magnitude * dx[2]]
}

/// Sequential non-bonded force accumulation over a neighbour list whose rows correspond to
/// the atoms listed in `targets` (global indices).  Returns the number of pair
/// interactions evaluated.
pub fn accumulate_nonbonded_forces(
    targets: &[usize],
    list: &NeighborList,
    positions: &[[f64; 3]],
    box_size: f64,
    forces: &mut [[f64; 3]],
) -> usize {
    let mut count = 0;
    for (row, &i) in targets.iter().enumerate() {
        for &j in &list.partners[list.offsets[row]..list.offsets[row + 1]] {
            let dx = displacement_pbc(positions[i], positions[j], box_size);
            let f = pair_force(dx);
            for k in 0..3 {
                forces[i][k] += f[k];
                forces[j][k] -= f[k];
            }
            count += 1;
        }
    }
    count
}

/// One atom's slot in the force sweep's buffers, `[x, y, z, 0.0]`: one aligned 32-byte
/// load or store, never split across cache lines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, align(32))]
pub struct Slot(pub [f64; 4]);

/// The sweep's partner slots, CSR over the neighbour list's row offsets, and their bound
/// (every slot is below `end`), recorded once a fill so that no sweep scans them.
#[derive(Debug, Default)]
pub struct PartnerSlots {
    slots: Vec<u32>,
    end: usize,
}

impl PartnerSlots {
    /// Empty the slots, let `fill` append new ones, and record their bound.
    pub fn refill(&mut self, fill: impl FnOnce(&mut Vec<u32>)) {
        self.slots.clear();
        fill(&mut self.slots);
        self.end = self.slots.iter().max().map_or(0, |&s| s as usize + 1);
    }
}

/// The parallel driver's non-bonded force loop over one [`Slot`] per owned-plus-ghost
/// atom: row `l` lists the slots of owned slot `l`'s partners.  Each pair force is added
/// to slot `l` and subtracted from the partner's: per slot the same IEEE operations in
/// the same order as [`accumulate_nonbonded_forces`], so the same bits, four partners at
/// a time on AVX2 when the host has it, else one.  Returns the pairs evaluated.
///
/// # Panics
/// Naming the lengths or the slot, if the two buffers differ in length, there are more
/// rows than slots, or a partner slot is past the buffers.
pub fn sweep_nonbonded_forces(
    offsets: &[usize],
    partners: &PartnerSlots,
    pos: &[Slot],
    force: &mut [Slot],
    box_size: f64,
) -> usize {
    let (slots, rows) = (pos.len(), offsets.len().saturating_sub(1));
    assert!(
        force.len() == slots && rows <= slots,
        "non-bonded sweep: {slots} position and {} force slots need one length, at least \
         the {rows} rows",
        force.len()
    );
    assert!(
        partners.end <= slots,
        "non-bonded sweep: partner slot {} is past the {slots} slots",
        partners.end.saturating_sub(1)
    );
    let count = offsets.last().map_or(0, |&end| end - offsets[0]);
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has AVX2, detected just above.  The first assert gives the
        // buffers one length and puts every row below it; every partner slot is below
        // `partners.end`, which the second puts at most at that length.
        unsafe { sweep_quads(offsets, &partners.slots, pos, force, box_size) };
        return count;
    }
    sweep_pairs(offsets, &partners.slots, pos, force, box_size);
    count
}

/// The portable body, a pair at a time.  A row's own force stays in an accumulator: no
/// partner is the row's slot.
fn sweep_pairs(rows: &[usize], partners: &[u32], pos: &[Slot], force: &mut [Slot], bx: f64) {
    let xyz = |s: Slot| [s.0[0], s.0[1], s.0[2]];
    for (l, row) in rows.windows(2).enumerate() {
        let mut acc = force[l].0;
        for &j in &partners[row[0]..row[1]] {
            let j = j as usize;
            let f = pair_force(displacement_pbc(xyz(pos[l]), xyz(pos[j]), bx));
            for k in 0..3 {
                acc[k] += f[k];
                force[j].0[k] -= f[k];
            }
        }
        force[l] = Slot(acc);
    }
}

/// The AVX2 body: four partners at a time, transposed to x/y/z vectors for the minimum
/// image and [`pair_force`]'s operations, and back to one slot per partner to apply them
/// in list order.  A row's last quad pads with the row's own slot: computed, never applied.
///
/// # Safety
/// The host has AVX2, the buffers have one length, and no row or partner slot reaches it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_quads(rows: &[usize], partners: &[u32], pos: &[Slot], force: &mut [Slot], bx: f64) {
    use std::arch::x86_64::*;
    let (add, sub, mul, div) = (_mm256_add_pd, _mm256_sub_pd, _mm256_mul_pd, _mm256_div_pd);
    let splat = |v: f64| _mm256_set1_pd(v);
    let [box_v, neg_box, half, neg_half] = [1.0, -1.0, 0.5, -0.5].map(|k| splat(k * bx));
    let [quarter, sigma2, eps24, two, sign] =
        [0.25, LJ_SIGMA * LJ_SIGMA, 24.0 * LJ_EPS, 2.0, -0.0].map(splat);
    // SAFETY: every call below passes a row or a partner slot, below both lengths (the
    // contract), and a `Slot` is four `f64`s aligned to 32 bytes.
    let load = |s: &[Slot], j: usize| unsafe { _mm256_load_pd(s.get_unchecked(j).0.as_ptr()) };
    // SAFETY: as for `load`.
    let store = |s: &mut [Slot], j: usize, v| unsafe {
        _mm256_store_pd(s.get_unchecked_mut(j).0.as_mut_ptr(), v);
    };
    // Four slots to their x, y, z and fourth lanes, one vector each, or back.
    let transpose = |[r0, r1, r2, r3]: [__m256d; 4]| {
        let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
        let [lo, hi] = [
            _mm256_permute2f128_pd::<0x20>,
            _mm256_permute2f128_pd::<0x31>,
        ];
        [lo(t0, t2), lo(t1, t3), hi(t0, t2), hi(t1, t3)]
    };
    // `displacement_pbc`'s branch as `d − s`, `s ∈ {box, −box, 0.0}`: subtracting −box is
    // adding box, and `d − 0.0` keeps a −0.0.
    let image = |d| {
        let below = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(d, neg_half), neg_box);
        sub(
            d,
            _mm256_blendv_pd(below, box_v, _mm256_cmp_pd::<_CMP_GT_OQ>(d, half)),
        )
    };
    for (l, row) in rows.windows(2).enumerate() {
        let (a, mut acc) = (load(pos, l), load(force, l));
        for quad in partners[row[0]..row[1]].chunks(4) {
            let js = [0, 1, 2, 3].map(|k| quad.get(k).map_or(l, |&j| j as usize));
            let [x, y, z, _] = transpose(js.map(|j| sub(load(pos, j), a)));
            let [x, y, z] = [x, y, z].map(image);
            // `pair_force`, operation for operation; vmaxpd gives 0.25 for a NaN r², as
            // `f64::max` does.
            let r2 = _mm256_max_pd(add(add(mul(x, x), mul(y, y)), mul(z, z)), quarter);
            let s2 = div(sigma2, r2);
            let s6 = mul(mul(s2, s2), s2);
            let neg_m = _mm256_xor_pd(div(mul(eps24, sub(mul(mul(two, s6), s6), s6)), r2), sign);
            let f = [x, y, z, _mm256_setzero_pd()].map(|d| mul(neg_m, d));
            for (&j, f) in quad.iter().zip(transpose(f)) {
                acc = add(acc, f);
                store(force, j as usize, sub(load(force, j as usize), f));
            }
        }
        store(force, l, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{MolecularSystem, SystemConfig};

    /// The O(N²) oracle: every `j > i` under the same predicate, in ascending order.
    fn brute_force(
        targets: &[usize],
        positions: &[[f64; 3]],
        box_size: f64,
        cutoff: f64,
    ) -> NeighborList {
        let mut offsets = vec![0];
        let mut partners = Vec::new();
        for &i in targets {
            for j in i + 1..positions.len() {
                if dist2(displacement_pbc(positions[i], positions[j], box_size)) <= cutoff * cutoff
                {
                    partners.push(j);
                }
            }
            offsets.push(partners.len());
        }
        NeighborList { offsets, partners }
    }

    /// The grid's list equals the oracle's, `offsets` and `partners`, for full,
    /// every-third, reversed and empty target sets.
    fn assert_matches_oracle(positions: &[[f64; 3]], box_size: f64, cutoff: f64) {
        let n = positions.len();
        let full: Vec<usize> = (0..n).collect();
        let third: Vec<usize> = (0..n).step_by(3).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        for (name, targets) in [
            ("full", &full[..]),
            ("every third", &third[..]),
            ("reversed", &reversed[..]),
            ("empty", &[][..]),
        ] {
            let grid = build_neighbor_list_for(targets, positions, box_size, cutoff);
            let oracle = brute_force(targets, positions, box_size, cutoff);
            assert!(
                grid == oracle,
                "{name} targets, {n} atoms, box {box_size}, cutoff {cutoff}: grid has {} \
                 pairs, oracle {}",
                grid.interaction_count(),
                oracle.interaction_count()
            );
        }
    }

    fn system(
        protein_atoms: usize,
        water_molecules: usize,
        box_size: f64,
        cutoff: f64,
    ) -> MolecularSystem {
        MolecularSystem::build(&SystemConfig {
            protein_atoms,
            water_molecules,
            box_size,
            cutoff,
            seed: 1994,
        })
    }

    #[test]
    fn neighbor_list_matches_brute_force() {
        // The 3 400-atom benchmark system, the 1 010-atom compiled one, the unit-test one,
        // and a 110-atom box of four cells per axis whose 5-wide stencil aliases.
        for sys in [
            system(700, 900, 28.0, 7.0),
            system(200, 270, 19.0, 5.5),
            MolecularSystem::build(&SystemConfig::small(11)),
            system(20, 30, 10.0, 4.5),
        ] {
            assert_matches_oracle(&sys.positions, sys.box_size, sys.cutoff);
        }
    }

    #[test]
    fn neighbor_list_is_exact_on_small_and_capped_grids() {
        // 300 atoms in box 14: a cutoff above box/2 (three cells per axis), 10 (two
        // cells), one that reaches every minimum image (one cell), and two that ask for
        // more cells than atoms, so the grid is capped at six cells per axis.
        let sys = MolecularSystem::build(&SystemConfig::small(4));
        for cutoff in [8.0, 10.0, 30.0, 3.5, 3.0] {
            assert_matches_oracle(&sys.positions, sys.box_size, cutoff);
        }
    }

    #[test]
    fn neighbor_list_is_exact_on_cell_boundaries() {
        // A lattice at the cell width (cutoff / 2): atoms at exactly 0.0 and exactly
        // box_size, cell boundaries everywhere and many pairs at exactly the cutoff.
        let ticks: Vec<f64> = (0..=8).map(|k| k as f64 * 1.25).collect();
        let mut positions = Vec::new();
        for &x in &ticks {
            for &y in &ticks {
                for &z in &ticks {
                    positions.push([x, y, z]);
                }
            }
        }
        assert_matches_oracle(&positions, 10.0, 2.5);
        assert_matches_oracle(&positions, 10.0, 2.6);
    }

    #[test]
    fn tiny_cutoff_builds_an_exact_list_on_a_bounded_grid() {
        // 2·box/cutoff asks for 56 000 cells per axis; the grid is capped at the atom
        // count, and one coincident copy of atom 0 still finds its partner.
        let mut sys = system(60, 80, 28.0, 1e-3);
        sys.positions.push(sys.positions[0]);
        let list = build_neighbor_list(&sys.positions, sys.box_size, sys.cutoff);
        assert_eq!(list.partners_of(0), &[sys.natoms() - 1]);
        assert_matches_oracle(&sys.positions, sys.box_size, sys.cutoff);
    }

    #[test]
    #[ignore = "paper scale: O(N²) oracle over 14 026 atoms; run with --release -- --ignored"]
    fn neighbor_list_matches_brute_force_at_paper_scale() {
        let sys = MolecularSystem::build(&SystemConfig::paper_benchmark());
        assert_matches_oracle(&sys.positions, sys.box_size, sys.cutoff);
    }

    #[test]
    #[should_panic(expected = "got box_size = 14, cutoff = 0")]
    fn zero_cutoff_is_refused_by_name() {
        let sys = MolecularSystem::build(&SystemConfig::small(1));
        build_neighbor_list(&sys.positions, 14.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "got box_size = NaN, cutoff = 4.5")]
    fn non_finite_box_is_refused_by_name() {
        let sys = MolecularSystem::build(&SystemConfig::small(1));
        build_neighbor_list(&sys.positions, f64::NAN, 4.5);
    }

    #[test]
    #[should_panic(expected = "neighbour-list target 300 is not an atom: there are 300 atoms")]
    fn out_of_range_target_is_refused_by_name() {
        let sys = MolecularSystem::build(&SystemConfig::small(1));
        build_neighbor_list_for(&[0, 300], &sys.positions, sys.box_size, sys.cutoff);
    }

    #[test]
    fn pairs_are_stored_once_on_the_lower_atom() {
        let sys = MolecularSystem::build(&SystemConfig::small(5));
        let list = build_neighbor_list(&sys.positions, sys.box_size, sys.cutoff);
        for i in 0..sys.natoms() {
            for &j in list.partners_of(i) {
                assert!(j > i, "partner {j} of atom {i} is not greater");
            }
        }
    }

    #[test]
    fn partial_target_lists_cover_the_same_pairs() {
        let sys = MolecularSystem::build(&SystemConfig::small(9));
        let full = build_neighbor_list(&sys.positions, sys.box_size, sys.cutoff);
        // Split targets in two halves, as two "processors" would.
        let n = sys.natoms();
        let first: Vec<usize> = (0..n / 2).collect();
        let second: Vec<usize> = (n / 2..n).collect();
        let a = build_neighbor_list_for(&first, &sys.positions, sys.box_size, sys.cutoff);
        let b = build_neighbor_list_for(&second, &sys.positions, sys.box_size, sys.cutoff);
        // Each half's rows are exactly the full list's rows of the same atoms.
        for (half, targets) in [(&a, &first), (&b, &second)] {
            assert_eq!(half.natoms(), targets.len());
            for (row, &i) in targets.iter().enumerate() {
                assert_eq!(
                    half.partners_of(row),
                    full.partners_of(i),
                    "row of atom {i}"
                );
            }
        }
        assert_eq!(
            a.interaction_count() + b.interaction_count(),
            full.interaction_count()
        );
    }

    #[test]
    fn pair_force_is_repulsive_up_close_attractive_far() {
        // dx points from atom i to its partner j.  When they overlap (r < sigma) the force
        // on i must push it *away* from j (negative x here); inside the attractive well it
        // must pull i *toward* j (positive x).
        let close = pair_force([0.8, 0.0, 0.0]);
        assert!(
            close[0] < 0.0,
            "overlapping atoms must repel, got {close:?}"
        );
        let far = pair_force([2.0, 0.0, 0.0]);
        assert!(far[0] > 0.0, "distant atoms inside the well must attract");
    }

    type Sweep = fn(&[usize], &PartnerSlots, &[Slot], &mut [Slot], f64) -> usize;

    /// Lay the `targets` out as owned slots `0..`, every other atom as a ghost slot after
    /// them, run `sweep` over the list in those slots, and check every force against
    /// [`accumulate_nonbonded_forces`] bit for bit.  The forces start non-zero, some at
    /// −0.0, so the row accumulator's load and store are checked too.
    fn assert_sweep_matches(
        sweep: (&str, Sweep),
        case: &str,
        targets: &[usize],
        list: &NeighborList,
        positions: &[[f64; 3]],
        box_size: f64,
    ) {
        let n = positions.len();
        let mut order = targets.to_vec();
        order.extend((0..n).filter(|g| !targets.contains(g)));
        let mut slot = vec![0; n];
        order.iter().enumerate().for_each(|(s, &g)| slot[g] = s);
        let start = |g: usize| {
            let v = if g.is_multiple_of(5) {
                -0.0
            } else {
                (g % 97) as f64 * 1e-3 - 0.05
            };
            [v, -v, v * 0.5]
        };

        let mut forces: Vec<[f64; 3]> = (0..n).map(start).collect();
        let expected = accumulate_nonbonded_forces(targets, list, positions, box_size, &mut forces);

        let slots = |value: &dyn Fn(usize) -> [f64; 3]| -> Vec<Slot> {
            order
                .iter()
                .map(|&g| {
                    let [x, y, z] = value(g);
                    Slot([x, y, z, 0.0])
                })
                .collect()
        };
        let pos = slots(&|g| positions[g]);
        let mut force = slots(&start);
        let mut partners = PartnerSlots::default();
        partners.refill(|p| p.extend(list.partners.iter().map(|&g| slot[g] as u32)));
        let count = (sweep.1)(&list.offsets, &partners, &pos, &mut force, box_size);
        assert_eq!(count, expected, "{}, {case}: interaction count", sweep.0);
        for (g, want) in forces.iter().enumerate() {
            for (k, (want, got)) in want.iter().zip(force[slot[g]].0).enumerate() {
                assert!(
                    want.to_bits() == got.to_bits(),
                    "{}, {case}: atom {g} axis {k}: sweep {got:e}, sequential loop {want:e}",
                    sweep.0
                );
            }
        }
    }

    fn portable_body(
        offsets: &[usize],
        partners: &PartnerSlots,
        pos: &[Slot],
        force: &mut [Slot],
        box_size: f64,
    ) -> usize {
        sweep_pairs(offsets, &partners.slots, pos, force, box_size);
        partners.slots.len()
    }

    /// The bodies the host can run: the portable one always, the AVX2 one through the
    /// dispatched entry when the host has AVX2.
    fn sweeps() -> Vec<(&'static str, Sweep)> {
        let mut sweeps: Vec<(&'static str, Sweep)> = vec![("portable body", portable_body)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            sweeps.push(("dispatched entry (AVX2 body)", sweep_nonbonded_forces));
        }
        let checked = if sweeps.len() == 1 {
            "AVX2 not detected, checked the portable body only"
        } else {
            "checked the portable body and the AVX2 body"
        };
        eprintln!("sweep_matches_the_sequential_loop_bit_for_bit: {checked}");
        sweeps
    }

    #[test]
    fn sweep_matches_the_sequential_loop_bit_for_bit() {
        // Twelve targets in box 10 with rows of 0 to 9, 17 and 35 partners, so a row's
        // last group of four holds 0, 1, 2 and 3 partners at least twice each.  Each
        // partner is its own atom placed at an offset from its target: across the periodic
        // boundary on every axis in both directions (targets sit near 0 or near the box on
        // each axis), at exactly half the box, inside the 0.25 softening core, on the
        // target itself (displacement +0.0) and at −0.0 against a target at 0.0.
        let box_size: f64 = 10.0;
        let lens = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 35];
        let corners = [
            [5.0, 5.0, 5.0],
            [0.2, 9.8, 0.2],
            [9.8, 0.2, 9.8],
            [0.3, 0.3, 9.7],
            [9.7, 9.7, 0.3],
            [0.0, 5.0, 2.0],
        ];
        let mut positions: Vec<[f64; 3]> = (0..lens.len()).map(|i| corners[i % 6]).collect();
        let offsets_cycle = [
            [-0.5, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [0.0, -0.5, 0.0],
            [0.0, 0.5, 0.0],
            [0.0, 0.0, -0.5],
            [0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0],
            [0.3, -0.2, 0.1],
            [5.0, 0.0, -5.0],
            [1.2, -0.7, 0.9],
            [2.0, 1.0, -1.5],
            [-3.1, 2.6, 0.4],
        ];
        let mut list = NeighborList {
            offsets: vec![0],
            partners: Vec::new(),
        };
        for (i, &len) in lens.iter().enumerate() {
            for m in 0..len {
                let off = offsets_cycle[(i + m) % offsets_cycle.len()];
                let t = positions[i];
                list.partners.push(positions.len());
                positions.push([0, 1, 2].map(|k| (t[k] + off[k]).rem_euclid(box_size)));
            }
            list.offsets.push(list.partners.len());
        }
        // Rows 5 and 11 have their target at x = 0.0; their first partners sit at x = −0.0.
        for row in [5, 11] {
            let first = list.partners[list.offsets[row]];
            positions[first][0] = -0.0;
        }
        let targets: Vec<usize> = (0..lens.len()).collect();

        // The 3 400-atom system of the charmm_* workloads, the x < box/2 half as targets.
        let sys = system(700, 900, 28.0, 7.0);
        let half: Vec<usize> = (0..sys.natoms())
            .filter(|&i| sys.positions[i][0] < sys.box_size / 2.0)
            .collect();
        let sys_list = build_neighbor_list_for(&half, &sys.positions, sys.box_size, sys.cutoff);

        for sweep in sweeps() {
            assert_sweep_matches(sweep, "edge rows", &targets, &list, &positions, box_size);
            assert_sweep_matches(
                sweep,
                "3 400 atoms",
                &half,
                &sys_list,
                &sys.positions,
                sys.box_size,
            );
        }
    }

    type ListBody = fn(&[usize], &[[f64; 3]], f64, f64) -> NeighborList;

    /// The list builder's instantiations the host can run: the portable body always, the
    /// dispatched entry when it takes the AVX2 one.
    fn list_builders() -> Vec<(&'static str, ListBody)> {
        let mut builders: Vec<(&'static str, ListBody)> = vec![("portable body", list_rows)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            builders.push(("dispatched entry (AVX2)", build_neighbor_list_for));
        }
        let checked = if builders.len() == 1 {
            "AVX2 not detected, checked the portable body only"
        } else {
            "checked the portable body and the AVX2 instantiation"
        };
        eprintln!("list_rows_match_the_oracle_in_any_target_order: {checked}");
        builders
    }

    #[test]
    fn list_rows_match_the_oracle_in_any_target_order() {
        // 40 atoms on the ticks 0, 2.5, 5, 7.5 and 10 of box 10: at most three cells per
        // axis, so every atom is a candidate of every target and atom i's suffix is the
        // 39 − i atoms above it.  Atoms 39, 38, 24, 23, 22 and 6 have suffixes of 0, 1,
        // 15, 16, 17 and 33 lanes.  Every axis has atoms at 0 and at the box (one image),
        // pairs exactly box/2 apart both ways, and pairs exactly 2.5 apart, through a face
        // too (7.5 − 0); cutoff 2.5 and 5.0 put those at exactly the cutoff.
        let lattice: Vec<[f64; 3]> = (0..40)
            .map(|k| [k % 5, k / 5 % 5, (2 * k + k / 5) % 5].map(|t| t as f64 * 2.5))
            .collect();
        let suffixes = [39, 38, 24, 23, 22, 6];
        let shuffled_twice = [6, 39, 22, 38, 23, 24, 6, 39, 24];
        let all: Vec<usize> = (0..40).collect();

        // The 3 400-atom system: every atom shuffled, the x < box/2 half with each target
        // twice, every atom in atom 0's cell, and one atom from every cell.
        let sys = system(700, 900, 28.0, 7.0);
        let n = sys.natoms();
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffled.sort_by_key(|&i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
        let doubled: Vec<usize> = (0..n)
            .filter(|&i| sys.positions[i][0] < sys.box_size / 2.0)
            .flat_map(|i| [i, i])
            .collect();
        // The builder's grid for this system: 8 cells of 3.5 per axis.
        let cell = |i: usize| sys.positions[i].map(|x| (x / 3.5) as usize % 8);
        let one_cell: Vec<usize> = (0..n).filter(|&i| cell(i) == cell(0)).collect();
        let mut seen = std::collections::HashSet::new();
        let every_cell: Vec<usize> = (0..n).filter(|&i| seen.insert(cell(i))).collect();
        assert_eq!(
            (one_cell.len(), every_cell.len()),
            (61, 488),
            "atoms in atom 0's cell, and cells of 512 that hold an atom"
        );

        let lattice_cases = [
            ("lattice suffixes", &suffixes[..], 2.5),
            ("lattice suffixes", &suffixes[..], 5.0),
            ("lattice shuffled twice", &shuffled_twice[..], 5.0),
            ("lattice all", &all[..], 2.5),
            ("lattice all", &all[..], 3.6),
            ("lattice all", &all[..], 5.0),
        ];
        let system_cases = [
            ("3 400 shuffled", &shuffled[..]),
            ("3 400 doubled", &doubled[..]),
            ("3 400 one cell", &one_cell[..]),
            ("3 400 every cell", &every_cell[..]),
        ];
        for (name, build) in list_builders() {
            let check =
                |case: &str, targets: &[usize], positions: &[[f64; 3]], box_size, cutoff| {
                    let list = build(targets, positions, box_size, cutoff);
                    let oracle = brute_force(targets, positions, box_size, cutoff);
                    assert!(
                        list == oracle,
                        "{name}, {case}, cutoff {cutoff}: {} pairs, oracle {}; first differing \
                     row {:?}",
                        list.interaction_count(),
                        oracle.interaction_count(),
                        (0..targets.len().min(list.natoms()))
                            .find(|&r| list.partners_of(r) != oracle.partners_of(r))
                    );
                };
            for (case, targets, cutoff) in lattice_cases {
                check(case, targets, &lattice, 10.0, cutoff);
            }
            for (case, targets) in system_cases {
                check(case, targets, &sys.positions, sys.box_size, sys.cutoff);
            }
        }
        // The suffix rows are not all empty or all full: the chunk tail is exercised.
        let rows = build_neighbor_list_for(&suffixes, &lattice, 10.0, 5.0);
        let lens: Vec<usize> = (0..suffixes.len())
            .map(|r| rows.partners_of(r).len())
            .collect();
        assert_eq!(lens[0], 0, "the highest id has an empty suffix");
        assert!(lens[1..].iter().all(|&l| l > 0), "row lengths {lens:?}");
    }

    #[test]
    #[should_panic(expected = "3 position and 2 force slots need one length, at least the 2 rows")]
    fn sweep_names_mismatched_lanes() {
        let (p, mut f) = ([Slot::default(); 3], [Slot::default(); 2]);
        sweep_nonbonded_forces(&[0, 1, 1], &PartnerSlots::default(), &p, &mut f, 10.0);
    }

    #[test]
    #[should_panic(expected = "non-bonded sweep: partner slot 3 is past the 3 slots")]
    fn sweep_names_a_partner_slot_past_the_buffers() {
        let (p, mut f) = ([Slot::default(); 3], [Slot::default(); 3]);
        let mut partners = PartnerSlots::default();
        partners.refill(|s| s.extend([1, 3]));
        sweep_nonbonded_forces(&[0, 1, 2], &partners, &p, &mut f, 10.0);
    }

    #[test]
    fn nonbonded_accumulation_conserves_momentum() {
        let sys = MolecularSystem::build(&SystemConfig::small(21));
        let targets: Vec<usize> = (0..sys.natoms()).collect();
        let list = build_neighbor_list(&sys.positions, sys.box_size, sys.cutoff);
        let mut forces = vec![[0.0; 3]; sys.natoms()];
        let count =
            accumulate_nonbonded_forces(&targets, &list, &sys.positions, sys.box_size, &mut forces);
        assert_eq!(count, list.interaction_count());
        for k in 0..3 {
            let total: f64 = forces.iter().map(|f| f[k]).sum();
            assert!(total.abs() < 1e-9, "net force component {k} = {total}");
        }
    }
}
