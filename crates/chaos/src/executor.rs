//! The executor (Phase F): data-transportation primitives driven by communication
//! schedules.
//!
//! * [`gather`] — bring one copy of every off-processor element referenced by a schedule
//!   into the ghost region of a [`DistArray`] (software caching + communication
//!   vectorization: one message per processor pair, duplicates already removed by the
//!   inspector).
//! * [`scatter`] — the reverse transfer: push ghost-region values back to their owners,
//!   overwriting the owner's copy.
//! * [`scatter_add`] — reverse transfer adding into the owner's copy (the reduction form
//!   used by `x(ia(i)) = x(ia(i)) + …` loops).
//! * [`scatter_append`] — the light-weight-schedule primitive: move whole elements to new
//!   owners and append them in arbitrary order (the DSMC MOVE phase).
//!
//! Two executor-level optimisations compose with these primitives:
//!
//! * **Fused multi-array transfers** — [`gather_multi`] / [`scatter_add_multi`] move N
//!   same-schedule arrays as contiguous per-lane blocks through *one* message per
//!   processor pair (CHARMM's `x`/`y`/`z` per step: same bytes, 1/N the messages and
//!   latencies), via [`mpsim::alltoallv_multi`].
//! * **Split-phase transfers** — [`gather_start`] posts a (fused) gather's sends and
//!   returns a [`GatherHandle`]; [`gather_finish`] drains the receives into the ghost
//!   regions.  [`scatter_append_start`] / [`scatter_append_finish`] split the
//!   light-weight append the same way.  Between start and finish the caller computes
//!   (CHARMM's bonded loop runs while the non-bonded ghost exchange is in flight; DSMC
//!   re-bins its surviving molecules while the migrants travel).
//!
//! Every primitive takes `&CommSchedule` and never cares how the schedule was produced:
//! the `&CommSchedule` a [`crate::cache::ScheduleCache`] serves — hit, patched forward or
//! rebuilt — is byte-identical to a fresh [`crate::inspector::build_schedule_from_table`]
//! build (pinned by `tests/schedule_delta.rs`), so fused and split-phase entry points
//! take it unchanged.
//!
//! All primitives are collective: every rank of the machine must call them with its own
//! schedule (built in the same collective inspector call), and split-phase *starts* must
//! appear in the same order on every rank (finishes may interleave — the engine's epoch
//! tags keep in-flight exchanges apart).  Each is a thin adapter over the unified
//! [`mpsim::exchange`] engine: the schedule provides the [`mpsim::ExchangePlan`], the
//! primitive packs from / places into the distributed array, and the engine moves the
//! bytes and charges the cost model.  The returned [`ExchangeStats`] reports exactly
//! what went on the wire.
//!
//! All four primitives use the engine's packing form ([`mpsim::alltoallv_with`]): elements
//! are packed from the array straight into pooled message buffers, so a steady-state
//! executor loop — the shape of every time-stepped application in the paper — allocates
//! no fresh send buffers at all.  On the receive side, `gather`/`scatter*` only *read*
//! the incoming values through the borrowed [`mpsim::Placed`] view (placing them by
//! permutation into the array), so each received buffer goes back to the pool and the
//! steady-state loop allocates nothing; `scatter_append` is the one primitive that keeps
//! each payload (the appended items outlive the call) and takes ownership with
//! `Placed::into_vec` (see the buffer-pool notes in [`mpsim::exchange`]).

use mpsim::{
    alltoallv_multi, alltoallv_with, start_alltoallv_with, Element, ExchangeHandle, ExchangeStats,
    PackBuf, Placed, Rank,
};

use crate::darray::DistArray;
use crate::schedule::{CommSchedule, LightweightSchedule};

/// How many list positions ahead the indexed pack/place loops prefetch.  They are
/// bandwidth-bound with data-dependent addresses the hardware prefetcher cannot predict;
/// a dozen elements of software lookahead covers the memory latency without evicting the
/// lines still in use.
const PREFETCH_AHEAD: usize = 12;

/// Hint the CPU to pull `p` into cache; no-op on architectures without a stable
/// prefetch intrinsic.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint — it never dereferences `p`, so any
    // pointer value (dangling or misaligned included) is sound to pass.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Which way a schedule-driven transfer runs.
#[derive(Clone, Copy)]
enum Direction {
    /// Owned elements travel to the ghost regions that reference them: pack by send
    /// list, place by permutation list.
    Gather,
    /// Ghost copies travel back to their owners: pack by permutation list, place by
    /// send list.
    Scatter,
}

/// Gather off-processor elements into the ghost region of `array`.
///
/// After the call, `array[r]` is valid for every [`crate::darray::LocalRef`] `r` produced
/// by the inspector for the indirection arrays covered by `sched`.  Returns the message
/// and byte counts of the transfer.
pub fn gather<T: Element + Default>(
    rank: &mut Rank,
    sched: &CommSchedule,
    array: &mut DistArray<T>,
) -> ExchangeStats {
    transfer(rank, sched, array, Direction::Gather, |ghost, incoming| {
        *ghost = incoming;
    })
}

/// Scatter ghost-region values back to their owners, overwriting the owners' copies.
pub fn scatter<T: Element + Default>(
    rank: &mut Rank,
    sched: &CommSchedule,
    array: &mut DistArray<T>,
) -> ExchangeStats {
    transfer(rank, sched, array, Direction::Scatter, |owner, incoming| {
        *owner = incoming;
    })
}

/// Scatter ghost-region values back to their owners, adding them to the owners' copies.
/// This is the executor half of an irregular reduction loop.
pub fn scatter_add<T>(
    rank: &mut Rank,
    sched: &CommSchedule,
    array: &mut DistArray<T>,
) -> ExchangeStats
where
    T: Element + Default + std::ops::AddAssign,
{
    transfer(rank, sched, array, Direction::Scatter, |owner, incoming| {
        *owner += incoming;
    })
}

/// The single-array transfer in either direction: pack `from[pack_lists[p][k]]` for every
/// destination `p`, and combine what source `q` sent into `into[place_lists[q][k]]` with
/// `op`.  A scatter is the mirror image of a gather — the ghost slots this rank filled
/// from processor `p` go back to `p`, which applies them to the owned offsets it
/// originally listed in its send list — so the two directions differ only in which of
/// the schedule's lists packs and which places.
fn transfer<T, F>(
    rank: &mut Rank,
    sched: &CommSchedule,
    array: &mut DistArray<T>,
    direction: Direction,
    op: F,
) -> ExchangeStats
where
    T: Element + Default,
    F: Fn(&mut T, T),
{
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    let me = rank.rank();
    assert_eq!(
        array.owned().len(),
        sched.owned_len(),
        "rank {me}: array owned section does not match the schedule's owned length"
    );
    let (plan, pack_lists, place_lists, (from, into)) = match direction {
        Direction::Gather => {
            array.ensure_ghost(sched.ghost_len());
            (
                sched.gather_plan(me),
                sched.send_lists(),
                sched.perm_lists(),
                array.owned_and_ghost_mut(),
            )
        }
        Direction::Scatter => {
            assert!(
                array.ghost_len() >= sched.ghost_len(),
                "array ghost region smaller than the schedule requires"
            );
            (
                sched.scatter_plan(me),
                sched.perm_lists(),
                sched.send_lists(),
                array.ghost_and_owned_mut(),
            )
        }
    };
    alltoallv_with(
        rank,
        &plan,
        |p, buf: &mut PackBuf<'_, T>| {
            let list = &pack_lists[p];
            for (k, &at) in list.iter().enumerate() {
                if let Some(&ahead) = list.get(k + PREFETCH_AHEAD) {
                    prefetch(from.as_ptr().wrapping_add(ahead as usize));
                }
                // SAFETY: `CommSchedule::from_parts` checked every send offset against
                // `sched.owned_len()` and every permutation slot against
                // `sched.ghost_len()`; the owned section has exactly that length and the
                // ghost region at least that length (both asserted above), so `at`
                // indexes `from` whichever list packs.
                buf.push(unsafe { *from.get_unchecked(at as usize) });
            }
        },
        |src, values: Placed<'_, T>| {
            let list = &place_lists[src];
            for (k, (&at, &v)) in list.iter().zip(values.iter()).enumerate() {
                if let Some(&ahead) = list.get(k + PREFETCH_AHEAD) {
                    prefetch(into.as_ptr().wrapping_add(ahead as usize));
                }
                // SAFETY: as for packing — the placing list's entries were checked at
                // `CommSchedule::from_parts` against the bound `into`'s length was
                // asserted to meet.
                op(unsafe { into.get_unchecked_mut(at as usize) }, v);
            }
        },
    )
}

/// Fused gather: bring the off-processor elements of `sched` into the ghost regions of
/// all `N` arrays with **one message per processor pair** instead of one per array.
///
/// The arrays must share the distribution and ghost layout the schedule was built for
/// (CHARMM's `px`/`py`/`pz`).  Each lane travels as one contiguous block on the wire
/// (all scheduled elements of `x`, then of `y`, then of `z`), so the bytes moved equal
/// `N` separate [`gather`] calls while messages and message latencies drop `N×`.
/// Blocked lanes keep pack and place simple per-lane sweeps with no per-element stride
/// arithmetic — the compiler can vectorise them — and the result is element-identical to
/// `N` separate gathers.
///
/// `arrays` is anything that lends a slice of array borrows: a fixed-size array where
/// the lane count is known at compile time (`[&mut x, &mut y, &mut z]`), a `Vec` or
/// `&mut [..]` where it is not (the Fortran-D executor running an optimizer-fused
/// exchange).  At least one lane is required.
pub fn gather_multi<'a, T>(
    rank: &mut Rank,
    sched: &CommSchedule,
    mut arrays: impl AsMut<[&'a mut DistArray<T>]>,
) -> ExchangeStats
where
    T: Element + Default,
{
    let arrays = arrays.as_mut();
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    assert!(
        !arrays.is_empty(),
        "a fused gather needs at least one array"
    );
    let n = arrays.len();
    let me = rank.rank();
    let plan = sched.gather_plan(me);
    let mut owneds: Vec<&[T]> = Vec::with_capacity(n);
    let mut ghosts: Vec<&mut [T]> = Vec::with_capacity(n);
    for a in arrays.iter_mut() {
        a.ensure_ghost(sched.ghost_len());
        let (o, g) = a.owned_and_ghost_mut();
        owneds.push(o);
        ghosts.push(g);
    }
    alltoallv_multi(
        rank,
        &plan,
        n,
        |p, buf: &mut PackBuf<'_, T>| {
            for owned in &owneds {
                for &off in &sched.send_lists()[p] {
                    buf.push(owned[off as usize]);
                }
            }
        },
        |src, values: Placed<'_, T>| {
            let cnt = sched.perm_lists()[src].len();
            for (lane, ghost) in ghosts.iter_mut().enumerate() {
                let block = &values[lane * cnt..(lane + 1) * cnt];
                for (&slot, &v) in sched.perm_lists()[src].iter().zip(block) {
                    ghost[slot as usize] = v;
                }
            }
        },
    )
}

/// Fused scatter-add: push the ghost-region contributions of all `N` arrays back to
/// their owners in one message per processor pair, adding into the owners' copies.
/// The fused mirror image of [`gather_multi`]; element-identical to `N` separate
/// [`scatter_add`] calls.
pub fn scatter_add_multi<'a, T>(
    rank: &mut Rank,
    sched: &CommSchedule,
    mut arrays: impl AsMut<[&'a mut DistArray<T>]>,
) -> ExchangeStats
where
    T: Element + Default + std::ops::AddAssign,
{
    let arrays = arrays.as_mut();
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    assert!(
        !arrays.is_empty(),
        "a fused scatter needs at least one array"
    );
    let n = arrays.len();
    let me = rank.rank();
    let plan = sched.scatter_plan(me);
    let mut ghosts: Vec<&[T]> = Vec::with_capacity(n);
    let mut owneds: Vec<&mut [T]> = Vec::with_capacity(n);
    for a in arrays.iter_mut() {
        assert!(
            a.ghost_len() >= sched.ghost_len(),
            "array ghost region smaller than the schedule requires"
        );
        let (g, o) = a.ghost_and_owned_mut();
        ghosts.push(g);
        owneds.push(o);
    }
    alltoallv_multi(
        rank,
        &plan,
        n,
        |p, buf: &mut PackBuf<'_, T>| {
            for ghost in &ghosts {
                for &slot in &sched.perm_lists()[p] {
                    buf.push(ghost[slot as usize]);
                }
            }
        },
        |src, values: Placed<'_, T>| {
            let cnt = sched.send_lists()[src].len();
            for (lane, owned) in owneds.iter_mut().enumerate() {
                let block = &values[lane * cnt..(lane + 1) * cnt];
                for (&off, &v) in sched.send_lists()[src].iter().zip(block) {
                    owned[off as usize] += v;
                }
            }
        },
    )
}

/// A fused gather in flight: sends posted by [`gather_start`], ghost placement pending
/// until [`gather_finish`].  Nothing borrows the arrays while the exchange flies — the
/// caller is free to read them (and compute) in between.
#[must_use = "a split-phase gather must be finished with gather_finish"]
pub struct GatherHandle<T: Element> {
    inner: ExchangeHandle<T>,
    lanes: usize,
}

/// Start a (fused) gather: pack every scheduled owned element of the `N` arrays and post
/// the messages, returning a handle for [`gather_finish`].  The overlap primitive of the
/// executor — between start and finish the caller runs whatever computation does not
/// need the incoming ghosts (CHARMM's bonded force loop during the non-bonded gather).
///
/// Collective in start order; the matching `gather_finish` must pass the same schedule
/// and arrays.  The owned sections must not be modified while the gather is in flight
/// (the packed values were read at start — changing them afterwards is not observable by
/// the exchange, which would silently de-synchronise the ghosts from the owners).
pub fn gather_start<'a, T>(
    rank: &mut Rank,
    sched: &CommSchedule,
    arrays: impl AsRef<[&'a DistArray<T>]>,
) -> GatherHandle<T>
where
    T: Element + Default,
{
    let arrays = arrays.as_ref();
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    assert!(
        !arrays.is_empty(),
        "a fused gather needs at least one array"
    );
    let n = arrays.len();
    let me = rank.rank();
    let plan = sched.gather_plan(me).fused(n);
    let owneds: Vec<&[T]> = arrays.iter().map(|a| a.owned()).collect();
    let inner = start_alltoallv_with(rank, plan, |p, buf: &mut PackBuf<'_, T>| {
        for owned in &owneds {
            for &off in &sched.send_lists()[p] {
                buf.push(owned[off as usize]);
            }
        }
    });
    GatherHandle { inner, lanes: n }
}

/// Finish a gather started with [`gather_start`]: drain the receives and place the
/// incoming copies into the ghost regions of the same `N` arrays (grown if needed).
///
/// # Panics
/// Panics if the lane count or schedule differs from the one `gather_start` packed for —
/// a mismatched schedule whose permutation lists disagree with the received element
/// counts would otherwise leave ghost slots silently stale.
pub fn gather_finish<'a, T>(
    rank: &mut Rank,
    handle: GatherHandle<T>,
    sched: &CommSchedule,
    mut arrays: impl AsMut<[&'a mut DistArray<T>]>,
) -> ExchangeStats
where
    T: Element + Default,
{
    let arrays = arrays.as_mut();
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    let n = arrays.len();
    assert_eq!(
        handle.lanes, n,
        "gather_finish must pass the same arrays gather_start packed"
    );
    let mut ghosts: Vec<&mut [T]> = Vec::with_capacity(n);
    for a in arrays.iter_mut() {
        a.ensure_ghost(sched.ghost_len());
        ghosts.push(a.ghost_mut());
    }
    handle.inner.finish(rank, |src, values: Placed<'_, T>| {
        assert_eq!(
            values.len(),
            sched.perm_lists()[src].len() * n,
            "gather_finish: schedule does not match the one gather_start packed for \
             (message from rank {src} disagrees with the permutation list)"
        );
        let cnt = sched.perm_lists()[src].len();
        for (lane, ghost) in ghosts.iter_mut().enumerate() {
            let block = &values[lane * cnt..(lane + 1) * cnt];
            for (&slot, &v) in sched.perm_lists()[src].iter().zip(block) {
                ghost[slot as usize] = v;
            }
        }
    })
}

/// A light-weight append in flight: migrants posted by [`scatter_append_start`], arrivals
/// pending until [`scatter_append_finish`].  The kept items were copied out at start, so
/// the caller's item buffer is free immediately.
#[must_use = "a split-phase append must be finished with scatter_append_finish"]
pub struct AppendHandle<T: Element> {
    inner: ExchangeHandle<T>,
    kept: Vec<T>,
}

/// Start a light-weight append: post one message of whole items per destination
/// processor and copy the kept items aside, returning a handle for
/// [`scatter_append_finish`].  Between start and finish the caller computes — the DSMC
/// MOVE phase re-bins its surviving molecules while the migrants are in flight.
pub fn scatter_append_start<T: Element>(
    rank: &mut Rank,
    sched: &LightweightSchedule,
    items: &[T],
) -> AppendHandle<T> {
    assert_eq!(
        sched.nprocs(),
        rank.nprocs(),
        "schedule/machine size mismatch"
    );
    assert_eq!(
        sched.my_rank(),
        rank.rank(),
        "light-weight schedule belongs to a different rank"
    );
    let me = rank.rank();
    let plan = sched.append_plan();
    let inner = start_alltoallv_with(rank, plan, |p, buf: &mut PackBuf<'_, T>| {
        for &i in &sched.send_item_lists[p] {
            buf.push(items[i as usize]);
        }
    });
    let mut kept: Vec<T> = Vec::with_capacity(sched.result_count());
    kept.extend(sched.send_item_lists[me].iter().map(|&i| items[i as usize]));
    AppendHandle { inner, kept }
}

/// Finish an append started with [`scatter_append_start`], returning this rank's new
/// item list in the same deterministic order as [`scatter_append`]: kept items first,
/// then arrivals in source rank order (within one source, in that source's packing
/// order).
pub fn scatter_append_finish<T: Element>(
    rank: &mut Rank,
    sched: &LightweightSchedule,
    handle: AppendHandle<T>,
) -> Vec<T> {
    let me = sched.my_rank();
    let nprocs = sched.nprocs();
    // The engine delivers in arrival order; buffer per source so the documented layout
    // is deterministic.  The appended items outlive the call, so ownership is taken.
    let mut by_src: Vec<Vec<T>> = (0..nprocs).map(|_| Vec::new()).collect();
    handle.inner.finish(rank, |src, values| {
        by_src[src] = values.into_vec();
    });
    let mut result = handle.kept;
    for (p, mut values) in by_src.into_iter().enumerate() {
        if p != me {
            debug_assert_eq!(
                values.len(),
                sched.recv_counts[p],
                "scatter_append: receive count mismatch from processor {p}"
            );
            result.append(&mut values);
        }
    }
    result
}

/// Move whole items to new owners using a light-weight schedule and return this rank's new
/// item list: the items it kept followed by the items appended by other ranks (in source
/// rank order; within one source, in that source's packing order).
///
/// Because no placement order is promised, no permutation list is needed and nothing has to
/// be index-translated — this is why the DSMC MOVE phase is so much cheaper with
/// light-weight schedules (Table 4 of the paper).
pub fn scatter_append<T: Element>(
    rank: &mut Rank,
    sched: &LightweightSchedule,
    items: &[T],
) -> Vec<T> {
    // The blocking form is the split-phase form with nothing in between.  Items are
    // packed straight into each destination's message (kept items are copied from
    // `items` at start, bypassing the plan); this is the one executor primitive that
    // takes ownership of its payloads (`Placed::into_vec`) — the appended items outlive
    // the call.
    let handle = scatter_append_start(rank, sched, items);
    scatter_append_finish(rank, sched, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::BlockDist;
    use crate::index_hash::{Stamp, StampQuery};
    use crate::inspector::Inspector;
    use crate::translation::TranslationTable;
    use mpsim::{run, MachineConfig};

    /// Build the schedule for a given access pattern (same on all ranks) over an
    /// n-element block-distributed array, returning (schedule, local refs, owned range).
    fn setup(
        rank: &mut Rank,
        n: usize,
        pattern: &[usize],
    ) -> (
        CommSchedule,
        Vec<crate::darray::LocalRef>,
        std::ops::Range<usize>,
    ) {
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);
        let mut insp = Inspector::new(&ttable, rank.rank());
        let refs = insp.hash_indices(rank, pattern, Stamp::new(0));
        let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
        (sched, refs, dist.local_range(rank.rank()))
    }

    #[test]
    fn gather_brings_in_correct_values() {
        let n = 16;
        let out = run(MachineConfig::new(4), move |rank| {
            // Every rank reads every element; x[g] = g as f64 globally.
            let pattern: Vec<usize> = (0..n).collect();
            let (sched, refs, range) = setup(rank, n, &pattern);
            let owned: Vec<f64> = range.clone().map(|g| g as f64).collect();
            let mut x = DistArray::new(owned, sched.ghost_len());
            gather(rank, &sched, &mut x);
            refs.iter().map(|&r| x[r]).collect::<Vec<f64>>()
        });
        for vals in &out.results {
            let expected: Vec<f64> = (0..n).map(|g| g as f64).collect();
            assert_eq!(vals, &expected);
        }
    }

    #[test]
    fn gather_reports_schedule_message_counts() {
        let n = 32;
        let out = run(MachineConfig::new(4), move |rank| {
            let pattern: Vec<usize> = (0..n).map(|i| (i * 3 + 1) % n).collect();
            let (sched, _refs, range) = setup(rank, n, &pattern);
            let mut x = DistArray::new(vec![0.0f64; range.len()], sched.ghost_len());
            let stats = gather(rank, &sched, &mut x);
            (
                stats,
                sched.send_message_count(),
                sched.total_send(),
                sched.total_fetch(),
            )
        });
        for (stats, msg_count, total_send, total_fetch) in &out.results {
            assert_eq!(stats.msgs_sent as usize, *msg_count);
            assert_eq!(stats.bytes_sent as usize, total_send * 8);
            assert_eq!(stats.bytes_received as usize, total_fetch * 8);
        }
    }

    #[test]
    fn gather_scatter_round_trip_preserves_values() {
        let n = 24;
        let out = run(MachineConfig::new(3), move |rank| {
            let pattern: Vec<usize> = (0..n).map(|i| (i * 5 + 2) % n).collect();
            let (sched, _refs, range) = setup(rank, n, &pattern);
            let owned: Vec<f64> = range.clone().map(|g| (g * g) as f64).collect();
            let mut x = DistArray::new(owned.clone(), sched.ghost_len());
            gather(rank, &sched, &mut x);
            // Scatter straight back without modification: owned values must be unchanged.
            scatter(rank, &sched, &mut x);
            (x.owned().to_vec(), owned)
        });
        for (after, before) in &out.results {
            assert_eq!(after, before);
        }
    }

    #[test]
    fn scatter_add_accumulates_remote_contributions() {
        // Global reduction x[g] += 1 executed once per rank for every g:
        // final x[g] = initial + nprocs.
        let n = 12;
        let nprocs = 4;
        let out = run(MachineConfig::new(nprocs), move |rank| {
            let pattern: Vec<usize> = (0..n).collect();
            let (sched, refs, range) = setup(rank, n, &pattern);
            let owned: Vec<f64> = vec![10.0; range.len()];
            let mut x = DistArray::new(owned, sched.ghost_len());
            // Each rank adds 1.0 to every element through its local reference (ghost for
            // off-processor elements), then scatter_add folds the ghosts back.
            for &r in &refs {
                x[r] += 1.0;
            }
            scatter_add(rank, &sched, &mut x);
            x.owned().to_vec()
        });
        for owned in &out.results {
            assert!(owned
                .iter()
                .all(|&v| (v - (10.0 + nprocs as f64)).abs() < 1e-12));
        }
    }

    #[test]
    fn scatter_append_conserves_items_and_routes_them() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            // 10 items per rank; item k is destined for processor k % 4 and carries the
            // value 1000*me + k.
            let items: Vec<u64> = (0..10).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..10).map(|k| k % 4).collect();
            let sched = LightweightSchedule::build(rank, &dests);

            scatter_append(rank, &sched, &items)
        });
        // Collect everything and check the multiset is conserved and routed correctly.
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..4)
            .flat_map(|me| (0..10).map(move |k| (1000 * me + k) as u64))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
        for (p, items) in out.results.iter().enumerate() {
            // Every item k on processor p must satisfy k % 4 == p.
            assert!(items.iter().all(|&v| (v % 1000) as usize % 4 == p));
            // 4 ranks each send/keep either 2 or 3 items for p: total 10 or 12.
            assert_eq!(items.len(), out.results[p].len());
        }
    }

    #[test]
    fn scatter_append_orders_kept_items_first_then_sources_by_rank() {
        let out = run(MachineConfig::new(3), |rank| {
            let me = rank.rank();
            // Every rank sends one item to every rank (including itself).
            let items: Vec<u64> = (0..3).map(|k| (100 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..3).collect();
            let sched = LightweightSchedule::build(rank, &dests);
            scatter_append(rank, &sched, &items)
        });
        for (p, got) in out.results.iter().enumerate() {
            // Kept item first, then contributions in source rank order.
            let mut expected: Vec<u64> = vec![(100 * p + p) as u64];
            expected.extend(
                (0..3usize)
                    .filter(|&src| src != p)
                    .map(|src| (100 * src + p) as u64),
            );
            assert_eq!(got, &expected, "deterministic order on rank {p}");
        }
    }

    #[test]
    fn lightweight_schedule_is_cheaper_to_build_than_a_regular_schedule() {
        // The mechanism behind Table 4: regenerating a light-weight schedule every time
        // step costs only an exchange of counts, whereas a regular schedule must ship one
        // index per off-processor reference (plus the hashing/translation work).
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            // 64 references per rank, four-way spread — the same pattern for both paths.
            let dests: Vec<usize> = (0..64).map(|k| (k / 16 + me) % 4).collect();
            let before = rank.stats().bytes_sent;
            let lw = LightweightSchedule::build(rank, &dests);
            let lw_build_bytes = rank.stats().bytes_sent - before;

            let n = 256;
            let dist = BlockDist::new(n, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut insp = Inspector::new(&ttable, rank.rank());
            let pattern: Vec<usize> = (0..64).map(|k| (me * 64 + k + 16) % n).collect();
            let before = rank.stats().bytes_sent;
            insp.hash_indices(rank, &pattern, Stamp::new(0));
            let sched = insp.build_schedule(rank, StampQuery::single(Stamp::new(0)));
            let regular_build_bytes = rank.stats().bytes_sent - before;
            (
                lw_build_bytes,
                regular_build_bytes,
                lw.result_count(),
                sched.total_fetch(),
            )
        });
        for (lw, regular, result_count, fetch) in &out.results {
            assert!(
                lw * 2 <= *regular,
                "light-weight schedule build should be much cheaper ({lw} vs {regular} bytes)"
            );
            assert_eq!(*result_count, 64);
            assert!(*fetch > 0);
        }
    }

    #[test]
    fn gather_multi_matches_three_single_gathers_with_a_third_of_the_messages() {
        let n = 32;
        let out = run(MachineConfig::new(4), move |rank| {
            let pattern: Vec<usize> = (0..n).map(|i| (i * 3 + 1) % n).collect();
            let (sched, _refs, range) = setup(rank, n, &pattern);
            let make = |scale: f64| -> DistArray<f64> {
                let owned: Vec<f64> = range.clone().map(|g| g as f64 * scale).collect();
                DistArray::new(owned, sched.ghost_len())
            };
            // Reference: three blocking single-array gathers.
            let (mut x1, mut y1, mut z1) = (make(1.0), make(0.5), make(-2.0));
            let s = gather(rank, &sched, &mut x1)
                .merged(&gather(rank, &sched, &mut y1))
                .merged(&gather(rank, &sched, &mut z1));
            // Fused: one gather_multi over the same values.
            let (mut x2, mut y2, mut z2) = (make(1.0), make(0.5), make(-2.0));
            let m = gather_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);
            assert_eq!(x1.ghost(), x2.ghost());
            assert_eq!(y1.ghost(), y2.ghost());
            assert_eq!(z1.ghost(), z2.ghost());
            (s, m, sched.send_message_count())
        });
        for (single, multi, sched_msgs) in &out.results {
            assert_eq!(
                multi.bytes_sent, single.bytes_sent,
                "same bytes on the wire"
            );
            assert_eq!(multi.bytes_received, single.bytes_received);
            assert_eq!(
                multi.msgs_sent as usize, *sched_msgs,
                "one message per pair"
            );
            assert_eq!(single.msgs_sent, 3 * multi.msgs_sent, "3x message drop");
        }
    }

    #[test]
    fn scatter_add_multi_matches_three_single_scatters() {
        let n = 24;
        let out = run(MachineConfig::new(3), move |rank| {
            let pattern: Vec<usize> = (0..n).collect();
            let (sched, refs, range) = setup(rank, n, &pattern);
            let seed = |bias: f64| -> DistArray<f64> {
                let mut a = DistArray::new(vec![bias; range.len()], sched.ghost_len());
                for (k, &r) in refs.iter().enumerate() {
                    a[r] += k as f64 + bias;
                }
                a
            };
            let (mut x1, mut y1, mut z1) = (seed(1.0), seed(2.0), seed(3.0));
            let s = scatter_add(rank, &sched, &mut x1)
                .merged(&scatter_add(rank, &sched, &mut y1))
                .merged(&scatter_add(rank, &sched, &mut z1));
            let (mut x2, mut y2, mut z2) = (seed(1.0), seed(2.0), seed(3.0));
            let m = scatter_add_multi(rank, &sched, [&mut x2, &mut y2, &mut z2]);
            assert_eq!(x1.owned(), x2.owned());
            assert_eq!(y1.owned(), y2.owned());
            assert_eq!(z1.owned(), z2.owned());
            (s, m)
        });
        for (single, multi) in &out.results {
            assert_eq!(multi.bytes_sent, single.bytes_sent);
            assert_eq!(single.msgs_sent, 3 * multi.msgs_sent);
        }
    }

    #[test]
    fn split_phase_gather_matches_blocking_with_compute_in_flight() {
        let n = 30;
        let out = run(MachineConfig::new(3), move |rank| {
            let pattern: Vec<usize> = (0..n).map(|i| (i * 7 + 2) % n).collect();
            let (sched, _refs, range) = setup(rank, n, &pattern);
            let owned: Vec<f64> = range.clone().map(|g| (g * g) as f64).collect();
            let mut blocking = DistArray::new(owned.clone(), sched.ghost_len());
            let b = gather(rank, &sched, &mut blocking);
            let mut split = DistArray::new(owned, sched.ghost_len());
            let handle = gather_start(rank, &sched, [&split]);
            rank.charge_compute(42.0); // the force loop that overlaps the exchange
            let s = gather_finish(rank, handle, &sched, [&mut split]);
            assert_eq!(blocking.ghost(), split.ghost(), "byte-identical ghosts");
            (b, s)
        });
        for (blocking, split) in &out.results {
            assert_eq!(blocking, split, "identical exchange stats");
        }
    }

    #[test]
    fn split_phase_append_matches_blocking() {
        let out = run(MachineConfig::new(4), |rank| {
            let me = rank.rank();
            let items: Vec<u64> = (0..12).map(|k| (1000 * me + k) as u64).collect();
            let dests: Vec<usize> = (0..12).map(|k| (k + me) % 4).collect();
            let sched = LightweightSchedule::build(rank, &dests);
            let blocking = scatter_append(rank, &sched, &items);
            let handle = scatter_append_start(rank, &sched, &items);
            rank.charge_compute(5.0); // re-binning survivors while migrants fly
            let split = scatter_append_finish(rank, &sched, handle);
            assert_eq!(blocking, split, "deterministic order preserved");
            blocking
        });
        let mut all: Vec<u64> = out.results.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), 4 * 12, "items conserved");
    }

    #[test]
    #[should_panic(expected = "array owned section does not match the schedule's owned length")]
    fn array_of_the_wrong_owned_length_is_rejected() {
        let _ = run(MachineConfig::new(2), |rank| {
            let pattern: Vec<usize> = (0..8).collect();
            let (sched, _refs, range) = setup(rank, 8, &pattern);
            let mut x = DistArray::new(vec![0.0f64; range.len() - 1], sched.ghost_len());
            gather(rank, &sched, &mut x);
        });
    }

    #[test]
    fn gather_scatter_add_steady_loop_allocates_nothing_on_shared_mem() {
        // One pack -> send -> place path on both transports means the steady state is the
        // engine's property, not the scheduler's: after one warm-up round a gather +
        // scatter_add loop draws exactly zero fresh message buffers, however the rank
        // threads interleave.
        let n = 64;
        let cfg = MachineConfig::new(4).with_backend(mpsim::ExchangeBackend::SharedMem);
        let out = run(cfg, move |rank| {
            let pattern: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
            let (sched, refs, range) = setup(rank, n, &pattern);
            let mut x = DistArray::new(vec![1.0f64; range.len()], sched.ghost_len());
            let mut round = |rank: &mut Rank| {
                gather(rank, &sched, &mut x);
                for &r in &refs {
                    x[r] += 1.0;
                }
                scatter_add(rank, &sched, &mut x);
            };
            round(rank);
            let warm = rank.pool_stats();
            for _ in 0..96 {
                round(rank);
            }
            rank.pool_stats().since(&warm)
        });
        for (me, delta) in out.results.iter().enumerate() {
            assert_eq!(
                delta.decode_allocations, 0,
                "rank {me} drew a fresh message buffer"
            );
            assert!(delta.decode_reuses > 0, "rank {me}: message buffers reused");
        }
    }

    #[test]
    fn empty_schedule_moves_nothing() {
        let out = run(MachineConfig::new(3), |rank| {
            let sched = CommSchedule::empty(rank.nprocs(), 2);
            let mut x: DistArray<f64> = DistArray::new(vec![1.0, 2.0], 0);
            let before = rank.stats().msgs_sent;
            let g = gather(rank, &sched, &mut x);
            let s = scatter_add(rank, &sched, &mut x);
            (
                rank.stats().msgs_sent - before,
                x.owned().to_vec(),
                g.merged(&s),
            )
        });
        for (msgs, owned, stats) in &out.results {
            assert_eq!(*msgs, 0);
            assert_eq!(owned, &vec![1.0, 2.0]);
            assert_eq!(*stats, ExchangeStats::default());
        }
    }
}
