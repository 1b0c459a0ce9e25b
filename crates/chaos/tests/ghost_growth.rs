//! Growing a [`DistArray`]'s ghost region moves the whole section.
//!
//! Owned and ghost elements share one allocation, so `ensure_ghost` may reallocate the
//! owned section along with the ghosts.  Whether a particular `realloc` moves is the
//! system allocator's business; this test binary takes that out of the question with a
//! global allocator whose `realloc` is the trait's default — allocate, copy, free — so
//! **every** growth lands at a new address, and checks what must survive that: the
//! values, and a gather issued right after, which packs from and places into the array
//! as it is now.

use std::alloc::{GlobalAlloc, Layout, System};

use chaos::prelude::*;
use mpsim::{run, MachineConfig};

/// The system allocator with in-place `realloc` taken away.
struct MovingRealloc;

// SAFETY: `alloc` and `dealloc` forward to `System` unchanged, so its guarantees carry
// over; `realloc` (and `alloc_zeroed`) are the trait's defaults, which are written in
// terms of exactly those two.
unsafe impl GlobalAlloc for MovingRealloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: MovingRealloc = MovingRealloc;

#[test]
fn growth_moves_the_section_and_keeps_every_value() {
    let mut a = DistArray::new(vec![1.5, 2.5, 3.5], 2);
    a.ghost_mut().copy_from_slice(&[8.0, 9.0]);
    let before = a.owned().as_ptr();
    a.ensure_ghost(64);
    assert_ne!(
        a.owned().as_ptr(),
        before,
        "this binary's realloc always moves"
    );
    assert_eq!(a.owned(), &[1.5, 2.5, 3.5]);
    assert_eq!(&a.ghost()[..2], &[8.0, 9.0]);
    assert!(a.ghost()[2..].iter().all(|&g| g == 0.0));
    assert_eq!((a.owned_len(), a.ghost_len(), a.len()), (3, 64, 67));
    assert_eq!(a[LocalRef(4)], 9.0);
    let (owned, ghost) = (a.owned(), a.ghost());
    assert_eq!(owned.as_ptr_range().end, ghost.as_ptr_range().start);
}

#[test]
fn gather_right_after_a_reallocating_growth_fills_the_new_allocation() {
    // The executor grows the ghost region first and borrows the owned and ghost
    // sections after.  Issued right after a growth that moved the array, a gather
    // must fill the array as it is now: every reference reads the right
    // value and the owned values moved along.
    const N: usize = 512;
    let value = |g: usize| g as f64 * 0.5 + 3.0;
    for p in [1, 2, 3, 8] {
        let out = run(MachineConfig::new(p), move |rank| {
            let dist = BlockDist::new(N, rank.nprocs());
            let ttable = TranslationTable::from_regular(&dist);
            let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
            let range = dist.local_range(rank.rank());
            let mut x = DistArray::new(range.clone().map(value).collect(), 0);

            // A first, small gather sizes the ghost region for a handful of slots.
            let few: Vec<usize> = (0..8).map(|i| (i * 61 + 1) % N).collect();
            let few_refs = hash.hash_in_replicated(rank, &ttable, &few, Stamp::new(0));
            let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(0)));
            gather(rank, &sched, &mut x);

            // Then every element is referenced and the ghost region must grow.
            let all: Vec<usize> = (0..N).collect();
            let all_refs = hash.hash_in_replicated(rank, &ttable, &all, Stamp::new(1));
            let sched = build_schedule_from_table(rank, &hash, StampQuery::single(Stamp::new(1)));
            let before = x.owned().as_ptr();
            x.ensure_ghost(sched.ghost_len());
            let moved = x.owned().as_ptr() != before;
            gather(rank, &sched, &mut x);

            for (&g, &r) in few.iter().zip(&few_refs).chain(all.iter().zip(&all_refs)) {
                assert_eq!(x[r], value(g), "global {g} through {r:?}");
            }
            assert!(x.owned().iter().copied().eq(range.map(value)));
            (moved, x.len())
        });
        for (moved, len) in out.results {
            // At P = 2 the first growth's amortized capacity may already cover the
            // second; from P = 3 on the array at least triples and has to move.
            assert!(moved || p < 3, "P = {p}: the growth did not reallocate");
            assert_eq!(len, N, "every off-processor element has a slot");
        }
    }
}
