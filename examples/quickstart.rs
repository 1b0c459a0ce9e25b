//! Quickstart: the irregular loop of Figure 1 of the paper, parallelised with the CHAOS
//! inspector/executor.
//!
//! ```text
//! do i = 1, n
//!    x(ia(i)) = x(ia(i)) + y(ib(i))
//! end do
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use chaos_suite::chaos::prelude::*;
use chaos_suite::mpsim::{run, MachineConfig};

fn main() {
    let n = 1_000;
    let nprocs = 8;
    // Indirection arrays known only "at run time".
    let ia: Vec<usize> = (0..n).map(|i| (i * 17 + 3) % n).collect();
    let ib: Vec<usize> = (0..n).map(|i| (i * 29 + 11) % n).collect();
    let ia_for_check = ia.clone();
    let ib_for_check = ib.clone();

    let outcome = run(MachineConfig::new(nprocs), move |rank| {
        // Phase A/B: x and y are BLOCK-distributed (a partitioner could be used instead).
        let dist = BlockDist::new(n, rank.nprocs());
        let ttable = TranslationTable::from_regular(&dist);

        // Phase C/D: this rank executes the iterations whose index it owns.
        let my_iters: Vec<usize> = dist.local_globals(rank.rank()).collect();
        let my_ia: Vec<usize> = my_iters.iter().map(|&i| ia[i]).collect();
        let my_ib: Vec<usize> = my_iters.iter().map(|&i| ib[i]).collect();

        // Phase E (inspector): translate indices, remove duplicates, build one merged
        // communication schedule for both access patterns.
        let mut hash = IndexHashTable::new(rank.rank(), ttable.local_size(rank.rank()));
        let refs_a = hash.hash_in_replicated(rank, &ttable, &my_ia, Stamp::new(0));
        let refs_b = hash.hash_in_replicated(rank, &ttable, &my_ib, Stamp::new(1));
        let sched = build_schedule_from_table(
            rank,
            &hash,
            StampQuery::any_of(&[Stamp::new(0), Stamp::new(1)]),
        );

        // Phase F (executor): gather off-processor y values, run the loop, scatter-add
        // the off-processor x contributions back to their owners.
        let owned = dist.local_size(rank.rank());
        let mut x = DistArray::new(vec![1.0f64; owned], sched.ghost_len());
        let mut y = DistArray::new(
            dist.local_globals(rank.rank()).map(|g| g as f64).collect(),
            sched.ghost_len(),
        );
        gather(rank, &sched, &mut y);
        for (ra, rb) in refs_a.iter().zip(&refs_b) {
            let contribution = y[*rb];
            x[*ra] += contribution;
        }
        scatter_add(rank, &sched, &mut x);

        // Report the locally owned slice of x together with its global indices.
        let globals: Vec<usize> = dist.local_globals(rank.rank()).collect();
        (globals, x.owned().to_vec(), rank.stats(), rank.modeled())
    });

    // Stitch the distributed result together and verify against a sequential evaluation.
    let mut x_parallel = vec![0.0f64; n];
    for (globals, values, _, _) in &outcome.results {
        for (g, v) in globals.iter().zip(values) {
            x_parallel[*g] = *v;
        }
    }
    let mut x_seq = vec![1.0f64; n];
    for i in 0..n {
        x_seq[ia_for_check[i]] += ib_for_check[i] as f64;
    }
    let max_err = x_parallel
        .iter()
        .zip(&x_seq)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    println!("CHAOS-RS quickstart: x(ia(i)) += y(ib(i)) on {nprocs} simulated processors");
    println!("  elements: {n}, iterations: {n}");
    println!("  max |parallel - sequential| = {max_err:.3e}");
    let stats = outcome.machine_stats();
    println!(
        "  messages sent: {}, bytes moved: {}, modeled time (max over ranks): {:.2} ms",
        stats.total_messages(),
        stats.total_bytes(),
        outcome.max_total_us() / 1000.0
    );
    assert!(max_err < 1e-9);
    println!("  OK");
}
