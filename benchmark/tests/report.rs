//! Two results documents side by side: `--aa` (the same code twice) and `--compare`.

use chaos_benchmark::harness::Collected;
use chaos_benchmark::json::Json;
use chaos_benchmark::report::{compare, results_json, Conditions, Mode};
use chaos_benchmark::workloads::Workload;

/// A results document in which every workload measured `run_s` around `run` seconds.
fn document(run: f64, jitter: f64, edit: impl Fn(&mut Collected)) -> Json {
    let conditions = Conditions {
        seed: 1994,
        scale: "full",
        host_cores: 2,
        rounds: 4,
        rustc: "rustc test".to_string(),
        commit: "test".to_string(),
    };
    let collected: Vec<Collected> = Workload::ALL
        .into_iter()
        .map(|workload| {
            let mut c = Collected::new(workload);
            c.attempted = 20;
            c.run_s = vec![
                run,
                run * (1.0 + jitter),
                run * (1.0 + 2.0 * jitter),
                run * (1.0 + 3.0 * jitter),
            ];
            c.setup_s = vec![0.040, 0.041, 0.042, 0.043];
            c.peak_rss_mb = vec![30.0, 30.1, 30.2, 30.3];
            c.modeled_s = vec![20.0];
            c.counts.insert("mpsim.msgs".to_string(), 10_000.0);
            edit(&mut c);
            c
        })
        .collect();
    results_json(&conditions, &collected)
}

fn rows<'a>(table: &'a str, workload: &str, needle: &str) -> Vec<&'a str> {
    table
        .lines()
        .filter(|line| line.starts_with(workload) && line.contains(needle))
        .collect()
}

#[test]
fn the_same_code_twice_agrees_with_itself() {
    let a = document(2.0, 0.01, |_| ());
    let (table, disagree) = compare(&a, &a, Mode::SameCode).unwrap();
    assert!(!disagree, "{table}");
    for w in Workload::ALL {
        for metric in ["run_s", "setup_s", "modeled_s", "peak_rss_mb"] {
            let row = rows(&table, w.name(), metric);
            assert_eq!(row.len(), 1, "{} {metric}: {table}", w.name());
            assert!(row[0].ends_with("agree"), "{}", row[0]);
        }
    }
}

#[test]
fn the_same_code_disagreeing_beyond_a_bound_fails() {
    let a = document(2.0, 0.01, |_| ());
    // The fastest sample is what is compared: 2.0 against 2.8 is +40 %, the bound 25 %.
    let b = document(2.8, 0.01, |_| ());
    let (table, disagree) = compare(&a, &b, Mode::SameCode).unwrap();
    assert!(disagree);
    let row = rows(&table, "dsmc_move", "run_s");
    assert!(
        row[0].ends_with("BEYOND BOUND") && row[0].contains("+40.00%"),
        "{}",
        row[0]
    );
    assert!(rows(&table, "dsmc_move", "setup_s")[0].ends_with("agree"));
}

#[test]
fn counts_must_repeat_exactly_except_on_charmm_steady() {
    let a = document(2.0, 0.01, |_| ());
    let bump = |workload: Workload, factor: f64| {
        document(2.0, 0.01, move |c| {
            if c.workload == workload {
                c.counts.insert("mpsim.msgs".to_string(), 10_000.0 * factor);
            }
        })
    };
    let (table, disagree) = compare(&a, &bump(Workload::DsmcMove, 1.0001), Mode::SameCode).unwrap();
    assert!(disagree);
    let row = rows(&table, "dsmc_move", "mpsim.msgs");
    assert!(
        row.len() == 1 && row[0].ends_with("COUNT DIFFERS"),
        "{table}"
    );

    // At MODEL_RANKS scatter_add combines in arrival order; on charmm_steady that feeds
    // back through the list regenerations, so its counts get a 1 % tolerance.
    let (table, disagree) =
        compare(&a, &bump(Workload::CharmmSteady, 1.005), Mode::SameCode).unwrap();
    assert!(!disagree, "{table}");
    let (_, disagree) = compare(&a, &bump(Workload::CharmmSteady, 1.02), Mode::SameCode).unwrap();
    assert!(disagree);
}

#[test]
fn a_comparison_says_worse_better_or_unresolved_never_unchanged() {
    let a = document(2.0, 0.01, |_| ());
    let verdict = |b: &Json, workload: &str, metric: &str| -> String {
        let (table, _) = compare(&a, b, Mode::Compare).unwrap();
        rows(&table, workload, metric)[0]
            .rsplit("  ")
            .next()
            .unwrap()
            .trim()
            .to_string()
    };
    assert_eq!(
        verdict(&document(2.8, 0.01, |_| ()), "charmm_adaptive", "run_s"),
        "worse"
    );
    assert_eq!(
        verdict(&document(1.2, 0.01, |_| ()), "charmm_adaptive", "run_s"),
        "better"
    );
    assert_eq!(
        verdict(&document(2.1, 0.01, |_| ()), "charmm_adaptive", "run_s"),
        "within bound"
    );
    // Samples spread over more than the bound cannot resolve a change of its size.
    assert_eq!(
        verdict(&document(2.0, 0.3, |_| ()), "charmm_adaptive", "run_s"),
        "unresolved"
    );
    assert_eq!(
        verdict(&document(2.0, 0.3, |_| ()), "charmm_adaptive", "modeled_s"),
        "within bound"
    );
}

#[test]
fn a_comparison_reports_each_sides_failed_share_and_the_base_of_its_ratios() {
    let a = document(2.0, 0.01, |_| ());
    let b = document(2.0, 0.01, |c| {
        if c.workload == Workload::InspectorDrift {
            c.failed = 5;
        }
    });
    let (table, _) = compare(&a, &b, Mode::Compare).unwrap();
    let row = rows(&table, "inspector_drift", "failed operations");
    assert_eq!(row.len(), 1, "{table}");
    assert!(
        row[0].contains("A 0.0% of 20") && row[0].contains("B 25.0% of 20"),
        "{}",
        row[0]
    );
    assert!(table.contains("base = A"));

    let not_results = Json::obj([("schema", Json::str("something else"))]);
    assert!(compare(&a, &not_results, Mode::Compare).is_err());
}
