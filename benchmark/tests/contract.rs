//! The program against `BENCHMARK.json`: at the `--quick` scale (tiny sizes, the same
//! code paths) every workload runs end to end and emits exactly what is declared.

use std::path::{Path, PathBuf};
use std::process::Command;

use chaos_benchmark::json::Json;
use chaos_benchmark::metrics::{per_layer, END_TO_END};
use chaos_benchmark::workloads::Workload;

struct Finished {
    code: i32,
    stdout: String,
    stderr: String,
}

fn program(args: &[&str]) -> Finished {
    let output = Command::new(env!("CARGO_BIN_EXE_chaos-benchmark"))
        .args(args)
        .output()
        .unwrap();
    Finished {
        code: output.status.code().unwrap_or(-1),
        stdout: String::from_utf8(output.stdout).unwrap(),
        stderr: String::from_utf8(output.stderr).unwrap(),
    }
}

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// One `--workload` run at the quick scale.
fn one_workload(workload: &str, seed: &str, trace: &str, out: &Path, extra: &[&str]) -> Finished {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.1",
        "--trace",
        trace,
        "--quick",
    ];
    let out = out.to_str().unwrap();
    args.extend(["--out", out]);
    args.extend(extra);
    program(&args)
}

/// The one JSON object on the last line of standard output.
fn result_line(finished: &Finished) -> Json {
    let line = finished
        .stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("no output; stderr: {}", finished.stderr));
    Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

fn strings<'a>(list: &'a Json, key: &str) -> Vec<&'a str> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|item| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no '{key}' in {item:?}"))
        })
        .collect()
}

fn keys(object: &Json) -> Vec<&str> {
    object
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn the_declared_lists_are_the_programs_lists() {
    let spec = benchmark_json();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(
        spec.get("paths").unwrap(),
        &Json::Arr(vec![Json::str("benchmark")])
    );

    let workloads = spec.get("workloads").unwrap();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(strings(workloads, "name"), names);
    assert!((2..=8).contains(&names.len()));
    for w in workloads.as_arr().unwrap() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {:?} is {} characters",
            w.get("name"),
            why.len()
        );
    }

    let end_to_end = spec.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, ours) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(declared), ["name", "unit", "better", "bound"]);
        assert_eq!(declared.get("name").and_then(Json::as_str), Some(ours.name));
        assert_eq!(declared.get("unit").and_then(Json::as_str), Some(ours.unit));
        assert_eq!(declared.get("better").and_then(Json::as_str), Some("lower"));
        assert_eq!(
            declared.get("bound").and_then(Json::as_f64),
            Some(ours.bound)
        );
        assert!(ours.bound > 0.0 && ours.bound <= 0.25);
    }
    // Set-up time has the widest bound: it is the shortest time and the noisiest.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let layers = spec.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), per_layer().count());
    for (declared, ours) in layers.iter().zip(per_layer()) {
        assert_eq!(keys(declared), ["name", "unit", "better"]);
        assert_eq!(declared.get("name").and_then(Json::as_str), Some(ours.name));
        assert_eq!(declared.get("unit").and_then(Json::as_str), Some(ours.unit));
        assert_eq!(
            declared.get("better").and_then(Json::as_str),
            Some(ours.better)
        );
    }

    let mut all: Vec<&str> = names;
    all.extend(END_TO_END.iter().map(|m| m.name));
    all.extend(per_layer().map(|l| l.name));
    assert!(
        all.iter().all(|name| is_name(name)),
        "a name is outside [A-Za-z0-9_.-]"
    );
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
}

/// The metrics object must hold exactly the declared names, each once, each with its
/// declared unit and a finite value.
fn assert_metrics(line: &Json, declared: &[(&str, &str)], context: &str) {
    assert_eq!(
        keys(line),
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        line.get("correct").and_then(Json::as_bool),
        Some(true),
        "{context}: {line:?}"
    );
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{context}"
    );
    assert!(
        line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{context}"
    );
    let metrics = line.get("metrics").unwrap();
    // `keys` keeps duplicates, so equality with the declared list also says "once".
    let declared_names: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
    assert_eq!(keys(metrics), declared_names, "{context}");
    for (name, unit) in declared {
        let metric = metrics.get(name).unwrap();
        assert_eq!(keys(metric), ["value", "unit"], "{context} {name}");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{context} {name}"
        );
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context} {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric_once() {
    let out = out_dir("every_workload");
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = per_layer().map(|l| (l.name, l.unit)).collect();
    for workload in Workload::ALL {
        let name = workload.name();
        let finished = one_workload(name, "1994", "0", &out, &[]);
        assert_eq!(finished.code, 0, "{name}: {}", finished.stderr);
        let line = result_line(&finished);
        assert_metrics(&line, &end_to_end, name);
        // End-to-end metrics are never zero.
        for (metric, _) in &end_to_end {
            let value = line
                .get("metrics")
                .unwrap()
                .get(metric)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64);
            assert!(value.unwrap() > 0.0, "{name} {metric} = {value:?}");
        }

        // A second seed runs green and moves the bytes on the wire: the seed reaches the
        // generators.
        let mut bytes = Vec::new();
        for seed in ["1994", "7"] {
            let finished = one_workload(name, seed, "1", &out, &[]);
            assert_eq!(finished.code, 0, "{name} seed {seed}: {}", finished.stderr);
            let line = result_line(&finished);
            assert_metrics(&line, &layers, name);
            let metrics = line.get("metrics").unwrap();
            bytes.push(
                metrics
                    .get("mpsim.bytes")
                    .unwrap()
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap(),
            );
            let spans = metrics
                .get("trace.spans")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(spans > 0.0, "{name}: the traced replay recorded nothing");
        }
        assert!(
            bytes[0] > 0.0 && bytes[0] != bytes[1],
            "{name}: mpsim.bytes {bytes:?} for seeds 1994 and 7"
        );
        assert!(
            out.join(format!("trace_{name}.json")).exists(),
            "{name}: no trace file"
        );
    }
}

#[test]
fn a_corrupted_reference_fails_the_operation_and_the_command() {
    let out = out_dir("corrupted_reference");
    // One workload of each kind of check: sequential prefix, sequential fingerprint,
    // plain loop, exact sequential evaluation.
    for name in [
        "charmm_steady",
        "dsmc_move",
        "compiled_charmm",
        "inspector_drift",
    ] {
        let sound = one_workload(name, "11", "0", &out, &[]);
        assert_eq!(sound.code, 0, "{name}: {}", sound.stderr);
        let finished = one_workload(name, "11", "0", &out, &["--corrupt-reference"]);
        assert_ne!(
            finished.code, 0,
            "{name}: a failed check must fail the command"
        );
        assert!(
            finished.stderr.contains("FAILED"),
            "{name}: the failure is not named: {}",
            finished.stderr
        );
        // CHARMM's reference run is one operation among several, so there is still a
        // result to print and it must say it is not correct.  Where every run is held
        // to the reference, every operation fails and there is no result at all.
        if name == "charmm_steady" {
            let line = result_line(&finished);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() > 1.0);
        } else {
            assert!(finished.stdout.is_empty(), "{name}: {}", finished.stdout);
            assert!(
                finished.stderr.contains("no result"),
                "{name}: {}",
                finished.stderr
            );
        }
    }
}

#[test]
fn too_few_cores_is_a_named_refusal() {
    // `available_parallelism` honours the affinity mask, so one pinned core is a
    // one-core host.
    let pinned = Command::new("taskset")
        .args(["-c", "0", env!("CARGO_BIN_EXE_chaos-benchmark")])
        .args([
            "--workload",
            "finegrain_shared",
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--quick",
        ])
        .output();
    let Ok(output) = pinned else {
        eprintln!("skipped: no taskset on this host");
        return;
    };
    assert!(!output.status.success(), "a one-core host must be refused");
    assert!(output.stdout.is_empty(), "a refusal prints no result");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("refused: too few cores"), "{stderr}");
}

#[test]
fn an_unknown_workload_is_an_error() {
    let finished = program(&["--workload", "nope", "--trace", "0"]);
    assert_ne!(finished.code, 0);
    assert!(finished.stdout.is_empty());
    assert!(
        finished.stderr.contains("unknown workload 'nope'"),
        "{}",
        finished.stderr
    );
}

#[test]
fn the_full_run_stamps_every_row_and_compares_with_itself() {
    let out = out_dir("full_run");
    let out_arg = out.to_str().unwrap();
    let finished = program(&["--quick", "--rounds", "2", "--seed", "21", "--out", out_arg]);
    assert_eq!(finished.code, 0, "{}\n{}", finished.stdout, finished.stderr);
    // Every metric is printed by name with its unit.
    for m in &END_TO_END {
        assert!(
            finished.stdout.contains(m.name),
            "{} is not printed",
            m.name
        );
    }
    for l in per_layer() {
        assert!(
            finished.stdout.contains(l.name),
            "{} is not printed",
            l.name
        );
    }

    let results = out.join("results.json");
    let doc = Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(21.0));
    assert_eq!(doc.get("timed_rounds").and_then(Json::as_f64), Some(2.0));
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        let rows = w.get("end_to_end").unwrap();
        assert_eq!(keys(rows), END_TO_END.map(|m| m.name), "{name}");
        let layer_names: Vec<&str> = per_layer().map(|l| l.name).collect();
        assert_eq!(keys(w.get("per_layer").unwrap()), layer_names, "{name}");
        for (metric, row) in rows
            .as_obj()
            .unwrap()
            .iter()
            .chain(w.get("per_layer").unwrap().as_obj().unwrap())
        {
            for stamp in ["unit", "host_cores", "wall_ranks", "model_ranks", "seed"] {
                assert!(row.get(stamp).is_some(), "{name} {metric}: no {stamp}");
            }
        }
        // Two timed rounds: two runs, and five set-up repetitions in each.
        assert_eq!(
            rows.get("run_s").unwrap().get("n").and_then(Json::as_f64),
            Some(2.0),
            "{name}"
        );
        assert_eq!(
            rows.get("setup_s").unwrap().get("n").and_then(Json::as_f64),
            Some(10.0),
            "{name}"
        );
        assert!(
            out.join(format!("trace_{name}.json")).exists(),
            "{name}: no trace file"
        );
    }

    let results = results.to_str().unwrap();
    let compared = program(&["--compare", results, results]);
    assert_eq!(compared.code, 0, "{}", compared.stderr);
    for w in Workload::ALL {
        for m in &END_TO_END {
            let row = compared
                .stdout
                .lines()
                .find(|line| line.starts_with(w.name()) && line.contains(m.name))
                .unwrap_or_else(|| panic!("no row for {} {}", w.name(), m.name));
            assert!(
                row.ends_with("within bound") || row.ends_with("unresolved"),
                "{row}"
            );
            assert!(row.contains("+0.00%"), "{row}");
        }
    }
    assert!(compared.stdout.contains("base = A"));
}
