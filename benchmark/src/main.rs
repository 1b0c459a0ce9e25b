//! The benchmark's one program.  `run.sh` builds it and passes its arguments through.
//!
//! ```text
//! run.sh --workload W --seed N --seconds T --trace 0|1   one workload, one JSON line
//! run.sh [--seed N] [--rounds R]                         all seven, out/results.json
//! run.sh --aa                                            the above twice, side by side
//! run.sh --compare A.json B.json                         two results files side by side
//! ```
//! `--quick` selects tiny sizes that take the same code paths (the tests use it).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use chaos_benchmark::child::{self, ChildArgs, Op};
use chaos_benchmark::harness::{check_host, Collected, Session};
use chaos_benchmark::json::Json;
use chaos_benchmark::metrics::{per_layer, END_TO_END};
use chaos_benchmark::report::{compare, render_results, results_json, Conditions, Mode};
use chaos_benchmark::workloads::{Scale, Workload, DEFAULT_SEED};

/// Timed rounds of the all-workloads run, after one warm-up round.
const DEFAULT_ROUNDS: usize = 9;
/// Replay rounds (spans off, spans on) of the all-workloads run.
const REPLAY_ROUNDS: usize = 3;
/// A single-workload run takes at least this many samples, however short `--seconds`.
const MIN_SAMPLES: usize = 3;
/// A single-workload run stops sampling once this many operations have failed.
const MAX_FAILURES: u64 = 3;

struct Args {
    child: Option<Op>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    rounds: usize,
    corrupt: bool,
    aa: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        child: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        rounds: DEFAULT_ROUNDS,
        corrupt: false,
        aa: false,
        compare: None,
        // Beside the package's manifest, wherever the command is run from.
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--child" => {
                let name = value()?;
                args.child = Some(
                    Op::from_name(&name).ok_or_else(|| format!("unknown operation '{name}'"))?,
                );
            }
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "quick" => Scale::Quick,
                    other => return Err(format!("unknown scale '{other}'")),
                };
            }
            "--quick" => args.scale = Scale::Quick,
            "--rounds" => args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--corrupt-reference" => args.corrupt = true,
            "--aa" => args.aa = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some((a, b)) = &args.compare {
        let read = |path: &PathBuf| -> Result<Json, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        };
        print!("{}", compare(&read(a)?, &read(b)?, Mode::Compare)?.0);
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(op) = args.child {
        let child_args = ChildArgs {
            op,
            workload: args.workload.ok_or("--child needs --workload")?,
            scale: args.scale,
            seed: args.seed,
            corrupt: args.corrupt,
            out_dir: args.out_dir.clone(),
        };
        return Ok(match child::run(&child_args) {
            Ok(json) => {
                println!("{}", json.render());
                ExitCode::SUCCESS
            }
            Err(error) => {
                println!("{}", Json::obj([("error", Json::Str(error))]).render());
                ExitCode::FAILURE
            }
        });
    }

    let host_cores = check_host()?;
    let session = Session {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        seed: args.seed,
        scale: args.scale,
        corrupt: args.corrupt,
        out_dir: args.out_dir.clone(),
    };
    if let Some(workload) = args.workload {
        return one_workload(&session, workload, args);
    }

    let conditions = Conditions {
        seed: args.seed,
        scale: args.scale.name(),
        host_cores,
        rounds: args.rounds,
        rustc: std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
        commit: std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut all_sound = true;
    let mut measure = |file: &str| -> Result<Json, String> {
        let collected = all_workloads(&session, args.rounds);
        all_sound &= collected
            .iter()
            .all(|c| c.failed == 0 && c.end_to_end().is_some());
        let doc = results_json(&conditions, &collected);
        let path = args.out_dir.join(file);
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{}", render_results(&doc)?);
        println!("\nwrote {}", path.display());
        Ok(doc)
    };
    let agree = if args.aa {
        let (a, b) = (measure("results_a.json")?, measure("results_b.json")?);
        let (table, disagree) = compare(&a, &b, Mode::SameCode)?;
        print!("\n{table}");
        !disagree
    } else {
        measure("results.json")?;
        true
    };
    Ok(if all_sound && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All seven workloads.  Wall samples go round-robin across the workloads, so each
/// workload's samples span the whole invocation: back-to-back samples of one workload
/// drift together with the host, round-robin ones do not.
fn all_workloads(session: &Session, rounds: usize) -> Vec<Collected> {
    let mut collected: Vec<Collected> = Workload::ALL.into_iter().map(Collected::new).collect();
    for c in &mut collected {
        c.reference(session);
        c.count(session);
    }
    for round in 0..=rounds {
        for c in &mut collected {
            c.wall(session, round > 0);
        }
    }
    for _ in 0..REPLAY_ROUNDS {
        for c in &mut collected {
            c.replay(session, false);
            c.replay(session, true);
        }
    }
    collected
}

/// One workload for `--seconds`, printing the one JSON line a driver reads: the
/// end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
fn one_workload(session: &Session, workload: Workload, args: &Args) -> Result<ExitCode, String> {
    let mut c = Collected::new(workload);
    c.reference(session);
    c.count(session);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut samples = 0;
    while (samples < MIN_SAMPLES || started.elapsed() < budget) && c.failed < MAX_FAILURES {
        c.wall(session, true);
        if args.trace {
            c.replay(session, false);
            c.replay(session, true);
        }
        samples += 1;
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let values = c.per_layer();
        per_layer()
            .map(|l| (l.name, values[l.name], l.unit))
            .collect()
    } else {
        let values = c
            .end_to_end()
            .ok_or_else(|| format!("no result: {}", c.failures.join("; ")))?;
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, value, m.unit))
            .collect()
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        return Err(format!("no result: {name} = {value}"));
    }
    let line = Json::obj([
        ("correct", Json::Bool(c.failed == 0)),
        ("attempted", Json::Num(c.attempted as f64)),
        ("failed", Json::Num(c.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
