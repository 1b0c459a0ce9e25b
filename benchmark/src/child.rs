//! The operations, each of which runs in a fresh child process and prints one JSON
//! line.  One operation is one whole run: a wall sample, the count run, a replay or
//! the reference run.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{COMM_SPANS, TRACE_LAYERS};
use crate::runs::{reference, run_app, run_replay, verify, RunResult};
use crate::surface::{ExchangeBackend, ParallelConfig, PartitionerKind};
use crate::trace::{layer_self_ms, write_chrome_trace, NoTrace, Recorder, Span};
use crate::workloads::{
    generate, CompiledInput, Input, Scale, Steps, Workload, MODEL_RANKS, WALL_RANKS,
};

/// How often a wall child repeats the 0-step run for `setup_s`.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Wall,
    Count,
    Reference,
    Replay { spans: bool },
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Wall => "wall",
            Op::Count => "count",
            Op::Reference => "reference",
            Op::Replay { spans: false } => "replay-off",
            Op::Replay { spans: true } => "replay-on",
        }
    }

    pub fn from_name(name: &str) -> Option<Op> {
        [
            Op::Wall,
            Op::Count,
            Op::Reference,
            Op::Replay { spans: false },
            Op::Replay { spans: true },
        ]
        .into_iter()
        .find(|op| op.name() == name)
    }
}

pub struct ChildArgs {
    pub op: Op,
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Spoil the reference a result is checked against (the seeded-failure test).
    pub corrupt: bool,
    pub out_dir: PathBuf,
}

fn hex(hash: u64) -> Json {
    Json::Str(format!("{hash:016x}"))
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The hand-written driver on `compiled_charmm`'s zero-bond input, pinned to what the
/// program models: BLOCK distribution, one merged schedule, no list update.
fn hand_input(input: &CompiledInput) -> Input {
    Input::Charmm {
        system: Arc::new(input.system.clone()),
        config: ParallelConfig {
            list_update_interval: input.nsteps + 2,
            partitioner: PartitionerKind::Block,
            ..ParallelConfig::paper_default(input.nsteps)
        },
    }
}

pub fn run(args: &ChildArgs) -> Result<Json, String> {
    let ChildArgs {
        workload,
        scale,
        seed,
        corrupt,
        ..
    } = *args;
    let backend = workload.wall_backend();
    match args.op {
        Op::Wall => {
            // One whole run as a user pays for it: input generation (and, for the compiled
            // workload, compilation), machine spawn, every phase and step, join.
            let started = Instant::now();
            let input = generate(workload, scale, seed, Steps::Full);
            let result = run_app(&input, WALL_RANKS, backend)?;
            let run_s = started.elapsed().as_secs_f64();
            verify(&input, &result, corrupt)?;
            let hash = result.hash();
            drop((input, result));
            // The same path with no time step: everything paid before step 1.
            let mut setup_s = Vec::with_capacity(SETUP_REPS);
            for _ in 0..SETUP_REPS {
                let started = Instant::now();
                let input = generate(workload, scale, seed, Steps::Zero);
                black_box(run_app(&input, WALL_RANKS, backend)?);
                setup_s.push(Json::Num(started.elapsed().as_secs_f64()));
            }
            Ok(Json::obj([
                ("run_s", Json::Num(run_s)),
                ("setup_s", Json::Arr(setup_s)),
                ("peak_rss_mb", Json::Num(peak_rss_mib()?)),
                ("hash", hex(hash)),
            ]))
        }
        Op::Count => {
            let input = generate(workload, scale, seed, Steps::Full);
            let result = run_app(&input, MODEL_RANKS, ExchangeBackend::Modeled)?;
            verify(&input, &result, corrupt)?;
            let mut counts = result.counts.clone();
            if let Input::Compiled(compiled) = &input {
                let hand = run_app(&hand_input(compiled), MODEL_RANKS, ExchangeBackend::Modeled)?;
                counts.insert(
                    "fortrand.vs_hand_modeled_x",
                    counts["chaos.executor_modeled_s"] / hand.counts["chaos.executor_modeled_s"],
                );
            }
            Ok(Json::obj([
                ("modeled_s", Json::Num(result.modeled_s)),
                ("hash", hex(result.hash())),
                (
                    "counts",
                    Json::obj(counts.into_iter().map(|(k, v)| (k, Json::Num(v)))),
                ),
            ]))
        }
        Op::Reference => {
            let expected = reference(workload, scale, seed, corrupt)?;
            Ok(Json::obj([(
                "expected_hash",
                expected.map_or(Json::Null, hex),
            )]))
        }
        Op::Replay { spans } => {
            let epoch = Instant::now();
            let input = generate(workload, scale, seed, Steps::Full);
            let result = if spans {
                run_replay::<Recorder>(&input, WALL_RANKS, backend, epoch, 0)
            } else {
                run_replay::<NoTrace>(&input, WALL_RANKS, backend, epoch, 0)
            }?;
            let run_s = epoch.elapsed().as_secs_f64();
            verify(&input, &result, corrupt)?;
            let mut fields = vec![("run_s", Json::Num(run_s)), ("hash", hex(result.hash()))];
            if spans {
                let mut layers = trace_layers(&result);
                let mut tracks = result.tracks;
                if let Input::Compiled(compiled) = &input {
                    // The same input through the hand-written phase order: what a step
                    // costs without the interpreter.
                    let hand = run_replay::<Recorder>(
                        &hand_input(compiled),
                        WALL_RANKS,
                        ExchangeBackend::SharedMem,
                        epoch,
                        1,
                    )?;
                    let hand_steps = max_total_ms(&hand.tracks, "step");
                    layers.push((
                        "fortrand.interp_overhead_x",
                        max_total_ms(&tracks, "fortrand.interp") / hand_steps,
                    ));
                    tracks.extend(hand.tracks);
                }
                layers.push((
                    "trace.spans",
                    tracks.iter().map(Vec::len).sum::<usize>() as f64,
                ));
                std::fs::create_dir_all(&args.out_dir)
                    .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
                let path = args.out_dir.join(format!("trace_{}.json", workload.name()));
                write_chrome_trace(&path, &tracks, WALL_RANKS)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                fields.push((
                    "layers",
                    Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
                ));
            }
            Ok(Json::obj(fields))
        }
    }
}

/// Total (not self) duration of the spans called `name` on each track, maximum over
/// tracks, in milliseconds.
fn max_total_ms(tracks: &[Vec<Span>], name: &str) -> f64 {
    tracks
        .iter()
        .map(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

/// The layer metrics of one traced run.
fn trace_layers(result: &RunResult) -> Vec<(&'static str, f64)> {
    let own = layer_self_ms(&result.tracks);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for layer in &TRACE_LAYERS {
        // A span is named after its metric, less the unit.
        if let Some(&ms) = layer
            .name
            .strip_suffix("_ms")
            .and_then(|span| own.get(span))
        {
            layers.push((layer.name, ms));
        }
    }
    // What `mpsim::run` costs around the SPMD closure: thread spawn and join.
    layers.push((
        "mpsim.spawn_ms",
        (result.machine_wall_s * 1e3 - max_total_ms(&result.tracks, "run")).max(0.0),
    ));

    // Share of step wall spent inside communication calls, over all ranks.
    let (mut comm_ns, mut step_ns) = (0u64, 0u64);
    for spans in &result.tracks {
        for span in spans {
            if span.name == "step" {
                step_ns += span.duration_ns();
            } else if COMM_SPANS.contains(&span.name) {
                let mut ancestor = span.parent;
                while let Some(a) = ancestor {
                    if spans[a as usize].name == "step" {
                        comm_ns += span.duration_ns();
                        break;
                    }
                    ancestor = spans[a as usize].parent;
                }
            }
        }
    }
    if step_ns > 0 {
        layers.push((
            "chaos.exposed_comm_pct",
            100.0 * comm_ns as f64 / step_ns as f64,
        ));
    }
    layers
}
