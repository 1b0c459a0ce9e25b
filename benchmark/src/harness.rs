//! The parent side: runs operations as child processes, counts the ones that fail and
//! collects what they measured.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::Op;
use crate::json::Json;
use crate::metrics::{zeroed_layers, Estimator, END_TO_END};
use crate::stats::median;
use crate::workloads::{Scale, Workload, WALL_RANKS};

/// An operation that has not ended by now is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// Settings a child must not inherit: backends are set with
/// `MachineConfig::with_backend`, and the rest would change what runs.
const CLEARED_ENV: [&str; 4] = [
    "MPSIM_BACKEND",
    "MPSIM_LEDGER",
    "CHAOS_WORKERS",
    "CHAOS_PAPER_SCALE",
];

/// The refusal of a host on which a wall-clock number would measure the scheduler.
pub fn check_host() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < WALL_RANKS {
        return Err(format!(
            "refused: too few cores (available_parallelism() = {cores}, WALL_RANKS = {WALL_RANKS}); \
             {WALL_RANKS} rank threads on {cores} core(s) would time the scheduler, not the program"
        ));
    }
    Ok(cores)
}

pub struct Session {
    /// This program, to run as the child.
    pub exe: PathBuf,
    pub seed: u64,
    pub scale: Scale,
    pub corrupt: bool,
    pub out_dir: PathBuf,
}

impl Session {
    /// Run one operation in a fresh process and return the JSON line it printed.
    pub fn run_op(&self, workload: Workload, op: Op) -> Result<Json, String> {
        let mut command = Command::new(&self.exe);
        command
            .args(["--child", op.name(), "--workload", workload.name()])
            .args([
                "--seed",
                &self.seed.to_string(),
                "--scale",
                self.scale.name(),
            ])
            .arg("--out")
            .arg(&self.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if self.corrupt {
            command.arg("--corrupt-reference");
        }
        for name in CLEARED_ENV {
            command.env_remove(name);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        // Sleeping between polls keeps the parent off the two cores the child's rank
        // threads need; the child times itself, so the poll interval is in no number.
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("wait: {e}"));
                }
            }
        };
        // One line of a few kilobytes: it fits the pipe, so reading after exit is safe.
        let mut stdout = String::new();
        child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut stdout)
            .map_err(|e| format!("reading the child's output: {e}"))?;
        let line = stdout.lines().last().unwrap_or("");
        let parsed = Json::parse(line);
        if !status.success() {
            let reason = parsed
                .ok()
                .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_else(|| "panicked or was killed".to_string());
            return Err(format!("{status}: {reason}"));
        }
        parsed.map_err(|e| format!("unreadable output ({e}): {line}"))
    }
}

fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no number '{key}' in the child's output"))
}

fn text(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("no string '{key}' in the child's output"))
}

fn numbers(json: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    json.get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("no object '{key}' in the child's output"))?
        .iter()
        .map(|(name, value)| {
            value
                .as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("'{key}.{name}' is not a number"))
        })
        .collect()
}

/// Everything collected for one workload.
pub struct Collected {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The hash every result must have at any rank count, where a reference gives one.
    exact_hash: Option<String>,
    /// The hash every `WALL_RANKS` result must have: `exact_hash`, or the first wall
    /// sample's (runs at one rank count are bit-identical to each other).
    wall_hash: Option<String>,
    pub run_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// The count run's one value.
    pub modeled_s: Vec<f64>,
    pub counts: BTreeMap<String, f64>,
    pub replay_off_s: Vec<f64>,
    pub replay_on_s: Vec<f64>,
    /// Per traced-replay layer, one value per spans-on replay.
    pub layers: BTreeMap<String, Vec<f64>>,
}

impl Collected {
    pub fn new(workload: Workload) -> Self {
        Collected {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            exact_hash: None,
            wall_hash: None,
            run_s: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: Vec::new(),
            modeled_s: Vec::new(),
            counts: BTreeMap::new(),
            replay_off_s: Vec::new(),
            replay_on_s: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Run `op` and hand its output to `accept`; the operation fails if the child
    /// fails or `accept` refuses the result.
    fn operation(
        &mut self,
        session: &Session,
        op: Op,
        accept: impl FnOnce(&mut Self, &Json) -> Result<(), String>,
    ) {
        self.attempted += 1;
        let outcome = session
            .run_op(self.workload, op)
            .and_then(|json| accept(self, &json));
        if let Err(reason) = outcome {
            self.failed += 1;
            let failure = format!("{} {}: {reason}", self.workload.name(), op.name());
            eprintln!("FAILED {failure}");
            self.failures.push(failure);
        }
    }

    fn check_hash(expected: &Option<String>, json: &Json) -> Result<(), String> {
        let hash = text(json, "hash")?;
        match expected {
            Some(expected) if *expected != hash => {
                Err(format!("result hash {hash}, expected {expected}"))
            }
            _ => Ok(()),
        }
    }

    /// The reference run (CHARMM prefix against the sequential code, DSMC sequential
    /// fingerprint).  The other two workloads check every run against a sequential
    /// evaluation inside the run's own operation.
    pub fn reference(&mut self, session: &Session) {
        if matches!(
            self.workload,
            Workload::CompiledCharmm | Workload::InspectorDrift
        ) {
            return;
        }
        self.operation(session, Op::Reference, |this, json| {
            this.exact_hash = json
                .get("expected_hash")
                .and_then(Json::as_str)
                .map(str::to_string);
            this.wall_hash = this.exact_hash.clone();
            Ok(())
        });
    }

    pub fn count(&mut self, session: &Session) {
        self.operation(session, Op::Count, |this, json| {
            Self::check_hash(&this.exact_hash, json)?;
            this.modeled_s = vec![number(json, "modeled_s")?];
            this.counts = numbers(json, "counts")?.into_iter().collect();
            Ok(())
        });
    }

    /// One wall sample.  An untimed sample (the warm-up) is checked like any other and
    /// sets the hash the later ones must repeat, but its times are dropped.
    pub fn wall(&mut self, session: &Session, timed: bool) {
        self.operation(session, Op::Wall, |this, json| {
            Self::check_hash(&this.wall_hash, json)?;
            this.wall_hash = Some(text(json, "hash")?);
            let run_s = number(json, "run_s")?;
            let setup: Vec<f64> = json
                .get("setup_s")
                .and_then(Json::as_arr)
                .ok_or("no 'setup_s' in the child's output")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let peak = number(json, "peak_rss_mb")?;
            if timed {
                this.run_s.push(run_s);
                this.setup_s.extend(setup);
                this.peak_rss_mb.push(peak);
            }
            Ok(())
        });
    }

    /// One replay.  At `WALL_RANKS` it must end in the application's own result, bit
    /// for bit.
    pub fn replay(&mut self, session: &Session, spans: bool) {
        self.operation(session, Op::Replay { spans }, |this, json| {
            Self::check_hash(&this.wall_hash, json)?;
            let run_s = number(json, "run_s")?;
            if spans {
                this.replay_on_s.push(run_s);
                for (name, value) in numbers(json, "layers")? {
                    this.layers.entry(name).or_default().push(value);
                }
            } else {
                this.replay_off_s.push(run_s);
            }
            Ok(())
        });
    }

    /// The samples of the four end-to-end metrics, in `END_TO_END` order.
    pub fn samples(&self) -> [&[f64]; 4] {
        [
            &self.run_s,
            &self.setup_s,
            &self.modeled_s,
            &self.peak_rss_mb,
        ]
    }

    /// The four end-to-end metrics; `None` until each has a sample.
    pub fn end_to_end(&self) -> Option<[f64; 4]> {
        let samples = self.samples();
        if samples.iter().any(|s| s.is_empty()) {
            return None;
        }
        Some(std::array::from_fn(|i| {
            END_TO_END[i].estimator.of(samples[i])
        }))
    }

    /// `replay.fidelity` says how far the replay is from the driver it mirrors; outside
    /// this range the replay's layer numbers do not describe the application.
    pub const FAITHFUL: std::ops::RangeInclusive<f64> = 0.8..=1.25;

    /// Every per-layer metric: the count run's, the traced replay's medians and what is
    /// derived from the replay's and the application's wall times.  Zero where a layer
    /// does not run on the workload.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut all = zeroed_layers();
        for (name, slot) in all.iter_mut() {
            if let Some(value) = self.counts.get(*name) {
                *slot = *value;
            } else if let Some(values) = self.layers.get(*name) {
                *slot = median(values);
            }
        }
        // Wall times are compared by their fastest samples, as `run_s` is reported.
        let fastest =
            |samples: &[f64]| (!samples.is_empty()).then(|| Estimator::Fastest.of(samples));
        if let Some(off) = fastest(&self.replay_off_s) {
            if let Some(run) = fastest(&self.run_s) {
                all.insert("replay.fidelity", off / run);
            }
            if let Some(on) = fastest(&self.replay_on_s) {
                all.insert("trace.overhead_pct", 100.0 * (on - off) / off);
            }
        }
        all
    }
}
