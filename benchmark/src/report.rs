//! Results as a document (`out/results.json`), as text, and two documents side by side
//! (`--aa`, `--compare`).

use std::fmt::Write as _;

use crate::harness::Collected;
use crate::json::Json;
use crate::metrics::{per_layer, COUNT_LAYERS, END_TO_END};
use crate::stats::Summary;
use crate::workloads::{MODEL_RANKS, WALL_RANKS};

pub const SCHEMA: &str = "chaos-benchmark/results/v1";

/// The conditions every number was measured under.
pub struct Conditions {
    pub seed: u64,
    pub scale: &'static str,
    pub host_cores: usize,
    pub rounds: usize,
    pub rustc: String,
    pub commit: String,
}

pub fn results_json(conditions: &Conditions, collected: &[Collected]) -> Json {
    // Every row carries its conditions, so a row copied out of the file still says
    // what it is.
    let stamp = |mut fields: Vec<(&'static str, Json)>| {
        fields.extend([
            ("host_cores", Json::Num(conditions.host_cores as f64)),
            ("wall_ranks", Json::Num(WALL_RANKS as f64)),
            ("model_ranks", Json::Num(MODEL_RANKS as f64)),
            ("seed", Json::Num(conditions.seed as f64)),
        ]);
        Json::obj(fields)
    };
    let workloads = collected.iter().map(|c| {
        let end_to_end = END_TO_END
            .iter()
            .zip(c.samples())
            .filter(|(_, s)| !s.is_empty())
            .map(|(m, samples)| {
                let mut fields = vec![
                    ("unit", Json::str(m.unit)),
                    ("value", Json::Num(m.estimator.of(samples))),
                ];
                fields.extend(Summary::of(samples).fields());
                fields.push(("bound", Json::Num(m.bound)));
                (m.name, stamp(fields))
            });
        let layers = c.per_layer();
        let per_layer = per_layer().map(|l| {
            (
                l.name,
                stamp(vec![
                    ("unit", Json::str(l.unit)),
                    ("value", Json::Num(layers[l.name])),
                ]),
            )
        });
        Json::obj([
            ("name", Json::str(c.workload.name())),
            ("attempted", Json::Num(c.attempted as f64)),
            ("failed", Json::Num(c.failed as f64)),
            (
                "failures",
                Json::Arr(c.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
        ])
    });
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::Num(conditions.seed as f64)),
        ("scale", Json::str(conditions.scale)),
        ("host_cores", Json::Num(conditions.host_cores as f64)),
        ("wall_ranks", Json::Num(WALL_RANKS as f64)),
        ("model_ranks", Json::Num(MODEL_RANKS as f64)),
        ("timed_rounds", Json::Num(conditions.rounds as f64)),
        ("rustc", Json::str(&conditions.rustc)),
        ("commit", Json::str(&conditions.commit)),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no 'workloads'".to_string())
}

fn name_of(workload: &Json) -> &str {
    workload.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn value_of(row: &Json) -> Option<f64> {
    row.get("value").and_then(Json::as_f64)
}

fn count_of(workload: &Json, key: &str) -> f64 {
    workload.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Every metric by name with its unit, per workload.
pub fn render_results(doc: &Json) -> Result<String, String> {
    let mut out = String::new();
    let field = |key: &str| doc.get(key).map_or("?".to_string(), Json::render);
    let _ = writeln!(
        out,
        "seed {}  scale {}  host_cores {}  WALL_RANKS {}  MODEL_RANKS {}  timed rounds {}",
        field("seed"),
        field("scale"),
        field("host_cores"),
        field("wall_ranks"),
        field("model_ranks"),
        field("timed_rounds")
    );
    for w in workloads(doc)? {
        let _ = writeln!(
            out,
            "\n== {}: {} operations attempted, {} failed",
            name_of(w),
            count_of(w, "attempted"),
            count_of(w, "failed")
        );
        for failure in w.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            let _ = writeln!(out, "   FAILED {}", failure.as_str().unwrap_or("?"));
        }
        let _ = writeln!(
            out,
            "   end to end: value [min q1 median q3 max] n (too few samples to claim a tail percentile)"
        );
        for (name, row) in w.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
            let unit = row.get("unit").and_then(Json::as_str).unwrap_or("?");
            let (Some(value), Some(s)) = (value_of(row), Summary::from_json(row)) else {
                continue;
            };
            let _ = writeln!(
                out,
                "   {name:<14} {value:>12.6} {unit:<4} [{:.6} {:.6} {:.6} {:.6} {:.6}] n={}",
                s.min, s.q1, s.median, s.q3, s.max, s.n
            );
        }
        let layers = w.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
        let fidelity = layers
            .iter()
            .find(|(name, _)| name == "replay.fidelity")
            .and_then(|(_, row)| value_of(row))
            .unwrap_or(0.0);
        let unfaithful = fidelity != 0.0 && !Collected::FAITHFUL.contains(&fidelity);
        let _ = writeln!(out, "   per layer");
        for (name, row) in layers {
            let unit = row.get("unit").and_then(Json::as_str).unwrap_or("?");
            let value = value_of(row).unwrap_or(f64::NAN);
            let from_replay = !COUNT_LAYERS.iter().any(|l| l.name == name);
            let note = if unfaithful && from_replay {
                "  unfaithful"
            } else {
                ""
            };
            let _ = writeln!(out, "   {name:<30} {value:>16.6} {unit}{note}");
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two runs of the same code: any difference beyond a bound is the benchmark's.
    SameCode,
    /// A baseline and a change.
    Compare,
}

/// `A` and `B` side by side: one row per workload and end-to-end metric.  Returns the
/// table and whether `Mode::SameCode` found the two sets disagreeing.
pub fn compare(a: &Json, b: &Json, mode: Mode) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut disagree = false;
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>11} {:>21} {:>11} {:>21} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "B/A - 1", "bound"
    );
    for wa in workloads(a)? {
        let name = name_of(wa);
        let Some(wb) = workloads(b)?.iter().find(|w| name_of(w) == name) else {
            let _ = writeln!(out, "{name:<18} missing from B");
            disagree = true;
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Json| {
                let row = w.get("end_to_end")?.get(m.name)?;
                Some((value_of(row)?, Summary::from_json(row)?))
            };
            let (Some((a_value, sa)), Some((b_value, sb))) = (side(wa), side(wb)) else {
                let _ = writeln!(out, "{name:<18} {:<12} missing on one side", m.name);
                disagree = true;
                continue;
            };
            let change = b_value / a_value - 1.0;
            let verdict = match mode {
                Mode::SameCode if change.abs() > m.bound => {
                    disagree = true;
                    "BEYOND BOUND"
                }
                Mode::SameCode => "agree",
                // A spread wider than the bound cannot resolve a change of the bound's
                // size: say so, never "unchanged".
                Mode::Compare if sa.spread().max(sb.spread()) > m.bound => "unresolved",
                Mode::Compare if change > m.bound => "worse",
                Mode::Compare if change < -m.bound => "better",
                Mode::Compare => "within bound",
            };
            let _ = writeln!(
                out,
                "{name:<18} {:<12} {:>11.5} [{:>9.5}, {:>9.5}] {:>11.5} [{:>9.5}, {:>9.5}] {:>+8.2}% {:>5.0}%  {verdict}",
                m.name,
                a_value,
                sa.q1,
                sa.q3,
                b_value,
                sb.q1,
                sb.q3,
                100.0 * change,
                100.0 * m.bound
            );
        }
        if mode == Mode::SameCode {
            // Counts repeat exactly, except on charmm_steady: at MODEL_RANKS scatter_add
            // combines in arrival order, and there the difference feeds back through
            // the list regenerations.
            let tolerance = if name == "charmm_steady" { 0.01 } else { 0.0 };
            for l in &COUNT_LAYERS {
                let side = |w: &Json| value_of(w.get("per_layer")?.get(l.name)?);
                let (Some(va), Some(vb)) = (side(wa), side(wb)) else {
                    continue;
                };
                if (vb - va).abs() > tolerance * va.abs() {
                    disagree = true;
                    let _ = writeln!(
                        out,
                        "{name:<18} {:<30} A {va} B {vb}  COUNT DIFFERS",
                        l.name
                    );
                }
            }
        }
        let share = |w: &Json| 100.0 * count_of(w, "failed") / count_of(w, "attempted").max(1.0);
        let _ = writeln!(
            out,
            "{name:<18} failed operations: A {:.1}% of {}, B {:.1}% of {}",
            share(wa),
            count_of(wa, "attempted"),
            share(wb),
            count_of(wb, "attempted")
        );
    }
    let _ = writeln!(
        out,
        "every ratio is B over A (base = A); 'B/A - 1' > 0 means B is worse"
    );
    Ok((out, disagree))
}
