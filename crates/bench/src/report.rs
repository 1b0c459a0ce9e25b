//! The one report-and-check shape of the `chaos-bench` binary.
//!
//! Every subcommand produces one [`Artifact`]; [`emit`] prints it, writes its
//! `BENCH_<name>.json` document with `--json [PATH]` and, with `--check`, exits 1 if one
//! of its invariants is violated.  [`parse_args`] is the binary's one argument parser.  The
//! workspace has no dependencies, so the JSON document builder here is hand-rolled:
//! objects, arrays, strings, integers and floats with correct escaping, and nothing more.

use std::fmt::Write as _;
use std::process::ExitCode;

/// A JSON value: the minimal document model the benchmark reports need.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every counter the harnesses emit).
    Int(i64),
    /// A finite float; non-finite values are rendered as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an integer value from any unsigned counter.
    pub fn uint(v: u64) -> Json {
        Json::Int(v as i64)
    }

    /// Render the value as a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render the value as pretty-printed JSON with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Write the value; arrays and objects are compact when `indent` is `None` and hold
    /// one element per line otherwise.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return out.push_str(&i.to_string()),
            // Shortest representation that round-trips; `{}` on f64 does this.
            Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => (
                '{',
                '}',
                pairs.iter().map(|(k, v)| (Some(&k[..]), v)).collect(),
            ),
        };
        out.push(open);
        let inner = indent.map(|d| d + 1);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            match inner {
                Some(d) => out.push_str(&format!("\n{}", "  ".repeat(d))),
                None if i > 0 => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(": ");
            }
            value.write(out, inner);
        }
        if let (Some(d), false) = (indent, items.is_empty()) {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        out.push(close);
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A modeled time (µs) as the byte-stable artifacts record it.  Modeled *communication*
/// time accumulates in message-arrival order, which varies with host thread scheduling —
/// its last few bits (nanoseconds and below) jitter between runs.  Snapping to whole
/// microseconds, a grid ~10^6 times the jitter, makes the odds of a value straddling a
/// grid boundary between two runs negligible.  Compute-derived figures (load-balance
/// indices) are exactly deterministic and are recorded at full precision instead.
pub(crate) fn stable_us(x: f64) -> Json {
    Json::Int(x.round() as i64)
}

/// One committed benchmark artifact: what a `chaos-bench` subcommand prints, writes and
/// gates.
pub trait Artifact {
    /// The subcommand's name; the artifact is `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// Schema version: the document's `schema` is `chaos-bench/<NAME>/v<VERSION>`.
    const VERSION: u32;
    /// Print the report: by default the document `--json` writes.
    fn print(&self)
    where
        Self: Sized,
    {
        print!("{}", document(self).render_pretty());
    }
    /// The document's fields after the common header.
    fn to_json(&self) -> Vec<(&'static str, Json)>;
    /// The `--check` gate: one message per violated invariant.
    fn violations(&self) -> Vec<String>;
}

/// The `chaos-bench` subcommands, one per artifact.
pub const SUBCOMMANDS: [&str; 6] = [
    crate::TablesReport::NAME,
    crate::ExchangeReport::NAME,
    crate::AdaptReport::NAME,
    crate::DeltaReport::NAME,
    crate::CompilerReport::NAME,
    crate::LocReport::NAME,
];

/// The artifact's document: the `schema` and `generated_by` header every `BENCH_*.json`
/// starts with, then [`Artifact::to_json`].
pub(crate) fn document<A: Artifact>(artifact: &A) -> Json {
    let (name, version) = (A::NAME, A::VERSION);
    let schema = Json::str(format!("chaos-bench/{name}/v{version}"));
    let command = format!("cargo run --release -p chaos-bench -- {name} --json");
    let mut pairs = vec![("schema", schema), ("generated_by", Json::Str(command))];
    pairs.extend(artifact.to_json());
    Json::obj(pairs)
}

/// A parsed `chaos-bench` command line.
pub struct Command {
    /// One of [`SUBCOMMANDS`].
    pub sub: &'static str,
    /// `--json [PATH]`: where to write the artifact (`BENCH_<sub>.json` by default).
    pub json: Option<String>,
    /// `--check`: exit 1 if an invariant is violated.
    pub check: bool,
    /// `tables --only N`: generate table N alone.
    pub only: Option<String>,
}

/// The table numbers `tables --only` accepts: the ids of
/// [`crate::tables::table_generators`] without their `table` prefix.
fn table_numbers() -> Vec<&'static str> {
    crate::tables::table_generators()
        .iter()
        .map(|(id, _)| id.trim_start_matches("table"))
        .collect()
}

/// The usage text, naming every subcommand, option and table number.
pub fn usage() -> String {
    format!(
        "usage: chaos-bench <{}> [--json [PATH]] [--check]\n       \
         chaos-bench tables --only <{}> [--json [PATH]] [--check]",
        SUBCOMMANDS.join("|"),
        table_numbers().join("|")
    )
}

/// Parse the arguments after the program name.  `Err` names what was wrong; the binary
/// prints it with [`usage`] and exits 2.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    let sub = SUBCOMMANDS
        .into_iter()
        .find(|s| s == sub)
        .ok_or_else(|| format!("unknown subcommand: {sub}"))?;
    let mut cmd = Command {
        sub,
        json: None,
        check: false,
        only: None,
    };
    let mut rest = rest.iter().peekable();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--json" => {
                let path = rest.next_if(|a| !a.starts_with("--")).cloned();
                cmd.json = Some(path.unwrap_or_else(|| format!("BENCH_{sub}.json")));
            }
            "--check" => cmd.check = true,
            "--only" if sub == "tables" => {
                let n = rest.next().map_or("", String::as_str);
                if !table_numbers().contains(&n) {
                    return Err(format!("unknown table: {n:?}"));
                }
                cmd.only = Some(n.to_string());
            }
            other => return Err(format!("unknown argument for {sub}: {other}")),
        }
    }
    Ok(cmd)
}

/// Print `artifact`, write its document if `--json` asked for it, and run its gates if
/// `--check` did.  Fails on a write error or a violated invariant.
pub fn emit<A: Artifact>(artifact: &A, cmd: &Command) -> ExitCode {
    artifact.print();
    if let Some(path) = &cmd.json {
        if let Err(e) = std::fs::write(path, document(artifact).render_pretty()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if cmd.check {
        let violations = artifact.violations();
        for v in &violations {
            eprintln!("{} invariant regression: {v}", A::NAME);
        }
        if !violations.is_empty() {
            return ExitCode::FAILURE;
        }
        println!("checks passed: every {} invariant holds", A::NAME);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn compact_objects_and_arrays() {
        let doc = Json::obj(vec![
            ("name", Json::str("x")),
            ("vals", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(doc.render(), "{\"name\": \"x\", \"vals\": [1, 2]}");
    }

    #[test]
    fn json_flag_parsing() {
        let parse = |list: &[&str]| {
            let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            parse_args(&args)
        };
        let cmd = parse(&["delta"]).unwrap();
        assert_eq!((cmd.sub, cmd.json, cmd.check), ("delta", None, false));
        let cmd = parse(&["delta", "--json", "--check"]).unwrap();
        assert_eq!(cmd.json.as_deref(), Some("BENCH_delta.json"));
        assert!(cmd.check);
        let cmd = parse(&["exchange", "--json", "x.json"]).unwrap();
        assert_eq!(cmd.json.as_deref(), Some("x.json"));
        assert_eq!(
            parse(&["tables", "--only", "4"]).unwrap().only.as_deref(),
            Some("4")
        );
        assert!(parse(&["delta", "--only", "4"]).is_err());
        assert!(parse(&["delta", "--frobnicate"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn pretty_output_is_valid_and_indented() {
        let doc = Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::str("x")])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render_pretty();
        assert!(text.starts_with("{\n  \"a\": 1,"));
        assert!(text.contains("\"b\": [\n    \"x\"\n  ]"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }
}
