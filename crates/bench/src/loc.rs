//! Non-test line counts per crate (`BENCH_loc.json`).
//!
//! A line counts when it sits above its file's first `#[cfg(test)]` — the measure the
//! non-test line figures in `BENCHMARKS.md` use.  Every `.rs` file under a workspace
//! crate's `src/` counts, `src/bin/` included; integration tests, examples and the
//! `benchmark/` package do not.  Crates and files are listed in sorted path order and no
//! wall-clock is recorded, so the artifact is byte-deterministic: CI regenerates it and
//! fails when it differs from the committed file.  `--check` holds the harness crate
//! itself to [`BENCH_BUDGET`].

use std::fs;
use std::path::Path;

use crate::report::{Artifact, Json};

/// The most non-test lines `crates/bench` may have: the harness stays small next to the
/// runtime and compiler it measures.
pub const BENCH_BUDGET: usize = 3_000;

/// One crate's count.
struct CrateLoc {
    /// The crate's directory relative to the workspace root (`.` for the root package).
    dir: String,
    /// `(path under src/, non-test lines)` per source file, in sorted path order.
    files: Vec<(String, usize)>,
}

impl CrateLoc {
    fn lines(&self) -> usize {
        self.files.iter().map(|(_, n)| n).sum()
    }
}

/// The `loc` artifact: every workspace crate's non-test line count.
pub struct LocReport {
    /// The root package, then every crate under `crates/`, in sorted directory order.
    crates: Vec<CrateLoc>,
}

impl LocReport {
    /// Count the workspace this crate is built from: the root package and every
    /// directory under `crates/` holding a `Cargo.toml`.
    pub fn generate() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let nested = files_under(&root.join("crates"))
            .into_iter()
            .filter_map(|f| Some(format!("crates/{}", f.strip_suffix("/Cargo.toml")?)));
        let crates = std::iter::once(".".to_string())
            .chain(nested)
            .map(|dir| {
                let src = root.join(&dir).join("src");
                let files = files_under(&src)
                    .into_iter()
                    .filter(|f| f.ends_with(".rs"))
                    .map(|f| {
                        let text = fs::read_to_string(src.join(&f))
                            .unwrap_or_else(|e| panic!("reading {dir}/src/{f}: {e}"));
                        (format!("src/{f}"), non_test_lines(&text))
                    })
                    .collect();
                CrateLoc { dir, files }
            })
            .collect();
        LocReport { crates }
    }

    fn total(&self) -> usize {
        self.crates.iter().map(CrateLoc::lines).sum()
    }
}

/// Lines above the first line that starts, after indentation, with `#[cfg(test)]` (all of
/// them when there is none).
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

/// Every file under `dir`, recursively, as sorted `/`-separated paths relative to `dir`;
/// empty when `dir` does not exist.
fn files_under(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()));
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() {
            let nested = files_under(&entry.path());
            out.extend(nested.into_iter().map(|f| format!("{name}/{f}")));
        } else {
            out.push(name);
        }
    }
    out.sort();
    out
}

impl Artifact for LocReport {
    const NAME: &'static str = "loc";
    const VERSION: u32 = 1;

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let count = |n: usize| Json::uint(n as u64);
        let crates = self.crates.iter().map(|c| {
            let files = c.files.iter().map(|(f, n)| (f.clone(), count(*n)));
            Json::obj(vec![
                ("crate", Json::str(&c.dir)),
                ("lines", count(c.lines())),
                ("files", Json::Obj(files.collect())),
            ])
        });
        vec![
            ("total", count(self.total())),
            ("crates", Json::Arr(crates.collect())),
        ]
    }

    fn violations(&self) -> Vec<String> {
        let bench = self.crates.iter().filter(|c| c.dir == "crates/bench");
        let over = bench.map(CrateLoc::lines).filter(|&n| n > BENCH_BUDGET);
        let msg =
            |n| format!("crates/bench has {n} non-test lines, over the {BENCH_BUDGET} budget");
        over.map(msg).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_stop_at_the_first_test_module() {
        assert_eq!(non_test_lines("a\nb\n#[cfg(test)]\nmod tests {}\n"), 2);
        assert_eq!(non_test_lines("a\n    #[cfg(test)]\n"), 1);
        assert_eq!(non_test_lines("a\n// #[cfg(test)] in a comment\nb\n"), 3);
        assert_eq!(non_test_lines(""), 0);
    }

    #[test]
    fn the_workspace_scan_is_sorted_and_counts_this_file() {
        let report = LocReport::generate();
        let dirs: Vec<&str> = report.crates.iter().map(|c| c.dir.as_str()).collect();
        assert_eq!(dirs[0], ".");
        assert!(dirs[1..].windows(2).all(|w| w[0] < w[1]), "{dirs:?}");
        let bench = &report.crates[dirs.iter().position(|&d| d == "crates/bench").unwrap()];
        assert!(bench.files.windows(2).all(|w| w[0].0 < w[1].0));
        let this = bench.files.iter().find(|(f, _)| f == "src/loc.rs").unwrap();
        assert_eq!(this.1, non_test_lines(include_str!("loc.rs")));
        let doc = |r: &LocReport| crate::report::document(r).render_pretty();
        assert_eq!(doc(&report), doc(&LocReport::generate()));
    }
}
