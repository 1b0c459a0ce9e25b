//! The `chaos-bench` dispatcher: a bad command line exits 2 with a usage line naming the
//! valid choices, before any harness runs.

use std::process::Command;

use chaos_bench::report::{parse_args, SUBCOMMANDS};
use chaos_bench::tables::table_generators;

#[test]
fn bad_command_lines_exit_2_naming_the_valid_choices() {
    assert_eq!(
        SUBCOMMANDS,
        ["tables", "exchange", "adapt", "delta", "compiler", "loc"]
    );
    let ids: Vec<String> = table_generators()
        .iter()
        .map(|(id, _)| {
            id.strip_prefix("table")
                .expect("ids are tableN")
                .to_string()
        })
        .collect();
    let subcommands = format!(
        "chaos-bench <{}> [--json [PATH]] [--check]",
        SUBCOMMANDS.join("|")
    );
    let only = format!("chaos-bench tables --only <{}>", ids.join("|"));
    for (args, error) in [
        (&["frobnicate"][..], "unknown subcommand: frobnicate"),
        (
            &["delta", "--frobnicate"],
            "unknown argument for delta: --frobnicate",
        ),
        (
            &["delta", "--only", "4"],
            "unknown argument for delta: --only",
        ),
        (&["tables", "--only", "8"], "unknown table: \"8\""),
        (&[], "missing subcommand"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_chaos-bench"))
            .args(args)
            .output()
            .expect("chaos-bench runs");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        for expected in [error, &subcommands, &only] {
            assert!(
                stderr.contains(expected),
                "{args:?}: {expected:?} not in {stderr}"
            );
        }
    }
    // Every registered table, and nothing else, is a valid `--only` choice.
    for id in &ids {
        let args = ["tables", "--only", id].map(String::from);
        assert_eq!(parse_args(&args).map(|c| c.only), Ok(Some(id.clone())));
    }
}
