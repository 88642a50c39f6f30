//! The `tables` command line: usage errors exit 2 with the usage line
//! and print no report, a failed export exits 1 naming its path, and a
//! valid run exits 0.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_2_and_list_the_sections() {
    for (args, problem) in [
        (&["--small", "tabel6"][..], "unknown section tabel6"),
        (&["--small", "--bogus"][..], "unknown flag --bogus"),
        (
            &["--small", "--prescreen-json"][..],
            "--prescreen-json needs a FILE",
        ),
        (
            &["--tier-json", "--small", "tier"][..],
            "--tier-json needs a FILE",
        ),
    ] {
        let out = tables(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(problem), "{args:?}: {err}");
        assert!(err.contains("usage: tables"), "{args:?}: {err}");
        assert!(err.contains("table6") && err.contains("scorecard"), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn a_failed_export_exits_1_naming_the_path() {
    let path = "/nonexistent-dir/tables-cli-test/agreement.json";
    let out = tables(&["--small", "--agreement-json", path]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let named: Vec<&str> = err.lines().filter(|l| l.contains(path)).collect();
    assert_eq!(named.len(), 1, "{err}");
    assert!(named[0].starts_with("tables: cannot write"), "{err}");
}

#[test]
fn a_valid_run_exits_0() {
    let out = tables(&["--small", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1 - Thread-level speculation buffer limits"));
}
