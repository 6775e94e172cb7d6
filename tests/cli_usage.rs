//! Usage contract of the `slc` command line: a bad invocation exits 2
//! before doing any work, a bad enum value names the valid alternatives,
//! and unreadable input (a file, or stdin that is not UTF-8) exits 1 with a
//! message instead of a panic.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn slc(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // a process that exits during option parsing may close stdin first
    let _ = child.stdin.take().unwrap().write_all(stdin);
    child.wait_with_output().unwrap()
}

fn assert_exit(args: &[&str], stdin: &[u8], code: i32) -> String {
    let out = slc(args, stdin);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "slc {args:?}: stderr:\n{stderr}"
    );
    stderr
}

#[test]
fn unknown_flag_exits_two_in_every_mode() {
    for mode in [
        &[][..],
        &["explain"],
        &["verify"],
        &["lint"],
        &["deps"],
        &["batch"],
        &["stats"],
        &["serve"],
        &["trace-check"],
    ] {
        let mut args = mode.to_vec();
        args.push("--no-such-flag");
        assert_exit(&args, b"", 2);
    }
}

#[test]
fn value_flag_without_value_exits_two() {
    for args in [
        &["--passes"][..],
        &["--simulate"],
        &["explain", "--passes"],
        &["verify", "--scheduler"],
        &["batch", "--out"],
        &["batch", "--threads"],
        &["batch", "--timing"],
        &["stats", "--check"],
        &["stats", "--hist-out"],
        &["serve", "--addr"],
        &["serve", "--unix"],
        &["serve", "--trace"],
    ] {
        assert_exit(args, b"", 2);
    }
}

#[test]
fn zero_or_malformed_count_exits_two() {
    for args in [
        &["batch", "--threads", "0"][..],
        &["batch", "--shards", "0"],
        &["batch", "--threads", "x"],
        &["stats", "--threads", "0"],
        &["serve", "--queue", "0"],
        &["serve", "--timeout-ms", "0"],
        &["serve", "--cache-capacity", "-1"],
    ] {
        assert_exit(args, b"", 2);
    }
}

#[test]
fn bad_enum_value_exits_two_and_names_the_valid_list() {
    for (args, valid) in [
        (
            &["--simulate", "vax"][..],
            "itanium2, pentium, power4, arm7",
        ),
        (&["--compiler", "tcc"], "weak, opt, ms"),
        (&["explain", "--expansion", "x"], "mve, scalar, off"),
        (&["verify", "--scheduler", "x"], "heuristic, exact"),
        (&["batch", "--scheduler", "x"], "heuristic, exact"),
    ] {
        let stderr = assert_exit(args, b"", 2);
        assert!(stderr.contains(valid), "slc {args:?}: stderr:\n{stderr}");
    }
}

#[test]
fn non_utf8_stdin_exits_one_with_a_message() {
    for mode in [&[][..], &["verify"], &["explain"], &["lint"], &["deps"]] {
        let stderr = assert_exit(mode, b"\xff", 1);
        assert!(
            stderr.contains("cannot read stdin"),
            "slc {mode:?}: stderr:\n{stderr}"
        );
    }
}
