//! Exit-code contracts of `slc deps` (0 = every certificate re-checks
//! clean, 1 = re-check or read failure, 2 = bad usage) and `slc lint`
//! (0 = no error-severity lints, 1 = error lints or read failure, 2 = bad
//! usage), plus the JSONL output shapes the CI dep-gate consumes.

use std::io::Write;
use std::process::Command;

fn slc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slc"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("slc_deps_cli_{name}_{}.c", std::process::id()));
    std::fs::File::create(&path)
        .unwrap()
        .write_all(src.as_bytes())
        .unwrap();
    path
}

const STRIDE: &str = "float a[4096]; float b[512]; int i;\n\
                      for (i = 0; i < 500; i++) { a[4 * i] = a[2 * i + 1] + 1.0; \
                      b[i] = a[2 * i + 1] * 2.0; }";

#[test]
fn deps_refutes_strided_pairs_with_certificates() {
    let path = write_temp("stride", STRIDE);
    let out = slc().arg("deps").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("independent"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("certificate re-checked OK"),
        "stdout:\n{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_json_emits_verdicts_and_rechecks() {
    let path = write_temp("stride_json", STRIDE);
    let out = slc().args(["deps", "--json"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    let pair_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"verdict\""))
        .collect();
    assert!(!pair_lines.is_empty(), "stdout:\n{stdout}");
    for l in &pair_lines {
        assert!(l.contains("\"recheck\":\"ok\""), "line: {l}");
        assert!(l.contains("\"certificate\""), "line: {l}");
    }
    assert!(
        stdout.contains("\"pairs_decided\""),
        "stats line missing:\n{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_reports_symbolic_range_as_skipped() {
    let path = write_temp(
        "symbolic",
        "float a[64]; int i; int n;\nfor (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }",
    );
    let out = slc().arg("deps").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("skipped"), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn deps_all_workloads_exit_zero() {
    let out = slc().args(["deps", "--all"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(!stdout.contains("CERTIFICATE FAILED"), "stdout:\n{stdout}");
}

/// `slc deps --all --json` is pinned: its JSONL equals the checked-in
/// `BENCH_deps.jsonl` byte for byte (regenerate with
/// `slc deps --all --json > BENCH_deps.jsonl`).
#[test]
fn deps_all_json_matches_checked_in_golden() {
    let out = slc().args(["deps", "--all", "--json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stdout == include_bytes!("../BENCH_deps.jsonl"),
        "slc deps --all --json differs from BENCH_deps.jsonl"
    );
}

#[test]
fn deps_bad_flag_exits_two() {
    let out = slc().args(["deps", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn deps_missing_file_exits_one() {
    let out = slc()
        .args(["deps", "/nonexistent/slc_no_such_file.c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_clean_program_exits_zero() {
    let path = write_temp(
        "lint_clean",
        "float A[32]; float B[32]; float s; float t; int i;\n\
         for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
    );
    let out = slc().arg("lint").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_error_exits_one() {
    // `s` is initialised on one path only: the error-severity L001 fires.
    let path = write_temp(
        "lint_err",
        "float A[10]; float s; int c;\n\
         if (c > 0) s = 1.0;\n\
         A[0] = s;",
    );
    let out = slc().arg("lint").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("SLMS-L001"), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_warning_only_exits_zero_and_json_names_code() {
    // Strided conflict the exact engine certifies as independent would be
    // suppressed; a symbolic range keeps L002 a warning.
    let path = write_temp(
        "lint_warn",
        "float X[64]; int i; int j; int k;\n\
         for (k = 0; k < 64; k++) { X[k * i] = X[k * j] * 2.0; }",
    );
    let out = slc().args(["lint", "--json"]).arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.contains("\"severity\":\"warning\""),
        "stdout:\n{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_all_workloads_exit_zero() {
    let out = slc().args(["lint", "--all"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
}

#[test]
fn lint_bad_flag_exits_two() {
    let out = slc().args(["lint", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
