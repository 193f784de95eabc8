//! End-to-end checks of the `sptk` binary: every rung of the execution
//! ladder reports the same fit, and a closed stdout is a clean exit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SPTK: &str = env!("CARGO_BIN_EXE_sptk");

/// A scratch directory unique to `tag` under the test target dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sptk_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small nell2 stand-in into `dir`.
fn nell2(dir: &Path) -> String {
    let path = dir.join("nell2.spt").to_str().unwrap().to_string();
    let out = Command::new(SPTK)
        .args(["gen", "nell2", &path, "--nnz", "20000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// Runs `sptk cpd` on `path` with `extra` flags and returns the printed
/// `final_fit_exact` value.
fn final_fit(path: &str, extra: &[&str]) -> String {
    let out = Command::new(SPTK)
        .args(["cpd", path, "--rank", "8", "--iters", "4"])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sptk cpd {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("final_fit_exact "))
        .unwrap_or_else(|| panic!("no final_fit_exact line for {extra:?}:\n{stdout}"))
        .to_string()
}

#[test]
fn every_rung_reports_the_bit_identical_fit() {
    let dir = scratch("rungs");
    let path = nell2(&dir);
    let plain = final_fit(&path, &[]);
    for extra in [
        &["--devices", "1"][..],
        &["--devices", "4", "--mem-capacity", "0.7x"],
        &["--mem-capacity", "0.7x", "--expect-tiled"],
    ] {
        assert_eq!(final_fit(&path, extra), plain, "sptk cpd {extra:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `sptk` with stdout on a pipe whose read end is already closed, so
/// every write to stdout fails with `EPIPE`.
fn with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(SPTK)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let dir = scratch("epipe");
    let path = nell2(&dir);
    let tns = dir.join("nell2.tns").to_str().unwrap().to_string();
    let gen_out = dir.join("gen.spt").to_str().unwrap().to_string();
    let commands: [&[&str]; 5] = [
        &["info", &path],
        &["convert", &path, &tns],
        &["gen", "darpa", &gen_out, "--nnz", "2000"],
        &["mttkrp", &path, "--rank", "8"],
        &["cpd", &path, "--iters", "2"],
    ];
    for args in commands {
        let out = with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "sptk {args:?} panicked:\n{stderr}"
        );
        assert_eq!(out.status.code(), Some(0), "sptk {args:?}:\n{stderr}");
    }
    // The command still ran to completion: its output file is whole.
    assert!(std::fs::metadata(&gen_out).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
