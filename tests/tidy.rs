//! Tier-1 gate: the workspace must lint clean under `pnet-tidy check` (the
//! lexical half of the contract) and under clippy with the workspace lint
//! table (the typed half).
//!
//! The same commands run as the `tidy` and `lint` CI jobs; these tests make
//! the gate local too, so a plain `cargo test` catches determinism/correctness
//! lint regressions before a push. See DESIGN.md §"Static analysis &
//! determinism contract" for the catalogue and the waiver machinery.

use std::process::Command;

fn cargo_succeeds(args: &[&str]) {
    let out = Command::new(env!("CARGO"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to launch cargo");
    assert!(
        out.status.success(),
        "cargo {} failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn workspace_lints_clean() {
    cargo_succeeds(&[
        "run",
        "-q",
        "-p",
        "pnet-lint",
        "--bin",
        "pnet-tidy",
        "--",
        "check",
    ]);
}

#[test]
fn workspace_clippy_clean() {
    cargo_succeeds(&[
        "clippy",
        "--offline",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ]);
}
