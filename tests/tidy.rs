//! Tier-1 gate for the static half of the determinism contract (DESIGN.md
//! §"Static analysis & determinism contract"): clippy with the workspace
//! lint table and `clippy.toml`, as in the `lint` CI job, and the two rules
//! clippy cannot say, checked on the source text.

use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn workspace_clippy_clean() {
    let cmd = "clippy --offline --workspace --all-targets -- -D warnings";
    let out = Command::new(env!("CARGO"))
        .args(cmd.split(' '))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to launch cargo");
    assert!(
        out.status.success(),
        "cargo {cmd} failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Outside each file's `#[cfg(test)] mod tests` and its `//` lines: no
/// `.partial_cmp(` in the `.rs` files under `crates/*/src`, `src`,
/// `examples` and `benchmark/src` (one NaN derails an ordering; use
/// `f64::total_cmp`), and every `.expect(` of a product crate (`crates/*/src`
/// but `crates/bench`) names what it relies on: `.expect("invariant: ...")`.
/// Clippy cannot carry the first rule: a `derive(PartialOrd)` expands to
/// `partial_cmp`, so `disallowed-methods` would flag every derive.
#[test]
fn float_order_and_panic_messages() {
    const TESTS: &str = "#[cfg(test)]\nmod tests";
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).unwrap();
    let mut dirs: Vec<_> = crates.map(|e| e.unwrap().path().join("src")).collect();
    dirs.extend(["src", "examples", "benchmark/src"].map(|d| root.join(d)));
    let mut bad = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.extension() != Some("rs".as_ref()) {
                dirs.extend(path.is_dir().then_some(path));
                continue;
            }
            let name = path.strip_prefix(root).unwrap().display().to_string();
            let src = fs::read_to_string(&path).unwrap();
            let live = |l: &&str| !l.trim_start().starts_with("//");
            let body = src.split(TESTS).next().unwrap_or_default();
            let code = body.lines().filter(live).collect::<Vec<_>>().join("\n");
            if code.contains(".partial_cmp(") {
                bad.push(format!("{name}: .partial_cmp("));
            }
            let unnamed =
                |&(at, _): &(usize, &str)| !code[at + 8..].trim_start().starts_with("\"invariant:");
            let n = code.match_indices(".expect(").filter(unnamed).count();
            if n > 0 && name.starts_with("crates/") && !name.starts_with("crates/bench/") {
                bad.push(format!("{name}: {n} .expect( without \"invariant: ...\""));
            }
        }
    }
    assert!(bad.is_empty(), "{bad:#?}");
}
