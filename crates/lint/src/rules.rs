//! The rule catalogue: D2 (determinism), C1 (panics), F1 (float ordering)
//! and U1 (unit conversions).
//!
//! Every rule works on the token stream of [`crate::lexer`], so nothing in a
//! comment or string literal can trip a rule, and every finding carries an
//! exact line:col span. Rules are scoped by path (see the `*_scope`
//! predicates) and skip `#[cfg(test)]` / `#[test]` regions where noted. The
//! typed half of the contract (hash containers, float `==`, narrowing casts,
//! catch-all arms, unstable sorts, undocumented `unsafe`) is clippy's: see
//! `[workspace.lints.clippy]` and `clippy.toml`.

use crate::lexer::{Token, TokenKind};

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: D2, C1, F1, U1 (this module) — or W1 (malformed or dead
    /// waiver), produced by the driver.
    pub rule: &'static str,
    /// Path relative to the scanned root, forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// The trimmed source line, for humans.
    pub snippet: String,
    /// Set by the driver when a waiver suppresses this.
    pub suppressed: Option<Suppression>,
}

/// How a finding was suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    Waiver,
}

/// Human-readable one-liner for each rule id (used by `stats` and docs).
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "D2" => "wall-clock time, ad-hoc thread or atomic outside bench/routing::exec",
        "C1" => "unwrap()/expect()/panic!/unreachable! in library crate outside #[cfg(test)]",
        "U1" => "inline unit-conversion constant on a unit-bearing value",
        "F1" => "partial_cmp-based float ordering (use total_cmp)",
        "W1" => "malformed or dead pnet-tidy waiver comment",
        _ => "unknown rule",
    }
}

/// All enforceable rule ids (the ones a waiver may name).
pub const RULE_IDS: &[&str] = &["D2", "C1", "U1", "F1"];

/// Library source of the seven product crates.
fn product_scope(p: &str) -> bool {
    [
        "crates/topology/src/",
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/htsim/src/",
        "crates/workloads/src/",
        "crates/core/src/",
        "crates/planner/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

fn d2_scope(p: &str) -> bool {
    !p.starts_with("crates/bench/") && p != "crates/routing/src/exec.rs"
}

/// Files U1 audits. The `SimTime` home module is exempt: it *is* the checked
/// helper layer the rule points everyone else at.
fn u1_scope(p: &str) -> bool {
    (p.starts_with("crates/htsim/src/") || p.starts_with("crates/core/src/"))
        && p != "crates/htsim/src/time.rs"
}

/// Per-token mask: true when the token sits inside a `#[cfg(test)]` item or a
/// `#[test]` function. Attributes apply to the next brace-delimited item.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            // Find the matching `]` of the attribute.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            let mut negated = false;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if tokens[j].kind == TokenKind::Ident {
                    if tokens[j].text == "not" {
                        negated = true;
                    }
                    if tokens[j].text == "test" && !negated {
                        is_test_attr = true;
                    }
                }
                j += 1;
            }
            if is_test_attr && j < tokens.len() {
                // Mark from the attribute through the end of the annotated
                // item: the block closing the first `{` after the attribute.
                let mut k = j + 1;
                let mut brace = 0i32;
                let mut started = false;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "{" => {
                            brace += 1;
                            started = true;
                        }
                        "}" => brace -= 1,
                        ";" if !started => break, // `#[cfg(test)] mod x;`
                        _ => {}
                    }
                    if started && brace == 0 {
                        break;
                    }
                    k += 1;
                }
                let end = k.min(tokens.len() - 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Context handed to each rule.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub tokens: &'a [Token],
    pub in_test: &'a [bool],
    pub lines: &'a [&'a str],
}

impl FileCtx<'_> {
    /// The trimmed source text of 1-based `line`.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            file: self.rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
            suppressed: None,
        }
    }
}

/// Run every scoped rule over one file.
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if d2_scope(ctx.rel_path) {
        rule_d2(ctx, &mut out);
    }
    if product_scope(ctx.rel_path) {
        rule_c1(ctx, &mut out);
    }
    if u1_scope(ctx.rel_path) {
        rule_u1(ctx, &mut out);
    }
    rule_f1(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// D2: no `std::time::{Instant, SystemTime}` and no `thread::spawn` outside
/// `crates/bench` and `routing::exec`. Wall-clock reads and ad-hoc threads
/// are the two ways nondeterminism has historically crept into route
/// computation; all parallelism must flow through `routing::exec::Parallelism`
/// (order-preserving) and all timing through the bench crate. Applies to
/// test code too — a test that spawns raw threads or reads the clock is a
/// flaky test.
///
/// In the product crates' library code the same holds for the other ways
/// to start a thread (`thread::scope`, `thread::Builder`) and for
/// `sync::atomic`: shared state there sits behind a lock, with no exception,
/// so no lock-free protocol exists to get wrong.
fn rule_d2(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let product = product_scope(ctx.rel_path);
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(ctx.finding(
                "D2",
                t,
                format!(
                    "{}: wall-clock time outside crates/bench makes runs \
                     irreproducible; use sim time or move timing to the bench crate",
                    t.text
                ),
            ));
        }
        let after =
            |head: &str| i >= 2 && ctx.tokens[i - 1].text == "::" && ctx.tokens[i - 2].text == head;
        if t.text == "spawn" && after("thread") {
            out.push(
                ctx.finding(
                    "D2",
                    t,
                    "thread::spawn outside routing::exec: ad-hoc threads bypass the \
                 order-preserving Parallelism primitive"
                        .to_string(),
                ),
            );
        }
        let lock_free = (t.text == "atomic" && after("sync"))
            || (matches!(t.text.as_str(), "scope" | "Builder") && after("thread"));
        if product && !ctx.in_test[i] && lock_free {
            out.push(ctx.finding(
                "D2",
                t,
                format!(
                    "{}::{} in a product crate: shared state goes behind a lock and \
                     parallelism through routing::exec",
                    ctx.tokens[i - 2].text,
                    t.text
                ),
            ));
        }
    }
}

/// C1: no `unwrap()` / `panic!` / non-invariant `expect()`, `unreachable!`,
/// `todo!` or `unimplemented!` in library crates outside `#[cfg(test)]`. The
/// sanctioned escape hatch is a message starting `invariant:` that names the
/// violated invariant — anything else needs a typed error or a waiver.
fn rule_c1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let text_at = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    let invariant_at = |j: usize| {
        toks.get(j).is_some_and(|a| {
            a.kind == TokenKind::Str && a.text.trim_start().starts_with("invariant")
        })
    };
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let method = i >= 1 && toks[i - 1].text == "." && text_at(i + 1) == "(";
        let mac = text_at(i + 1) == "!";
        let message = match t.text.as_str() {
            "unwrap" if method && text_at(i + 2) == ")" => {
                "unwrap() in a library crate: return a typed error or use \
                 expect(\"invariant: ...\") naming the violated invariant"
                    .to_string()
            }
            "expect" if method && !invariant_at(i + 2) => {
                "expect() without an `invariant: ...` message in a library \
                 crate: name the violated invariant or return a typed error"
                    .to_string()
            }
            "panic" if mac => "panic! in a library crate: return a typed error or waive \
                               with the invariant that makes this unreachable"
                .to_string(),
            "unreachable" | "todo" | "unimplemented" if mac && !invariant_at(i + 3) => format!(
                "{}! without an `invariant: ...` message in a library crate: name \
                 what makes this unreachable or return a typed error",
                t.text
            ),
            _ => continue,
        };
        out.push(ctx.finding("C1", t, message));
    }
}

/// Comparator combinators whose closures F1 inspects.
fn is_order_combinator(name: &str) -> bool {
    matches!(
        name,
        "sort_by"
            | "sort_unstable_by"
            | "min_by"
            | "max_by"
            | "binary_search_by"
            | "partition_point"
            | "select_nth_unstable_by"
    )
}

/// F1: `.partial_cmp(..)` inside an ordering combinator's argument list, or
/// immediately `.unwrap()`/`.expect(..)`-ed. Both panic (or lie) on NaN;
/// `total_cmp` gives the IEEE 754 total order and never fails.
fn rule_f1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let is_punct = |j: usize, p: &str| {
        toks.get(j)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    };
    // The method whose argument list the `(` at `j` opens: `. name (`.
    let method_before = |j: usize| match j.checked_sub(2) {
        Some(dot) if is_punct(dot, ".") => toks.get(dot + 1).map(|t| t.text.as_str()),
        _ => None,
    };
    // Every open `(`, with the order combinator it belongs to, if any.
    let mut open: Vec<Option<&str>> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if is_punct(i, "(") {
            open.push(method_before(i).filter(|m| is_order_combinator(m)));
        } else if is_punct(i, ")") {
            open.pop();
        }
        let is_call = t.text == "partial_cmp" && method_before(i + 1).is_some();
        if ctx.in_test[i] || !is_call {
            continue;
        }
        let how = if let Some(name) = open.iter().rev().flatten().next() {
            format!("inside a `{name}` comparator")
        } else {
            // `.partial_cmp( .. ) . unwrap|expect (`
            let mut depth = 0i32;
            let close = (i + 1..toks.len()).find(|&j| {
                depth += i32::from(is_punct(j, "(")) - i32::from(is_punct(j, ")"));
                depth == 0
            });
            match close.and_then(|c| method_before(c + 3)) {
                Some(name @ ("unwrap" | "expect")) => format!("`.{name}()`-ed"),
                _ => continue,
            }
        };
        out.push(ctx.finding(
            "F1",
            t,
            format!(
                "partial_cmp {how}: one NaN panics or derails the ordering; \
                 use f64::total_cmp (or Ord::cmp when a total order exists)"
            ),
        ));
    }
}

/// Conversion constants U1 refuses to see multiplied/divided inline next to
/// unit-bearing values: the SI steps between ps/ns/us/ms/s and k/M/G.
fn is_conversion_constant(t: &Token) -> bool {
    if !matches!(t.kind, TokenKind::Int | TokenKind::Float) {
        return false;
    }
    let stripped = t.text.replace('_', "").to_ascii_lowercase();
    let stripped = stripped
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("usize")
        .trim_end_matches("i64")
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches(".0");
    matches!(
        stripped,
        "1000" | "1000000" | "1000000000" | "1000000000000" | "1e3" | "1e6" | "1e9" | "1e12"
    )
}

/// Identifier words that mark a statement as handling unit-bearing values.
fn has_unit_ident(tokens: &[Token]) -> bool {
    const UNIT_WORDS: &[&str] = &[
        "ps",
        "ns",
        "us",
        "ms",
        "sec",
        "secs",
        "bytes",
        "byte",
        "bits",
        "bit",
        "bps",
        "gbps",
        "mbps",
        "rate",
        "time",
        "bandwidth",
        "capacity",
        "duration",
        "elapsed",
        "fct",
        "rtt",
        "rto",
        "srtt",
        "delay",
    ];
    tokens.iter().any(|t| {
        t.kind == TokenKind::Ident
            && t.text
                .split('_')
                .any(|w| UNIT_WORDS.contains(&w.to_ascii_lowercase().as_str()))
    })
}

/// U1: a conversion constant multiplied or divided inline in a statement
/// that mentions a unit-bearing identifier — use the checked `from_*` /
/// `as_*` / `gbps()` helpers instead. The statement is the token run between
/// the nearest `;` / `{` / `}` on either side. (Raw `SimTime(..)`
/// construction is a compile error: the field is private.)
fn rule_u1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let boundary =
        |t: &Token| t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}");
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test[i] || !is_conversion_constant(t) {
            continue;
        }
        let Some(op) = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|j| toks.get(j))
            .find(|o| o.kind == TokenKind::Punct && matches!(o.text.as_str(), "*" | "/"))
        else {
            continue;
        };
        let lo = toks[..i].iter().rposition(boundary).map_or(0, |p| p + 1);
        let hi = toks[i..]
            .iter()
            .position(boundary)
            .map_or(toks.len(), |p| i + p);
        if has_unit_ident(&toks[lo..hi]) {
            out.push(ctx.finding(
                "U1",
                t,
                format!(
                    "inline unit conversion `{} {}` on a unit-bearing value: \
                     use the checked helpers (SimTime::from_*/as_*_f64, \
                     gbps()/micros_ps()) so the unit is named once",
                    op.text, t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    fn lines_of(rule: &str, rel: &str, src: &str) -> Vec<u32> {
        lint_source(rel, src)
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn c1_macros_need_an_invariant_message() {
        let src = "fn a() { unreachable!() }\n\
                   fn b() { todo!(\"later\") }\n\
                   fn c() { unimplemented!() }\n\
                   fn d() { unreachable!(\"invariant: the match above is exhaustive\") }\n\
                   fn e() { panic!(\"invariant: still a finding\") }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { unreachable!() }\n}\n";
        assert_eq!(lines_of("C1", "crates/flowsim/src/x.rs", src), [1, 2, 3, 5]);
        assert_eq!(lines_of("C1", "crates/bench/src/x.rs", src), []);
    }

    #[test]
    fn u1_flags_inline_conversion_next_to_a_unit_ident() {
        let src = "fn g(rtt_ps: u64) -> f64 { rtt_ps as f64 / 1e6 }\n\
                   fn h(n: u64) -> u64 { n * 1000 }\n\
                   fn k(n: u64, delay: u64) -> u64 { let m = n + 1_000_000; m + delay }\n\
                   fn l(bytes: u64) -> u64 { 1_000u64 * bytes }\n";
        // Line 2 names no unit; line 3's constant is added, not scaled.
        assert_eq!(lines_of("U1", "crates/htsim/src/x.rs", src), [1, 4]);
        assert_eq!(lines_of("U1", "crates/htsim/src/time.rs", src), []);
        assert_eq!(lines_of("U1", "crates/routing/src/x.rs", src), []);
    }

    #[test]
    fn f1_flags_unwrapped_and_comparator_partial_cmp() {
        let src = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }\n\
                   fn g(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"cmp\")); }\n\
                   fn ok(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n\
                   fn lt(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some_and(|o| o.is_lt()) }\n";
        assert_eq!(lines_of("F1", "crates/bench/src/x.rs", src), [1, 2]);
    }
}
