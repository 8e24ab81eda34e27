//! The rule catalogue: D1/D2/D3 (determinism) and C1/C2 (correctness).
//!
//! Every rule works on the token stream of [`crate::lexer`], so nothing in a
//! comment or string literal can trip a rule, and every finding carries an
//! exact line:col span. Rules are scoped by path (see the `*_scope`
//! predicates) and skip `#[cfg(test)]` / `#[test]` regions where noted.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: D1, D2, D3, C1, C2 (token-level, this module), P1, M1, U1,
    /// F1, E1 (AST/call-graph level, [`crate::sem`]) — or W1 (malformed
    /// waiver) / A1 (stale allowlist entry), produced by the driver.
    pub rule: &'static str,
    /// Path relative to the scanned root, forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// The trimmed source line, for humans and for allowlist `contains`.
    pub snippet: String,
    /// Set by the driver when a waiver or allowlist entry suppresses this.
    pub suppressed: Option<Suppression>,
    /// For propagated findings (P1): the `(file, line)` of the root cause —
    /// the panic site a public fn transitively reaches. A waiver naming the
    /// rule *on the origin line* suppresses every finding propagated from
    /// it, so one waiver at the panic site quiets the whole call tree.
    pub origin: Option<(String, u32)>,
}

/// How a finding was suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    Waiver,
    Allowlist,
}

/// Human-readable one-liner for each rule id (used by `stats` and docs).
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "D1" => "hash container (HashMap/HashSet) in determinism-critical crate",
        "D2" => "wall-clock time, ad-hoc thread or atomic outside bench/routing::exec",
        "D3" => "float ==/!= comparison in solver/sim code",
        "C1" => "unwrap()/expect()/panic! in library crate outside #[cfg(test)]",
        "C2" => "narrowing `as` cast in htsim",
        "P1" => "public fn transitively reaches a panic site",
        "M1" => "wildcard `_ =>` arm in a match over a workspace enum",
        "U1" => "unit-unsafe arithmetic (raw constructor or inline conversion constant)",
        "F1" => "partial_cmp-based float ordering (use total_cmp)",
        "E1" => "parse error (file not analyzable by the semantic rules)",
        "T1" => "telemetry fn not observation-pure w.r.t. simulator state",
        "S1" => "parallel closure captures/mutates shared state or calls effectful code",
        "O1" => "float reduction over parallel-produced data not provably index-ordered",
        "Q1" => "unstable sort without a provably total, duplicate-free key",
        "Y4" => "unsafe block without a `// SAFETY:` comment",
        "W1" => "malformed pnet-tidy waiver comment",
        "A1" => "stale allowlist entry (matches no finding)",
        _ => "unknown rule",
    }
}

/// All enforceable rule ids (the ones a waiver may name).
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "D3", "C1", "C2", "P1", "M1", "U1", "F1", "E1", "T1", "S1", "O1", "Q1", "Y4",
];

fn d1_scope(p: &str) -> bool {
    [
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/htsim/src/",
        "crates/topology/src/",
        "crates/planner/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

fn d2_scope(p: &str) -> bool {
    !p.starts_with("crates/bench/") && p != "crates/routing/src/exec.rs"
}

fn d3_scope(p: &str) -> bool {
    [
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/htsim/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

fn c1_scope(p: &str) -> bool {
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

fn c2_scope(p: &str) -> bool {
    p.starts_with("crates/htsim/src/")
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
    fn snippet(&self, line: u32) -> String {
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
            origin: None,
        }
    }
}

/// Run every scoped rule over one file.
pub fn check_file(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    if d1_scope(ctx.rel_path) {
        rule_d1(ctx, &mut out);
    }
    if d2_scope(ctx.rel_path) {
        rule_d2(ctx, &mut out);
    }
    if d3_scope(ctx.rel_path) {
        rule_d3(ctx, &mut out);
    }
    if c1_scope(ctx.rel_path) {
        rule_c1(ctx, &mut out);
    }
    if c2_scope(ctx.rel_path) {
        rule_c2(ctx, &mut out);
    }
    rule_y4(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Y4: every `unsafe { .. }` block must carry a `// SAFETY:` comment — on
/// the block's own line, or in the contiguous run of comment/attribute
/// lines immediately above it. `unsafe fn`/`unsafe impl`/`unsafe trait`
/// items are out of scope (the obligation sits at their *call/impl* sites);
/// the rule applies everywhere, tests included — an undocumented unsafe
/// block in a test is still an undocumented proof obligation.
fn rule_y4(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if ctx.tokens.get(i + 1).is_none_or(|n| n.text != "{") {
            continue;
        }
        let mut ln = t.line as usize - 1; // 0-based index of the unsafe line
        let mut documented = ctx.lines.get(ln).is_some_and(|l| l.contains("SAFETY:"));
        while !documented && ln > 0 {
            ln -= 1;
            let l = ctx.lines[ln].trim_start();
            if l.starts_with("//") {
                if l.contains("SAFETY:") {
                    documented = true;
                }
            } else if !(l.starts_with("#[") || l.starts_with("#!")) {
                break; // code or blank line ends the comment run
            }
        }
        if !documented {
            out.push(
                ctx.finding(
                    "Y4",
                    t,
                    "unsafe block without a `// SAFETY:` comment: state the invariant \
                     that makes this sound on the preceding line"
                        .to_string(),
                ),
            );
        }
    }
}

/// D1: no `HashMap`/`HashSet` in determinism-critical crates. Iteration
/// order over hash containers is nondeterministic across processes, and any
/// hash container in these crates is one refactor away from being iterated —
/// so the rule bans the type outright: use `BTreeMap`/`BTreeSet`, sort
/// before iterating, or waive with a reason.
fn rule_d1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(ctx.finding(
                "D1",
                t,
                format!(
                    "{} in a determinism-critical crate: iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            ));
        }
    }
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
/// `sync::atomic`: shared state there sits behind a lock, so no lock-free
/// protocol exists to get wrong. One that is worth having needs a waiver
/// with a reason — and a model in `crates/modelcheck`, like the pool's.
fn rule_d2(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let product = c1_scope(ctx.rel_path);
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
                     parallelism through routing::exec; a lock-free protocol needs a \
                     waiver and a model",
                    ctx.tokens[i - 2].text,
                    t.text
                ),
            ));
        }
    }
}

/// Integer type names (used to shield casts/annotations from float taint).
fn is_int_type(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "bool"
    )
}

fn is_float_type(s: &str) -> bool {
    s == "f32" || s == "f64"
}

/// Bracket depth bookkeeping for the taint scans: openers return +1, closers
/// -1. `<`/`>` are ambiguous (comparison vs generics) and deliberately not
/// tracked — type-position scans treat them via local heuristics instead.
fn bracket_delta(t: &str) -> i32 {
    match t {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        _ => 0,
    }
}

/// Lexical float-taint analysis for D3: the set of identifiers that
/// plausibly hold floats. Seeds: `ident: <type containing f32/f64>`
/// annotations (params, lets, struct fields). Propagation: `let`/`for`/
/// `if let`/`while let`/`match` bindings whose right-hand side mentions a
/// tainted identifier or a float literal. A parallel "integer" set records
/// `ident: <int type>` annotations and `as <int>` casts, and wins over the
/// float set on conflict, which keeps index arithmetic derived from float
/// expressions (e.g. `(p * n as f64) as usize`) out of the taint.
///
/// Run this per `fn` region (see [`fn_regions`]), not per file: taint is
/// name-based, and a float `remaining` in one function must not taint an
/// integer `remaining` in another.
pub(crate) fn float_taint(tokens: &[Token]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut floats: BTreeSet<String> = BTreeSet::new();
    let mut ints: BTreeSet<String> = BTreeSet::new();

    // Does a token slice mention a float literal or a tainted ident?
    let mentions_float = |range: &[Token], floats: &BTreeSet<String>| -> bool {
        range.iter().any(|t| {
            t.kind == TokenKind::Float
                || (t.kind == TokenKind::Ident
                    && (is_float_type(&t.text) || floats.contains(&t.text)))
        })
    };
    // Trailing `as <int type>` shields an expression from tainting.
    let ends_in_int_cast = |range: &[Token]| -> bool {
        range.len() >= 2
            && range[range.len() - 2].text == "as"
            && is_int_type(&range[range.len() - 1].text)
    };
    let idents_of = |range: &[Token]| -> Vec<String> {
        range
            .iter()
            .filter(|t| {
                t.kind == TokenKind::Ident
                    && !matches!(
                        t.text.as_str(),
                        "mut" | "ref" | "Some" | "Ok" | "Err" | "None" | "let" | "box" | "_"
                    )
            })
            .map(|t| t.text.clone())
            .collect()
    };
    // Scan forward from `from` to the first depth-0 occurrence of a stop
    // token; returns the exclusive end index.
    let scan_until = |tokens: &[Token], from: usize, stops: &[&str]| -> usize {
        let mut depth = 0i32;
        let mut j = from;
        while j < tokens.len() {
            let t = &tokens[j].text;
            if depth == 0 && stops.contains(&t.as_str()) {
                return j;
            }
            depth += bracket_delta(t);
            if depth < 0 {
                return j;
            }
            j += 1;
        }
        j
    };

    for _pass in 0..2 {
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            // (a) `ident : Type` annotations (params, lets, struct fields).
            if t.kind == TokenKind::Ident
                && tokens.get(i + 1).is_some_and(|n| n.text == ":")
                && tokens.get(i + 2).is_some_and(|n| n.text != ":")
                && (i == 0 || tokens[i - 1].text != ":")
            {
                let end = scan_until(tokens, i + 2, &[",", ")", ";", "=", "{", "}"]);
                let ty = &tokens[i + 2..end.min(tokens.len())];
                if ty.iter().any(|x| is_float_type(&x.text)) {
                    floats.insert(t.text.clone());
                } else if ty.first().is_some_and(|x| is_int_type(&x.text)) {
                    ints.insert(t.text.clone());
                }
            }
            // (b) `let PAT = RHS ;`
            if t.kind == TokenKind::Ident && t.text == "let" {
                let eq = scan_until(tokens, i + 1, &["=", ";"]);
                if eq < tokens.len() && tokens[eq].text == "=" {
                    let end = scan_until(tokens, eq + 1, &[";", "{"]);
                    let rhs = &tokens[eq + 1..end.min(tokens.len())];
                    let pat = &tokens[i + 1..eq];
                    // Strip a `: Type` annotation from the pattern side.
                    let pat_end = pat.iter().position(|x| x.text == ":").unwrap_or(pat.len());
                    if mentions_float(rhs, &floats) && !ends_in_int_cast(rhs) {
                        for id in idents_of(&pat[..pat_end]) {
                            floats.insert(id);
                        }
                    } else if ends_in_int_cast(rhs) {
                        for id in idents_of(&pat[..pat_end]) {
                            ints.insert(id);
                        }
                    }
                }
            }
            // (c) `for PAT in RHS {`
            if t.kind == TokenKind::Ident && t.text == "for" {
                if let Some(inpos) = (i + 1..tokens.len().min(i + 16))
                    .find(|&j| tokens[j].kind == TokenKind::Ident && tokens[j].text == "in")
                {
                    let end = scan_until(tokens, inpos + 1, &["{"]);
                    let rhs = &tokens[inpos + 1..end.min(tokens.len())];
                    if mentions_float(rhs, &floats) {
                        for id in idents_of(&tokens[i + 1..inpos]) {
                            floats.insert(id);
                        }
                    }
                }
            }
            // (d) `match RHS {` with tainted scrutinee: taint arm-pattern
            // (and guard) identifiers inside the match block.
            if t.kind == TokenKind::Ident && t.text == "match" {
                let open = scan_until(tokens, i + 1, &["{"]);
                let rhs = &tokens[i + 1..open.min(tokens.len())];
                if open < tokens.len() && mentions_float(rhs, &floats) {
                    // Walk arms: idents before each `=>` at relative depth 1.
                    let mut depth = 0i32;
                    let mut j = open;
                    let mut arm: Vec<&Token> = Vec::new();
                    while j < tokens.len() {
                        let tx = &tokens[j].text;
                        depth += bracket_delta(tx);
                        if depth == 0 && tx == "}" {
                            break;
                        }
                        if depth == 1 {
                            if tx == "=>" {
                                for id in
                                    idents_of(&arm.iter().map(|t| (*t).clone()).collect::<Vec<_>>())
                                {
                                    floats.insert(id);
                                }
                                arm.clear();
                            } else if tx == "," {
                                arm.clear();
                            } else if tx != "{" {
                                arm.push(&tokens[j]);
                            }
                        }
                        j += 1;
                    }
                }
            }
            // (e) `if let PAT = RHS` / `while let PAT = RHS`
            if t.kind == TokenKind::Ident
                && (t.text == "if" || t.text == "while")
                && tokens.get(i + 1).is_some_and(|n| n.text == "let")
            {
                let eq = scan_until(tokens, i + 2, &["=", "{"]);
                if eq < tokens.len() && tokens[eq].text == "=" {
                    let end = scan_until(tokens, eq + 1, &["{"]);
                    let rhs = &tokens[eq + 1..end.min(tokens.len())];
                    if mentions_float(rhs, &floats) {
                        for id in idents_of(&tokens[i + 2..eq]) {
                            floats.insert(id);
                        }
                    }
                }
            }
            i += 1;
        }
    }
    (floats, ints)
}

/// Token ranges `[start, end]` of `fn` items: the `fn` keyword through the
/// closing brace of the body. The signature is included so parameter type
/// annotations seed the taint. Bodyless `fn` declarations (traits) are
/// skipped. Nested functions produce nested ranges; callers pick the
/// innermost range containing a site.
pub(crate) fn fn_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident || tokens[i].text != "fn" {
            continue;
        }
        // The body `{` is the first one outside the parameter/return
        // brackets; `;` at depth 0 means a bodyless declaration.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut body = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body else { continue };
        let mut brace = 0i32;
        let mut k = body;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push((i, k.min(tokens.len() - 1)));
    }
    out
}

/// Tokens that terminate an operand window around `==`/`!=`.
fn is_operand_boundary(t: &str) -> bool {
    matches!(
        t,
        "," | ";"
            | "{"
            | "}"
            | "&&"
            | "||"
            | "="
            | "=="
            | "!="
            | "<="
            | ">="
            | "=>"
            | "->"
            | "if"
            | "else"
            | "while"
            | "match"
            | "return"
            | "let"
            | "for"
            | "in"
    )
}

/// D3: no float `==`/`!=` in solver/sim code. Exact float equality is
/// almost always a latent bug in iterative solvers (accumulated error) and,
/// where it *is* intended (bit-exact determinism checks), deserves an
/// explicit waiver naming that intent.
fn rule_d3(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let regions = fn_regions(ctx.tokens);
    let region_taints: Vec<(BTreeSet<String>, BTreeSet<String>)> = regions
        .iter()
        .map(|&(s, e)| float_taint(&ctx.tokens[s..=e]))
        .collect();
    // Item-level taint (struct fields, consts): tokens outside every fn.
    let mut in_fn = vec![false; ctx.tokens.len()];
    for &(s, e) in &regions {
        for m in in_fn.iter_mut().take(e + 1).skip(s) {
            *m = true;
        }
    }
    let item_tokens: Vec<Token> = ctx
        .tokens
        .iter()
        .zip(&in_fn)
        .filter(|&(_, &inside)| !inside)
        .map(|(t, _)| t.clone())
        .collect();
    let (item_floats, item_ints) = float_taint(&item_tokens);
    // Innermost fn region containing token index `i`, if any.
    let innermost = |i: usize| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (r, &(s, e)) in regions.iter().enumerate() {
            if s <= i && i <= e && best.is_none_or(|b| e - s < regions[b].1 - regions[b].0) {
                best = Some(r);
            }
        }
        best
    };
    let is_float_operand = |t: &Token, region: Option<usize>| -> bool {
        if t.kind == TokenKind::Float {
            return true;
        }
        if t.kind != TokenKind::Ident {
            return false;
        }
        if is_float_type(&t.text) {
            return true;
        }
        let (floats, ints) = match region {
            Some(r) => (&region_taints[r].0, &region_taints[r].1),
            None => (&item_floats, &item_ints),
        };
        (floats.contains(&t.text) || item_floats.contains(&t.text))
            && !ints.contains(&t.text)
            && !item_ints.contains(&t.text)
    };
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let region = innermost(i);
        let mut hit = false;
        // Left window.
        let mut depth = 0i32;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let tx = &ctx.tokens[j].text;
            depth -= bracket_delta(tx); // walking left: closers open
            if depth < 0 || (depth == 0 && is_operand_boundary(tx)) {
                break;
            }
            if depth >= 0 && is_float_operand(&ctx.tokens[j], region) {
                hit = true;
                break;
            }
        }
        // Right window.
        if !hit {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < ctx.tokens.len() {
                let tx = &ctx.tokens[j].text;
                if depth == 0 && is_operand_boundary(tx) {
                    break;
                }
                depth += bracket_delta(tx);
                if depth < 0 {
                    break;
                }
                if is_float_operand(&ctx.tokens[j], region) {
                    hit = true;
                    break;
                }
                j += 1;
            }
        }
        if hit {
            out.push(ctx.finding(
                "D3",
                t,
                format!(
                    "float `{}` comparison: exact float equality in solver/sim \
                     code; compare with a tolerance, use total_cmp, or waive \
                     stating why bit-equality is intended",
                    t.text
                ),
            ));
        }
    }
}

/// C1: no `unwrap()` / `panic!` / non-invariant `expect()` in library
/// crates outside `#[cfg(test)]`. The sanctioned escape hatch is
/// `expect("invariant: ...")` naming the violated invariant — anything else
/// needs a typed error or a waiver.
fn rule_c1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap"
                if i >= 1
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                    && toks.get(i + 2).is_some_and(|n| n.text == ")") =>
            {
                out.push(
                    ctx.finding(
                        "C1",
                        t,
                        "unwrap() in a library crate: return a typed error or use \
                     expect(\"invariant: ...\") naming the violated invariant"
                            .to_string(),
                    ),
                );
            }
            "expect"
                if i >= 1
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                let arg = toks.get(i + 2);
                let sanctioned = arg.is_some_and(|a| {
                    a.kind == TokenKind::Str && a.text.trim_start().starts_with("invariant")
                });
                if !sanctioned {
                    out.push(
                        ctx.finding(
                            "C1",
                            t,
                            "expect() without an `invariant: ...` message in a library \
                         crate: name the violated invariant or return a typed error"
                                .to_string(),
                        ),
                    );
                }
            }
            "panic" if toks.get(i + 1).is_some_and(|n| n.text == "!") => {
                out.push(
                    ctx.finding(
                        "C1",
                        t,
                        "panic! in a library crate: return a typed error or waive \
                     with the invariant that makes this unreachable"
                            .to_string(),
                    ),
                );
            }
            _ => {}
        }
    }
}

/// C2: no narrowing `as` casts in htsim. Time (picoseconds), byte counts
/// and ids are u64/u32 arithmetic; a narrowing `as` silently truncates at
/// scale. Use `try_from` + `expect("invariant: ...")`, or widen the type.
/// (`as usize`/`as u64`/`as f64` are widening on every supported target and
/// stay legal.)
fn rule_c2(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        if let Some(n) = ctx.tokens.get(i + 1) {
            if n.kind == TokenKind::Ident && NARROW.contains(&n.text.as_str()) {
                out.push(ctx.finding(
                    "C2",
                    t,
                    format!(
                        "narrowing cast `as {}` on sim arithmetic: silently \
                         truncates; use {}::try_from(..).expect(\"invariant: ...\") \
                         or widen the type",
                        n.text, n.text
                    ),
                ));
            }
        }
    }
}
