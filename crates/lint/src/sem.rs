//! Workspace-wide semantic rules over the [`crate::ast`] trees: a symbol
//! table (fns, enums, `use` aliases), an intra-workspace call graph with
//! name-resolution-lite, and the four semantic rules:
//!
//! * **P1** — panic-path propagation: a `pub` fn in a library crate that
//!   *transitively* reaches `panic!` / `.unwrap()` / a non-invariant
//!   `.expect(..)`. (The direct site itself is C1's finding; P1 reports the
//!   public surface that inherits it, with the witness chain and the origin
//!   so a single waiver at the panic site quiets the whole call tree.)
//! * **M1** — match exhaustiveness: wildcard `_ =>` arms in matches that
//!   name workspace-defined enum variants, inside the simulator/solver
//!   crates. A new `EventKind` variant must fail compilation loudly, not
//!   vanish into a wildcard.
//! * **U1** — unit safety: raw `SimTime(..)` tuple construction outside the
//!   newtype's home module, and `*`/`/` arithmetic against bare conversion
//!   constants (1e6, 1e9, 1e12, ...) in statements that handle unit-bearing
//!   quantities — use the checked `from_*`/`as_*`/`gbps()` helpers instead.
//! * **F1** — float-ordering taint: `partial_cmp().unwrap()/expect()` and
//!   `partial_cmp` inside `sort_by`/`min_by`/`max_by`-style comparator
//!   closures. One NaN panics or reorders a sweep; `total_cmp` is total.
//!
//! Name resolution is deliberately "lite": free fns resolve by name within
//! their crate, `Type::method` paths and method calls resolve to every
//! workspace impl method with that name, and cross-crate calls resolve
//! through `pnet_*` path prefixes and `use` aliases. That over-approximates
//! the call graph — safe for P1, whose job is to keep the set of reachable
//! panic sites at zero.

use crate::ast::{
    self, Arm, Ast, Block, Expr, ExprKind, Item, ItemKind, PatKind, Stmt, UseBinding,
};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One file's worth of context for the workspace pass.
pub struct SemFile<'a> {
    pub rel_path: &'a str,
    pub tokens: &'a [Token],
    pub in_test: &'a [bool],
    pub lines: &'a [&'a str],
    pub ast: &'a Ast,
}

impl SemFile<'_> {
    pub(crate) fn finding(&self, rule: &'static str, tok: usize, message: String) -> Finding {
        let t = &self.tokens[tok.min(self.tokens.len().saturating_sub(1))];
        Finding {
            rule,
            file: self.rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
            snippet: self
                .lines
                .get(t.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            suppressed: None,
            origin: None,
        }
    }
}

/// Crate key of a workspace-relative path: `crates/<x>/...` → `x`, anything
/// else (root `src/`, `tests/`, `examples/`) → the root package.
pub(crate) fn crate_key(p: &str) -> &str {
    p.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("pnet")
}

/// Is this file part of a crate's library source (as opposed to an example,
/// integration test, bench, or bin target)? Only library fns join the call
/// graph: the others are leaves no library code can call back into.
pub(crate) fn lib_file(p: &str) -> bool {
    !p.contains("/examples/")
        && !p.starts_with("examples/")
        && !p.contains("/tests/")
        && !p.starts_with("tests/")
        && !p.contains("/benches/")
        && !p.contains("/src/bin/")
}

/// May this file's fns appear as *callees* in the call graph? The linter and
/// the bench harness sit at the top of the dependency DAG — no sim/solver
/// crate links against them — so their methods must never satisfy by-name
/// resolution for sim code (`Json::parse`, `Parser::peek`, `Args::get`, ...
/// alias ubiquitous method names and would fabricate panic/effect chains).
pub(crate) fn graph_callee_file(p: &str) -> bool {
    lib_file(p)
        && !p.starts_with("crates/lint/")
        && !p.starts_with("crates/bench/")
        // The model checker's `MAtomic::load`/`fetch_add` would alias the
        // std atomic method names at every by-name call site in sim code
        // and fabricate effect chains.
        && !p.starts_with("crates/modelcheck/")
}

/// The library crates whose public surface P1 guards (same set C1 scans).
fn p1_scope(p: &str) -> bool {
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

/// Crates whose matches M1 audits for wildcard arms.
fn m1_scope(p: &str) -> bool {
    [
        "crates/htsim/src/",
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/core/src/",
        "crates/planner/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Files U1 audits. The `SimTime` home module is exempt: it *is* the checked
/// helper layer the rule points everyone else at.
fn u1_scope(p: &str) -> bool {
    (p.starts_with("crates/htsim/src/") || p.starts_with("crates/core/src/"))
        && p != "crates/htsim/src/time.rs"
}

/// One function definition in the workspace.
pub(crate) struct FnDef<'a> {
    pub(crate) file: usize,
    pub(crate) crate_key: &'a str,
    pub(crate) name: &'a str,
    pub(crate) name_tok: usize,
    pub(crate) is_pub: bool,
    /// `Some(Type)` for `impl Type { .. }` methods and trait default
    /// methods (keyed by the trait name).
    pub(crate) self_ty: Option<&'a str>,
    pub(crate) params: &'a [ast::Param],
    pub(crate) body: Option<&'a Block>,
    pub(crate) in_test: bool,
}

impl FnDef<'_> {
    /// `Type::name` for methods, bare `name` for free fns — display form.
    pub(crate) fn qual_name(&self) -> String {
        match self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// What a function body does, as far as the call graph cares.
#[derive(Default)]
pub(crate) struct FnFacts {
    /// Token index of the first direct panic source, if any.
    pub(crate) panic_tok: Option<usize>,
    /// All resolved callee fn indices (deduped, sorted — deterministic BFS).
    pub(crate) callees: Vec<usize>,
    /// Subset of `callees` resolved *exactly*: path calls (`free_fn(..)`,
    /// `Type::method(..)`, `Self::method(..)`). Effect inference propagates
    /// mutated-type sets only across these edges.
    pub(crate) path_callees: Vec<usize>,
}

/// The workspace symbol tables plus the resolved call graph — built once and
/// shared by the semantic rules (P1/M1/U1/F1) and by effect inference
/// ([`crate::effects`]).
pub(crate) struct Workspace<'a> {
    pub(crate) fns: Vec<FnDef<'a>>,
    pub(crate) enums: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// Per-file `use` aliases: local name -> full path.
    pub(crate) aliases: Vec<BTreeMap<&'a str, &'a [String]>>,
    pub(crate) free_fns: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    pub(crate) methods: BTreeMap<&'a str, Vec<usize>>,
    pub(crate) typed_methods: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    pub(crate) facts: Vec<FnFacts>,
}

impl<'a> Workspace<'a> {
    /// Resolve a path-call `a::b::f(..)` seen in `caller` to candidate fn
    /// indices (the same name-resolution-lite the call graph uses).
    pub(crate) fn resolve_path(&self, segs: &[String], caller: &FnDef, out: &mut BTreeSet<usize>) {
        resolve_path_call(
            segs,
            caller,
            &self.aliases[caller.file],
            &self.free_fns,
            &self.typed_methods,
            out,
        );
    }
}

/// Build the symbol tables and the per-fn call-graph facts.
pub(crate) fn build_workspace<'a>(files: &'a [SemFile<'a>]) -> Workspace<'a> {
    // ---- symbol tables -------------------------------------------------
    let mut fns: Vec<FnDef> = Vec::new();
    let mut enums: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut aliases: Vec<BTreeMap<&str, &[String]>> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let mut file_aliases: BTreeMap<&str, &[String]> = BTreeMap::new();
        collect_items(
            &f.ast.items,
            fi,
            crate_key(f.rel_path),
            None,
            f.in_test,
            &mut fns,
            &mut enums,
            &mut file_aliases,
        );
        aliases.push(file_aliases);
    }

    // Lookup tables for name-resolution-lite.
    let mut free_fns: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed_methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, d) in fns.iter().enumerate() {
        // Only library source participates in the call graph: a panicking
        // `fn launch` in an example or test binary is not reachable from
        // library code and must not taint a library `pub fn` via the
        // name-based method over-approximation. Dev-tool crates (lint,
        // bench) are likewise unreachable from sim code.
        if !graph_callee_file(files[d.file].rel_path) {
            continue;
        }
        match d.self_ty {
            None => free_fns.entry((d.crate_key, d.name)).or_default().push(i),
            Some(ty) => {
                methods.entry(d.name).or_default().push(i);
                typed_methods.entry((ty, d.name)).or_default().push(i);
            }
        }
    }

    // ---- per-fn facts: panic sources + resolved call edges -------------
    let facts: Vec<FnFacts> = fns
        .iter()
        .map(|d| {
            let Some(body) = d.body else {
                return FnFacts::default();
            };
            let f = &files[d.file];
            let mut facts = FnFacts::default();
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            let mut path_callees: BTreeSet<usize> = BTreeSet::new();
            ast::walk_block(body, &mut |e| match &e.kind {
                ExprKind::MethodCall {
                    name,
                    name_tok,
                    args,
                    ..
                } => {
                    if is_panic_method(f, name, *name_tok, args) {
                        if facts.panic_tok.is_none_or(|p| *name_tok < p) {
                            facts.panic_tok = Some(*name_tok);
                        }
                    } else {
                        for &c in methods.get(name.as_str()).map_or(&[][..], |v| v) {
                            callees.insert(c);
                        }
                    }
                }
                ExprKind::Call { callee, .. } => {
                    if let ExprKind::Path(segs) = &callee.kind {
                        resolve_path_call(
                            segs,
                            d,
                            &aliases[d.file],
                            &free_fns,
                            &typed_methods,
                            &mut path_callees,
                        );
                    }
                }
                ExprKind::Macro { path, .. }
                    if path.last().is_some_and(|s| s == "panic")
                        && facts.panic_tok.is_none_or(|p| e.lo < p) =>
                {
                    facts.panic_tok = Some(e.lo);
                }
                _ => {}
            });
            callees.extend(path_callees.iter().copied());
            facts.callees = callees.into_iter().collect();
            facts.path_callees = path_callees.into_iter().collect();
            facts
        })
        .collect();

    Workspace {
        fns,
        enums,
        aliases,
        free_fns,
        methods,
        typed_methods,
        facts,
    }
}

/// Run the semantic rules over the whole workspace.
pub fn check_workspace(files: &[SemFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = build_workspace(files);
    let Workspace {
        ref fns,
        ref enums,
        ref facts,
        ..
    } = ws;

    // ---- P1: panic-path propagation ------------------------------------
    // `reach[i]`: for fn i, the (via, source_fn) pair of the shortest chain
    // from a *callee* of i to a panic source — computed per pub fn by BFS so
    // the witness chain is minimal and deterministic.
    for (i, d) in fns.iter().enumerate() {
        if !d.is_pub || d.in_test || !p1_scope(files[d.file].rel_path) {
            continue;
        }
        let Some((chain, src)) = shortest_panic_chain(i, facts) else {
            continue;
        };
        let sf = &fns[src];
        let sfile = &files[sf.file];
        let panic_tok = facts[src].panic_tok.expect("source has a panic site");
        let panic_line = sfile.tokens[panic_tok].line;
        let via: Vec<&str> = chain.iter().map(|&c| fns[c].name).collect();
        let f = &files[d.file];
        let mut finding = f.finding(
            "P1",
            d.name_tok,
            format!(
                "pub fn `{}` can transitively panic via {} ({}:{}); return a \
                 typed error, make the callee infallible, or waive P1 at the \
                 panic site",
                d.name,
                via.join(" -> "),
                sfile.rel_path,
                panic_line
            ),
        );
        finding.origin = Some((sfile.rel_path.to_string(), panic_line));
        out.push(finding);
    }

    // ---- M1 / U1 / F1: per-file walks ----------------------------------
    for d in fns {
        let f = &files[d.file];
        let Some(body) = d.body else { continue };
        if d.in_test {
            continue;
        }
        if m1_scope(f.rel_path) {
            rule_m1(f, body, enums, &mut out);
        }
        if u1_scope(f.rel_path) {
            rule_u1(f, body, &mut out);
        }
        rule_f1(f, body, &mut out);
    }

    // ---- T1 / S1 / O1 / Q1: effect-inference rules ---------------------
    out.extend(crate::effects::check(&ws, files));

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out.dedup();
    out
}

/// Surface each file's parse errors as E1 findings: a file the parser cannot
/// structure is a file the semantic rules silently skip, and silence is how
/// analyzers rot.
pub fn parse_error_findings(f: &SemFile) -> Vec<Finding> {
    f.ast
        .errors
        .iter()
        .map(|e| Finding {
            rule: "E1",
            file: f.rel_path.to_string(),
            line: e.line,
            col: e.col,
            message: format!(
                "parse error: {} — semantic rules cannot see this file",
                e.message
            ),
            snippet: f
                .lines
                .get(e.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            suppressed: None,
            origin: None,
        })
        .collect()
}

/// Is this method call a direct panic source? `.unwrap()` with no args, or
/// `.expect(..)` whose message is not an `invariant: ...` string (the same
/// escape hatch C1 sanctions).
fn is_panic_method(f: &SemFile, name: &str, name_tok: usize, args: &[Expr]) -> bool {
    match name {
        "unwrap" => args.is_empty() && f.in_test.get(name_tok) != Some(&true),
        "expect" => {
            if f.in_test.get(name_tok) == Some(&true) {
                return false;
            }
            let sanctioned = args.first().is_some_and(|a| {
                matches!(a.kind, ExprKind::Lit)
                    && f.tokens.get(a.lo).is_some_and(|t| {
                        t.kind == TokenKind::Str && t.text.trim_start().starts_with("invariant")
                    })
            });
            !sanctioned
        }
        _ => false,
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_items<'a>(
    items: &'a [Item],
    file: usize,
    ck: &'a str,
    self_ty: Option<&'a str>,
    in_test: &[bool],
    fns: &mut Vec<FnDef<'a>>,
    enums: &mut BTreeMap<&'a str, BTreeSet<&'a str>>,
    aliases: &mut BTreeMap<&'a str, &'a [String]>,
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(func) => {
                // Fn-body `use` statements (the idiom for one-off imports,
                // `use pnet_routing::flow_hash;`) register their aliases
                // file-wide: slightly over-scoped, but without them a bare
                // `flow_hash(..)` reads as a call through unknown code.
                if let Some(body) = &func.body {
                    for st in &body.stmts {
                        if let Stmt::Item(it) = st {
                            if let ItemKind::Use { bindings } = &it.kind {
                                for UseBinding { path, alias } in bindings {
                                    if alias != "*" && !path.is_empty() {
                                        aliases.insert(alias, path);
                                    }
                                }
                            }
                        }
                    }
                }
                fns.push(FnDef {
                    file,
                    crate_key: ck,
                    name: &func.name,
                    name_tok: func.name_tok,
                    is_pub: func.is_pub,
                    self_ty,
                    params: &func.params,
                    body: func.body.as_ref(),
                    in_test: in_test.get(func.name_tok) == Some(&true),
                });
            }
            ItemKind::Enum { name, variants } => {
                enums
                    .entry(name)
                    .or_default()
                    .extend(variants.iter().map(|v| v.as_str()));
            }
            ItemKind::Impl(imp) => collect_items(
                &imp.items,
                file,
                ck,
                Some(&imp.self_ty),
                in_test,
                fns,
                enums,
                aliases,
            ),
            ItemKind::Trait { name, items } => {
                collect_items(items, file, ck, Some(name), in_test, fns, enums, aliases)
            }
            ItemKind::Mod {
                items: Some(sub), ..
            } => collect_items(sub, file, ck, self_ty, in_test, fns, enums, aliases),
            ItemKind::Use { bindings } => {
                for UseBinding { path, alias } in bindings {
                    if alias != "*" && !path.is_empty() {
                        aliases.insert(alias, path);
                    }
                }
            }
            _ => {}
        }
    }
}

/// A `pnet_foo` crate ident (or `pnet` itself) → its crate key.
fn crate_of_ident(seg: &str) -> Option<&str> {
    if seg == "pnet" {
        Some("pnet")
    } else {
        seg.strip_prefix("pnet_")
    }
}

fn is_type_like(seg: &str) -> bool {
    seg.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Resolve a path-call `a::b::f(..)` to candidate fn indices.
fn resolve_path_call(
    segs: &[String],
    caller: &FnDef,
    aliases: &BTreeMap<&str, &[String]>,
    free_fns: &BTreeMap<(&str, &str), Vec<usize>>,
    typed_methods: &BTreeMap<(&str, &str), Vec<usize>>,
    callees: &mut BTreeSet<usize>,
) {
    if segs.is_empty() {
        return;
    }
    // Expand a leading `use` alias (`use pnet_topology::graph::gbps;` makes
    // a bare `gbps(..)` resolvable; `use pnet_htsim::time::SimTime` makes
    // `SimTime::from_ps(..)` carry its crate).
    let expanded: Vec<&str> = match aliases.get(segs[0].as_str()) {
        Some(full) if segs.len() == 1 || full.last() == Some(&segs[0]) => full
            .iter()
            .map(|s| s.as_str())
            .chain(segs.iter().skip(1).map(|s| s.as_str()))
            .collect(),
        _ => segs.iter().map(|s| s.as_str()).collect(),
    };
    let name = *expanded.last().expect("non-empty path");
    // `Type::method` / `Self::method` / `<trait>::method`.
    if expanded.len() >= 2 {
        let qual = expanded[expanded.len() - 2];
        if qual == "Self" {
            if let Some(ty) = caller.self_ty {
                if let Some(v) = typed_methods.get(&(ty, name)) {
                    callees.extend(v.iter().copied());
                }
            }
            return;
        }
        if is_type_like(qual) {
            if let Some(v) = typed_methods.get(&(qual, name)) {
                callees.extend(v.iter().copied());
            }
            return;
        }
    }
    // Crate-qualified free fn (`pnet_topology::graph::gbps`).
    if let Some(ck) = crate_of_ident(expanded[0]) {
        if let Some(v) = free_fns.get(&(ck, name)) {
            callees.extend(v.iter().copied());
        }
        return;
    }
    // std/external roots never hit workspace fns.
    if matches!(expanded[0], "std" | "core" | "alloc") {
        return;
    }
    // Same-crate: bare name, `crate::..`, `self::..`, `super::..`, or a
    // local module path — all match free fns of the caller's crate by name.
    if let Some(v) = free_fns.get(&(caller.crate_key, name)) {
        callees.extend(v.iter().copied());
    }
}

/// BFS from `start`'s callees to the nearest fn with a direct panic source.
/// Returns the chain of fn indices (callee-first, source-last) — length >= 1,
/// so a fn's *own* panic site never trips P1 (that is C1's finding).
fn shortest_panic_chain(start: usize, facts: &[FnFacts]) -> Option<(Vec<usize>, usize)> {
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> =
        facts[start].callees.iter().copied().collect();
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();
    let rebuild = |pred: &BTreeMap<usize, usize>, mut at: usize| {
        let mut chain = vec![at];
        while let Some(&p) = pred.get(&at) {
            at = p;
            chain.push(at);
        }
        chain.reverse();
        chain
    };
    while let Some(cur) = queue.pop_front() {
        if facts[cur].panic_tok.is_some() {
            return Some((rebuild(&pred, cur), cur));
        }
        for &next in &facts[cur].callees {
            if next != start && seen.insert(next) {
                pred.insert(next, cur);
                queue.push_back(next);
            }
        }
    }
    None
}

/// M1: flag top-level unguarded `_ =>` arms in matches whose other arms
/// name workspace enum variants. Nested wildcards (`EventKind::B(_)`) and
/// guarded wildcards are left alone; matches over std enums (Option/Result)
/// never name a workspace variant, so they never trip.
fn rule_m1(
    f: &SemFile,
    body: &Block,
    enums: &BTreeMap<&str, BTreeSet<&str>>,
    out: &mut Vec<Finding>,
) {
    ast::walk_block(body, &mut |e| {
        let ExprKind::Match { arms, .. } = &e.kind else {
            return;
        };
        let Some(enum_name) = matched_workspace_enum(arms, enums) else {
            return;
        };
        for arm in arms {
            if matches!(arm.pat.kind, PatKind::Wild) && arm.guard.is_none() {
                if f.in_test.get(arm.pat.lo) == Some(&true) {
                    continue;
                }
                out.push(f.finding(
                    "M1",
                    arm.pat.lo,
                    format!(
                        "wildcard `_ =>` in a match over workspace enum `{enum_name}`: \
                         a new variant would be silently swallowed; list the variants \
                         so the compiler flags additions"
                    ),
                ));
            }
        }
    });
}

/// The workspace enum this match's arms name, if any: an arm pattern path
/// `E::V` (possibly nested) where `E` is a workspace enum defining `V`.
fn matched_workspace_enum<'e>(
    arms: &[Arm],
    enums: &BTreeMap<&'e str, BTreeSet<&'e str>>,
) -> Option<&'e str> {
    let mut found: Option<&str> = None;
    for arm in arms {
        ast::walk_pat(&arm.pat, &mut |p| {
            if found.is_some() {
                return;
            }
            let segs = match &p.kind {
                PatKind::Path(segs) | PatKind::TupleStruct(segs, _) | PatKind::Struct(segs, _) => {
                    segs
                }
                _ => return,
            };
            if segs.len() < 2 {
                return;
            }
            let (variant, enum_seg) = (&segs[segs.len() - 1], &segs[segs.len() - 2]);
            if let Some((name, variants)) = enums.get_key_value(enum_seg.as_str()) {
                if variants.contains(variant.as_str()) {
                    found = Some(name);
                }
            }
        });
    }
    found
}

/// Conversion constants U1 refuses to see multiplied/divided inline next to
/// unit-bearing values: the SI steps between ps/ns/us/ms/s and k/M/G.
fn is_conversion_constant(text: &str) -> bool {
    let stripped: String = text
        .chars()
        .filter(|&c| c != '_')
        .collect::<String>()
        .to_ascii_lowercase();
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

/// U1: raw `SimTime(..)` construction, and inline `* / 1e6`-style unit
/// conversions in statements that mention unit-bearing identifiers.
fn rule_u1(f: &SemFile, body: &Block, out: &mut Vec<Finding>) {
    // Statement spans (nested blocks included) — the context window for the
    // "does this statement handle units?" question.
    let mut stmt_spans: Vec<(usize, usize)> = Vec::new();
    collect_stmt_spans(body, &mut stmt_spans);
    let context_of = |tok: usize| -> Option<(usize, usize)> {
        stmt_spans
            .iter()
            .filter(|&&(lo, hi)| lo <= tok && tok <= hi)
            .min_by_key(|&&(lo, hi)| hi - lo)
            .copied()
    };
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    ast::walk_block(body, &mut |e| match &e.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.len() == 1 && segs[0] == "SimTime" && flagged.insert(callee.lo) {
                    out.push(
                        f.finding(
                            "U1",
                            callee.lo,
                            "raw SimTime(..) constructor: the argument's unit is invisible \
                         at the call site; use SimTime::from_ps/from_ns/from_us/from_ms"
                                .to_string(),
                        ),
                    );
                }
            }
        }
        ExprKind::Binary {
            op,
            op_tok,
            lhs,
            rhs,
        } if op == "*" || op == "/" => {
            for side in [lhs.as_ref(), rhs.as_ref()] {
                let mut lit_tok = None;
                ast::walk_expr(side, &mut |x| {
                    if lit_tok.is_none()
                        && matches!(x.kind, ExprKind::Lit)
                        && f.tokens
                            .get(x.lo)
                            .is_some_and(|t| is_conversion_constant(&t.text))
                    {
                        lit_tok = Some(x.lo);
                    }
                });
                let Some(lit_tok) = lit_tok else { continue };
                let Some((lo, hi)) = context_of(*op_tok) else {
                    continue;
                };
                if has_unit_ident(&f.tokens[lo..=hi.min(f.tokens.len() - 1)])
                    && flagged.insert(lit_tok)
                {
                    out.push(f.finding(
                        "U1",
                        lit_tok,
                        format!(
                            "inline unit conversion `{op} {}` on a unit-bearing value: \
                             use the checked helpers (SimTime::from_*/as_*_f64, \
                             gbps()/micros_ps()) so the unit is named once",
                            f.tokens[lit_tok].text
                        ),
                    ));
                }
            }
        }
        _ => {}
    });
}

/// Token spans of every statement, nested blocks included (match arms and
/// closure bodies that are blocks contribute their inner statements too).
fn collect_stmt_spans(b: &Block, out: &mut Vec<(usize, usize)>) {
    for s in &b.stmts {
        let span = match s {
            Stmt::Let { pat, init, els, .. } => {
                let hi = els
                    .as_ref()
                    .map(|b| b.hi)
                    .or(init.as_ref().map(|e| e.hi))
                    .unwrap_or(pat.hi);
                Some((pat.lo.saturating_sub(1), hi))
            }
            Stmt::Expr(e) => Some((e.lo, e.hi)),
            _ => None,
        };
        if let Some(span) = span {
            out.push(span);
        }
        ast::walk_stmt(s, &mut |e| {
            if let ExprKind::Block(inner) = &e.kind {
                for s in &inner.stmts {
                    let span = match s {
                        Stmt::Let { pat, init, els, .. } => {
                            let hi = els
                                .as_ref()
                                .map(|b| b.hi)
                                .or(init.as_ref().map(|e| e.hi))
                                .unwrap_or(pat.hi);
                            Some((pat.lo.saturating_sub(1), hi))
                        }
                        Stmt::Expr(e) => Some((e.lo, e.hi)),
                        _ => None,
                    };
                    if let Some(span) = span {
                        out.push(span);
                    }
                }
            }
        });
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

/// F1: `partial_cmp` immediately unwrapped, or used inside an ordering
/// combinator's comparator closure. Both panic (or lie) on NaN; `total_cmp`
/// gives the IEEE 754 total order and never fails.
fn rule_f1(f: &SemFile, body: &Block, out: &mut Vec<Finding>) {
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut flag = |out: &mut Vec<Finding>, tok: usize, how: &str| {
        if flagged.insert(tok) {
            out.push(f.finding(
                "F1",
                tok,
                format!(
                    "partial_cmp {how}: one NaN panics or derails the ordering; \
                     use f64::total_cmp (or Ord::cmp when a total order exists)"
                ),
            ));
        }
    };
    ast::walk_block(body, &mut |e| match &e.kind {
        ExprKind::MethodCall { recv, name, .. } if name == "unwrap" || name == "expect" => {
            if let ExprKind::MethodCall {
                name: inner,
                name_tok,
                ..
            } = &recv.kind
            {
                if inner == "partial_cmp" && f.in_test.get(*name_tok) != Some(&true) {
                    flag(out, *name_tok, &format!("`.{name}()`-ed"));
                }
            }
        }
        ExprKind::MethodCall { name, args, .. } if is_order_combinator(name) => {
            for a in args {
                ast::walk_expr(a, &mut |x| {
                    if let ExprKind::MethodCall {
                        name: inner,
                        name_tok,
                        ..
                    } = &x.kind
                    {
                        if inner == "partial_cmp" && f.in_test.get(*name_tok) != Some(&true) {
                            flag(out, *name_tok, &format!("inside a `{name}` comparator"));
                        }
                    }
                });
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    struct Owned {
        rel: String,
        src: String,
    }

    fn run(files: &[Owned]) -> Vec<Finding> {
        let lexed: Vec<_> = files.iter().map(|f| lex(&f.src)).collect();
        let asts: Vec<_> = lexed.iter().map(|l| ast::parse(&l.tokens)).collect();
        let masks: Vec<_> = lexed.iter().map(|l| test_mask(&l.tokens)).collect();
        let lines: Vec<Vec<&str>> = files.iter().map(|f| f.src.lines().collect()).collect();
        let sem_files: Vec<SemFile> = files
            .iter()
            .enumerate()
            .map(|(i, f)| SemFile {
                rel_path: &f.rel,
                tokens: &lexed[i].tokens,
                in_test: &masks[i],
                lines: &lines[i],
                ast: &asts[i],
            })
            .collect();
        for sf in &sem_files {
            assert!(sf.ast.errors.is_empty(), "{:?}", sf.ast.errors);
        }
        check_workspace(&sem_files)
    }

    fn one(rel: &str, src: &str) -> Vec<Finding> {
        run(&[Owned {
            rel: rel.to_string(),
            src: src.to_string(),
        }])
    }

    #[test]
    fn p1_reports_transitive_not_direct() {
        let fs = one(
            "crates/routing/src/x.rs",
            "fn helper(v: &[u32]) -> u32 { *v.first().unwrap() }\n\
             pub fn direct(v: &[u32]) -> u32 { *v.first().unwrap() }\n\
             pub fn indirect(v: &[u32]) -> u32 { helper(v) }\n",
        );
        let p1: Vec<_> = fs.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 1, "{fs:?}");
        assert!(p1[0].message.contains("indirect"));
        assert!(p1[0].message.contains("helper"));
        assert_eq!(
            p1[0].origin,
            Some(("crates/routing/src/x.rs".to_string(), 1))
        );
    }

    #[test]
    fn p1_crosses_crates_via_use_alias() {
        let fs = run(&[
            Owned {
                rel: "crates/topology/src/lib.rs".to_string(),
                src: "pub fn build(n: usize) -> usize { n.checked_mul(2).unwrap() }\n".to_string(),
            },
            Owned {
                rel: "crates/core/src/lib.rs".to_string(),
                src: "use pnet_topology::build;\npub fn plan(n: usize) -> usize { build(n) }\n"
                    .to_string(),
            },
        ]);
        let p1: Vec<_> = fs.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 1, "{fs:?}");
        assert!(p1[0].file.ends_with("core/src/lib.rs"));
        assert!(p1[0].message.contains("build"));
    }

    #[test]
    fn p1_ignores_invariant_expect_and_tests() {
        let fs = one(
            "crates/htsim/src/x.rs",
            "fn helper(v: &[u32]) -> u32 { *v.first().expect(\"invariant: non-empty by construction\") }\n\
             pub fn fine(v: &[u32]) -> u32 { helper(v) }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n    pub fn u() { t(); }\n}\n",
        );
        assert!(fs.iter().all(|f| f.rule != "P1"), "{fs:?}");
    }

    #[test]
    fn p1_ignores_panic_sources_in_examples_and_tests_dirs() {
        // `launch` in an example file must not taint the library's
        // `pub fn run` through the name-based method over-approximation.
        let fs = run(&[
            Owned {
                rel: "crates/htsim/examples/demo.rs".to_string(),
                src: "struct D;\nimpl D {\n    fn launch(&self) { None::<u32>.unwrap(); }\n}\n"
                    .to_string(),
            },
            Owned {
                rel: "crates/htsim/src/x.rs".to_string(),
                src: "pub fn run(d: &dyn Driver) { d.launch(); }\n".to_string(),
            },
        ]);
        assert!(fs.iter().all(|f| f.rule != "P1"), "{fs:?}");
    }

    #[test]
    fn m1_flags_wildcard_over_workspace_enum_only() {
        let fs = one(
            "crates/htsim/src/x.rs",
            "pub enum Kind { A, B, C }\n\
             fn classify(k: Kind) -> u32 { match k { Kind::A => 0, _ => 1 } }\n\
             fn options(o: Option<u32>) -> u32 { match o { Some(x) => x, _ => 0 } }\n",
        );
        let m1: Vec<_> = fs.iter().filter(|f| f.rule == "M1").collect();
        assert_eq!(m1.len(), 1, "{fs:?}");
        assert_eq!(m1[0].line, 2);
        assert!(m1[0].message.contains("Kind"));
    }

    #[test]
    fn u1_flags_raw_ctor_and_inline_conversion() {
        let fs = one(
            "crates/htsim/src/x.rs",
            "pub struct SimTime(pub u64);\n\
             fn f(delay_ps: u64) -> SimTime { SimTime(delay_ps) }\n\
             fn g(rtt_ps: u64) -> f64 { rtt_ps as f64 / 1e6 }\n\
             fn h(n: u64) -> u64 { n * 1000 }\n",
        );
        let u1: Vec<_> = fs.iter().filter(|f| f.rule == "U1").collect();
        assert_eq!(u1.len(), 2, "{fs:?}");
        assert_eq!(u1[0].line, 2); // raw ctor
        assert_eq!(u1[1].line, 3); // inline / 1e6 next to rtt_ps
                                   // Line 4: `n * 1000` has no unit-bearing ident — not flagged.
    }

    #[test]
    fn f1_flags_unwrapped_and_comparator_partial_cmp() {
        let fs = one(
            "crates/bench/src/x.rs",
            "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }\n\
             fn g(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"cmp\")); }\n\
             fn ok(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n",
        );
        let f1: Vec<_> = fs.iter().filter(|f| f.rule == "F1").collect();
        assert_eq!(f1.len(), 2, "{fs:?}");
        assert_eq!((f1[0].line, f1[1].line), (1, 2));
    }
}
