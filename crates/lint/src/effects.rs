//! Interprocedural effect inference over the [`crate::sem`] call graph, and
//! the four determinism-contract rules built on top of it.
//!
//! Every workspace function gets an *effect signature* — a point in a small
//! product lattice:
//!
//! * `mut-recv` / `mut-args` — the signature declares `&mut` access (to the
//!   receiver, or to one or more parameters);
//! * `interior` — the body touches interior mutability (`RefCell::borrow_mut`,
//!   `Mutex::lock`, atomic RMW/stores): mutation that a `&self` signature
//!   cannot disclose;
//! * `io` — the body performs IO or reads ambient state (`println!`,
//!   `std::fs`/`env`/`process`, `Instant::now`): either observable outside
//!   the simulation or a source of nondeterminism inside it;
//! * `higher-order` — the body calls through a function value (a closure or
//!   fn-pointer parameter), so its effects include *unknown code*;
//! * `touched` — the set of type names the function can reach mutably,
//!   transitively.
//!
//! Local effects are read off each body in one pass; transitive effects are
//! the least fixed point of propagation along call edges. The propagation is
//! deliberately asymmetric: the boolean flags flow across *every* resolved
//! edge (including the by-name method over-approximation), while `touched`
//! flows only across exactly-resolved path calls (`free_fn(..)`,
//! `Type::method(..)`). A by-name edge like `.push(..)` resolving to every
//! workspace `push` would otherwise smear `EventQueue` into the signature of
//! any function that pushes onto a local `Vec`; and soundness does not need
//! it — mutating caller-visible state through a method call requires `&mut`
//! access that already shows up in the caller's own signature, except via
//! interior mutability, which the flags do track.
//!
//! The rules:
//!
//! * **T1** — telemetry purity: every fn defined in a `telemetry.rs` module
//!   must be observation-pure w.r.t. simulator state — no `&mut` reach into
//!   [`SIM_STATE_TYPES`], no interior mutability, no IO, no unknown code.
//! * **S1** — parallel-safe closures: closures handed to
//!   `Parallelism::map_indexed`/`update_indexed` must not assign to, mutably
//!   borrow, or call mutating methods on captured places, must not use
//!   interior mutability, and must not call functions whose transitive
//!   effect is `interior`/`io`/`higher-order`.
//! * **O1** — ordered reductions: float `sum`/`product`/`fold` over a
//!   parallel-produced collection must reach the reduction through
//!   order-preserving adapters only (or use the `ordered_sum_f64`/
//!   `ordered_fold_f64` helpers).
//! * **Q1** — total sort keys: `sort_unstable*`/`select_nth_unstable*` in
//!   the sim/solver crates must sort whole elements, or carry a comparator
//!   that is provably total and duplicate-free (whole-element
//!   `cmp`/`total_cmp`, or an explicit `.then(..)` tie-break).
//!
//! T1 and S1 findings carry an `origin` at the underlying effect site, so a
//! single waiver at (say) the thread-local scratch `borrow_mut` quiets every
//! closure that reaches it — same mechanics as P1's panic origin.

use crate::ast::{self, Block, Expr, ExprKind, Pat, PatKind, Stmt};
use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::sem::{FnDef, SemFile, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Simulator-state types T1 refuses to see mutably reachable from telemetry.
pub(crate) const SIM_STATE_TYPES: &[&str] = &[
    "Simulator",
    "EventQueue",
    "Queue",
    "Connection",
    "Subflow",
    "PacketArena",
    "Network",
];

/// Method names that are interior-mutability writes. Read-side accessors
/// (`borrow`, atomic `load`) are deliberately absent: observation is not
/// mutation, and `Cell`/`RefCell` are `!Sync` anyway — the compiler already
/// keeps them out of parallel closures. What survives into threaded code is
/// atomics and locks, and those are exactly this list.
const INTERIOR_METHODS: &[&str] = &[
    "borrow_mut",
    "with_borrow_mut",
    "lock",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Macros that write to stdout/stderr.
const IO_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];

/// std module roots whose free fns do IO or read ambient state.
const IO_ROOTS: &[&str] = &["fs", "env", "process", "net"];

/// Prelude free fns a bare lowercase call can hit without being a call
/// through a function value.
const PRELUDE_FNS: &[&str] = &["drop"];

/// `&mut self` methods from std containers: calling one of these on a
/// *captured* place inside a parallel closure is a shared-state mutation
/// even though no `&mut` token appears at the call site.
const STD_MUTATORS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "extend",
    "append",
    "truncate",
    "resize",
    "retain",
    "drain",
    "dedup",
    "reverse",
    "rotate_left",
    "rotate_right",
    "fill",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "set",
    "replace",
    "take",
    "get_or_insert",
    "get_or_insert_with",
    "swap",
];

/// One function's effect signature (a lattice point; `Default` is ⊥ = pure).
#[derive(Default, Clone, PartialEq, Eq)]
pub(crate) struct Effect {
    pub(crate) mut_recv: bool,
    pub(crate) mut_args: bool,
    pub(crate) interior: bool,
    pub(crate) io: bool,
    pub(crate) higher_order: bool,
    /// Type names mutably reachable (own `&mut` signature ∪ path callees').
    pub(crate) touched: BTreeSet<String>,
}

impl Effect {
    fn is_pure(&self) -> bool {
        *self == Effect::default()
    }
}

/// Per-fn local facts: the effect read off the body alone, plus witness
/// tokens for the flags (span anchors for findings and waiver origins).
#[derive(Default)]
struct Local {
    eff: Effect,
    interior_tok: Option<usize>,
    io_tok: Option<usize>,
    higher_order_tok: Option<usize>,
}

impl Local {
    /// The first flag witness in this body, with a human-readable reason.
    fn witness(&self) -> Option<(usize, &'static str)> {
        [
            (self.interior_tok, "uses interior mutability"),
            (self.io_tok, "performs IO or reads ambient state"),
            (
                self.higher_order_tok,
                "calls through a function value (unknown code)",
            ),
        ]
        .into_iter()
        .filter_map(|(t, why)| t.map(|t| (t, why)))
        .min_by_key(|&(t, _)| t)
    }
}

pub(crate) struct Effects {
    locals: Vec<Local>,
    /// Transitive (fixed-point) effect per fn, indexed like `Workspace::fns`.
    pub(crate) trans: Vec<Effect>,
}

/// Infer local effects and run propagation to the least fixed point.
pub(crate) fn infer(ws: &Workspace, files: &[SemFile]) -> Effects {
    let locals: Vec<Local> = ws
        .fns
        .iter()
        .map(|d| local_effect(d, &ws.aliases[d.file], ws))
        .collect();

    let mut trans: Vec<Effect> = locals.iter().map(|l| l.eff.clone()).collect();
    // Flags and touched sets only ever grow, over a finite lattice — the
    // loop terminates. Workspace call graphs are shallow; this converges in
    // a handful of rounds.
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            let mut interior = trans[i].interior;
            let mut io = trans[i].io;
            let mut higher_order = trans[i].higher_order;
            let mut add_touched: Vec<String> = Vec::new();
            for &c in &ws.facts[i].callees {
                interior |= trans[c].interior;
                io |= trans[c].io;
                higher_order |= trans[c].higher_order;
            }
            for &c in &ws.facts[i].path_callees {
                for t in &trans[c].touched {
                    if !trans[i].touched.contains(t) {
                        add_touched.push(t.clone());
                    }
                }
            }
            let e = &mut trans[i];
            if interior != e.interior || io != e.io || higher_order != e.higher_order {
                e.interior = interior;
                e.io = io;
                e.higher_order = higher_order;
                changed = true;
            }
            if !add_touched.is_empty() {
                e.touched.extend(add_touched);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let _ = files;
    Effects { locals, trans }
}

/// Read one function's local effect off its signature and body.
fn local_effect(d: &FnDef, aliases: &BTreeMap<&str, &[String]>, ws: &Workspace) -> Local {
    let mut l = Local::default();

    // ---- signature: declared &mut access -------------------------------
    for p in d.params {
        if p.name.as_deref() == Some("self") {
            if p.ref_mut {
                l.eff.mut_recv = true;
                if let Some(ty) = d.self_ty {
                    l.eff.touched.insert(ty.to_string());
                }
            }
            continue;
        }
        let Some(ty) = &p.ty else { continue };
        if ty.idents.iter().any(|i| i == "mut") {
            l.eff.mut_args = true;
            for i in &ty.idents {
                if i.chars().next().is_some_and(|c| c.is_uppercase()) {
                    let name = if i == "Self" {
                        d.self_ty.unwrap_or(i).to_string()
                    } else {
                        i.clone()
                    };
                    l.eff.touched.insert(name);
                }
            }
        }
    }

    // ---- body: interior mutability, IO, higher-order calls -------------
    let Some(body) = d.body else { return l };
    // Names `let`-bound to closure literals at the top of the body
    // (`let row = |..| ..; row(..)`): calling one is NOT a call through
    // unknown code — the closure's body is part of this very walk, so its
    // effects are already accounted for. Nested-block closure lets stay
    // conservative (higher-order).
    let mut closure_lets: BTreeSet<String> = BTreeSet::new();
    for st in &body.stmts {
        if let ast::Stmt::Let {
            pat,
            init: Some(init),
            ..
        } = st
        {
            if matches!(init.kind, ExprKind::Closure { .. }) {
                pat_bindings(pat, &mut closure_lets);
            }
        }
    }
    ast::walk_block(body, &mut |e| match &e.kind {
        ExprKind::MethodCall { name, name_tok, .. }
            if INTERIOR_METHODS.contains(&name.as_str())
                && l.interior_tok.is_none_or(|t| *name_tok < t) =>
        {
            l.interior_tok = Some(*name_tok);
        }
        ExprKind::Macro { path, .. }
            if path.last().is_some_and(|s| IO_MACROS.contains(&s.as_str()))
                && l.io_tok.is_none_or(|t| e.lo < t) =>
        {
            l.io_tok = Some(e.lo);
        }
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) => {
                let expanded = expand_alias(segs, aliases);
                if path_is_io(&expanded) && l.io_tok.is_none_or(|t| callee.lo < t) {
                    l.io_tok = Some(callee.lo);
                }
                if path_is_higher_order(segs, &expanded, d, ws)
                    && !(segs.len() == 1 && closure_lets.contains(segs[0].as_str()))
                    && l.higher_order_tok.is_none_or(|t| callee.lo < t)
                {
                    l.higher_order_tok = Some(callee.lo);
                }
            }
            // `(self.hook)(..)`, `table[i](..)`, `make_fn()(..)` — calling a
            // value, not a name: unknown code by construction.
            ExprKind::Field { .. } | ExprKind::Index { .. } | ExprKind::MethodCall { .. }
                if l.higher_order_tok.is_none_or(|t| callee.lo < t) =>
            {
                l.higher_order_tok = Some(callee.lo);
            }
            _ => {}
        },
        _ => {}
    });
    l.eff.interior |= l.interior_tok.is_some();
    l.eff.io |= l.io_tok.is_some();
    l.eff.higher_order |= l.higher_order_tok.is_some();
    l
}

/// Expand a leading `use` alias, same policy as the call-graph resolver.
fn expand_alias<'s>(segs: &'s [String], aliases: &BTreeMap<&str, &'s [String]>) -> Vec<&'s str> {
    match aliases.get(segs[0].as_str()) {
        Some(full) if segs.len() == 1 || full.last() == Some(&segs[0]) => full
            .iter()
            .map(|s| s.as_str())
            .chain(segs.iter().skip(1).map(|s| s.as_str()))
            .collect(),
        _ => segs.iter().map(|s| s.as_str()).collect(),
    }
}

/// Does this (alias-expanded) call path perform IO / read ambient state?
fn path_is_io(expanded: &[&str]) -> bool {
    if expanded.is_empty() {
        return false;
    }
    let root = if matches!(expanded[0], "std" | "core" | "alloc") {
        expanded.get(1).copied().unwrap_or("")
    } else {
        expanded[0]
    };
    if IO_ROOTS.contains(&root) {
        return true;
    }
    if expanded
        .iter()
        .any(|s| matches!(*s, "stdout" | "stdin" | "stderr"))
    {
        return true;
    }
    // Wall-clock reads are ambient nondeterminism, the worst kind for a
    // reproducible simulator.
    expanded.len() >= 2
        && matches!(expanded[expanded.len() - 2], "Instant" | "SystemTime")
        && expanded[expanded.len() - 1] == "now"
}

/// Is a bare lowercase call unresolvable as a workspace or prelude fn — i.e.
/// (conservatively) a call through a closure / fn-pointer parameter or local?
fn path_is_higher_order(segs: &[String], expanded: &[&str], d: &FnDef, ws: &Workspace) -> bool {
    if segs.len() != 1 || expanded.len() != 1 {
        return false; // qualified paths name real items
    }
    let name = segs[0].as_str();
    if !name.chars().next().is_some_and(|c| c.is_lowercase()) {
        return false; // tuple-struct / variant constructors are pure
    }
    if PRELUDE_FNS.contains(&name) {
        return false;
    }
    !ws.free_fns.contains_key(&(d.crate_key, name))
}

// ---------------------------------------------------------------------------
// S-expression dump (snapshot surface + `pnet-tidy effects`)
// ---------------------------------------------------------------------------

/// Dump every function's effect signature, one S-expression per line, sorted
/// by (file, definition order). `pure` fns print compactly; the rest show the
/// local effect, the transitive effect, and the touched-type set.
pub(crate) fn dump(ws: &Workspace, files: &[SemFile], fx: &Effects) -> String {
    let mut order: Vec<usize> = (0..ws.fns.len()).collect();
    order.sort_by_key(|&i| (files[ws.fns[i].file].rel_path, ws.fns[i].name_tok));
    let mut s = String::new();
    for i in order {
        let d = &ws.fns[i];
        let f = &files[d.file];
        let line = f.tokens.get(d.name_tok).map(|t| t.line).unwrap_or_default();
        s.push_str(&format!("(fn {}:{} {}", f.rel_path, line, d.qual_name()));
        if fx.trans[i].is_pure() {
            s.push_str(" pure)\n");
            continue;
        }
        s.push_str(&format!(
            " (local{}) (trans{}) (touched{}))\n",
            effect_tags(&fx.locals[i].eff),
            effect_tags(&fx.trans[i]),
            fx.trans[i]
                .touched
                .iter()
                .map(|t| format!(" {t}"))
                .collect::<String>(),
        ));
    }
    s
}

fn effect_tags(e: &Effect) -> String {
    let mut s = String::new();
    for (on, tag) in [
        (e.mut_recv, "mut-recv"),
        (e.mut_args, "mut-args"),
        (e.interior, "interior"),
        (e.io, "io"),
        (e.higher_order, "higher-order"),
    ] {
        if on {
            s.push(' ');
            s.push_str(tag);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Run T1/S1/O1/Q1 over the workspace. Called from
/// [`crate::sem::check_workspace`] so all rules share one symbol table.
pub(crate) fn check(ws: &Workspace, files: &[SemFile]) -> Vec<Finding> {
    let fx = infer(ws, files);
    // Names of workspace methods taking `&mut self` — by-name evidence that
    // `.name(..)` on a captured place mutates it.
    let ws_mutators: BTreeSet<&str> = ws
        .fns
        .iter()
        .filter(|d| d.self_ty.is_some() && d.params.first().is_some_and(|p| p.ref_mut))
        .map(|d| d.name)
        .collect();
    let mut out = Vec::new();
    rule_t1(ws, files, &fx, &mut out);
    for (i, d) in ws.fns.iter().enumerate() {
        let f = &files[d.file];
        let Some(body) = d.body else { continue };
        if d.in_test {
            continue;
        }
        rule_s1(ws, files, &fx, &ws_mutators, i, body, &mut out);
        if o1_scope(f.rel_path) {
            rule_o1(f, body, &mut out);
        }
        if q1_scope(f.rel_path) {
            rule_q1(f, body, &mut out);
        }
    }
    out
}

/// Telemetry modules: the T1 root set.
fn t1_scope(p: &str) -> bool {
    p.contains("/src/") && (p.ends_with("/telemetry.rs") || p.contains("/telemetry/"))
}

/// Crates whose float reductions O1 audits.
fn o1_scope(p: &str) -> bool {
    [
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/htsim/src/",
        "crates/core/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Sim/solver crates whose unstable sorts Q1 audits.
fn q1_scope(p: &str) -> bool {
    [
        "crates/routing/src/",
        "crates/flowsim/src/",
        "crates/htsim/src/",
        "crates/topology/src/",
        "crates/core/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

// ---- T1: telemetry observation-purity -------------------------------------

fn rule_t1(ws: &Workspace, files: &[SemFile], fx: &Effects, out: &mut Vec<Finding>) {
    for (i, d) in ws.fns.iter().enumerate() {
        let f = &files[d.file];
        if !t1_scope(f.rel_path) || d.in_test || d.body.is_none() {
            continue;
        }
        // Purity check on the *transitive* effect; the chain below recovers
        // a concrete witness for the message and the waiver origin.
        let touched_deny: Vec<&String> = fx.trans[i]
            .touched
            .iter()
            .filter(|t| SIM_STATE_TYPES.contains(&t.as_str()))
            .collect();
        let flags = &fx.trans[i];
        if touched_deny.is_empty() && !flags.interior && !flags.io && !flags.higher_order {
            continue;
        }
        let (chain, witness_fn, witness_tok, reason) = match t1_witness(ws, fx, i) {
            Some(w) => w,
            // Transitive violation with no local witness can only be a
            // denied type reached through the signature lattice; anchor on
            // the fn itself.
            None => {
                let ty = touched_deny
                    .first()
                    .map(|s| s.as_str())
                    .unwrap_or("sim state");
                (Vec::new(), i, d.name_tok, format!("reaches `{ty}` mutably"))
            }
        };
        let wf = &ws.fns[witness_fn];
        let wfile = &files[wf.file];
        let wline = wfile.tokens[witness_tok].line;
        let via = if chain.is_empty() {
            String::new()
        } else {
            format!(
                "via {} ",
                chain
                    .iter()
                    .map(|&c| ws.fns[c].qual_name())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            )
        };
        let mut finding = f.finding(
            "T1",
            d.name_tok,
            format!(
                "telemetry fn `{}` is not observation-pure: {via}{reason} ({}:{wline}); \
                 telemetry must only read simulator state — or waive T1 at the effect site",
                d.qual_name(),
                wfile.rel_path,
            ),
        );
        finding.origin = Some((wfile.rel_path.to_string(), wline));
        out.push(finding);
    }
}

/// BFS from fn `start` (itself first) to the nearest fn with a local effect
/// witness — a flag site, or a denied type in its *own* `&mut` signature.
#[allow(clippy::type_complexity)]
fn t1_witness(
    ws: &Workspace,
    fx: &Effects,
    start: usize,
) -> Option<(Vec<usize>, usize, usize, String)> {
    let local_hit = |j: usize| -> Option<(usize, String)> {
        let l = &fx.locals[j];
        if let Some(ty) = l
            .eff
            .touched
            .iter()
            .find(|t| SIM_STATE_TYPES.contains(&t.as_str()))
        {
            return Some((ws.fns[j].name_tok, format!("takes `&mut {ty}`")));
        }
        l.witness().map(|(t, why)| (t, why.to_string()))
    };
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::from([start]);
    let mut seen: BTreeSet<usize> = BTreeSet::from([start]);
    while let Some(cur) = queue.pop_front() {
        if let Some((tok, reason)) = local_hit(cur) {
            let mut chain = Vec::new();
            let mut at = cur;
            while at != start {
                chain.push(at);
                at = pred[&at];
            }
            chain.reverse();
            return Some((chain, cur, tok, reason));
        }
        for &next in &ws.facts[cur].callees {
            if seen.insert(next) {
                pred.insert(next, cur);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---- S1: parallel-safe closures -------------------------------------------

/// Closure-taking combinators whose closures run under `Parallelism`.
fn is_parallel_combinator(name: &str) -> bool {
    matches!(name, "map_indexed" | "update_indexed")
}

#[allow(clippy::too_many_arguments)]
fn rule_s1(
    ws: &Workspace,
    files: &[SemFile],
    fx: &Effects,
    ws_mutators: &BTreeSet<&str>,
    fn_idx: usize,
    body: &Block,
    out: &mut Vec<Finding>,
) {
    let d = &ws.fns[fn_idx];
    let f = &files[d.file];
    ast::walk_block(body, &mut |e| {
        let ExprKind::MethodCall {
            name,
            name_tok,
            args,
            ..
        } = &e.kind
        else {
            return;
        };
        if !is_parallel_combinator(name) || f.in_test.get(*name_tok) == Some(&true) {
            return;
        }
        for a in args {
            if let ExprKind::Closure { params, body } = &a.kind {
                check_parallel_closure(ws, files, fx, ws_mutators, d, name, params, body, out);
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn check_parallel_closure(
    ws: &Workspace,
    files: &[SemFile],
    fx: &Effects,
    ws_mutators: &BTreeSet<&str>,
    d: &FnDef,
    comb: &str,
    params: &[Pat],
    body: &Expr,
    out: &mut Vec<Finding>,
) {
    let f = &files[d.file];
    // Everything bound *inside* the closure; any other place root is a
    // capture from the enclosing scope.
    let mut locals: BTreeSet<String> = BTreeSet::new();
    for p in params {
        pat_bindings(p, &mut locals);
    }
    collect_bindings(body, &mut locals);

    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut flag =
        |out: &mut Vec<Finding>, tok: usize, detail: String, origin: Option<(String, u32)>| {
            if !flagged.insert(tok) {
                return;
            }
            let mut finding = f.finding(
                "S1",
                tok,
                format!(
                    "closure passed to `{comb}` is not parallel-safe: {detail}; parallel \
                 closures must be pure over their index — move shared state behind a \
                 per-thread scratch, or waive S1 at the effect origin"
                ),
            );
            finding.origin = origin;
            out.push(finding);
        };

    ast::walk_expr(body, &mut |x| match &x.kind {
        ExprKind::Binary {
            op, op_tok, lhs, ..
        } if is_assign_op(op) => {
            if let Some(root) = place_root(lhs) {
                if !locals.contains(root) {
                    flag(out, *op_tok, format!("assigns to captured `{root}`"), None);
                }
            }
        }
        ExprKind::Ref { is_mut: true, expr } => {
            if let Some(root) = place_root(expr) {
                if !locals.contains(root) {
                    flag(
                        out,
                        expr.lo,
                        format!("takes `&mut` of captured `{root}`"),
                        None,
                    );
                }
            }
        }
        ExprKind::MethodCall {
            recv,
            name,
            name_tok,
            ..
        } => {
            if INTERIOR_METHODS.contains(&name.as_str()) {
                flag(
                    out,
                    *name_tok,
                    format!("uses interior mutability (`.{name}(..)`)"),
                    None,
                );
            } else if STD_MUTATORS.contains(&name.as_str()) || ws_mutators.contains(name.as_str()) {
                if let Some(root) = place_root(recv) {
                    if !locals.contains(root) {
                        flag(
                            out,
                            *name_tok,
                            format!("calls mutating `.{name}(..)` on captured `{root}`"),
                            None,
                        );
                    }
                }
            } else if let Some(cands) = ws.methods.get(name.as_str()) {
                if let Some((j, tok, why)) = effectful_callee(ws, fx, cands) {
                    let wf = &ws.fns[j];
                    let wfile = &files[wf.file];
                    let wline = wfile.tokens[tok].line;
                    flag(
                        out,
                        *name_tok,
                        format!(
                            "calls `{}` which transitively {why} ({}:{wline})",
                            wf.qual_name(),
                            wfile.rel_path
                        ),
                        Some((wfile.rel_path.to_string(), wline)),
                    );
                }
            }
        }
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                let mut cands: BTreeSet<usize> = BTreeSet::new();
                ws.resolve_path(segs, d, &mut cands);
                let cands: Vec<usize> = cands.into_iter().collect();
                if let Some((j, tok, why)) = effectful_callee(ws, fx, &cands) {
                    let wf = &ws.fns[j];
                    let wfile = &files[wf.file];
                    let wline = wfile.tokens[tok].line;
                    flag(
                        out,
                        callee.lo,
                        format!(
                            "calls `{}` which transitively {why} ({}:{wline})",
                            wf.qual_name(),
                            wfile.rel_path
                        ),
                        Some((wfile.rel_path.to_string(), wline)),
                    );
                } else if cands.is_empty() {
                    // A call to a *captured* callable is unknown code.
                    let expanded = expand_alias(segs, &ws.aliases[d.file]);
                    if segs.len() == 1
                        && expanded.len() == 1
                        && segs[0].chars().next().is_some_and(|c| c.is_lowercase())
                        && !PRELUDE_FNS.contains(&segs[0].as_str())
                        && !locals.contains(segs[0].as_str())
                        && !ws.free_fns.contains_key(&(d.crate_key, segs[0].as_str()))
                    {
                        flag(
                            out,
                            callee.lo,
                            format!("calls captured callable `{}` (unknown code)", segs[0]),
                            None,
                        );
                    }
                }
            }
        }
        _ => {}
    });
}

/// If any candidate's transitive effect has a flag set, BFS to the nearest
/// local witness so the finding can carry a concrete origin.
fn effectful_callee(
    ws: &Workspace,
    fx: &Effects,
    cands: &[usize],
) -> Option<(usize, usize, &'static str)> {
    if !cands.iter().any(|&c| {
        let t = &fx.trans[c];
        t.interior || t.io || t.higher_order
    }) {
        return None;
    }
    let mut queue: VecDeque<usize> = cands.iter().copied().collect();
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(cur) = queue.pop_front() {
        if let Some((tok, why)) = fx.locals[cur].witness() {
            return Some((cur, tok, why));
        }
        for &next in &ws.facts[cur].callees {
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    None
}

fn is_assign_op(op: &str) -> bool {
    matches!(
        op,
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
    )
}

/// The base identifier of a place expression: `self.buf[i].x` → `self`.
fn place_root(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(segs) => segs.first().map(|s| s.as_str()),
        ExprKind::Field { recv, .. }
        | ExprKind::Index { recv, .. }
        | ExprKind::MethodCall { recv, .. } => place_root(recv),
        ExprKind::Unary { expr, .. }
        | ExprKind::Ref { expr, .. }
        | ExprKind::Try { expr }
        | ExprKind::Cast { expr, .. } => place_root(expr),
        _ => None,
    }
}

fn pat_bindings(p: &Pat, out: &mut BTreeSet<String>) {
    ast::walk_pat(p, &mut |q| {
        if let PatKind::Binding(name, _) = &q.kind {
            out.insert(name.clone());
        }
    });
}

/// All names bound anywhere inside an expression: `let`s in every block
/// position, `for`/`if let`/`match` patterns, nested closure params.
fn collect_bindings(e: &Expr, out: &mut BTreeSet<String>) {
    let lets_of = |b: &Block, out: &mut BTreeSet<String>| {
        for s in &b.stmts {
            if let Stmt::Let { pat, .. } = s {
                pat_bindings(pat, out);
            }
        }
    };
    ast::walk_expr(e, &mut |x| match &x.kind {
        ExprKind::Block(b) => lets_of(b, out),
        ExprKind::For { pat, body, .. } => {
            pat_bindings(pat, out);
            lets_of(body, out);
        }
        ExprKind::While { body, .. } | ExprKind::Loop { body } => lets_of(body, out),
        ExprKind::If { then, .. } => lets_of(then, out),
        ExprKind::CondLet { pat, .. } => pat_bindings(pat, out),
        ExprKind::Match { arms, .. } => {
            for a in arms {
                pat_bindings(&a.pat, out);
            }
        }
        ExprKind::Closure { params, .. } => {
            for p in params {
                pat_bindings(p, out);
            }
        }
        _ => {}
    });
    // The closure body itself may be a bare block whose lets the walk above
    // already caught via ExprKind::Block — nothing more to do.
}

// ---- O1: ordered float reductions -----------------------------------------

/// Iterator adapters that provably preserve element order (index order in,
/// index order out — possibly a subsequence).
const ORDER_PRESERVING: &[&str] = &[
    "iter",
    "into_iter",
    "map",
    "enumerate",
    "zip",
    "copied",
    "cloned",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "take",
    "skip",
    "take_while",
    "skip_while",
    "step_by",
    "chain",
    "by_ref",
    "as_slice",
    "as_ref",
    "windows",
    "chunks",
    "inspect",
    "peekable",
    "fuse",
];

fn is_float_reduction(name: &str) -> bool {
    matches!(name, "sum" | "product" | "fold")
}

fn rule_o1(f: &SemFile, body: &Block, out: &mut Vec<Finding>) {
    // Names bound to the result of a `map_indexed` call anywhere in this fn.
    let mut parallel: BTreeSet<String> = BTreeSet::new();
    collect_parallel_lets(body, &mut parallel);

    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    ast::walk_block(body, &mut |e| {
        let ExprKind::MethodCall {
            recv,
            name,
            name_tok,
            ..
        } = &e.kind
        else {
            return;
        };
        if !is_float_reduction(name) || f.in_test.get(*name_tok) == Some(&true) {
            return;
        }
        // Walk the receiver chain down to its root, recording each adapter.
        let mut chain: Vec<(&str, usize)> = Vec::new();
        let mut cur = recv.as_ref();
        loop {
            match &cur.kind {
                ExprKind::MethodCall {
                    recv,
                    name,
                    name_tok,
                    ..
                } => {
                    chain.push((name.as_str(), *name_tok));
                    cur = recv;
                }
                ExprKind::Field { recv, .. } | ExprKind::Index { recv, .. } => cur = recv,
                ExprKind::Ref { expr, .. }
                | ExprKind::Try { expr }
                | ExprKind::Unary { expr, .. }
                | ExprKind::Cast { expr, .. } => cur = expr,
                _ => break,
            }
        }
        let rooted_parallel = match &cur.kind {
            ExprKind::Path(segs) => segs.len() == 1 && parallel.contains(&segs[0]),
            _ => false,
        } || chain.iter().any(|(n, _)| is_parallel_combinator(n));
        if !rooted_parallel {
            return;
        }
        // Float evidence anywhere in the reduction expression's span
        // (`0.0f64` seeds, `sum::<f64>()` turbofish, `as f64` casts).
        let hi = e.hi.min(f.tokens.len().saturating_sub(1));
        let floaty = f.tokens[e.lo..=hi]
            .iter()
            .any(|t| t.kind == TokenKind::Float || t.text == "f64" || t.text == "f32");
        if !floaty {
            return;
        }
        let offender = chain
            .iter()
            .rev()
            .find(|(n, _)| !ORDER_PRESERVING.contains(n) && !is_parallel_combinator(n));
        if let Some(&(adapter, tok)) = offender {
            if flagged.insert(tok) {
                out.push(f.finding(
                    "O1",
                    tok,
                    format!(
                        "float `{name}` over a parallel-produced collection goes through \
                         `.{adapter}(..)`, which is not provably index-ordered; consume in \
                         index order or use ordered_sum_f64/ordered_fold_f64 \
                         (pnet_routing::exec)"
                    ),
                ));
            }
        }
    });
}

/// Record `let` bindings whose initializer contains a `map_indexed` call —
/// in every nested block position.
fn collect_parallel_lets(body: &Block, out: &mut BTreeSet<String>) {
    let grab = |b: &Block, out: &mut BTreeSet<String>| {
        for s in &b.stmts {
            let Stmt::Let {
                pat,
                init: Some(init),
                ..
            } = s
            else {
                continue;
            };
            let mut has_par = false;
            ast::walk_expr(init, &mut |x| {
                if let ExprKind::MethodCall { name, .. } = &x.kind {
                    has_par |= is_parallel_combinator(name);
                }
            });
            if has_par {
                pat_bindings(pat, out);
            }
        }
    };
    grab(body, out);
    ast::walk_block(body, &mut |e| match &e.kind {
        ExprKind::Block(b) => grab(b, out),
        ExprKind::For { body, .. } | ExprKind::While { body, .. } | ExprKind::Loop { body } => {
            grab(body, out)
        }
        ExprKind::If { then, .. } => grab(then, out),
        _ => {}
    });
}

// ---- Q1: total, duplicate-free unstable-sort keys -------------------------

fn rule_q1(f: &SemFile, body: &Block, out: &mut Vec<Finding>) {
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    ast::walk_block(body, &mut |e| {
        let ExprKind::MethodCall {
            name,
            name_tok,
            args,
            ..
        } = &e.kind
        else {
            return;
        };
        if f.in_test.get(*name_tok) == Some(&true) {
            return;
        }
        let verdict = match name.as_str() {
            // Whole-element `Ord` sorts: equal elements are structurally
            // identical, so instability cannot reorder observably.
            "sort_unstable" | "select_nth_unstable" => return,
            "sort_unstable_by" | "select_nth_unstable_by" => {
                if args.last().is_some_and(comparator_is_total) {
                    return;
                }
                "comparator is not provably total and duplicate-free — compare whole \
                 elements with `cmp`/`total_cmp`, or add an explicit `.then(..)` tie-break"
            }
            "sort_unstable_by_key" | "select_nth_unstable_by_key" => {
                "key projection cannot be proven duplicate-free: equal keys leave element \
                 order unspecified under an unstable sort — sort whole elements, add a \
                 tie-break via sort_unstable_by, or waive Q1 with a uniqueness proof"
            }
            _ => return,
        };
        if flagged.insert(*name_tok) {
            out.push(f.finding("Q1", *name_tok, format!("`{name}`: {verdict}")));
        }
    });
}

/// A comparator we can prove total and duplicate-free: a fn path ending in
/// `cmp`/`total_cmp`, or a two-param closure whose body is a whole-element
/// `a.cmp(&b)` / `b.total_cmp(&a)` (optionally `.reverse()`d), or any
/// comparison carrying an explicit `.then(..)`/`.then_with(..)` tie-break.
fn comparator_is_total(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().is_some_and(|s| s == "cmp" || s == "total_cmp"),
        ExprKind::Closure { params, body } => {
            let mut names: Vec<&str> = Vec::new();
            for p in params {
                match &p.kind {
                    PatKind::Binding(n, None) => names.push(n.as_str()),
                    PatKind::Ref(inner) => {
                        if let PatKind::Binding(n, None) = &inner.kind {
                            names.push(n.as_str());
                        } else {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
            if names.len() != 2 {
                return false;
            }
            let mut b = body.as_ref();
            // `.reverse()` preserves totality; strip it.
            while let ExprKind::MethodCall {
                recv, name, args, ..
            } = &b.kind
            {
                if name == "reverse" && args.is_empty() {
                    b = recv;
                } else {
                    break;
                }
            }
            match &b.kind {
                // An explicit tie-break chain: the author has addressed
                // duplicate keys; take their word for it.
                ExprKind::MethodCall { name, .. } if name == "then" || name == "then_with" => true,
                ExprKind::MethodCall {
                    recv, name, args, ..
                } if name == "cmp" || name == "total_cmp" => {
                    if args.len() != 1 {
                        return false;
                    }
                    let (Some(l), Some(r)) = (bare_ident(recv), bare_ident(&args[0])) else {
                        return false;
                    };
                    (l == names[0] && r == names[1]) || (l == names[1] && r == names[0])
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Strip `&`/`*`/parens off a place and return the bare identifier, if any.
fn bare_ident(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].as_str()),
        ExprKind::Ref { expr, .. } | ExprKind::Unary { expr, .. } => bare_ident(expr),
        _ => None,
    }
}
