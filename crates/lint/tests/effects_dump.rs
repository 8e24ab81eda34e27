//! Snapshot of the effect-inference dump (`pnet-tidy effects`) over the
//! fixture workspace. One S-expression per fn, sorted by (file, definition
//! order) — this pins the whole surface at once: the lattice points
//! (mut-recv / mut-args / interior / io / higher-order), transitive
//! touched-type propagation across exact path calls (`feed` inherits
//! `Queue` from `Queue::push_item`), and the precision cases that must NOT
//! widen (a call to a body-local closure is first-order; read-side
//! `borrow`/`len` stay pure).

use pnet_lint::effects_dump_root;
use std::path::Path;

#[test]
fn fixture_effect_dump_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws");
    let dump = effects_dump_root(&root).expect("fixture dump must succeed");
    let expected = "\
(fn crates/core/src/fx.rs:10 Queue::push_item (local mut-recv) (trans mut-recv) (touched Queue))
(fn crates/core/src/fx.rs:14 Queue::len pure)
(fn crates/core/src/fx.rs:19 drain_into (local mut-args) (trans mut-args) (touched Queue Vec))
(fn crates/core/src/fx.rs:25 tally (local interior) (trans interior) (touched))
(fn crates/core/src/fx.rs:30 apply_twice (local higher-order) (trans higher-order) (touched))
(fn crates/core/src/fx.rs:34 feed (local mut-args) (trans mut-args) (touched Queue))
(fn crates/core/src/fx.rs:38 local_closure_stays_first_order pure)
(fn crates/core/src/lib.rs:9 code pure)
(fn crates/core/src/lib.rs:16 code_waived pure)
(fn crates/flowsim/src/f1.rs:3 best pure)
(fn crates/flowsim/src/f1.rs:9 best_waived pure)
(fn crates/flowsim/src/lib.rs:3 converged pure)
(fn crates/flowsim/src/lib.rs:7 is_sentinel pure)
(fn crates/flowsim/src/lib.rs:13 noop pure)
(fn crates/flowsim/src/o1.rs:8 Par::map_indexed pure)
(fn crates/flowsim/src/o1.rs:13 skewed pure)
(fn crates/flowsim/src/o1.rs:18 skewed_waived pure)
(fn crates/flowsim/src/o1.rs:24 skewed_allowlisted pure)
(fn crates/flowsim/src/o1.rs:29 ordered pure)
(fn crates/htsim/src/lib.rs:3 first pure)
(fn crates/htsim/src/lib.rs:7 checked_first pure)
(fn crates/htsim/src/lib.rs:11 narrow pure)
(fn crates/htsim/src/lib.rs:15 boom pure)
(fn crates/htsim/src/telemetry.rs:4 export_now (local io) (trans io) (touched))
(fn crates/htsim/src/telemetry.rs:9 export_waived (local io) (trans io) (touched))
(fn crates/htsim/src/telemetry.rs:15 export_allowlisted (local io) (trans io) (touched))
(fn crates/htsim/src/telemetry.rs:20 pure_formatter pure)
(fn crates/htsim/src/units.rs:3 raw_ctor pure)
(fn crates/htsim/src/units.rs:7 fct_to_us pure)
(fn crates/htsim/src/units.rs:11 fct_to_us_waived pure)
(fn crates/htsim/src/y4.rs:4 naked pure)
(fn crates/htsim/src/y4.rs:8 documented pure)
(fn crates/htsim/src/y4.rs:13 waived pure)
(fn crates/routing/src/d2.rs:9 scoped pure)
(fn crates/routing/src/d2.rs:13 scoped_waived pure)
(fn crates/routing/src/d2.rs:18 named pure)
(fn crates/routing/src/d2.rs:22 named_waived pure)
(fn crates/routing/src/d2.rs:27 counters pure)
(fn crates/routing/src/d2.rs:36 tests_keep_their_scoped_threads pure)
(fn crates/routing/src/lib.rs:8 elapsed_ns pure)
(fn crates/routing/src/p1.rs:4 helper_unchecked pure)
(fn crates/routing/src/p1.rs:8 head pure)
(fn crates/routing/src/p1.rs:13 head_waived pure)
(fn crates/routing/src/p1.rs:17 helper_waived pure)
(fn crates/routing/src/p1.rs:22 quiet pure)
(fn crates/routing/src/q1.rs:4 ranked pure)
(fn crates/routing/src/q1.rs:9 ranked_waived pure)
(fn crates/routing/src/q1.rs:15 ranked_allowlisted pure)
(fn crates/routing/src/q1.rs:20 whole_element pure)
(fn crates/routing/src/q1.rs:25 tie_broken pure)
(fn crates/routing/src/s1.rs:8 Par::map_indexed pure)
(fn crates/routing/src/s1.rs:13 racy pure)
(fn crates/routing/src/s1.rs:21 racy_waived pure)
(fn crates/routing/src/s1.rs:30 racy_allowlisted pure)
(fn crates/routing/src/s1.rs:38 clean pure)
";
    assert_eq!(dump, expected);
}
