//! The stress harness must *catch* a planted bug, not just pass clean
//! sweeps — otherwise a green sweep proves nothing about the checks.
//!
//! The planted fault omits the contribution drain guard
//! (`Step::ContribDrained`): a slot may then refill a buffer side
//! whose previous use its consumer has not read yet, the overwrite the
//! per-side contribution flags exist to prevent. Seed 0x00 is the
//! first seed of the grammar-v2 sweep order whose schedule exposes it
//! (the `explore` binary's `--inject drain-skip` mode detects it there
//! too, well inside its 128-seed CI budget); this test replays that
//! seed with the fault in and asserts the harness reports a failure
//! *with a usable reproducer*, then replays it with the fault out and
//! asserts clean.
//!
//! This file stays a single `#[test]` on purpose: the injection
//! switch is process-global, so no other test may share the binary
//! (the dispatcher-side premature-ack fault lives in
//! `tests/fault_injection_amrace.rs` for the same reason).

use srm_cluster::{explore_one, ExploreOpts};

#[test]
fn planted_drain_skip_is_detected_and_reported() {
    let opts = ExploreOpts::default();

    srm::set_skip_contrib_drain(true);
    let faulty = explore_one(0x00, &opts);
    srm::set_skip_contrib_drain(false);

    let failure = faulty.expect_err("planted drain-guard omission went undetected on seed 0x00");
    assert_eq!(failure.seed, 0x00);
    let text = failure.to_string();
    assert!(
        text.contains("--start-seed 0x0000000000000000"),
        "failure report lacks the exact reproducer seed:\n{text}"
    );
    assert!(
        text.contains("cargo run --release -p srm-bench --bin explore"),
        "failure report lacks the reproducer command:\n{text}"
    );

    // Same seed, fault removed: the harness is clean again, so the
    // detection above really was the planted bug.
    if let Err(f) = explore_one(0x00, &opts) {
        panic!("seed 0x00 still fails with the fault removed:\n{f}");
    }
}
