//! Detector check for the dispatcher-side planted fault: the RMA
//! dispatcher acknowledges a message's completion counter *before* a
//! drawn AM-handler stall lands the payload (a premature ack). A
//! consumer parked on that counter wakes at the pre-stall time, and
//! because the kernel schedules min-time-first it runs *ahead* of the
//! still-stalled dispatcher and reads stale bytes.
//!
//! The fault only fires where a handler stall is actually drawn, so it
//! needs `am_stall_permille > 0` — the grammar-v2 perturbation space
//! draws it for most seeds. Seed 0x01 is the first of the default
//! sweep order that exposes it (the `explore` binary's
//! `--inject am-stall-race` mode detects it there too, well inside its
//! 128-seed CI budget).
//!
//! This file stays a single `#[test]` on purpose: the injection switch
//! is process-global, so no other test may share the binary (the
//! shared-memory drain-skip fault lives in `tests/fault_injection.rs` for
//! the same reason).

use srm_cluster::{explore_one, ExploreOpts};

#[test]
fn planted_am_stall_race_is_detected_and_reported() {
    let opts = ExploreOpts::default();

    rma::set_stall_counter_race(true);
    let faulty = explore_one(0x01, &opts);
    rma::set_stall_counter_race(false);

    let failure = faulty.expect_err("planted premature counter ack went undetected on seed 0x01");
    assert_eq!(failure.seed, 0x01);
    let text = failure.to_string();
    assert!(
        text.contains("--start-seed 0x0000000000000001"),
        "failure report lacks the exact reproducer seed:\n{text}"
    );
    assert!(
        text.contains("cargo run --release -p srm-bench --bin explore"),
        "failure report lacks the reproducer command:\n{text}"
    );

    // Same seed, fault removed: the harness is clean again, so the
    // detection above really was the planted bug.
    if let Err(f) = explore_one(0x01, &opts) {
        panic!("seed 0x01 still fails with the fault removed:\n{f}");
    }
}
