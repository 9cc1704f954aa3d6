//! Regression pins for the two real bugs the schedule-exploration
//! harness found, replayed under perturbation sweeps.
//!
//! 1. **Cross-collective Done-skip** (deterministic seeds 0x8c/0xfc): a
//!    gather follows another contribution-channel collective; a relay
//!    master could consume contribution slots out of order across the
//!    call boundary and overwrite a slot whose previous payload was not
//!    yet drained. First fixed by order guards on one cumulative DONE
//!    flag; now ruled out by construction, because each buffer side
//!    has its own DONE flag. The `gather → reduce_scatter` program here
//!    is the minimal reproducer.
//!
//! 2. **Pair writer-handoff race** (perturbed seed 0x65): landing-pair
//!    publish was one costed flag-set per reader, so under compute
//!    stalls a *new* writer could pass `wait_free` (all flags zero is
//!    ambiguous between "released" and "not yet published") while the
//!    previous writer was stalled mid-publish, overwrite the side, and
//!    feed readers the wrong cell. Fixed by the monotone use-counter
//!    protocol in `shmem::BufPair` (`ready`/`released` counter banks);
//!    the alltoallv stall+straggler sweep here replays the trigger.
//!
//! 3. **Landing-pair reuse across collectives** (seed 0x2a1 on the
//!    forced direct route): a broadcast root's put landed, under a
//!    never-used initial credit, in a landing side the child node's
//!    master was still using to distribute a reduce_scatter's pieces.
//!    Fixed by moving every intra-node distribution to the SMP pair, so
//!    only broadcast puts write the landing pair.

use simnet::{Perturb, SimTime};
use srm::SegmentRoute;
use srm_cluster::{explore_one, run_scenario, AliasMode, ExploreOpts, Op, ProgStep, Scenario};

fn step(op: Op, seg: usize, root: usize, nonblocking: bool) -> ProgStep {
    ProgStep {
        op,
        comm: 0,
        seg,
        root,
        nonblocking,
        alias: AliasMode::None,
    }
}

/// Run a hand-built world-only program on `nodes`x`tpn` under `perturb`
/// and panic with the harness's reproducer on any failure.
fn run_pinned(nodes: usize, tpn: usize, steps: Vec<ProgStep>, perturb: Perturb) {
    let scenario = Scenario {
        nodes,
        tpn,
        perturb,
        groups: Vec::new(),
        splits: Vec::new(),
        steps,
    };
    let opts = ExploreOpts {
        nodes: Some(nodes),
        tpn: Some(tpn),
        ..ExploreOpts::default()
    };
    if let Err(f) = run_scenario(perturb.seed, scenario, &opts) {
        panic!("pinned scenario failed:\n{f}");
    }
}

/// The catch-up shape from the original report: gather → scatter →
/// allgather multi-node, swept over perturbation seeds with a rotating
/// straggler and rotating roots.
#[test]
fn gather_scatter_allgather_under_perturbation() {
    for seed in 0..10u64 {
        let n = 8; // 4x2
        let root = (seed as usize * 3) % n;
        let perturb =
            Perturb::standard(seed).with_straggler(seed as usize % n, SimTime::from_us(50));
        run_pinned(
            4,
            2,
            vec![
                step(Op::Gather, 256, root, false),
                step(Op::Scatter, 256, (root + 5) % n, seed % 2 == 0),
                step(Op::Allgather, 256, 0, false),
            ],
            perturb,
        );
    }
}

/// Minimal Done-skip reproducer: a gather hands its contribution
/// channel straight to a reduce_scatter. Before the consumed-in-order
/// guards this overwrote an undrained slot on some schedules.
#[test]
fn done_skip_gather_then_reduce_scatter() {
    for seed in 0..6u64 {
        let perturb = Perturb::standard(0x8c00 + seed);
        run_pinned(
            3,
            2,
            vec![
                step(Op::Gather, 64, seed as usize % 6, false),
                step(Op::ReduceScatter, 64, 0, false),
            ],
            perturb,
        );
    }
    // The two deterministic full-scenario seeds that first exposed it.
    let opts = ExploreOpts::default();
    for seed in [0x8c, 0xfc] {
        if let Err(f) = explore_one(seed, &opts) {
            panic!("historic Done-skip seed regressed:\n{f}");
        }
    }
}

/// Pair writer-handoff trigger: rotating-writer alltoallv cells under
/// heavy compute stalls plus a straggler — the exact mechanism of seed
/// 0x65. Stall-heavy because only stall+straggler widened the publish
/// window enough for a reader to lap a stalled publisher.
#[test]
fn pair_handoff_alltoallv_stall_straggler() {
    for seed in 0..8u64 {
        let perturb = Perturb {
            stall_permille: 45,
            stall_max: SimTime::from_us(6),
            ..Perturb::standard(0x6500 + seed)
        }
        .with_straggler(seed as usize % 8, SimTime::from_us(55));
        run_pinned(
            4,
            2,
            vec![
                step(Op::Alltoallv, 1024, 0, false),
                step(Op::Bcast, 4096, (seed as usize) % 8, true),
                step(Op::Alltoallv, 256, 0, false),
            ],
            perturb,
        );
    }
    // The exact seed whose derived scenario exposed the handoff race.
    if let Err(f) = explore_one(0x65, &ExploreOpts::default()) {
        panic!("historic pair-handoff seed regressed:\n{f}");
    }
}

/// Landing-pair reuse: the derived scenario of seed 0x2a1 on the forced
/// direct route runs a reduce_scatter, then a pipelined broadcast whose
/// puts must not land in a side still holding the reduce_scatter's
/// distribution.
#[test]
fn landing_pair_reduce_scatter_then_bcast_direct() {
    let opts = ExploreOpts {
        route: Some(SegmentRoute::Direct),
        ..ExploreOpts::default()
    };
    if let Err(f) = explore_one(0x2a1, &opts) {
        panic!("landing-pair reuse seed regressed:\n{f}");
    }
}
