//! Structural checks on compiled plans, read straight off the step
//! lists: only broadcast legs write the landing pair, and a
//! contribution-flag step names only a slot whose buffer the same plan
//! moves data through.

use simnet::{MachineConfig, Sim, Topology};
use srm::plan::{BufRef, FlagRef, PairSel, SeqBase};
use srm::{Plan, PlanShape, SrmTuning, SrmWorld, Step};

/// `(slot, plan)` of every rank of a `nodes`×`tpn` world.
fn plans(nodes: usize, tpn: usize, shape: &PlanShape) -> Vec<(usize, Plan)> {
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let topo = Topology::new(nodes, tpn);
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    (0..topo.nprocs())
        .map(|r| {
            (
                r % tpn,
                world.comm(r).build_plan(&world.comm(r).key(shape.clone())),
            )
        })
        .collect()
}

fn touches_landing(step: &Step) -> bool {
    let landing = |b: BufRef| matches!(b, BufRef::Landing { .. });
    match *step {
        Step::ShmCopy { src, dst, .. } | Step::RmaPut { src, dst, .. } => {
            landing(src) || landing(dst)
        }
        Step::PairWaitFree { pair, .. }
        | Step::PairPublish { pair, .. }
        | Step::PairWaitPublished { pair, .. }
        | Step::PairRelease { pair, .. }
        | Step::PairWaitDrained { pair, .. } => matches!(pair, PairSel::Landing),
        Step::Advance { base, .. } => base == SeqBase::Landing,
        _ => false,
    }
}

/// Slots named by contribution-flag steps, and slots whose buffer the
/// plan writes or reads.
fn contrib_slots(plan: &Plan, my: usize) -> (Vec<usize>, Vec<usize>) {
    let buf = |b: BufRef| match b {
        BufRef::Contrib { slot } => Some(slot),
        _ => None,
    };
    let (mut flags, mut data) = (Vec::new(), Vec::new());
    for step in &plan.steps {
        match *step {
            Step::ContribDrained { .. } => flags.push(my),
            Step::FlagRaise { flag, .. } | Step::FlagWaitGe { flag, .. } => match flag {
                FlagRef::ContribReady { slot, .. } | FlagRef::ContribDone { slot, .. } => {
                    flags.push(slot)
                }
                _ => {}
            },
            Step::ShmCopy { src, dst, .. } => data.extend(buf(src).into_iter().chain(buf(dst))),
            Step::LocalReduce { src, .. } | Step::RmaPut { src, .. } => data.extend(buf(src)),
            _ => {}
        }
    }
    (flags, data)
}

#[test]
fn pairwise_and_scatter_plans_never_touch_the_landing_pair() {
    let counts = (0..16 * 16).map(|i| (i * 37) % 300).collect();
    let shapes = [
        PlanShape::Alltoall { len: 4096 },
        PlanShape::Alltoall { len: 256 << 10 },
        PlanShape::Alltoallv { seg: 512, counts },
        PlanShape::ReduceScatter { len: 1024 },
        PlanShape::ReduceScatter { len: 256 << 10 },
        PlanShape::Scatter { len: 8960, root: 0 },
        PlanShape::Scatter {
            len: 40_000,
            root: 5,
        },
    ];
    for shape in &shapes {
        for (nodes, tpn) in [(4, 4), (2, 8), (8, 2)] {
            for (slot, plan) in plans(nodes, tpn, shape) {
                let hit = plan.steps.iter().find(|s| touches_landing(s));
                assert!(
                    hit.is_none(),
                    "{shape:?} {nodes}x{tpn} slot {slot}: {hit:?}"
                );
            }
        }
    }
}

#[test]
fn contribution_flags_only_on_channels_that_carry_data() {
    let counts = (0..16 * 16).map(|i| (i * 37) % 300).collect();
    let shapes = [
        PlanShape::Reduce { len: 8, root: 0 },
        PlanShape::Reduce {
            len: 40_000,
            root: 5,
        },
        PlanShape::Allreduce { len: 8 },
        PlanShape::Allreduce { len: 64 << 10 },
        PlanShape::Gather {
            len: 20_000,
            root: 4,
        },
        PlanShape::Allgather { len: 64 },
        PlanShape::Scatter { len: 8960, root: 1 },
        PlanShape::Alltoallv { seg: 512, counts },
        PlanShape::ReduceScatter { len: 1024 },
    ];
    for shape in &shapes {
        for (slot, plan) in plans(4, 4, shape) {
            let (flags, data) = contrib_slots(&plan, slot);
            let ctx = format!("{shape:?} slot {slot}: flag steps on {flags:?}");
            assert!(flags.iter().all(|s| data.contains(s)), "{ctx}");
            match shape {
                // No scatter rank moves data through a contribution
                // buffer.
                PlanShape::Scatter { .. } => assert!(flags.is_empty(), "{ctx}"),
                // The reduce tree's root master stages puts in its own
                // buffer but never publishes on its channel.
                PlanShape::Reduce { .. } | PlanShape::Allreduce { .. } if slot == 0 => {
                    assert!(!flags.contains(&0), "{ctx}")
                }
                _ => {}
            }
        }
    }
}
