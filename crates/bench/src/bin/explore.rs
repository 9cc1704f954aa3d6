//! Ad-hoc experiment runner: measure any collective on any cluster
//! shape from the command line — plus the seeded schedule-exploration
//! stress mode (activated by `--seeds`).
//!
//! ```text
//! explore [OPTIONS]                          measurement mode
//!   --op bcast|reduce|allreduce|barrier     (default bcast)
//!   --nodes N                               (default 4)
//!   --tpn P                                 (default 16)
//!   --bytes B[,B...]                        (default 4096)
//!   --impl srm|ibm|mpich|all                (default all)
//!   --machine colony|via                    (default colony)
//!   --iters K                               (default 5)
//!   --tree binomial|binary|fibonacci        (default binomial)
//!
//! explore --seeds N [OPTIONS]               stress mode
//!   --seeds N              run N seeded perturbation scenarios
//!   --start-seed S         first seed (decimal or 0x-hex, default 0)
//!   --nodes N / --tpn P    pin the topology (default: drawn per seed)
//!   --max-ops K            program length upper bound (default 6)
//!   --no-subgroups         world-communicator steps only (also
//!                          disables comm_split scenarios)
//!   --route direct|staged  force every pairwise segment down one
//!                          route (direct: pairwise_direct_min = 0,
//!                          staged: usize::MAX)
//!   --inject drain-skip    fault injection: omit the contribution
//!                          drain guard, so a slot may refill a buffer
//!                          side its consumer has not read; the sweep
//!                          must CATCH it (exit 0 on detection, 1 on a
//!                          miss)
//!   --inject am-stall-race fault injection: the RMA dispatcher bumps
//!                          the completion counter BEFORE a drawn
//!                          AM-handler stall lands the payload, so a
//!                          consumer woken by the premature increment
//!                          can read stale bytes; same exit contract
//! ```
//!
//! # Worked examples
//!
//! Sweep 256 seeds with the full grammar (subgroups, comm_split
//! partitions, buffer-aliasing steps) under the full perturbation
//! surface — exits 0 only if every seed passes its data checks and
//! structural invariants:
//!
//! ```text
//! explore --seeds 256
//! ```
//!
//! Replay one failing seed exactly (the line the failure report
//! prints):
//!
//! ```text
//! explore --seeds 1 --start-seed 0x00000000000000a7
//! ```
//!
//! Prove the detector catches a planted dispatcher race: the run flips
//! the premature-ack switch and sweeps until a data check fails,
//! printing the seed and its one-line reproducer. Exit 0 means
//! "detected", exit 1 means the budget was too small:
//!
//! ```text
//! explore --seeds 128 --inject am-stall-race
//! ```

use simnet::{MachineConfig, Topology};
use srm::{SegmentRoute, SrmTuning, TreeKind};
use srm_cluster::{explore_sweep, measure, ExploreOpts, HarnessOpts, Impl, Op};

struct Args {
    op: Op,
    nodes: usize,
    tpn: usize,
    nodes_set: bool,
    tpn_set: bool,
    bytes: Vec<usize>,
    imps: Vec<Impl>,
    machine: MachineConfig,
    iters: usize,
    tree: TreeKind,
    seeds: Option<u64>,
    start_seed: u64,
    max_ops: usize,
    subgroups: bool,
    route: Option<SegmentRoute>,
    inject: Option<String>,
}

fn parse_route(val: &str) -> Option<SegmentRoute> {
    match val {
        "direct" => Some(SegmentRoute::Direct),
        "staged" => Some(SegmentRoute::Staged),
        _ => None,
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!("usage: explore [--op OP] [--nodes N] [--tpn P] [--bytes B,..] [--impl I] [--machine M] [--iters K] [--tree T]");
    eprintln!("       explore --seeds N [--start-seed S] [--nodes N] [--tpn P] [--max-ops K] [--no-subgroups] [--route direct|staged] [--inject drain-skip|am-stall-race]");
    std::process::exit(2)
}

fn parse_seed(val: &str) -> Option<u64> {
    if let Some(hex) = val.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        val.parse().ok()
    }
}

fn parse() -> Args {
    let mut a = Args {
        op: Op::Bcast,
        nodes: 4,
        tpn: 16,
        nodes_set: false,
        tpn_set: false,
        bytes: vec![4096],
        imps: Impl::ALL.to_vec(),
        machine: MachineConfig::ibm_sp_colony(),
        iters: 5,
        tree: TreeKind::Binomial,
        seeds: None,
        start_seed: 0,
        max_ops: 6,
        subgroups: true,
        route: None,
        inject: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--no-subgroups" {
            a.subgroups = false;
            i += 1;
            continue;
        }
        let val = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag {
            "--op" => {
                a.op = match val.as_str() {
                    "bcast" => Op::Bcast,
                    "reduce" => Op::Reduce,
                    "allreduce" => Op::Allreduce,
                    "barrier" => Op::Barrier,
                    other => usage(&format!("unknown op '{other}'")),
                }
            }
            "--nodes" => {
                a.nodes = val.parse().unwrap_or_else(|_| usage("bad --nodes"));
                a.nodes_set = true;
            }
            "--tpn" => {
                a.tpn = val.parse().unwrap_or_else(|_| usage("bad --tpn"));
                a.tpn_set = true;
            }
            "--seeds" => a.seeds = Some(val.parse().unwrap_or_else(|_| usage("bad --seeds"))),
            "--start-seed" => {
                a.start_seed = parse_seed(val).unwrap_or_else(|| usage("bad --start-seed"))
            }
            "--max-ops" => a.max_ops = val.parse().unwrap_or_else(|_| usage("bad --max-ops")),
            "--route" => {
                a.route =
                    Some(parse_route(val).unwrap_or_else(|| usage("bad --route (direct|staged)")))
            }
            "--inject" => {
                if val != "drain-skip" && val != "am-stall-race" {
                    usage(&format!("unknown injection '{val}'"));
                }
                a.inject = Some(val.clone());
            }
            "--bytes" => {
                a.bytes = val
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage("bad --bytes")))
                    .collect()
            }
            "--impl" => {
                a.imps = match val.as_str() {
                    "srm" => vec![Impl::Srm],
                    "ibm" => vec![Impl::IbmMpi],
                    "mpich" => vec![Impl::Mpich],
                    "all" => Impl::ALL.to_vec(),
                    other => usage(&format!("unknown impl '{other}'")),
                }
            }
            "--machine" => {
                a.machine = match val.as_str() {
                    "colony" => MachineConfig::ibm_sp_colony(),
                    "via" => MachineConfig::commodity_via_cluster(),
                    other => usage(&format!("unknown machine '{other}'")),
                }
            }
            "--iters" => a.iters = val.parse().unwrap_or_else(|_| usage("bad --iters")),
            "--tree" => {
                a.tree = match val.as_str() {
                    "binomial" => TreeKind::Binomial,
                    "binary" => TreeKind::Binary,
                    "fibonacci" => TreeKind::Fibonacci,
                    other => usage(&format!("unknown tree '{other}'")),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    a
}

/// Stress mode: sweep seeded perturbation scenarios and report.
fn stress(a: &Args, count: u64) -> ! {
    let opts = ExploreOpts {
        nodes: a.nodes_set.then_some(a.nodes),
        tpn: a.tpn_set.then_some(a.tpn),
        max_ops: a.max_ops,
        subgroups: a.subgroups,
        route: a.route,
    };
    if let Some(route) = a.route {
        println!("route forcing: every pairwise segment {}", route.label());
    }
    let injecting = a.inject.is_some();
    match a.inject.as_deref() {
        Some("drain-skip") => {
            println!(
                "fault injection: contribution drain guard omitted \
                 (a slot may refill a side its consumer has not read)"
            );
            srm::set_skip_contrib_drain(true);
        }
        Some("am-stall-race") => {
            println!(
                "fault injection: RMA dispatcher acknowledges completion counters \
                 before AM-handler stalls land the payload (premature ack)"
            );
            rma::set_stall_counter_race(true);
        }
        _ => {}
    }
    println!(
        "exploring {count} seed(s) from 0x{:016x} (topology {}, max {} ops, subgroups {})",
        a.start_seed,
        if a.nodes_set || a.tpn_set {
            format!(
                "{}x{}",
                if a.nodes_set { a.nodes } else { 0 },
                if a.tpn_set { a.tpn } else { 0 }
            )
        } else {
            "per-seed".to_string()
        },
        a.max_ops,
        if a.subgroups { "on" } else { "off" },
    );
    let mut explored = 0;
    let mut summary = srm_cluster::ExploreSummary::default();
    for chunk_start in (0..count).step_by(32) {
        let chunk = 32.min(count - chunk_start);
        let s = explore_sweep(a.start_seed + chunk_start, chunk, &opts);
        explored += s.explored;
        summary.explored += s.explored;
        summary.perturb_events += s.perturb_events;
        summary.max_skew_ps = summary.max_skew_ps.max(s.max_skew_ps);
        summary.calls_checked += s.calls_checked;
        summary.failures.extend(s.failures);
        if injecting && !summary.failures.is_empty() {
            break; // detection achieved; no need to finish the budget
        }
        if explored < count {
            println!(
                "  {explored}/{count} seeds, {} calls checked, {} perturb events, {} failure(s)",
                summary.calls_checked,
                summary.perturb_events,
                summary.failures.len()
            );
        }
    }
    println!(
        "explored {explored} seed(s): {} collective calls verified, {} perturbation events \
         injected (max skew {:.1}us), {} failure(s)",
        summary.calls_checked,
        summary.perturb_events,
        summary.max_skew_ps as f64 / 1e6,
        summary.failures.len()
    );
    if injecting {
        if let Some(f) = summary.failures.first() {
            println!("fault DETECTED after {explored} seed(s):\n{f}");
            std::process::exit(0);
        }
        println!("fault NOT detected within {count} seed(s) — detector miss");
        std::process::exit(1);
    }
    if !summary.failures.is_empty() {
        for f in &summary.failures {
            println!("{f}");
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let a = parse();
    if let Some(count) = a.seeds {
        stress(&a, count);
    }
    let topo = Topology::new(a.nodes, a.tpn);
    println!(
        "{} on {topo}, {} iteration(s) per point, {:?} tree\n",
        a.op.name(),
        a.iters,
        a.tree
    );
    print!("{:>10}", "bytes");
    for imp in &a.imps {
        print!(" {:>12}", imp.name());
    }
    println!();
    for &len in &a.bytes {
        print!("{len:>10}");
        for &imp in &a.imps {
            let opts = HarnessOpts {
                iters: a.iters,
                srm: SrmTuning {
                    tree: a.tree,
                    ..SrmTuning::default()
                },
            };
            let m = measure(imp, a.machine.clone(), topo, a.op, len, opts);
            print!(" {:>11.1}u", m.per_call.as_us());
        }
        println!();
    }
}
