//! From rounds of shape runs to the named metrics.
//!
//! Virtual metrics and counters come from the first round; every later
//! round must reproduce them exactly. End-to-end host metrics come from
//! the untraced rounds, per-layer host metrics from the traced ones.

use crate::clock::{Host, REFERENCE_NOMINAL_S};
use crate::shape::{CallSummary, Imp, ShapeRun};
use crate::stats::{geomean, median, quantile, quartiles};
use crate::workload::{self, Op, Workload, NAMES};
use crate::{Args, Round};
use simnet::{MachineConfig, MetricsSnapshot, Topology};
use srm::{SrmModel, SrmTuning};
use std::fmt::Write as _;

/// A named value with its unit.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Quartiles over rounds, for host metrics.
    spread: Option<(f64, f64, f64)>,
    /// A note printed after the value (e.g. a sample count).
    note: String,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        spread: None,
        note: String::new(),
    }
}

/// Everything one workload run reports.
pub struct Report {
    attempted: u64,
    failed: u64,
    rounds: usize,
    traced_rounds: usize,
    /// Rounds whose virtual results differ from the first round's.
    diverged: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Per shape: name, virtual us (SRM, MPI), and SRM's median host ms
    /// per call and set-up seconds over the untraced rounds.
    rows: Vec<(String, [f64; 4])>,
    /// Host seconds of each round's SRM runs, untraced and traced.
    walls: (Vec<f64>, Vec<f64>),
    /// Canonical text of every virtual result and counter of round 0;
    /// two runs with one seed must produce identical text.
    pub virtual_signature: String,
}

/// Per-layer metric names, units and direction, identical for every
/// workload (shapes a workload does not run read 0).
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for wl in NAMES {
        for s in workload::workload(wl).expect("listed").shapes {
            v.push((format!("virt_us.{}", s.name), "us", "lower"));
            v.push((format!("mpi_us.{}", s.name), "us", "lower"));
        }
    }
    v
}

/// Layer metrics in report order: (name, unit, better).
const LAYER: [(&str, &str, &str); 44] = [
    ("srm.finish_skew_us", "us", "lower"),
    ("simnet.handoff_ns", "ns", "lower"),
    ("simnet.sim_run_s", "s", "lower"),
    ("simnet.host_us_per_engine_step", "us", "lower"),
    ("shmem.copies_per_call", "count/call", "lower"),
    ("shmem.bytes_per_call", "B/call", "lower"),
    ("shmem.flag_ops_per_call", "count/call", "lower"),
    ("rma.puts_per_call", "count/call", "lower"),
    ("rma.ams_per_call", "count/call", "lower"),
    ("rma.interrupts_per_call", "count/call", "lower"),
    ("net.messages_per_call", "count/call", "lower"),
    ("net.bytes_per_call", "B/call", "lower"),
    ("msg.matches_per_call", "count/call", "lower"),
    ("msg.early_arrivals_per_call", "count/call", "lower"),
    ("msg.eager_sends_per_call", "count/call", "lower"),
    ("msg.rndv_sends_per_call", "count/call", "lower"),
    ("srm.world_new_ms", "ms", "lower"),
    ("msg.world_new_ms", "ms", "lower"),
    ("srm.first_call_host_ms", "ms", "lower"),
    ("srm.plan_misses", "count", "lower"),
    ("srm.plan_hit_ratio", "ratio", "higher"),
    ("srm.engine_steps_per_call", "count/call", "lower"),
    ("srm.engine_wait_steps_per_call", "count/call", "lower"),
    ("srm.engine_copy_steps_per_call", "count/call", "lower"),
    ("srm.engine_put_steps_per_call", "count/call", "lower"),
    ("srm.reduce_bytes_per_call", "B/call", "lower"),
    ("pairwise.puts_per_call", "count/call", "lower"),
    ("pairwise.direct_puts_per_call", "count/call", "lower"),
    ("pairwise.credit_stalls_per_call", "count/call", "lower"),
    ("pairwise.credit_stall_ratio", "ratio", "lower"),
    ("nb.issued", "count/call", "lower"),
    ("nb.parks_per_request", "ratio", "lower"),
    ("nb.blocking_while_outstanding", "ratio", "lower"),
    ("model.sim_over_model_worst", "ratio", "lower"),
    ("trace.route_staged", "count", "lower"),
    ("trace.route_direct", "count", "lower"),
    ("trace.tuned", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_call_frac", "ratio", "lower"),
    ("wall.setup_s", "s", "lower"),
    ("wall.sim_calls_per_s", "1/s", "higher"),
    ("wall.host_ms_per_call_p50", "ms", "lower"),
    ("wall.host_ms_per_call_p90", "ms", "lower"),
    ("host.reference_ms", "ms", "lower"),
];

fn med_us(run: &ShapeRun, f: impl Fn(&CallSummary) -> f64) -> f64 {
    median(&run.calls.iter().map(f).collect::<Vec<_>>())
}

fn virt_us(run: &ShapeRun) -> f64 {
    med_us(run, |c| c.virt.as_us())
}

/// Sum of one timed-region counter over `runs`.
fn region(runs: &[ShapeRun], f: fn(&MetricsSnapshot) -> u64) -> f64 {
    runs.iter().map(|r| f(&r.region)).sum::<u64>() as f64
}

/// Timed calls over `runs`.
fn timed_calls(runs: &[ShapeRun]) -> f64 {
    runs.iter().map(|r| r.calls.len()).sum::<usize>() as f64
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The SRM model's prediction for a shape it covers.
fn model_us(shape: &workload::Shape) -> Option<f64> {
    let topo = Topology::new(shape.nodes, shape.tasks_per_node);
    let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
    let t = match shape.op {
        Op::Bcast => model.bcast(shape.len),
        Op::Reduce => model.reduce(shape.len),
        Op::Allreduce => model.allreduce(shape.len),
        Op::Barrier => model.barrier(),
        _ => return None,
    };
    Some(t.as_us())
}

/// Canonical text of the virtual results and counters of `runs`.
fn signature(wl: &Workload, imp: Imp, runs: &[ShapeRun]) -> String {
    let mut s = String::new();
    for (shape, r) in wl.shapes.iter().zip(runs) {
        let tag = format!("{} {}", shape.name, imp.tag());
        let ps = |f: fn(&CallSummary) -> u64| {
            r.calls
                .iter()
                .map(|c| f(c).to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(s, "{tag} virt_ps {}", ps(|c| c.virt.as_ps()));
        let _ = writeln!(s, "{tag} skew_ps {}", ps(|c| c.skew.as_ps()));
        let _ = writeln!(
            s,
            "{tag} warm_ps {:?} attempted {} failed {} outstanding {}",
            r.warm.map(|w| w.virt.as_ps()),
            r.attempted,
            r.failed,
            r.outstanding
        );
        let _ = writeln!(s, "{tag} region {:?}", r.region);
        let _ = writeln!(s, "{tag} total {:?}", r.counters);
    }
    s
}

/// Median over `rounds` of `f`.
fn med_rounds(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Which host clock a metric reads.
#[derive(Clone, Copy)]
enum Clock {
    /// Process CPU time: the simulator's own work, steady on a shared VM.
    Cpu,
    /// Wall time, which also counts waiting for a CPU.
    Wall,
}

impl Clock {
    fn secs(self, h: Host) -> f64 {
        match self {
            Clock::Cpu => h.cpu_s,
            Clock::Wall => h.wall_s,
        }
    }

    fn call_ms(self, c: &CallSummary) -> f64 {
        match self {
            Clock::Cpu => c.cpu_ms,
            Clock::Wall => c.wall_ms,
        }
    }
}

/// Geometric mean over shapes of the `q`-quantile of host ms per call
/// in round `r`.
fn host_call_ms(r: &Round, q: f64, clock: Clock) -> f64 {
    let per_shape: Vec<f64> = r
        .srm
        .iter()
        .map(|x| {
            quantile(
                &x.calls.iter().map(|c| clock.call_ms(c)).collect::<Vec<_>>(),
                q,
            )
        })
        .collect();
    geomean(&per_shape)
}

/// Set-up seconds of round `r`, summed over shapes.
fn setup_s(r: &Round, clock: Clock) -> f64 {
    r.srm.iter().map(|x| clock.secs(x.setup)).sum()
}

/// Timed calls per second of the timed regions of round `r`.
fn calls_per_s(r: &Round, clock: Clock) -> f64 {
    let calls: usize = r.srm.iter().map(|x| x.calls.len()).sum();
    calls as f64 / r.srm.iter().map(|x| clock.secs(x.timed)).sum::<f64>()
}

impl Report {
    /// Compute every metric from `rounds` (the first is untraced and
    /// holds the MPI baseline). `reference_s` is the median CPU time of
    /// the reference job in this run; end-to-end host metrics are scaled
    /// by `REFERENCE_NOMINAL_S / reference_s`, to a fixed machine speed.
    pub fn new(
        wl: &Workload,
        rounds: &[Round],
        reference_s: f64,
        handoff_ns: Option<f64>,
    ) -> Report {
        let first = &rounds[0];
        let srm_sig = signature(wl, Imp::Srm, &first.srm);
        let diverged = rounds[1..]
            .iter()
            .filter(|r| signature(wl, Imp::Srm, &r.srm) != srm_sig)
            .count();
        let virtual_signature = srm_sig + &signature(wl, Imp::Mpi, &first.mpi);
        let all_runs = || rounds.iter().flat_map(|r| r.srm.iter().chain(&r.mpi));
        let attempted: u64 = all_runs().map(|r| r.attempted).sum();
        let failed: u64 = all_runs().map(|r| r.failed).sum();
        let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();

        // ---- end to end ----
        let srm: Vec<f64> = first.srm.iter().map(virt_us).collect();
        let mpi: Vec<f64> = first.mpi.iter().map(virt_us).collect();
        let pct: Vec<f64> = srm.iter().zip(&mpi).map(|(s, m)| 100.0 * s / m).collect();
        let n_calls: usize = plain
            .iter()
            .flat_map(|r| &r.srm)
            .map(|x| x.calls.len())
            .sum();
        // A host metric: its median over the untraced rounds, with quartiles.
        let over_rounds = |name: &str, unit, f: &dyn Fn(&Round) -> f64| {
            let v: Vec<f64> = plain.iter().map(|r| f(r)).collect();
            Metric {
                spread: Some(quartiles(&v)),
                note: format!("over {} rounds", v.len()),
                ..m(name, unit, median(&v))
            }
        };
        // `scale` multiplies times (and divides rates) by the machine-speed
        // factor; 1 reports the raw clock.
        let host = |prefix: &str, clock: Clock, scale: f64| {
            let call = |q: f64| {
                let name = format!("{prefix}host_ms_per_call_p{}", (q * 100.0) as u32);
                Metric {
                    note: format!("n={n_calls} calls; per round, geomean over shapes"),
                    ..over_rounds(&name, "ms", &|r| scale * host_call_ms(r, q, clock))
                }
            };
            [
                over_rounds(&format!("{prefix}setup_s"), "s", &|r| {
                    scale * setup_s(r, clock)
                }),
                over_rounds(&format!("{prefix}sim_calls_per_s"), "1/s", &|r| {
                    calls_per_s(r, clock) / scale
                }),
                call(0.5),
                call(0.9),
            ]
        };
        let mut end_to_end = vec![
            m("virt_us_geomean", "us", geomean(&srm)),
            m("srm_vs_mpi_pct", "%", geomean(&pct)),
        ];
        end_to_end.extend(host("", Clock::Cpu, REFERENCE_NOMINAL_S / reference_s));
        end_to_end.push(m("peak_rss_mb", "MB", peak_rss_mb()));

        // ---- per layer ----
        let srm_sum = |f| region(&first.srm, f);
        let per = |f| ratio(srm_sum(f), timed_calls(&first.srm));
        let per_mpi = |f| ratio(region(&first.mpi, f), timed_calls(&first.mpi));
        let total = |f: fn(&MetricsSnapshot) -> u64| {
            first.srm.iter().map(|r| f(&r.counters)).sum::<u64>() as f64
        };
        let (hits, misses) = (total(|t| t.plan_hits), total(|t| t.plan_misses));
        let rank_calls: f64 = wl
            .shapes
            .iter()
            .zip(&first.srm)
            .map(|(s, r)| (s.nprocs() * r.calls.len()) as f64)
            .sum();
        let outstanding: f64 = first.srm.iter().map(|r| r.outstanding as f64).sum();
        let skews: Vec<f64> = first
            .srm
            .iter()
            .map(|r| med_us(r, |c| c.skew.as_us()))
            .collect();
        let worst = wl
            .shapes
            .iter()
            .zip(&srm)
            .filter_map(|(s, sim)| model_us(s).map(|model| (sim / model).max(model / sim)))
            .fold(0.0, f64::max);
        let host_rounds = if traced.is_empty() { &plain } else { &traced };
        let mean_ms = |runs: &[ShapeRun], f: fn(&ShapeRun) -> f64| {
            1e3 * runs.iter().map(f).sum::<f64>() / runs.len() as f64
        };
        let labels = |i: usize| {
            med_rounds(host_rounds, |r| {
                r.srm.iter().map(|x| x.labels[i] as f64).sum()
            })
        };
        let round_s = |rs: &[&Round], clock: Clock| {
            rs.iter()
                .map(|r| clock.secs(r.srm_host()))
                .collect::<Vec<_>>()
        };
        let overhead = if traced.is_empty() {
            0.0
        } else {
            median(&round_s(&traced, Clock::Cpu)) - median(&round_s(&plain, Clock::Cpu))
        };
        let cpu_sum =
            |f: fn(&ShapeRun) -> f64| med_rounds(host_rounds, |r| r.srm.iter().map(f).sum());
        let steps = region(&first.srm, |c| c.engine_steps);
        let mut per_layer: Vec<Metric> = [
            ("srm.finish_skew_us", geomean(&skews)),
            ("simnet.handoff_ns", handoff_ns.unwrap_or(0.0)),
            ("simnet.sim_run_s", cpu_sum(|x| x.sim_run.cpu_s)),
            (
                "simnet.host_us_per_engine_step",
                ratio(1e6 * cpu_sum(|x| x.timed.cpu_s), steps),
            ),
            ("shmem.copies_per_call", per(|c| c.shm_copies)),
            ("shmem.bytes_per_call", per(|c| c.shm_bytes)),
            ("shmem.flag_ops_per_call", per(|c| c.flag_ops)),
            ("rma.puts_per_call", per(|c| c.rma_puts)),
            ("rma.ams_per_call", per(|c| c.rma_ams)),
            ("rma.interrupts_per_call", per(|c| c.interrupts)),
            ("net.messages_per_call", per(|c| c.net_messages)),
            ("net.bytes_per_call", per(|c| c.net_bytes)),
            ("msg.matches_per_call", per_mpi(|c| c.matches)),
            ("msg.early_arrivals_per_call", per_mpi(|c| c.early_arrivals)),
            ("msg.eager_sends_per_call", per_mpi(|c| c.eager_sends)),
            ("msg.rndv_sends_per_call", per_mpi(|c| c.rndv_sends)),
            (
                "srm.world_new_ms",
                med_rounds(host_rounds, |r| mean_ms(&r.srm, |x| x.world_new_s)),
            ),
            ("msg.world_new_ms", mean_ms(&first.mpi, |x| x.world_new_s)),
            (
                "srm.first_call_host_ms",
                med_rounds(host_rounds, |r| {
                    mean_ms(&r.srm, |x| x.warm.map_or(0.0, |w| w.cpu_ms / 1e3))
                }),
            ),
            ("srm.plan_misses", misses),
            ("srm.plan_hit_ratio", ratio(hits, hits + misses)),
            ("srm.engine_steps_per_call", per(|c| c.engine_steps)),
            (
                "srm.engine_wait_steps_per_call",
                per(|c| c.engine_wait_steps),
            ),
            (
                "srm.engine_copy_steps_per_call",
                per(|c| c.engine_copy_steps),
            ),
            ("srm.engine_put_steps_per_call", per(|c| c.engine_put_steps)),
            ("srm.reduce_bytes_per_call", per(|c| c.reduce_bytes)),
            ("pairwise.puts_per_call", per(|c| c.pairwise_puts)),
            (
                "pairwise.direct_puts_per_call",
                per(|c| c.pairwise_direct_puts),
            ),
            ("pairwise.credit_stalls_per_call", per(|c| c.credit_stalls)),
            (
                "pairwise.credit_stall_ratio",
                ratio(srm_sum(|c| c.credit_stalls), srm_sum(|c| c.pairwise_puts)),
            ),
            ("nb.issued", per(|c| c.nb_issued)),
            (
                "nb.parks_per_request",
                ratio(srm_sum(|c| c.nb_parks), srm_sum(|c| c.nb_issued)),
            ),
            (
                "nb.blocking_while_outstanding",
                ratio(outstanding, rank_calls),
            ),
            ("model.sim_over_model_worst", worst),
            ("trace.route_staged", labels(0)),
            ("trace.route_direct", labels(1)),
            ("trace.tuned", labels(2)),
            ("trace.overhead_s", overhead),
            ("failed_call_frac", ratio(failed as f64, attempted as f64)),
        ]
        .into_iter()
        .zip(LAYER)
        .map(|((name, value), (listed, unit, _))| {
            assert_eq!(name, listed, "per-layer metrics out of step with LAYER");
            m(name, unit, value)
        })
        .collect();
        per_layer.extend(host("wall.", Clock::Wall, 1.0));
        per_layer.push(m("host.reference_ms", "ms", 1e3 * reference_s));
        for (name, _, _) in per_layer_names().into_iter().skip(LAYER.len()) {
            let (imp, shape) = name.split_once('.').expect("prefixed name");
            let runs = if imp == "mpi_us" {
                &first.mpi
            } else {
                &first.srm
            };
            let value = wl
                .shapes
                .iter()
                .position(|s| s.name == shape)
                .map_or(0.0, |i| virt_us(&runs[i]));
            per_layer.push(m(name, "us", value));
        }
        assert_eq!(per_layer.len(), per_layer_names().len());

        let rows = wl
            .shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let host: Vec<f64> = plain
                    .iter()
                    .flat_map(|r| r.srm[i].calls.iter().map(|c| c.cpu_ms))
                    .collect();
                let setup = med_rounds(&plain, |r| r.srm[i].setup.cpu_s);
                (s.name.clone(), [srm[i], mpi[i], median(&host), setup])
            })
            .collect();
        Report {
            attempted,
            failed,
            rounds: rounds.len(),
            traced_rounds: traced.len(),
            diverged,
            end_to_end,
            per_layer,
            rows,
            walls: (round_s(&plain, Clock::Wall), round_s(&traced, Clock::Wall)),
            virtual_signature,
        }
    }

    /// Print the human-readable report; returns whether the run passed.
    pub fn print(&self, wl: &Workload, args: &Args) -> bool {
        println!(
            "== {} seed {}: {} rounds ({} traced), {} calls attempted, {} failed",
            wl.name, args.seed, self.rounds, self.traced_rounds, self.attempted, self.failed
        );
        let secs = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "round wall s: untraced [{}] traced [{}]",
            secs(&self.walls.0),
            secs(&self.walls.1)
        );
        println!(
            "{:<26} {:>11} {:>11} {:>8} {:>11} {:>8}",
            "shape", "srm us", "mpi us", "srm/mpi%", "srm cpu ms", "setup s"
        );
        for (s, [a, b, host, setup]) in &self.rows {
            println!(
                "{s:<26} {a:>11.3} {b:>11.3} {:>8.1} {host:>11.3} {setup:>8.3}",
                100.0 * a / b
            );
        }
        for x in &self.end_to_end {
            print_metric(x);
        }
        let (failed, attempted) = (self.failed, self.attempted);
        print_metric(&Metric {
            note: format!("{failed} of {attempted} calls"),
            ..m(
                "failed_call_frac",
                "ratio",
                ratio(failed as f64, attempted as f64),
            )
        });
        if args.trace {
            for x in self.per_layer[..LAYER.len()]
                .iter()
                .filter(|x| x.name != "failed_call_frac")
            {
                print_metric(x);
            }
        }
        if self.diverged > 0 {
            println!(
                "FAIL: {} round(s) diverged from the first round's virtual results",
                self.diverged
            );
        } else {
            println!(
                "determinism: {} rounds gave identical virtual results and counters",
                self.rounds
            );
        }
        if self.failed > 0 {
            println!("FAIL: {} of {} calls failed", self.failed, self.attempted);
        }
        self.correct()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.diverged == 0
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn json(&self, traced: bool) -> String {
        let set = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = set
            .iter()
            .map(|x| {
                let v = if x.value.is_finite() { x.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    x.name, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn print_metric(x: &Metric) {
    let mut line = format!("{:<34} {:>14.6} {}", x.name, x.value, x.unit);
    if let Some((q1, _, q3)) = x.spread {
        let _ = write!(line, "  [q1 {q1:.6} q3 {q3:.6}]");
    }
    if !x.note.is_empty() {
        let _ = write!(line, "  {}", x.note);
    }
    println!("{line}");
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
