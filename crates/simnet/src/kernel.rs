//! The deterministic virtual-time kernel.
//!
//! Every simulated MPI task is a **logical process (LP)**: a real OS
//! thread running real protocol code, with a private virtual clock.
//! The kernel enforces two invariants that together make runs
//! bit-deterministic on any host, regardless of core count or load:
//!
//! 1. **One turn at a time.** Exactly one LP executes simulated code at
//!    any instant. All others are parked on per-LP condvars.
//! 2. **Minimum time first.** The turn is always handed to the runnable
//!    LP with the smallest virtual clock (ties broken by lowest id).
//!    Consequently simulated actions execute in globally nondecreasing
//!    time order, which is what makes the causal wake-up rule of
//!    [`SimVar`](crate::simvar::SimVar) correct.
//!
//! Virtual time only moves when an LP calls [`Ctx::advance`] (modelling
//! busy work: a memory copy, per-message CPU overhead, a reduction) or
//! resumes from a wait whose enabling write happened later than the
//! moment it blocked.
//!
//! Host cost per turn handoff is O(log P): runnable LPs sit in an
//! ordered ready set keyed by `(effective time, id)`, and a store pokes
//! only the LPs registered under that variable's key. The granter drops
//! the scheduler lock before waking the next LP's thread, so the woken
//! thread never wakes straight into a held lock.

use crate::config::MachineConfig;
use crate::error::{BlockedLp, SimError};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::time::SimTime;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a logical process, dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LpId(pub usize);

/// Scheduler-visible state of one LP.
#[derive(Debug)]
enum LpState {
    /// Wants the turn (either never started or preempted by a smaller clock).
    Ready,
    /// Currently holds the turn.
    Running,
    /// Parked in a wait on one or more SimVars.
    Blocked {
        label: &'static str,
        /// Set when a store to a watched variable may have made the
        /// predicate true.
        poked: bool,
        /// Virtual time of the first such store since blocking.
        poke_time: SimTime,
    },
    /// Closure returned.
    Done,
}

struct Lp {
    time: SimTime,
    state: LpState,
    name: String,
    /// Bumped on every block; tags this LP's waiter registrations so a
    /// registration left over from an earlier wait is recognised as stale.
    block_gen: u64,
    /// Granted the turn by a poke and not yet past its predicate
    /// re-check (cleared on commit, counted as spurious on rollback).
    rechecking: bool,
}

impl Lp {
    /// Whether a waiter registration tagged `gen` can still be poked.
    fn waits_at(&self, gen: u64) -> bool {
        self.block_gen == gen && matches!(self.state, LpState::Blocked { poked: false, .. })
    }

    /// The time at which this LP competes for the turn, or `None` when
    /// it is not runnable. Blocked-but-poked LPs compete at
    /// `max(block_time, poke_time)`. Release builds never scan for it:
    /// grants take it from the ready-set key.
    #[cfg(debug_assertions)]
    fn effective_time(&self) -> Option<SimTime> {
        match self.state {
            LpState::Ready => Some(self.time),
            LpState::Blocked {
                poked: true,
                poke_time,
                ..
            } => Some(self.time.max(poke_time)),
            _ => None,
        }
    }
}

pub(crate) struct Sched {
    lps: Vec<Lp>,
    cvs: Vec<Arc<Condvar>>,
    /// Every runnable LP keyed by `(effective time, id)`: an LP is in
    /// the set iff it is `Ready` or `Blocked { poked: true }`. The
    /// first element is the next turn holder; the `(time, id)` order is
    /// the min-time, lowest-id tie rule.
    ready: BTreeSet<(SimTime, usize)>,
    /// SimVar key -> `(lp, block_gen)` registrations of LPs that blocked
    /// on it. Entries whose generation is no longer current are stale
    /// and skipped; each list is pruned as it grows, so its length stays
    /// within a constant factor of the live waits on that key.
    waiters: HashMap<u64, Vec<(usize, u64)>>,
    live: usize,
    /// First fatal outcome (deadlock or LP panic); ends the run.
    outcome: Option<SimError>,
    started: bool,
    /// Grants of the turn to a parked LP (each wakes one thread).
    turn_handoffs: u64,
    /// Poked waits whose predicate re-check failed and rolled back.
    spurious_wakes: u64,
}

/// Shared kernel state; one per simulation run.
pub(crate) struct Shared {
    pub(crate) sched: Mutex<Sched>,
    pub(crate) metrics: Metrics,
    pub(crate) plan_by_comm: crate::metrics::PlanByComm,
    pub(crate) tune_by_comm: crate::metrics::PlanByComm,
    pub(crate) config: MachineConfig,
    pub(crate) next_var_key: AtomicU64,
    pub(crate) trace: parking_lot::RwLock<Option<crate::trace::Trace>>,
    pub(crate) perturb: parking_lot::RwLock<Option<Arc<crate::perturb::PerturbState>>>,
}

/// Payload used to unwind LP threads quietly when the run is aborted
/// (deadlock detected or another LP panicked). Never observed by users.
struct AbortSim;

impl Sched {
    fn abort_all(&mut self, outcome: SimError) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
        }
        for cv in &self.cvs {
            cv.notify_one();
        }
    }

    /// The runnable LP with the minimum effective time (ties: lowest
    /// id), with that time.
    fn pick_next(&self) -> Option<(SimTime, usize)> {
        let head = self.ready.first().copied();
        #[cfg(debug_assertions)]
        self.check_ready_set(head);
        head
    }

    /// Debug-build oracle: the ready set holds exactly the runnable LPs
    /// at their effective times, and its head is the linear-scan minimum.
    #[cfg(debug_assertions)]
    fn check_ready_set(&self, head: Option<(SimTime, usize)>) {
        let runnable: Vec<(SimTime, usize)> = (self.lps.iter().enumerate())
            .filter_map(|(i, lp)| Some((lp.effective_time()?, i)))
            .collect();
        for key in &runnable {
            assert!(
                self.ready.contains(key),
                "runnable LP {} not in the ready set",
                key.1
            );
        }
        assert_eq!(
            self.ready.len(),
            runnable.len(),
            "ready set holds a non-runnable LP"
        );
        assert_eq!(
            head,
            runnable.into_iter().min(),
            "ready-set head is not the scan minimum"
        );
    }

    /// Hand the turn to the ready-set entry `(eff, next)`, committing a
    /// poked LP's tentative resume time `eff` (the wait loop keeps or
    /// rolls it back after the predicate re-check). Returns the condvar
    /// to notify once the scheduler lock is released.
    fn grant(&mut self, (eff, next): (SimTime, usize)) -> Arc<Condvar> {
        let was_ready = self.ready.remove(&(eff, next));
        debug_assert!(was_ready, "granted LP {next} was not in the ready set");
        let lp = &mut self.lps[next];
        lp.rechecking = matches!(lp.state, LpState::Blocked { .. });
        lp.time = eff;
        lp.state = LpState::Running;
        self.turn_handoffs += 1;
        self.cvs[next].clone()
    }

    /// Called by the turn holder after changing its own state away from
    /// `Running`: pass the turn on, or end the run (completion/deadlock).
    /// Returns the condvar of the new turn holder, to notify after
    /// unlocking.
    fn dispatch(&mut self) -> Option<Arc<Condvar>> {
        if let Some(outcome) = self.outcome.clone() {
            self.abort_all(outcome);
            return None;
        }
        if let Some(head) = self.pick_next() {
            return Some(self.grant(head));
        }
        if self.live > 0 {
            let blocked = self
                .lps
                .iter()
                .filter_map(|lp| match lp.state {
                    LpState::Blocked { label, .. } => Some(BlockedLp {
                        name: lp.name.clone(),
                        time: lp.time,
                        waiting_on: label,
                    }),
                    _ => None,
                })
                .collect();
            self.abort_all(SimError::Deadlock { blocked });
        }
        // live == 0: run complete, nothing to do.
        None
    }

    /// Register LP `id`, blocked at generation `gen`, as a waiter on `key`.
    fn register_waiter(&mut self, key: u64, id: usize, gen: u64) {
        let Sched { lps, waiters, .. } = self;
        let list = waiters.entry(key).or_default();
        if list.len() == list.capacity() {
            // Prune before growing, then keep at least as much room as
            // survived: pruning stays amortised O(1) per registration.
            list.retain(|&(lp, g)| lps[lp].waits_at(g));
            list.reserve(list.len());
        }
        list.push((id, gen));
    }

    /// Length of `key`'s waiter list, stale entries included.
    #[cfg(test)]
    fn waiter_list_len(&self, key: u64) -> usize {
        self.waiters.get(&key).map_or(0, Vec::len)
    }
}

/// Execution context handed to each LP closure.
///
/// All simulated actions (time advances, [`SimVar`](crate::SimVar)
/// operations) go through the `Ctx`; it is the capability proving the
/// caller holds the turn.
pub struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: usize,
}

impl Ctx {
    /// This LP's id.
    pub fn lp(&self) -> LpId {
        LpId(self.id)
    }

    /// Current virtual time of this LP.
    pub fn now(&self) -> SimTime {
        self.shared.sched.lock().lps[self.id].time
    }

    /// The machine cost model for this run.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// Global event counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Snapshot of the counters (for measuring a single operation).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Per-communicator plan-cache breakdown.
    pub fn plan_by_comm(&self) -> &crate::metrics::PlanByComm {
        &self.shared.plan_by_comm
    }

    /// Per-communicator tuning-table consultation breakdown (hits =
    /// compiles that found a table entry, misses = compiles that fell
    /// back to the base tuning).
    pub fn tune_by_comm(&self) -> &crate::metrics::PlanByComm {
        &self.shared.tune_by_comm
    }

    /// Model `d` of busy CPU/memory time on this LP, then let any LP
    /// whose clock is now smaller run first.
    ///
    /// When a perturbation config is installed
    /// ([`Sim::set_perturb`]), each advance is an LP scheduling point:
    /// with probability `stall_permille`/1000 an extra bounded stall is
    /// folded into the same clock move.
    pub fn advance(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let d = d + self.perturb_stall_draw("perturb:stall");
        self.advance_by(d);
    }

    /// The raw clock move behind [`Ctx::advance`], with no perturbation
    /// hook (also used to apply an already-drawn injected delay).
    fn advance_by(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        let mut sched = self.shared.sched.lock();
        debug_assert!(
            matches!(sched.lps[self.id].state, LpState::Running),
            "advance() without holding the turn"
        );
        sched.lps[self.id].time += d;
        self.reschedule(sched);
    }

    /// Advance this LP's clock to absolute time `t` (no-op if already
    /// past it). Models waiting for a scheduled event such as a network
    /// arrival.
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.advance(t - now);
        }
    }

    /// Give up the turn if another runnable LP now has a smaller
    /// `(time, id)`, and wait for it back; used after this LP's clock
    /// moved. While it is still the minimum it keeps the turn without
    /// touching the ready set.
    fn reschedule(&self, mut sched: MutexGuard<'_, Sched>) {
        let me = (sched.lps[self.id].time, self.id);
        if let Some(head) = sched.pick_next().filter(|&head| head < me) {
            sched.lps[self.id].state = LpState::Ready;
            sched.ready.insert(me);
            let next = sched.grant(head);
            self.pass_turn(sched, Some(next));
        }
    }

    /// Wake the new turn holder `next` with the scheduler lock released,
    /// then park until this LP holds the turn again. Notifying under the
    /// lock would let the woken thread preempt the granter only to block
    /// on the lock the granter still holds. No wake-up is lost: the
    /// grant was made under the lock, and [`Ctx::wait_for_turn`]
    /// re-checks the state under the lock before every wait.
    fn pass_turn(&self, sched: MutexGuard<'_, Sched>, next: Option<Arc<Condvar>>) {
        drop(sched);
        if let Some(cv) = next {
            cv.notify_one();
        }
        self.wait_for_turn(self.shared.sched.lock());
    }

    /// Park until this LP is `Running` again (or the run is aborted).
    pub(crate) fn wait_for_turn(&self, mut sched: MutexGuard<'_, Sched>) {
        loop {
            if sched.outcome.is_some() {
                drop(sched);
                std::panic::resume_unwind(Box::new(AbortSim));
            }
            if matches!(sched.lps[self.id].state, LpState::Running) {
                return;
            }
            let cv = sched.cvs[self.id].clone();
            cv.wait(&mut sched);
        }
    }

    /// Block this LP on SimVar `var_key` with a diagnostic `label`, hand
    /// the turn on, and return when poked and granted. The caller
    /// re-checks its predicate and either commits a resume time or calls
    /// [`Ctx::rollback_time`].
    pub(crate) fn block_on(&self, var_key: u64, label: &'static str) {
        self.block_on_any(&[var_key], label);
    }

    /// Like [`Ctx::block_on`], but wakes on a store to *any* of `keys`.
    pub(crate) fn block_on_any(&self, keys: &[u64], label: &'static str) {
        let mut sched = self.shared.sched.lock();
        let lp = &mut sched.lps[self.id];
        lp.block_gen += 1;
        let gen = lp.block_gen;
        lp.state = LpState::Blocked {
            label,
            poked: false,
            poke_time: SimTime::ZERO,
        };
        for &key in keys {
            sched.register_waiter(key, self.id, gen);
        }
        let next = sched.dispatch();
        self.pass_turn(sched, next);
    }

    /// Block until `ready()` holds, waking whenever any of the SimVars
    /// identified by `keys` (see
    /// [`SimVar::wait_key`](crate::simvar::SimVar::wait_key)) is
    /// written. The causal resume rule applies: if a wake-up's enabling
    /// write happened at a later virtual time, the LP resumes at that
    /// time; spurious wake-ups (a watched write after which `ready()` is
    /// still false) consume no virtual time.
    ///
    /// `ready` must be a pure, costless probe of simulated state (peek,
    /// not wait): it runs while the LP holds the turn and must not call
    /// back into blocking operations. `keys` must cover every variable
    /// whose write could make `ready()` true, otherwise the LP can miss
    /// its wake-up and be reported as deadlocked under `label`.
    pub fn wait_any_until(
        &self,
        keys: &[u64],
        label: &'static str,
        mut ready: impl FnMut() -> bool,
    ) {
        self.perturb_stall_point("perturb:stall-wait");
        if ready() {
            return;
        }
        debug_assert!(!keys.is_empty(), "wait_any_until with no wake keys");
        let block_time = self.now();
        loop {
            self.block_on_any(keys, label);
            if ready() {
                // The grant's resume time stands: not a spurious wake.
                self.shared.sched.lock().lps[self.id].rechecking = false;
                return;
            }
            self.rollback_time(block_time);
        }
    }

    /// Predicate re-check failed after a poke: restore the clock to the
    /// time at which the LP originally blocked (the tentative poke time
    /// consumed no simulated work). The caller loops back into
    /// [`Ctx::block_on`].
    pub(crate) fn rollback_time(&self, to: SimTime) {
        let mut sched = self.shared.sched.lock();
        let lp = &mut sched.lps[self.id];
        lp.time = to;
        if std::mem::take(&mut lp.rechecking) {
            sched.spurious_wakes += 1;
        }
    }

    /// Set this LP's clock (used by SimVar to commit a causal resume time;
    /// never moves backwards past the blocking time).
    pub(crate) fn set_time(&self, t: SimTime) {
        let mut sched = self.shared.sched.lock();
        let lp = &mut sched.lps[self.id];
        lp.time = t;
        lp.rechecking = false;
    }

    /// Wake every LP currently blocked on `var_key`, stamping the first
    /// poke with the writer's current time. Each poked LP enters the
    /// ready set at `max(block_time, at)`.
    pub(crate) fn poke_waiters(&self, var_key: u64, at: SimTime) {
        let mut sched = self.shared.sched.lock();
        let Sched {
            lps,
            ready,
            waiters,
            ..
        } = &mut *sched;
        let Some(list) = waiters.get_mut(&var_key) else {
            return;
        };
        // Every live entry is poked now, so the whole list is consumed.
        for (i, gen) in list.drain(..) {
            let lp = &mut lps[i];
            if !lp.waits_at(gen) {
                continue;
            }
            if let LpState::Blocked {
                poked, poke_time, ..
            } = &mut lp.state
            {
                *poked = true;
                *poke_time = at;
            }
            ready.insert((lp.time.max(at), i));
        }
    }

    /// Handle for creating new [`SimVar`](crate::SimVar)s mid-run.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: self.shared.clone(),
        }
    }

    /// Record a labelled event in the attached [`Trace`](crate::Trace)
    /// at this LP's current time. A no-op when no trace is attached.
    pub fn trace(&self, label: &'static str) {
        if let Some(t) = self.shared.trace.read().as_ref() {
            t.record(self.id, self.now(), label);
        }
    }

    fn perturb_state(&self) -> Option<Arc<crate::perturb::PerturbState>> {
        self.shared.perturb.read().clone()
    }

    /// The installed perturbation config, if any.
    pub fn perturb_config(&self) -> Option<crate::perturb::Perturb> {
        self.perturb_state().map(|p| *p.cfg())
    }

    /// Account one injected perturbation event of `added` delay: bump
    /// the `perturb_*` counters and trace it under `label` at the
    /// pre-delay time.
    fn record_perturb(&self, label: &'static str, added: SimTime) {
        let m = self.metrics();
        m.perturb_events.fetch_add(1, Ordering::Relaxed);
        m.perturb_delay_ps
            .fetch_add(added.as_ps(), Ordering::Relaxed);
        m.perturb_max_skew_ps
            .fetch_max(added.as_ps(), Ordering::Relaxed);
        self.trace(label);
    }

    /// Draw a scheduling-point stall without applying it (the caller
    /// folds it into its own clock move). ZERO when no perturbation is
    /// installed or the draw misses.
    fn perturb_stall_draw(&self, label: &'static str) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return SimTime::ZERO;
        };
        match p.stall() {
            Some(d) => {
                self.record_perturb(label, d);
                d
            }
            None => SimTime::ZERO,
        }
    }

    /// Declare an LP scheduling point for the perturbation layer: with
    /// the configured probability, inject a bounded compute stall here.
    /// Higher layers call this at their own scheduling points (e.g. the
    /// nonblocking executor's park/unpark); a no-op without an
    /// installed config.
    pub fn perturb_stall_point(&self, label: &'static str) {
        let d = self.perturb_stall_draw(label);
        if !d.is_zero() {
            self.advance_by(d);
        }
    }

    /// Perturb one network delivery from `src` to `dst` scheduled at
    /// `deliver_at`: delivery jitter plus an occasional bounded
    /// hold-back, clamped so deliveries of the same ordered pair keep
    /// their order. Returns the (possibly unchanged) delivery time; the
    /// transport layer calls this where it computes arrival times.
    pub fn perturb_delivery(&self, src: usize, dst: usize, deliver_at: SimTime) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return deliver_at;
        };
        let new_at = p.delivery(src, dst, deliver_at);
        if new_at > deliver_at {
            self.record_perturb("perturb:delivery", new_at - deliver_at);
        }
        new_at
    }

    /// Straggler mode: delay `rank`'s entry into a collective when it
    /// is the configured straggler. Collective layers call this at
    /// every collective entry point; a no-op otherwise.
    pub fn perturb_straggler(&self, rank: usize) {
        let Some(p) = self.perturb_state() else {
            return;
        };
        if let Some(d) = p.straggler(rank) {
            self.record_perturb("perturb:straggler", d);
            self.advance_by(d);
        }
    }

    /// Interrupt-coalescing point: with probability
    /// `coalesce_permille`/1000, delay this LP by up to `coalesce_max`
    /// (traced as `perturb:coalesce`). Dispatchers call this right
    /// after taking an interrupt; a no-op without an installed config.
    pub fn perturb_coalesce_point(&self) {
        let Some(p) = self.perturb_state() else {
            return;
        };
        if let Some(d) = p.coalesce() {
            self.record_perturb("perturb:coalesce", d);
            self.metrics()
                .perturb_dispatch_events
                .fetch_add(1, Ordering::Relaxed);
            self.advance_by(d);
        }
    }

    /// Draw a handler stall for a message dispatch point (an RMA
    /// dispatcher about to process a payload, an MPI endpoint that just
    /// matched a receive). Records the event (`perturb:am-stall`) and
    /// returns the duration — ZERO on a miss or with no config. The
    /// caller applies it with [`Ctx::perturb_am_stall_apply`], which
    /// lets fault-injection layers act *between* the draw and the
    /// stall (the window a real preempted handler opens).
    pub fn perturb_am_stall_draw(&self) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return SimTime::ZERO;
        };
        match p.am_stall() {
            Some(d) => {
                self.record_perturb("perturb:am-stall", d);
                self.metrics()
                    .perturb_dispatch_events
                    .fetch_add(1, Ordering::Relaxed);
                d
            }
            None => SimTime::ZERO,
        }
    }

    /// Apply a stall drawn by [`Ctx::perturb_am_stall_draw`] and close
    /// its trace interval (`perturb:am-stall-end`). A no-op for ZERO,
    /// so `perturb_am_stall_apply(perturb_am_stall_draw())` is the
    /// plain (fault-free) dispatch-point idiom.
    pub fn perturb_am_stall_apply(&self, d: SimTime) {
        if d.is_zero() {
            return;
        }
        self.advance_by(d);
        self.trace("perturb:am-stall-end");
    }

    /// Perturb one wire time on directed link `(src, dst)`: the static
    /// per-link stretch (a pure hash of `(seed, src, dst)`) plus the
    /// transient-dip multiplier while the link is dipped. Returns the
    /// (possibly unchanged) wire time; transport layers call this where
    /// they compute serialization costs. Traced as `perturb:bw`, or
    /// `perturb:bw-dip` when a dip contributed.
    pub fn perturb_wire(&self, src: usize, dst: usize, wire: SimTime) -> SimTime {
        let Some(p) = self.perturb_state() else {
            return wire;
        };
        let ws = p.wire(src, dst, self.now(), wire);
        if ws.added.is_zero() {
            return wire;
        }
        self.record_perturb(
            if ws.dip {
                "perturb:bw-dip"
            } else {
                "perturb:bw"
            },
            ws.added,
        );
        self.metrics()
            .perturb_bw_events
            .fetch_add(1, Ordering::Relaxed);
        wire + ws.added
    }
}

/// Handle for creating [`SimVar`](crate::SimVar)s during setup (before
/// `run`) or inside LP closures.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Arc<Shared>,
}

impl SimHandle {
    pub(crate) fn alloc_var_key(&self) -> u64 {
        self.shared.next_var_key.fetch_add(1, Ordering::Relaxed)
    }

    /// The cost model this simulation runs with.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// Global event counters (reachable during setup, before `run`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Per-communicator plan-cache breakdown.
    pub fn plan_by_comm(&self) -> &crate::metrics::PlanByComm {
        &self.shared.plan_by_comm
    }

    /// Per-communicator tuning-table consultation breakdown.
    pub fn tune_by_comm(&self) -> &crate::metrics::PlanByComm {
        &self.shared.tune_by_comm
    }
}

type LpMain = Box<dyn FnOnce(Ctx) + Send + 'static>;

/// Builder + runner for one simulation.
///
/// ```
/// use simnet::{Sim, MachineConfig, SimTime};
///
/// let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
/// let flag = sim.handle().var(false);
/// let f2 = flag.clone();
/// sim.spawn("setter", move |ctx| {
///     ctx.advance(SimTime::from_us(5));
///     f2.store(&ctx, true);
/// });
/// sim.spawn("waiter", move |ctx| {
///     flag.wait(&ctx, "flag set", |v| *v);
///     assert_eq!(ctx.now(), SimTime::from_us(5));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_us(5));
/// ```
pub struct Sim {
    shared: Arc<Shared>,
    mains: Vec<LpMain>,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Largest LP clock at completion — the makespan of the simulation.
    pub end_time: SimTime,
    /// Final clock of every LP, indexed by [`LpId`].
    pub lp_times: Vec<SimTime>,
    /// Final event counters.
    pub metrics: MetricsSnapshot,
    /// Per-communicator `(comm id, plan_hits, plan_misses)` rows.
    pub plan_by_comm: Vec<(u64, u64, u64)>,
    /// Per-communicator `(comm id, tune_table_hits, tune_table_misses)`
    /// rows — which communicators' compiles found a tuning-table entry.
    /// Empty unless a tuning table is loaded.
    pub tune_by_comm: Vec<(u64, u64, u64)>,
    /// Host-side kernel counter: grants of the turn to a parked LP,
    /// the initial grant included. An LP that keeps the turn after an
    /// advance is not a handoff.
    pub turn_handoffs: u64,
    /// Host-side kernel counter: poked waits whose predicate re-check
    /// failed, so the LP rolled its clock back and blocked again.
    pub spurious_wakes: u64,
}

impl Sim {
    /// New simulation with the given machine cost model.
    pub fn new(config: MachineConfig) -> Sim {
        Sim {
            shared: Arc::new(Shared {
                sched: Mutex::new(Sched {
                    lps: Vec::new(),
                    cvs: Vec::new(),
                    ready: BTreeSet::new(),
                    waiters: HashMap::new(),
                    live: 0,
                    outcome: None,
                    started: false,
                    turn_handoffs: 0,
                    spurious_wakes: 0,
                }),
                metrics: Metrics::default(),
                plan_by_comm: crate::metrics::PlanByComm::default(),
                tune_by_comm: crate::metrics::PlanByComm::default(),
                config,
                next_var_key: AtomicU64::new(0),
                trace: parking_lot::RwLock::new(None),
                perturb: parking_lot::RwLock::new(None),
            }),
            mains: Vec::new(),
        }
    }

    /// Attach an event-trace recorder; protocol calls to [`Ctx::trace`]
    /// will append to it. Call before [`Sim::run`].
    pub fn attach_trace(&mut self, trace: crate::trace::Trace) {
        *self.shared.trace.write() = Some(trace);
    }

    /// Install a seeded perturbation config
    /// ([`Perturb`](crate::perturb::Perturb)): delivery jitter, bounded
    /// reordering, compute stalls, straggler delays, dispatcher-side
    /// interrupt coalescing and handler stalls, and link-level
    /// bandwidth variation — all replayable from `(seed, config)`
    /// alone. Call before [`Sim::run`]. Without this call the run is
    /// exactly the unperturbed deterministic schedule.
    pub fn set_perturb(&mut self, cfg: crate::perturb::Perturb) {
        *self.shared.perturb.write() = Some(Arc::new(crate::perturb::PerturbState::new(cfg)));
    }

    /// Handle for creating shared [`SimVar`](crate::SimVar)s.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            shared: self.shared.clone(),
        }
    }

    /// Register a logical process. Order of registration defines
    /// [`LpId`]s (0, 1, ...). Must be called before [`Sim::run`].
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce(Ctx) + Send + 'static) -> LpId {
        let mut sched = self.shared.sched.lock();
        assert!(!sched.started, "spawn after run()");
        let id = sched.lps.len();
        sched.lps.push(Lp {
            time: SimTime::ZERO,
            state: LpState::Ready,
            name: name.into(),
            block_gen: 0,
            rechecking: false,
        });
        sched.ready.insert((SimTime::ZERO, id));
        sched.cvs.push(Arc::new(Condvar::new()));
        sched.live += 1;
        drop(sched);
        self.mains.push(Box::new(f));
        LpId(id)
    }

    /// Run to completion. Returns the report, or the first fatal outcome
    /// (deadlock with a per-LP diagnosis, or an LP panic).
    pub fn run(self) -> Result<Report, SimError> {
        let Sim { shared, mains } = self;
        let n = mains.len();
        assert!(n > 0, "no logical processes spawned");
        {
            let mut sched = shared.sched.lock();
            sched.started = true;
        }

        let handles: Vec<_> = mains
            .into_iter()
            .enumerate()
            .map(|(id, main)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lp{id}"))
                    .stack_size(512 * 1024)
                    .spawn(move || lp_thread(shared, id, main))
                    .expect("spawn LP thread")
            })
            .collect();

        // Optional hang diagnosis: SIMNET_WATCHDOG=1 dumps every LP's
        // scheduler state periodically.
        if std::env::var("SIMNET_WATCHDOG")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            let weak = Arc::downgrade(&shared);
            std::thread::spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_secs(5));
                let Some(sh) = weak.upgrade() else { return };
                let sched = sh.sched.lock();
                eprintln!("--- simnet watchdog: live={} ---", sched.live);
                for lp in &sched.lps {
                    eprintln!(
                        "  {:<24} t={:<14} {:?}",
                        lp.name,
                        format!("{}", lp.time),
                        lp.state
                    );
                }
            });
        }

        // Kick off: hand the turn to LP 0 (all clocks are zero; lowest id
        // wins the tie, same rule the scheduler uses throughout).
        let first = shared.sched.lock().dispatch();
        if let Some(cv) = first {
            cv.notify_one();
        }

        for h in handles {
            // AbortSim unwinds are quiet and expected on failure paths.
            let _ = h.join();
        }

        let sched = shared.sched.lock();
        if let Some(outcome) = sched.outcome.clone() {
            return Err(outcome);
        }
        let lp_times: Vec<SimTime> = sched.lps.iter().map(|lp| lp.time).collect();
        let end_time = lp_times.iter().copied().max().unwrap_or(SimTime::ZERO);
        Ok(Report {
            end_time,
            lp_times,
            metrics: shared.metrics.snapshot(),
            plan_by_comm: shared.plan_by_comm.snapshot(),
            tune_by_comm: shared.tune_by_comm.snapshot(),
            turn_handoffs: sched.turn_handoffs,
            spurious_wakes: sched.spurious_wakes,
        })
    }
}

fn lp_thread(shared: Arc<Shared>, id: usize, main: LpMain) {
    let ctx = Ctx {
        shared: shared.clone(),
        id,
    };
    // Wait for the initial grant.
    {
        let sched = shared.sched.lock();
        ctx.wait_for_turn(sched);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || main(ctx)));
    let mut sched = shared.sched.lock();
    match result {
        Ok(()) => {
            sched.lps[id].state = LpState::Done;
            sched.live -= 1;
            let next = sched.dispatch();
            drop(sched);
            if let Some(cv) = next {
                cv.notify_one();
            }
        }
        Err(payload) => {
            if payload.downcast_ref::<AbortSim>().is_some() {
                // Unwound because the run was already aborted; nothing to record.
                return;
            }
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            let name = sched.lps[id].name.clone();
            sched.lps[id].state = LpState::Done;
            sched.live -= 1;
            sched.abort_all(SimError::LpPanic { name, message });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn sim() -> Sim {
        Sim::new(MachineConfig::ibm_sp_colony())
    }

    #[test]
    fn single_lp_advances() {
        let mut s = sim();
        s.spawn("a", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimTime::from_us(10));
            assert_eq!(ctx.now(), SimTime::from_us(10));
            ctx.advance(SimTime::ZERO); // no-op
            assert_eq!(ctx.now(), SimTime::from_us(10));
        });
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(10));
        assert_eq!(r.lp_times, vec![SimTime::from_us(10)]);
    }

    #[test]
    fn min_time_first_is_deterministic() {
        // Two LPs interleave by clock; record the global order of actions.
        use std::sync::Mutex as StdMutex;
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut s = sim();
        let o1 = order.clone();
        s.spawn("a", move |ctx| {
            for i in 0..3 {
                ctx.advance(SimTime::from_us(10)); // a at 10, 20, 30
                o1.lock().unwrap().push(("a", i, ctx.now()));
            }
        });
        let o2 = order.clone();
        s.spawn("b", move |ctx| {
            for i in 0..2 {
                ctx.advance(SimTime::from_us(15)); // b at 15, 30
                o2.lock().unwrap().push(("b", i, ctx.now()));
            }
        });
        s.run().unwrap();
        let got = order.lock().unwrap().clone();
        // Global nondecreasing time order; tie at 30 goes to lower id (a).
        assert_eq!(
            got,
            vec![
                ("a", 0, SimTime::from_us(10)),
                ("b", 0, SimTime::from_us(15)),
                ("a", 1, SimTime::from_us(20)),
                ("a", 2, SimTime::from_us(30)),
                ("b", 1, SimTime::from_us(30)),
            ]
        );
    }

    #[test]
    fn report_collects_all_lp_times() {
        let mut s = sim();
        for i in 1..=4u64 {
            s.spawn(format!("lp{i}"), move |ctx| {
                ctx.advance(SimTime::from_us(i));
            });
        }
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(4));
        assert_eq!(
            r.lp_times,
            (1..=4u64).map(SimTime::from_us).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lp_panic_is_reported() {
        let mut s = sim();
        s.spawn("bad", |_ctx| panic!("boom"));
        s.spawn("other", |ctx| {
            // Would run forever if the abort did not propagate.
            let v = ctx.handle().var(false);
            v.wait(&ctx, "never", |b| *b);
        });
        match s.run() {
            Err(SimError::LpPanic { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_is_detected_and_diagnosed() {
        let mut s = sim();
        let h = s.handle();
        let v = h.var(0u32);
        let v2 = v.clone();
        s.spawn("stuck-a", move |ctx| {
            ctx.advance(SimTime::from_us(1));
            v.wait(&ctx, "value becomes 1", |x| *x == 1);
        });
        s.spawn("stuck-b", move |ctx| {
            v2.wait(&ctx, "value becomes 2", |x| *x == 2);
        });
        match s.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 2);
                let labels: Vec<_> = blocked.iter().map(|b| b.waiting_on).collect();
                assert!(labels.contains(&"value becomes 1"));
                assert!(labels.contains(&"value becomes 2"));
                let a = blocked.iter().find(|b| b.name == "stuck-a").unwrap();
                assert_eq!(a.time, SimTime::from_us(1));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn finished_lp_does_not_deadlock_others() {
        let mut s = sim();
        let h = s.handle();
        let v = h.var(false);
        let v2 = v.clone();
        s.spawn("early-exit", move |ctx| {
            ctx.advance(SimTime::from_us(2));
            v.store(&ctx, true);
            // exits immediately
        });
        s.spawn("waiter", move |ctx| {
            v2.wait(&ctx, "flag", |b| *b);
            ctx.advance(SimTime::from_us(1));
            assert_eq!(ctx.now(), SimTime::from_us(3));
        });
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_us(3));
    }

    #[test]
    #[should_panic(expected = "no logical processes")]
    fn empty_run_panics() {
        let s = sim();
        let _ = s.run();
    }

    #[test]
    fn wait_any_wakes_on_either_var_and_is_causal() {
        let mut s = sim();
        let h = s.handle();
        let a = h.var(0u32);
        let b = h.var(0u32);
        let (a2, b2) = (a.clone(), b.clone());
        s.spawn("writer", move |ctx| {
            ctx.advance(SimTime::from_us(5));
            a2.store(&ctx, 1); // spurious for the waiter (needs b)
            ctx.advance(SimTime::from_us(5));
            b2.store(&ctx, 7);
        });
        let (a3, b3) = (a.clone(), b.clone());
        s.spawn("waiter", move |ctx| {
            let keys = [a3.wait_key(), b3.wait_key()];
            ctx.wait_any_until(&keys, "b becomes 7", || b3.with(|v| *v == 7));
            // The spurious poke at 5us consumed no time; the enabling
            // write at 10us set the resume time.
            assert_eq!(ctx.now(), SimTime::from_us(10));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_any_already_ready_returns_immediately() {
        let mut s = sim();
        let v = s.handle().var(3u32);
        s.spawn("lp", move |ctx| {
            ctx.advance(SimTime::from_us(2));
            ctx.wait_any_until(&[v.wait_key()], "already", || v.with(|x| *x == 3));
            assert_eq!(ctx.now(), SimTime::from_us(2));
        });
        s.run().unwrap();
    }

    #[test]
    fn wait_any_deadlock_reports_label() {
        let mut s = sim();
        let v = s.handle().var(0u32);
        s.spawn("stuck", move |ctx| {
            ctx.wait_any_until(&[v.wait_key()], "never satisfied", || v.with(|x| *x == 9));
        });
        match s.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].waiting_on, "never satisfied");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// `n` LPs pass one shared counter around: LP `k` waits for
    /// `v == n*lap + k`, works 10 ns, increments. With `n > 2` every
    /// store also pokes the LPs whose turn it is not.
    fn shared_counter_ring(n: u64, laps: u64) -> Report {
        let mut s = sim();
        let v = s.handle().var(0u64);
        for k in 0..n {
            let v = v.clone();
            s.spawn(format!("lp{k}"), move |ctx| {
                for lap in 0..laps {
                    v.wait(&ctx, "my turn", |x| *x == n * lap + k);
                    ctx.advance(SimTime::from_ns(10));
                    v.update(&ctx, |x| *x += 1);
                }
            });
        }
        s.run().unwrap()
    }

    #[test]
    fn handoff_and_spurious_counters_are_exact() {
        // Ping-pong: the kick-off grant, `a` yielding to `b` at its
        // first advance, `b` blocking back to `a`, then one handoff per
        // store but the last (the writer blocks right after storing).
        // Every poke satisfies its waiter.
        let r = shared_counter_ring(2, 500);
        assert_eq!(r.end_time, SimTime::from_ns(10_000));
        assert_eq!((r.turn_handoffs, r.spurious_wakes), (1002, 0));
        // Four-LP ring: a store pokes the three other LPs. Two fail the
        // re-check (2 x 396 stores, then 2, 1, 0, 0 as LPs finish), and
        // the one whose turn it is loses the turn again after its
        // advance when a poked LP with a higher id is still to run: 3.75
        // grants per store.
        let r = shared_counter_ring(4, 100);
        assert_eq!(r.end_time, SimTime::from_ns(4_000));
        assert_eq!((r.turn_handoffs, r.spurious_wakes), (1498, 795));
    }

    #[test]
    fn token_ring_of_256_lps_keeps_exact_time() {
        // A lost wake-up would deadlock or stall the ring; a scheduling
        // error would move the clocks.
        const P: usize = 256;
        const LAPS: u64 = 300;
        let d = SimTime::from_ns(7);
        let mut s = sim();
        let h = s.handle();
        let tokens: Vec<_> = (0..P).map(|_| h.var(0u64)).collect();
        for k in 0..P {
            let mine = tokens[k].clone();
            let next = tokens[(k + 1) % P].clone();
            s.spawn(format!("lp{k}"), move |ctx| {
                for lap in 0..LAPS {
                    // LP 0 holds the token at the start.
                    let want = if k == 0 { lap } else { lap + 1 };
                    mine.wait(&ctx, "token", |c| *c >= want);
                    ctx.advance(d);
                    next.update(&ctx, |c| *c += 1);
                }
            });
        }
        let r = s.run().unwrap();
        let hop = |n: u64| SimTime::from_ps(d.as_ps() * n);
        assert_eq!(r.end_time, hop(LAPS * P as u64));
        let expect: Vec<_> = (0..P as u64)
            .map(|k| hop((LAPS - 1) * P as u64 + k + 1))
            .collect();
        assert_eq!(r.lp_times, expect);
    }

    #[test]
    fn lp_panic_with_255_parked_lps_is_reported() {
        let mut s = sim();
        let never = s.handle().var(false);
        s.spawn("bad", |ctx| {
            // Runs after every other LP has parked at t=0.
            ctx.advance(SimTime::from_us(1));
            panic!("boom at scale");
        });
        for k in 1..256 {
            let never = never.clone();
            s.spawn(format!("parked{k}"), move |ctx| {
                never.wait(&ctx, "never", |b| *b);
            });
        }
        match s.run() {
            Err(SimError::LpPanic { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom at scale"));
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn wait_any_leaves_unwritten_key_list_bounded() {
        // Every wake comes through `a`; each block also registers under
        // `b`, which is never written. Those stale entries must be pruned.
        const WAKES: u64 = 10_000;
        let mut s = sim();
        let h = s.handle();
        let a = h.var(0u64);
        let b = h.var(0u64);
        let (ka, kb) = (a.wait_key(), b.wait_key());
        let aw = a.clone();
        s.spawn("writer", move |ctx| {
            for i in 1..=WAKES {
                ctx.advance(SimTime::from_ns(1));
                aw.store(&ctx, i);
            }
        });
        s.spawn("waiter", move |ctx| {
            for i in 1..=WAKES {
                ctx.wait_any_until(&[ka, kb], "a reaches i", || a.with(|x| *x >= i));
            }
        });
        let r = s.run().unwrap();
        assert_eq!(r.end_time, SimTime::from_ns(WAKES));
        assert_eq!(r.spurious_wakes, 0);
        let sched = h.shared.sched.lock();
        assert_eq!(sched.waiter_list_len(ka), 0);
        assert!(
            sched.waiter_list_len(kb) <= 8,
            "stale waiters piled up: {}",
            sched.waiter_list_len(kb)
        );
    }
}
