//! The persistent, multi-tenant sweep engine.
//!
//! [`Sweep::run`](super::Sweep::run) is run-to-completion: it spawns a scoped
//! worker pool, drains one grid, and joins.  A [`SweepEngine`] instead owns
//! its worker pool for the **process lifetime** and accepts jobs at runtime —
//! the serving architecture behind the `mbfi-serve` daemon:
//!
//! * **Multi-tenant scheduling** — every job belongs to a registered
//!   [`ClientId`] with a priority; workers claim batches from the
//!   highest-priority client first, round-robin between equal-priority
//!   clients (a rotor rotates the scan start per claim), and a per-client
//!   **fairness quota** bounds how many batches one client may have in
//!   flight, so a large job cannot starve a small one.
//! * **Bounded admission** — at most [`EngineConfig::max_pending`] jobs are
//!   active at once; [`SweepEngine::submit`] blocks until a slot frees
//!   (backpressure) while [`SweepEngine::try_submit`] fails fast with
//!   [`SubmitError::Full`].
//! * **Streaming** — each job gets a private event channel
//!   ([`JobHandle::events`]): `BatchDone` / `RoundDone` progress,
//!   `CellFinished` with the cell's full result as soon as its last batch
//!   lands, and a final `Finished`.  [`JobHandle::wait`] folds the stream
//!   into a [`SweepReport`].
//! * **Graceful shutdown** — [`SweepEngine::shutdown`] (also run on `Drop`)
//!   stops admission, drains every in-flight job to completion, and joins
//!   the workers.
//!
//! The engine shares the scheduling core (`sweep::plan`) with the scoped
//! driver, so an engine job's results are **byte-identical** to
//! [`Sweep::run`] on the same units/campaigns/config: plans are built with
//! the same auto-batch formula (from the *job's* requested
//! [`SweepConfig::threads`], not the pool size), batches claim in index
//! order, rounds gate identically, and the final fold is the same
//! index-order merge.  The pool size, quotas, priorities and the admission
//! bound only move work between threads and moments — never what a cell
//! computes.  Enforced by the unit tests below, `tests/serve_equivalence.rs`
//! and `serve_bench --check`.
//!
//! Units are **owned** (`Arc`) rather than borrowed: a persistent pool
//! cannot hold references into a submitter's stack frame, so jobs carry
//! [`EngineUnit`]s and workers build the borrowed [`SweepUnit`] view on the
//! fly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::campaign::CampaignWarning;
use crate::golden::GoldenRun;
use crate::outcome::OutcomeCounts;
use crate::replay::CheckpointStore;
use mbfi_ir::CompiledModule;

use super::plan::{run_span, Completion, Plan, PlanError};
use super::{SweepCampaign, SweepCampaignResult, SweepConfig, SweepReport, SweepUnit};

/// Owned per-workload artifacts for engine jobs: the [`SweepUnit`] fields
/// behind `Arc`s, shareable across jobs, clients and the cross-request cell
/// cache of `mbfi-serve`.
#[derive(Debug, Clone)]
pub struct EngineUnit {
    /// The flat bytecode every experiment executes.
    pub code: Arc<CompiledModule>,
    /// The fault-free profiling run experiments are classified against.
    pub golden: Arc<GoldenRun>,
    /// Optional golden-run checkpoints (byte-transparent, see
    /// [`crate::replay`]).
    pub store: Option<Arc<CheckpointStore>>,
}

impl EngineUnit {
    /// Wrap freshly built artifacts (no checkpoint store).
    pub fn new(code: CompiledModule, golden: GoldenRun) -> EngineUnit {
        EngineUnit {
            code: Arc::new(code),
            golden: Arc::new(golden),
            store: None,
        }
    }

    /// The borrowed view the shared scheduling core works on.
    pub fn view(&self) -> SweepUnit<'_> {
        SweepUnit {
            code: &self.code,
            golden: &self.golden,
            store: self.store.as_deref(),
        }
    }
}

/// A registered tenant of the engine (see
/// [`SweepEngine::register_client`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An accepted job, unique per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw id (e.g. for wire protocols).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Knobs of the persistent engine.  Like [`SweepConfig`], none of them
/// affect results — only scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Worker threads owned by the engine (0 = all available parallelism).
    pub threads: usize,
    /// Admission bound: at most this many jobs active at once
    /// (0 = default 64).  `submit` blocks while full; `try_submit` errors.
    pub max_pending: usize,
    /// Fairness quota: at most this many batches in flight per client
    /// (0 = the pool size, i.e. a lone client may saturate the pool).
    pub quota: usize,
}

/// Default admission bound when [`EngineConfig::max_pending`] is 0.
const DEFAULT_MAX_PENDING: usize = 64;

/// One job: the grid to run, who submitted it, and how.
///
/// `config.threads` does **not** size any pool here — the engine's own pool
/// runs the job — but it still seeds the fixed-n auto-batch formula exactly
/// as it does for [`Sweep::run`](super::Sweep::run), so plans (and therefore
/// results) are identical to an in-process sweep with the same config.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The submitting tenant (must be registered).
    pub client: ClientId,
    /// Per-workload artifacts, referenced by [`SweepCampaign::unit`].
    pub units: Vec<EngineUnit>,
    /// The grid, in submission order.
    pub campaigns: Vec<SweepCampaign>,
    /// Sweep knobs (`threads` feeds the auto-batch formula only).
    pub config: SweepConfig,
}

/// Progress of one job, streamed over [`JobHandle::events`] in the order
/// things happen.  Cell indices are submission indices into
/// [`JobSpec::campaigns`].
#[derive(Debug)]
pub enum JobEvent {
    /// A batch of `cell` completed (mirrors the telemetry `batch_done`
    /// schema; engine batches are always wall-clock timed).
    BatchDone {
        /// Submission index of the campaign.
        cell: usize,
        /// Batch index within the cell.
        batch: usize,
        /// Experiments in the batch.
        experiments: u64,
        /// The batch's own outcome tally.
        counts: OutcomeCounts,
        /// Wall-clock time of the batch.
        wall_ns: u64,
        /// Engine worker that ran it.
        worker: usize,
    },
    /// An adaptive round boundary was evaluated for `cell`.
    RoundDone {
        /// Submission index of the campaign.
        cell: usize,
        /// 1-based completed round count.
        round: u32,
        /// Merged experiments so far.
        experiments: u64,
        /// SDC half-width after this round (percentage points).
        sdc_half_width_pct: f64,
        /// Detection half-width after this round (percentage points).
        detection_half_width_pct: f64,
        /// Whether the stop rule fired.
        stopped: bool,
    },
    /// `cell`'s last batch landed; `result` is final and byte-identical to
    /// the scoped driver's result for the same cell.
    CellFinished {
        /// Submission index of the campaign.
        cell: usize,
        /// The folded result.
        result: Box<SweepCampaignResult>,
    },
    /// Every cell of the job finished; no further events follow.
    Finished,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission bound is reached (only from
    /// [`SweepEngine::try_submit`]; [`SweepEngine::submit`] blocks instead).
    Full,
    /// The engine is draining; no new jobs are accepted.
    ShuttingDown,
    /// The [`JobSpec::client`] is not registered (or already unregistered).
    UnknownClient,
    /// A campaign's experiment budget exceeds `u32::MAX` (see
    /// [`PlanError`]).
    TooManyExperiments {
        /// Submission index of the offending campaign.
        campaign: usize,
        /// Its requested budget.
        experiments: usize,
    },
    /// A campaign references a unit index beyond [`JobSpec::units`].
    BadUnit {
        /// Submission index of the offending campaign.
        campaign: usize,
        /// The out-of-range unit index it referenced.
        unit: usize,
        /// How many units the job actually supplied.
        units: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => f.write_str("engine admission queue is full"),
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
            SubmitError::UnknownClient => f.write_str("client is not registered"),
            SubmitError::TooManyExperiments {
                campaign,
                experiments,
            } => write!(
                f,
                "campaign {campaign}: {}",
                PlanError::TooManyExperiments {
                    experiments: *experiments
                }
            ),
            SubmitError::BadUnit {
                campaign,
                unit,
                units,
            } => write!(
                f,
                "campaign {campaign} references unit {unit} but only {units} units were supplied"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Your end of an accepted job: identity, the deduplicated warnings (known
/// at submit time) and the live event stream.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    cells: usize,
    warnings: Vec<CampaignWarning>,
    events: mpsc::Receiver<JobEvent>,
}

impl JobHandle {
    /// The engine-unique job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Number of cells (campaigns) in the job.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Distinct warnings across the job's campaigns, in submission order
    /// (identical to [`SweepReport::warnings`] for the same grid).
    pub fn warnings(&self) -> &[CampaignWarning] {
        &self.warnings
    }

    /// Blocking: the next event, or `None` after `Finished` (or if the
    /// engine died).
    pub fn next_event(&self) -> Option<JobEvent> {
        self.events.recv().ok()
    }

    /// Drain the stream into a [`SweepReport`], byte-identical to
    /// [`Sweep::run`](super::Sweep::run) on the same grid.
    pub fn wait(self) -> SweepReport {
        let mut slots: Vec<Option<SweepCampaignResult>> = (0..self.cells).map(|_| None).collect();
        for event in self.events.iter() {
            match event {
                JobEvent::CellFinished { cell, result } => slots[cell] = Some(*result),
                JobEvent::Finished => break,
                _ => {}
            }
        }
        SweepReport {
            results: slots
                .into_iter()
                .map(|r| r.expect("engine job finished without producing every result"))
                .collect(),
            warnings: self.warnings,
        }
    }
}

/// One admitted job as the scheduler sees it.
struct Job {
    id: u64,
    client: u64,
    keep_records: bool,
    plans: Vec<Plan>,
    units: Vec<EngineUnit>,
    /// Cells not yet finished; the job leaves the schedule at 0.
    live: AtomicUsize,
    events: mpsc::Sender<JobEvent>,
}

struct ClientState {
    priority: u8,
    /// Batches of this client currently being executed by workers.
    inflight: usize,
    /// Unregistered while still owning work; reaped when it drains.
    closed: bool,
}

/// Everything behind the scheduler mutex.
struct Sched {
    /// Active jobs in admission order.
    jobs: Vec<Arc<Job>>,
    clients: HashMap<u64, ClientState>,
    /// Advances once per successful claim; rotates the scan start between
    /// equal-priority clients so claims round-robin.
    rotor: usize,
    shutdown: bool,
    next_client: u64,
    next_job: u64,
}

struct Shared {
    sched: Mutex<Sched>,
    /// Workers park here; notified on submit, batch completion and shutdown.
    work: Condvar,
    /// Blocked submitters park here; notified when a job leaves the
    /// schedule and on shutdown.
    capacity: Condvar,
    /// Resolved per-client in-flight quota (≥ 1).
    quota: usize,
    /// Resolved admission bound (≥ 1).
    max_pending: usize,
}

const LOCK_POISONED: &str = "engine scheduler lock poisoned";

/// The persistent campaign engine; see the module docs.
pub struct SweepEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl SweepEngine {
    /// Spawn the worker pool; it runs until [`SweepEngine::shutdown`] (or
    /// `Drop`).
    pub fn new(config: EngineConfig) -> SweepEngine {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.threads
        }
        .max(1);
        let quota = if config.quota == 0 {
            threads
        } else {
            config.quota
        };
        let max_pending = if config.max_pending == 0 {
            DEFAULT_MAX_PENDING
        } else {
            config.max_pending
        };
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                clients: HashMap::new(),
                rotor: 0,
                shutdown: false,
                next_client: 0,
                next_job: 0,
            }),
            work: Condvar::new(),
            capacity: Condvar::new(),
            quota,
            max_pending,
        });
        let workers = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, t))
            })
            .collect();
        SweepEngine {
            shared,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// Size of the engine's worker pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Register a tenant.  Higher `priority` wins every claim over lower;
    /// equal priorities round-robin.
    pub fn register_client(&self, priority: u8) -> ClientId {
        let mut sched = self.shared.sched.lock().expect(LOCK_POISONED);
        let id = sched.next_client;
        sched.next_client += 1;
        sched.clients.insert(
            id,
            ClientState {
                priority,
                inflight: 0,
                closed: false,
            },
        );
        ClientId(id)
    }

    /// Unregister a tenant.  Jobs it still owns drain normally; the client
    /// record is reaped once its last batch lands.
    pub fn unregister_client(&self, client: ClientId) {
        let mut sched = self.shared.sched.lock().expect(LOCK_POISONED);
        if let Some(state) = sched.clients.get_mut(&client.0) {
            state.closed = true;
        }
        reap_client(&mut sched, client.0);
    }

    /// Submit a job, blocking while the engine is at its admission bound.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_inner(spec, true)
    }

    /// [`SweepEngine::submit`] without the blocking: fails fast with
    /// [`SubmitError::Full`] at the admission bound.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_inner(spec, false)
    }

    fn submit_inner(&self, spec: JobSpec, block: bool) -> Result<JobHandle, SubmitError> {
        for (i, c) in spec.campaigns.iter().enumerate() {
            if c.unit >= spec.units.len() {
                return Err(SubmitError::BadUnit {
                    campaign: i,
                    unit: c.unit,
                    units: spec.units.len(),
                });
            }
        }
        // Plans are built exactly as `Sweep::run_streamed_with` builds them —
        // same auto-batch formula from the job's own `config.threads` — so
        // engine results are byte-identical to the scoped driver's.  Built
        // outside the scheduler lock: depth-sorting a stored unit samples
        // the whole campaign.
        let threads = if spec.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            spec.config.threads
        };
        let total_experiments: usize = spec.campaigns.iter().map(|c| c.spec.experiments).sum();
        let auto_batch = total_experiments.div_ceil(threads.max(1) * 8).clamp(1, 64);
        let plans: Vec<Plan> = spec
            .campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                Plan::new(
                    c,
                    &spec.units[c.unit].view(),
                    spec.config.batch_size,
                    auto_batch,
                    spec.config.precision,
                )
                .map_err(|PlanError::TooManyExperiments { experiments }| {
                    SubmitError::TooManyExperiments {
                        campaign: i,
                        experiments,
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        // Deduplicated in submission order, like `SweepReport::warnings`.
        // The engine does not print them — they are data for the caller.
        let mut warnings: Vec<CampaignWarning> = Vec::new();
        for plan in &plans {
            for w in &plan.warnings {
                if !warnings.contains(w) {
                    warnings.push(*w);
                }
            }
        }

        let (tx, rx) = mpsc::channel::<JobEvent>();
        let cells = plans.len();
        // Cells without a single batch (0 experiments) cannot be finalized
        // by a worker; emit their empty results up front, mirroring the
        // scoped driver.
        let mut live = 0usize;
        for (index, plan) in plans.iter().enumerate() {
            if plan.batches() == 0 {
                let _ = tx.send(JobEvent::CellFinished {
                    cell: index,
                    result: Box::new(plan.empty_result()),
                });
            } else {
                live += 1;
            }
        }

        let mut sched = self.shared.sched.lock().expect(LOCK_POISONED);
        loop {
            if sched.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            match sched.clients.get(&spec.client.0) {
                Some(state) if !state.closed => {}
                _ => return Err(SubmitError::UnknownClient),
            }
            if sched.jobs.len() < self.shared.max_pending {
                break;
            }
            if !block {
                return Err(SubmitError::Full);
            }
            sched = self.shared.capacity.wait(sched).expect(LOCK_POISONED);
        }
        let id = sched.next_job;
        sched.next_job += 1;
        if live == 0 {
            let _ = tx.send(JobEvent::Finished);
        } else {
            sched.jobs.push(Arc::new(Job {
                id,
                client: spec.client.0,
                keep_records: spec.config.keep_records,
                plans,
                units: spec.units,
                live: AtomicUsize::new(live),
                events: tx,
            }));
            drop(sched);
            self.shared.work.notify_all();
        }
        Ok(JobHandle {
            id: JobId(id),
            cells,
            warnings,
            events: rx,
        })
    }

    /// Stop admission, drain every in-flight job to completion, and join
    /// the workers.  Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut sched = self.shared.sched.lock().expect(LOCK_POISONED);
            sched.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.capacity.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect(LOCK_POISONED);
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SweepEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An engine worker: claim a batch under the scheduler policy, run it
/// outside the lock, repeat; park on the `work` condvar when nothing is
/// claimable; exit once shut down **and** drained.
fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let claimed = {
            let mut sched = shared.sched.lock().expect(LOCK_POISONED);
            loop {
                if let Some(claim) = claim_batch(&mut sched, shared.quota) {
                    break Some(claim);
                }
                if sched.shutdown && sched.jobs.is_empty() {
                    break None;
                }
                sched = shared.work.wait(sched).expect(LOCK_POISONED);
            }
        };
        let Some((job, cell, batch)) = claimed else {
            return;
        };
        run_engine_batch(worker, &job, cell, batch);
        finish_batch(shared, &job);
    }
}

/// The scheduling policy, applied under the lock: highest client priority
/// first, rotor round-robin between equal priorities, skip clients at their
/// in-flight quota, then first job / first cell / front-of-deque within the
/// chosen client.  None of it affects results — only which worker runs
/// which batch when.
fn claim_batch(sched: &mut Sched, quota: usize) -> Option<(Arc<Job>, usize, usize)> {
    // Distinct clients owning active jobs, in admission order, with their
    // priorities.
    let mut clients: Vec<(u64, u8)> = Vec::new();
    for job in &sched.jobs {
        if !clients.iter().any(|&(c, _)| c == job.client) {
            let priority = sched.clients.get(&job.client).map_or(0, |s| s.priority);
            clients.push((job.client, priority));
        }
    }
    if clients.is_empty() {
        return None;
    }
    // Stable sort keeps admission order within a priority; then rotate each
    // equal-priority run by the rotor so consecutive claims start at
    // different clients.
    clients.sort_by_key(|&(_, priority)| std::cmp::Reverse(priority));
    let mut order: Vec<u64> = Vec::with_capacity(clients.len());
    let mut i = 0;
    while i < clients.len() {
        let mut j = i;
        while j < clients.len() && clients[j].1 == clients[i].1 {
            j += 1;
        }
        let group = &clients[i..j];
        let r = sched.rotor % group.len();
        order.extend(group[r..].iter().chain(&group[..r]).map(|&(c, _)| c));
        i = j;
    }
    for client in order {
        let at_quota = sched
            .clients
            .get(&client)
            .is_some_and(|s| s.inflight >= quota);
        if at_quota {
            continue;
        }
        for job in &sched.jobs {
            if job.client != client {
                continue;
            }
            for (cell, plan) in job.plans.iter().enumerate() {
                if let Some(batch) = plan.take_batch() {
                    let job = Arc::clone(job);
                    if let Some(state) = sched.clients.get_mut(&client) {
                        state.inflight += 1;
                    }
                    sched.rotor = sched.rotor.wrapping_add(1);
                    return Some((job, cell, batch));
                }
            }
        }
    }
    None
}

/// Post-batch bookkeeping: release the quota slot, retire the job once its
/// last cell finished (emitting `Finished` exactly once and freeing an
/// admission slot), reap closed clients, and wake the pool — the batch may
/// have released an adaptive round.
fn finish_batch(shared: &Shared, job: &Arc<Job>) {
    let mut sched = shared.sched.lock().expect(LOCK_POISONED);
    if let Some(state) = sched.clients.get_mut(&job.client) {
        state.inflight -= 1;
    }
    if job.live.load(Ordering::Acquire) == 0 {
        if let Some(pos) = sched.jobs.iter().position(|j| j.id == job.id) {
            sched.jobs.remove(pos);
            let _ = job.events.send(JobEvent::Finished);
            shared.capacity.notify_all();
        }
    }
    reap_client(&mut sched, job.client);
    drop(sched);
    shared.work.notify_all();
}

/// Drop a closed client's record once nothing of it remains in the engine.
fn reap_client(sched: &mut Sched, client: u64) {
    let drained = !sched.jobs.iter().any(|j| j.client == client);
    let reapable = sched
        .clients
        .get(&client)
        .is_some_and(|s| s.closed && s.inflight == 0 && drained);
    if reapable {
        sched.clients.remove(&client);
    }
}

/// Run one batch and apply the round protocol ([`Plan::complete_batch`],
/// shared with the scoped driver), reporting through job events.
fn run_engine_batch(worker: usize, job: &Job, cell: usize, b: usize) {
    let plan = &job.plans[cell];
    let unit = job.units[plan.unit].view();
    let (start, end) = plan.spans[b];
    let batch_start = Instant::now();
    let out = run_span(plan, b, &unit, job.keep_records);
    let _ = job.events.send(JobEvent::BatchDone {
        cell,
        batch: b,
        experiments: u64::from(end - start),
        counts: out.counts,
        wall_ns: batch_start.elapsed().as_nanos() as u64,
        worker,
    });
    let completion = plan.complete_batch(
        b,
        out,
        job.keep_records,
        |round, merged, precision, stopped| {
            let (sdc_hw, det_hw) = precision.half_widths(merged);
            let _ = job.events.send(JobEvent::RoundDone {
                cell,
                round,
                experiments: merged.total(),
                sdc_half_width_pct: sdc_hw,
                detection_half_width_pct: det_hw,
                stopped,
            });
        },
    );
    if let Completion::Finished(result) = completion {
        let _ = job.events.send(JobEvent::CellFinished { cell, result });
        job.live.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Precision;
    use crate::campaign::CampaignSpec;
    use crate::fault_model::{FaultModel, WinSize};
    use crate::golden::GoldenRun;
    use crate::replay::{CheckpointConfig, CheckpointStore};
    use crate::sweep::Sweep;
    use crate::technique::Technique;
    use mbfi_ir::{Module, ModuleBuilder, Type};

    fn workload(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, n, |f, i| {
                let slot = f.urem(Type::I64, i, 16i64);
                let v = f.mul(Type::I64, i, 5i64);
                f.store_elem(Type::I64, data, slot, v);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.load_elem(Type::I64, data, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        mb.finish()
    }

    fn unit(n: i64, with_store: bool) -> EngineUnit {
        let code = CompiledModule::lower(&workload(n));
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let store = with_store.then(|| {
            Arc::new(
                CheckpointStore::capture_compiled(
                    &code,
                    &golden,
                    CheckpointConfig::with_interval(25),
                )
                .unwrap(),
            )
        });
        EngineUnit {
            code: Arc::new(code),
            golden: Arc::new(golden),
            store,
        }
    }

    fn grid(experiments: usize) -> Vec<SweepCampaign> {
        let mut out = Vec::new();
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(0)),
                FaultModel::multi_bit(4, WinSize::Random { lo: 1, hi: 12 }),
            ] {
                out.push(SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        technique,
                        model,
                        experiments,
                        seed: 0x5EE9,
                        hang_factor: 8,
                        threads: 1,
                    },
                });
            }
        }
        out
    }

    /// An engine job's report is byte-identical to `Sweep::run` on the same
    /// grid — fixed-n and adaptive, with and without a store, at several
    /// pool sizes and job thread hints.
    #[test]
    fn engine_report_matches_scoped_sweep() {
        let units = vec![unit(48, false), unit(96, true)];
        let mut campaigns = grid(40);
        campaigns.extend(grid(25).into_iter().map(|mut c| {
            c.unit = 1;
            c
        }));
        for precision in [
            None,
            Some(Precision {
                target_half_width_pct: 12.0,
                min_experiments: 10,
                max_experiments: 60,
                ..Precision::default()
            }),
        ] {
            for job_threads in [1usize, 4] {
                let config = SweepConfig {
                    threads: job_threads,
                    keep_records: true,
                    precision,
                    ..SweepConfig::default()
                };
                let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
                let expected = Sweep::run(&views, &campaigns, &config);
                for pool in [1usize, 4] {
                    let engine = SweepEngine::new(EngineConfig {
                        threads: pool,
                        ..EngineConfig::default()
                    });
                    let client = engine.register_client(0);
                    let handle = engine
                        .submit(JobSpec {
                            client,
                            units: units.clone(),
                            campaigns: campaigns.clone(),
                            config,
                        })
                        .unwrap();
                    let report = handle.wait();
                    assert_eq!(
                        report,
                        expected,
                        "engine diverged from scoped sweep (pool={pool}, \
                         job_threads={job_threads}, adaptive={})",
                        precision.is_some()
                    );
                }
            }
        }
    }

    /// Concurrent jobs from two clients both match the scoped driver, and
    /// the event stream carries per-cell progress.
    #[test]
    fn concurrent_clients_stream_identical_results() {
        let units = vec![unit(48, false)];
        let campaigns = grid(30);
        let config = SweepConfig {
            threads: 2,
            ..SweepConfig::default()
        };
        let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
        let expected = Sweep::run(&views, &campaigns, &config);
        let engine = SweepEngine::new(EngineConfig {
            threads: 4,
            quota: 2,
            ..EngineConfig::default()
        });
        let low = engine.register_client(0);
        let high = engine.register_client(5);
        let handles: Vec<JobHandle> = [low, high]
            .iter()
            .map(|&client| {
                engine
                    .submit(JobSpec {
                        client,
                        units: units.clone(),
                        campaigns: campaigns.clone(),
                        config,
                    })
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let mut batch_experiments = 0u64;
            let mut finished_cells = 0usize;
            let mut slots: Vec<Option<SweepCampaignResult>> =
                (0..handle.cells()).map(|_| None).collect();
            while let Some(event) = handle.next_event() {
                match event {
                    JobEvent::BatchDone { experiments, .. } => batch_experiments += experiments,
                    JobEvent::CellFinished { cell, result } => {
                        finished_cells += 1;
                        slots[cell] = Some(*result);
                    }
                    JobEvent::Finished => break,
                    JobEvent::RoundDone { .. } => {}
                }
            }
            assert_eq!(finished_cells, campaigns.len());
            let results: Vec<SweepCampaignResult> = slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(results, expected.results);
            let total: u64 = results.iter().map(|r| r.result.total()).sum();
            assert_eq!(
                batch_experiments, total,
                "batch events must cover every cell"
            );
        }
        engine.unregister_client(low);
        engine.unregister_client(high);
    }

    /// `try_submit` fails fast at the admission bound; blocking `submit`
    /// would wait.  Shutdown then drains the in-flight job completely.
    #[test]
    fn admission_bound_and_graceful_drain() {
        let units = vec![unit(48, false)];
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            max_pending: 1,
            ..EngineConfig::default()
        });
        let client = engine.register_client(0);
        let big = JobSpec {
            client,
            units: units.clone(),
            campaigns: vec![SweepCampaign {
                unit: 0,
                spec: CampaignSpec {
                    experiments: 20_000,
                    threads: 1,
                    hang_factor: 8,
                    ..CampaignSpec::default()
                },
            }],
            config: SweepConfig::default(),
        };
        let handle = engine.submit(big.clone()).unwrap();
        // The 20k-experiment job is still active (one worker, ~ms per
        // hundred experiments), so the second submission must bounce.
        let err = engine.try_submit(big).unwrap_err();
        assert_eq!(err, SubmitError::Full);
        engine.shutdown();
        let report = handle.wait();
        assert_eq!(report.results[0].result.total(), 20_000);
        let after = engine.try_submit(JobSpec {
            client,
            units,
            campaigns: vec![],
            config: SweepConfig::default(),
        });
        assert_eq!(after.unwrap_err(), SubmitError::ShuttingDown);
    }

    #[test]
    fn submit_validation_errors() {
        let engine = SweepEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let units = vec![unit(48, false)];
        let unknown = engine.try_submit(JobSpec {
            client: ClientId(999),
            units: units.clone(),
            campaigns: vec![],
            config: SweepConfig::default(),
        });
        assert_eq!(unknown.unwrap_err(), SubmitError::UnknownClient);
        let client = engine.register_client(0);
        let bad = engine.try_submit(JobSpec {
            client,
            units,
            campaigns: vec![SweepCampaign {
                unit: 3,
                spec: CampaignSpec::default(),
            }],
            config: SweepConfig::default(),
        });
        assert_eq!(
            bad.unwrap_err(),
            SubmitError::BadUnit {
                campaign: 0,
                unit: 3,
                units: 1
            }
        );
        let experiments = u32::MAX as usize + 1;
        let huge = engine.try_submit(JobSpec {
            client,
            units: vec![unit(48, true)],
            campaigns: vec![
                SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec::default(),
                },
                SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        experiments,
                        ..CampaignSpec::default()
                    },
                },
            ],
            config: SweepConfig::default(),
        });
        assert_eq!(
            huge.unwrap_err(),
            SubmitError::TooManyExperiments {
                campaign: 1,
                experiments
            }
        );
    }

    /// Zero-experiment cells finish up front; a job of only such cells
    /// completes without touching a worker, and `Drop` never hangs.
    #[test]
    fn empty_jobs_and_drop_shutdown() {
        let units = vec![unit(32, false)];
        let engine = SweepEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let client = engine.register_client(1);
        let handle = engine
            .submit(JobSpec {
                client,
                units,
                campaigns: vec![SweepCampaign {
                    unit: 0,
                    spec: CampaignSpec {
                        experiments: 0,
                        threads: 1,
                        ..CampaignSpec::default()
                    },
                }],
                config: SweepConfig::default(),
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(report.results[0].result.total(), 0);
        drop(engine);
    }
}
