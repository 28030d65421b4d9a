//! Multi-session manager: many concurrent [`SessionState`] machines
//! over one shared pool of remote workers.
//!
//! # Determinism under remote evaluation
//!
//! Each resident session runs the same [`EventLoop`] as the in-process
//! virtual executor. A remote worker only reports an attempt's cost
//! when its result comes back, so the manager dispatches with a
//! resolver that returns nothing and feeds results in through
//! [`EventLoop::resolve`] as workers report. The loop's dispatch,
//! stall and fold rules make the trajectory of every session a pure
//! function of its spec, byte-identical to an in-process
//! `run_session_resilient` over the same black box — which is exactly
//! what the service chaos suite asserts through a real socket pair.
//! The manager itself only tracks which connection leases which
//! attempt.
//!
//! Within one session the pump is lockstep (one dispatch outstanding
//! after the initial worker fill — the price of bit-exactness when
//! costs arrive late); throughput comes from running many sessions
//! concurrently, which is the service's job. Fair-share allocation
//! leases work from the session with the fewest active leases, ties
//! broken by lowest id, so one greedy session cannot starve the rest.
//!
//! # Bounded residency
//!
//! Sessions are evicted least-recently-used to an `easybo-persist`
//! snapshot whenever more than `resident_budget` are live, and
//! rehydrated on demand — the kill/resume path, reused as a memory
//! valve.

use std::collections::BTreeMap;

use easybo_exec::{
    AsyncPolicy, AttemptContext, BlackBox, EvalOutcome, EventLoop, Outstanding, RetryPolicy,
    RunResult, SessionState,
};
use easybo_persist::{decode_snapshot, encode_snapshot, RunSnapshot};
use easybo_telemetry::{Event, Telemetry};

/// Everything needed to run — and re-run, after eviction — one
/// optimization session.
pub struct SessionSpec {
    /// Black-box name workers resolve in their local registry.
    pub bench: String,
    /// Virtual worker pool size (the async batch parallelism).
    pub workers: usize,
    /// Total task budget.
    pub max_evals: usize,
    /// Initial design points.
    pub init: Vec<Vec<f64>>,
    /// Retry/backoff/timeout policy.
    pub retry: RetryPolicy,
    /// Configuration fingerprint stamped into snapshots.
    pub fingerprint: u64,
    /// Factory for the session's policy; called once at open and once
    /// per rehydration (followed by `restore_state`).
    pub policy: Box<dyn Fn() -> Box<dyn AsyncPolicy + Send> + Send>,
}

/// One leased evaluation, as handed to a remote worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Work {
    /// Owning session.
    pub session: u64,
    /// Task id within the session.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    /// Virtual worker slot (feeds the deterministic [`AttemptContext`]).
    pub worker: usize,
    /// Query point.
    pub x: Vec<f64>,
    /// Black-box name to evaluate.
    pub bench: String,
}

impl Work {
    /// Evaluates this work item against a local black box exactly the
    /// way the in-process executor would (`panics_caught = false`, so
    /// injected faults surface as failed evaluations, not panics).
    pub fn evaluate(&self, bb: &dyn BlackBox) -> easybo_exec::Evaluation {
        bb.evaluate_attempt(
            &self.x,
            AttemptContext {
                task: self.task,
                attempt: self.attempt,
                worker: self.worker,
                panics_caught: false,
            },
        )
    }
}

/// Manager counters; the session-manager invariants proptest pins the
/// conservation law
/// `asks == tells + reclaimed + active_leases`
/// (every granted lease is retired exactly once — by the result that
/// lands it, by its connection dying, or by its session being evicted
/// — or is still active).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Leases granted ("asks" served with work).
    pub asks: u64,
    /// Leases retired by an accepted result.
    pub tells: u64,
    /// Leases retired by connection death or eviction.
    pub reclaimed: u64,
    /// Results accepted, including late ones whose lease was already
    /// reclaimed (`accepted >= tells`).
    pub accepted: u64,
    /// Results rejected as stale (unknown dispatch, evicted or
    /// finished session, duplicate delivery).
    pub stale_tells: u64,
    /// Sessions evicted to snapshots.
    pub evictions: u64,
    /// Sessions rebuilt from snapshots.
    pub rehydrations: u64,
}

/// A live session: its event loop, its policy, and the connection
/// leasing each unresolved `(task, attempt)`.
struct Resident {
    lp: EventLoop,
    policy: Box<dyn AsyncPolicy + Send>,
    leases: BTreeMap<(usize, usize), u64>,
    last_touch: u64,
}

impl Resident {
    fn new(lp: EventLoop, policy: Box<dyn AsyncPolicy + Send>) -> Self {
        Resident {
            lp,
            policy,
            leases: BTreeMap::new(),
            last_touch: 0,
        }
    }

    /// The first unresolved attempt no connection holds, in dispatch
    /// order.
    fn leasable(&self) -> Option<&Outstanding> {
        self.lp
            .unresolved()
            .find(|d| !self.leases.contains_key(&(d.task, d.attempt)))
    }
}

/// The resolver for remote evaluation: results arrive later, through
/// [`SessionManager::tell`].
fn remote(_x: &[f64], _ctx: AttemptContext) -> Option<(f64, f64, EvalOutcome)> {
    None
}

/// Drives many concurrent optimization sessions over a shared remote
/// worker pool. See the module docs for the determinism and residency
/// contracts.
pub struct SessionManager {
    specs: BTreeMap<u64, SessionSpec>,
    resident: BTreeMap<u64, Resident>,
    /// Evicted sessions as encoded `easybo-persist` snapshot bytes.
    evicted: BTreeMap<u64, Vec<u8>>,
    finished: BTreeMap<u64, RunResult>,
    next_id: u64,
    touch: u64,
    resident_budget: usize,
    stats: ManagerStats,
    telemetry: Telemetry,
}

impl SessionManager {
    /// A manager keeping at most `resident_budget` sessions in memory
    /// (older ones are snapshotted out LRU). Telemetry is disabled;
    /// attach one with [`SessionManager::with_telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `resident_budget == 0`.
    pub fn new(resident_budget: usize) -> Self {
        assert!(resident_budget > 0, "need room for at least one session");
        SessionManager {
            specs: BTreeMap::new(),
            resident: BTreeMap::new(),
            evicted: BTreeMap::new(),
            finished: BTreeMap::new(),
            next_id: 0,
            touch: 0,
            resident_budget,
            stats: ManagerStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (service counters plus the
    /// `SessionEvicted`/`SessionRehydrated` events).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Opens a new session and returns its id. The initial worker fill
    /// is dispatched immediately; if opening pushes residency over
    /// budget, the least-recently-used *other* session is evicted.
    pub fn open_session(&mut self, spec: SessionSpec) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let session = SessionState::new(spec.workers, spec.max_evals, &spec.init);
        let mut policy = (spec.policy)();
        let lp = EventLoop::fresh(
            session,
            spec.retry.clone(),
            policy.as_mut(),
            &self.telemetry,
            &mut remote,
        );
        self.specs.insert(id, spec);
        self.resident.insert(id, Resident::new(lp, policy));
        self.touch_session(id);
        self.finalize_if_done(id);
        self.enforce_budget(Some(id));
        id
    }

    /// Leases one work item to connection `conn`, fair-share across
    /// sessions: fewest active leases first, lowest id on ties.
    /// Returns `None` when no session has leasable work (all
    /// outstanding dispatches are leased, stalled, or resident
    /// sessions are drained).
    pub fn ask(&mut self, conn: u64) -> Option<Work> {
        let pick = self
            .resident
            .iter()
            .filter(|(_, r)| r.leasable().is_some())
            .min_by_key(|(id, r)| (r.leases.len(), **id))
            .map(|(id, _)| *id)?;
        let r = self.resident.get_mut(&pick).expect("picked resident");
        let d = r.leasable().expect("picked session has leasable work");
        let work = Work {
            session: pick,
            task: d.task,
            attempt: d.attempt,
            worker: d.worker,
            x: d.x.clone(),
            bench: self.specs[&pick].bench.clone(),
        };
        r.leases.insert((work.task, work.attempt), conn);
        self.stats.asks += 1;
        self.telemetry.incr("service_asks", 1);
        self.touch_session(pick);
        Some(work)
    }

    /// Accepts one remote result. Returns whether it was folded into
    /// the session (`false` = stale: unknown or already-resolved
    /// dispatch, evicted/finished session, duplicate delivery).
    ///
    /// Results are matched by `(session, task, attempt)` regardless of
    /// which connection leased the dispatch — a worker whose
    /// connection died mid-report can reconnect and land the same
    /// result, and evaluation purity makes the copies identical.
    #[allow(clippy::too_many_arguments)]
    pub fn tell(
        &mut self,
        _conn: u64,
        session: u64,
        task: usize,
        attempt: usize,
        value: f64,
        cost: f64,
        outcome: EvalOutcome,
    ) -> bool {
        let accepted = self
            .resident
            .get_mut(&session)
            .is_some_and(|r| r.lp.resolve(task, attempt, (value, cost, outcome)));
        if !accepted {
            self.stats.stale_tells += 1;
            self.telemetry.incr("service_stale_tells", 1);
            return false;
        }
        let r = self.resident.get_mut(&session).expect("accepted above");
        if r.leases.remove(&(task, attempt)).is_some() {
            self.stats.tells += 1;
        }
        self.stats.accepted += 1;
        self.telemetry.incr("service_tells", 1);
        self.touch_session(session);
        self.pump(session);
        true
    }

    /// Reclaims every lease held by a dead connection; the work items
    /// go back to the unleased pool and are re-leased in dispatch
    /// order to the next asker.
    pub fn drop_connection(&mut self, conn: u64) {
        let mut reclaimed = 0u64;
        for r in self.resident.values_mut() {
            let before = r.leases.len();
            r.leases.retain(|_, held| *held != conn);
            reclaimed += (before - r.leases.len()) as u64;
        }
        self.stats.reclaimed += reclaimed;
        if reclaimed > 0 {
            self.telemetry.incr("service_leases_reclaimed", reclaimed);
        }
    }

    /// Steps one session's event loop until it stalls on an unresolved
    /// dispatch or drains, then finalizes it if drained.
    fn pump(&mut self, id: u64) {
        if let Some(r) = self.resident.get_mut(&id) {
            while r.lp.step(r.policy.as_mut(), &self.telemetry, &mut remote) {}
        }
        self.finalize_if_done(id);
    }

    /// Moves a drained session from resident to finished.
    fn finalize_if_done(&mut self, id: u64) {
        if self.resident.get(&id).is_some_and(|r| r.lp.done()) {
            let r = self.resident.remove(&id).expect("checked above");
            self.finished.insert(id, r.lp.into_session().into_result());
            self.telemetry.incr("service_sessions_finished", 1);
        }
    }

    /// Encodes a session's current state as `easybo-persist` snapshot
    /// bytes (works on resident and evicted sessions alike).
    ///
    /// # Errors
    ///
    /// Describes the failure for unknown or finished sessions.
    pub fn checkpoint(&mut self, id: u64) -> Result<Vec<u8>, String> {
        if let Some(bytes) = self.evicted.get(&id) {
            return Ok(bytes.clone());
        }
        let Some(r) = self.resident.get(&id) else {
            return Err(format!("session {id} is not live (unknown or finished)"));
        };
        let spec = &self.specs[&id];
        let snap = RunSnapshot {
            config_fingerprint: spec.fingerprint,
            session: r.lp.session().to_parts(),
            policy: r.policy.snapshot_state(),
        };
        self.touch_session(id);
        Ok(encode_snapshot(&snap))
    }

    /// Snapshots a resident session and releases its in-memory state;
    /// leases on its outstanding work are reclaimed (late results for
    /// them are rejected as stale, and rehydration re-dispatches the
    /// same attempts — purity makes the replay identical).
    ///
    /// # Errors
    ///
    /// Describes the failure for unknown, finished, or already-evicted
    /// sessions.
    pub fn evict(&mut self, id: u64) -> Result<(), String> {
        if self.evicted.contains_key(&id) {
            return Err(format!("session {id} is already evicted"));
        }
        let bytes = self.checkpoint(id)?;
        let r = self.resident.remove(&id).expect("checkpoint verified");
        self.stats.reclaimed += r.leases.len() as u64;
        self.evicted.insert(id, bytes);
        self.stats.evictions += 1;
        self.telemetry.incr("service_evictions", 1);
        self.telemetry.emit_with(|| Event::SessionEvicted {
            session: id,
            resident: self.resident.len(),
        });
        Ok(())
    }

    /// Rebuilds an evicted session from its snapshot: restores the
    /// session and policy state and resumes its event loop, which
    /// re-dispatches every interrupted attempt at its recorded
    /// worker/start and turns pending backoffs into retry events — the
    /// same continuation the checkpoint/resume path runs in process.
    ///
    /// # Errors
    ///
    /// Describes the failure for sessions that are not evicted or
    /// whose snapshot no longer decodes.
    pub fn rehydrate(&mut self, id: u64) -> Result<(), String> {
        let Some(bytes) = self.evicted.remove(&id) else {
            return Err(format!("session {id} is not evicted"));
        };
        let snap = match decode_snapshot(&bytes) {
            Ok(snap) => snap,
            Err(e) => {
                self.evicted.insert(id, bytes);
                return Err(format!("snapshot for session {id} is corrupt: {e}"));
            }
        };
        let spec = &self.specs[&id];
        let mut policy = (spec.policy)();
        if let Some(blob) = &snap.policy {
            if let Err(e) = policy.restore_state(blob) {
                self.evicted.insert(id, bytes);
                return Err(format!("policy restore for session {id} failed: {e}"));
            }
        }
        let session = SessionState::from_parts(snap.session);
        let inflight = session.inflight().len();
        let lp = EventLoop::resume(session, spec.retry.clone(), &self.telemetry, &mut remote);
        self.resident.insert(id, Resident::new(lp, policy));
        self.stats.rehydrations += 1;
        self.telemetry.incr("service_rehydrations", 1);
        self.telemetry.emit_with(|| Event::SessionRehydrated {
            session: id,
            inflight,
        });
        self.touch_session(id);
        // A snapshot taken after the final observation rehydrates into
        // an already-drained session.
        self.pump(id);
        self.enforce_budget(Some(id));
        Ok(())
    }

    /// Evicts least-recently-used sessions until residency fits the
    /// budget, never evicting `protect` (the session that just became
    /// active).
    fn enforce_budget(&mut self, protect: Option<u64>) {
        while self.resident.len() > self.resident_budget {
            let victim = self
                .resident
                .iter()
                .filter(|(id, _)| Some(**id) != protect)
                .min_by_key(|(id, r)| (r.last_touch, **id))
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                return;
            };
            self.evict(victim)
                .expect("resident non-protected session must evict");
        }
    }

    fn touch_session(&mut self, id: u64) {
        self.touch += 1;
        let touch = self.touch;
        if let Some(r) = self.resident.get_mut(&id) {
            r.last_touch = touch;
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Number of sessions currently resident in memory (always at most
    /// the budget after any public call returns).
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Number of sessions held only as snapshots.
    pub fn evicted_count(&self) -> usize {
        self.evicted.len()
    }

    /// Number of finished sessions whose results await collection.
    pub fn finished_count(&self) -> usize {
        self.finished.len()
    }

    /// Leases currently held by connections.
    pub fn active_leases(&self) -> usize {
        self.resident.values().map(|r| r.leases.len()).sum()
    }

    /// The configured residency budget.
    pub fn resident_budget(&self) -> usize {
        self.resident_budget
    }

    /// Whether every opened session has finished.
    pub fn all_done(&self) -> bool {
        self.resident.is_empty() && self.evicted.is_empty()
    }

    /// Ids of sessions that are evicted but not finished (callers
    /// rehydrate these to make progress once residency frees up).
    pub fn evicted_ids(&self) -> Vec<u64> {
        self.evicted.keys().copied().collect()
    }

    /// Removes and returns a finished session's result.
    pub fn take_result(&mut self, id: u64) -> Option<RunResult> {
        self.finished.remove(&id)
    }
}
