//! The per-run checkpoint/abort hook behind every [`crate::EasyBo`] run,
//! and the one writer thread that makes its snapshots durable.
//!
//! The loop thread captures and encodes snapshot k, waits for snapshot
//! k−1 to be durable, and hands k to the writer, which syncs it while
//! the next decision computes. At most one snapshot is in flight, so
//! snapshots land in completion order and the file on disk is always
//! a complete snapshot: k, or k−1 while k is being written. One slot
//! each way, a `Mutex` and a `Condvar`, carries the snapshot to the
//! writer and its outcome back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use easybo_exec::{AsyncPolicy, HookAction, SessionState};
use easybo_persist::{PersistError, RunSnapshot};
use easybo_telemetry::{Event, Telemetry};

/// Session hook state of one run: writes a snapshot every `every`
/// observations counted from the session start, then applies the
/// `abort_after_evals` fault injection. A pure observer of the session
/// — it never perturbs the optimization trajectory.
pub(crate) struct Checkpointer {
    /// `None` when the run only aborts.
    writer: Option<SnapshotWriter>,
    every: usize,
    completed_at_last: usize,
    /// What snapshots are stamped with.
    fingerprint: u64,
    abort_after: Option<usize>,
    telemetry: Telemetry,
}

/// What `CheckpointWritten` reports once a snapshot is durable.
struct InFlight {
    completed: usize,
    bytes: usize,
    /// Run clock of the capture, which stamps the event.
    now: f64,
}

impl Checkpointer {
    /// A hook for a session that starts at `completed` observations;
    /// starts the writer thread when there is a `path` to write.
    pub(crate) fn new(
        path: Option<PathBuf>,
        every: usize,
        completed: usize,
        fingerprint: u64,
        abort_after: Option<usize>,
        telemetry: Telemetry,
    ) -> std::io::Result<Self> {
        Ok(Checkpointer {
            writer: path.map(SnapshotWriter::spawn).transpose()?,
            every,
            completed_at_last: completed,
            fingerprint,
            abort_after,
            telemetry,
        })
    }

    /// The session hook: runs after every committed observation.
    pub(crate) fn after_commit(
        &mut self,
        session: &SessionState,
        policy: &dyn AsyncPolicy,
        now: f64,
    ) -> HookAction {
        let completed = session.completed();
        if self.writer.is_some() && completed >= self.completed_at_last + self.every {
            self.completed_at_last = completed;
            if let Err(reason) = self.checkpoint(session, policy, now) {
                return HookAction::Stop { reason };
            }
        }
        if let Some(n) = self.abort_after {
            if completed >= n {
                return HookAction::Stop {
                    reason: format!(
                        "aborted after {completed} completed evaluations \
                         (abort_after_evals({n}))"
                    ),
                };
            }
        }
        HookAction::Continue
    }

    /// Encodes a snapshot of the session, waits for the previous one,
    /// and hands the new one to the writer.
    fn checkpoint(
        &mut self,
        session: &SessionState,
        policy: &dyn AsyncPolicy,
        now: f64,
    ) -> Result<(), String> {
        let telemetry = self.telemetry.clone();
        telemetry.set_now(now);
        let _ckpt_span = telemetry.span("checkpoint");
        let snap = RunSnapshot {
            config_fingerprint: self.fingerprint,
            session: session.to_parts(),
            policy: policy.snapshot_state(),
        };
        let t0 = Instant::now();
        let bytes = {
            let _span = telemetry.span("snapshot_encode");
            easybo_persist::encode_snapshot(&snap)
        };
        telemetry.observe("snapshot_encode_ns", t0.elapsed().as_nanos() as f64);
        self.settle()?;
        if let Some(writer) = &mut self.writer {
            let sent = InFlight {
                completed: session.completed(),
                bytes: bytes.len(),
                now,
            };
            writer.submit(bytes, sent);
        }
        Ok(())
    }

    /// Waits until the snapshot in flight, if any, is durable, then
    /// counts it and emits its `CheckpointWritten`.
    ///
    /// The `snapshot_fsync` span and the `snapshot_fsync_ns` histogram
    /// time this wait, the part of the write the loop still pays;
    /// `snapshot_sync_ns` records the writer's own write and syncs.
    ///
    /// # Errors
    ///
    /// The `checkpoint write failed: …` reason the run stops with.
    pub(crate) fn settle(&mut self) -> Result<(), String> {
        let Some(writer) = &mut self.writer else {
            return Ok(());
        };
        let Some(sent) = writer.in_flight.take() else {
            return Ok(());
        };
        let telemetry = &self.telemetry;
        let t0 = Instant::now();
        let (written, sync) = {
            let _span = telemetry.span("snapshot_fsync");
            writer.wait()
        };
        telemetry.observe("snapshot_fsync_ns", t0.elapsed().as_nanos() as f64);
        telemetry.observe("snapshot_sync_ns", sync.as_nanos() as f64);
        // Checkpointing was explicitly requested; failing loudly beats
        // silently losing durability for the rest of the run.
        written.map_err(|e| format!("checkpoint write failed: {e}"))?;
        telemetry.incr("checkpoints_written", 1);
        telemetry.emit_at(
            sent.now,
            Event::CheckpointWritten {
                completed: sent.completed,
                bytes: sent.bytes,
            },
        );
        Ok(())
    }
}

/// The thread that runs [`easybo_persist::write_snapshot_bytes`] on
/// each snapshot it is handed, in order, and posts back the outcome
/// with the time the write took. Dropping it closes the mailbox and
/// joins the thread, which first writes a snapshot still in the slot.
struct SnapshotWriter {
    mailbox: Arc<Mailbox>,
    thread: Option<JoinHandle<()>>,
    /// The snapshot handed over and not yet waited for.
    in_flight: Option<InFlight>,
}

/// The one-slot mailbox between the loop thread and the writer: at most
/// one snapshot is in flight, so one slot each way is enough.
#[derive(Default)]
struct Mailbox {
    slot: Mutex<Slot>,
    changed: Condvar,
}

/// What the loop thread and the writer hand each other.
#[derive(Default)]
struct Slot {
    /// The snapshot handed over and not yet taken by the writer.
    snapshot: Option<Vec<u8>>,
    /// The outcome of the snapshot written last, not yet waited for.
    outcome: Option<Outcome>,
    /// Set when either side leaves: the writer's drop or the thread's exit.
    closed: bool,
}

/// A write's result and the time it took.
type Outcome = (Result<(), PersistError>, Duration);

impl Mailbox {
    /// Locks the slot, waiting while `blocked` holds.
    fn wait_while(&self, blocked: impl FnMut(&mut Slot) -> bool) -> MutexGuard<'_, Slot> {
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = self.changed.wait_while(slot, blocked);
        slot.unwrap_or_else(PoisonError::into_inner)
    }

    /// Changes the slot, unlocks it and wakes the other side.
    fn update<T>(&self, change: impl FnOnce(&mut Slot) -> T) -> T {
        let out = change(&mut self.slot.lock().unwrap_or_else(PoisonError::into_inner));
        self.changed.notify_all();
        out
    }

    /// The writer's next snapshot, or `None` once the mailbox is closed
    /// and empty.
    fn next_snapshot(&self) -> Option<Vec<u8>> {
        let mut slot = self.wait_while(|s| s.snapshot.is_none() && !s.closed);
        slot.snapshot.take()
    }
}

impl SnapshotWriter {
    fn spawn(path: PathBuf) -> std::io::Result<Self> {
        Self::spawn_with(move |mailbox| {
            while let Some(bytes) = mailbox.next_snapshot() {
                let t0 = Instant::now();
                let written = easybo_persist::write_snapshot_bytes(&path, &bytes);
                mailbox.update(|s| s.outcome = Some((written, t0.elapsed())));
            }
        })
    }

    /// Starts `body` as the writer thread. The mailbox closes when the
    /// thread exits, panic or not, so a `wait` cannot outlive it.
    fn spawn_with(body: impl FnOnce(&Mailbox) + Send + 'static) -> std::io::Result<Self> {
        let mailbox = Arc::new(Mailbox::default());
        let shared = Arc::clone(&mailbox);
        let thread = std::thread::Builder::new()
            .name("easybo-snapshot-writer".to_string())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| body(&shared)));
                shared.update(|s| s.closed = true);
            })?;
        Ok(SnapshotWriter {
            mailbox,
            thread: Some(thread),
            in_flight: None,
        })
    }

    fn submit(&mut self, bytes: Vec<u8>, sent: InFlight) {
        let open = self.mailbox.update(|s| {
            s.snapshot = Some(bytes);
            !s.closed
        });
        assert!(
            open,
            "the snapshot writer takes every snapshot unless it panicked"
        );
        self.in_flight = Some(sent);
    }

    /// The outcome of the snapshot in flight.
    fn wait(&self) -> Outcome {
        let mut slot = self
            .mailbox
            .wait_while(|s| s.outcome.is_none() && !s.closed);
        let outcome = slot.outcome.take();
        outcome.expect("the snapshot writer reports every snapshot unless it panicked")
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        self.mailbox.update(|s| s.closed = true);
        if let Some(thread) = self.thread.take() {
            // The thread catches its own panics: they surface in `submit`
            // or `wait`.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::{BusyPoint, Dataset};

    /// A policy whose snapshot blob is `[self.0]`.
    struct Blob(u8);
    impl AsyncPolicy for Blob {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            vec![0.5]
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(vec![self.0])
        }
    }

    #[test]
    fn dropping_the_hook_lands_the_snapshot_in_flight() {
        let path = std::env::temp_dir().join(format!(
            "easybo-checkpoint-test-{}-drop.snap",
            std::process::id()
        ));
        let session = SessionState::new(2, 4, &[vec![0.25]]);
        let mut hook =
            Checkpointer::new(Some(path.clone()), 1, 0, 7, None, Telemetry::disabled()).unwrap();
        hook.checkpoint(&session, &Blob(1), 0.5).unwrap();
        hook.checkpoint(&session, &Blob(2), 1.5).unwrap();
        drop(hook); // snapshot 2 was handed over, never waited for
        let on_disk = easybo_persist::load_snapshot(&path).expect("the file decodes");
        std::fs::remove_file(&path).ok();
        let want = RunSnapshot {
            config_fingerprint: 7,
            session: session.to_parts(),
            policy: Some(vec![2]),
        };
        assert_eq!(on_disk, want);
    }

    #[test]
    fn a_writer_that_exits_without_an_outcome_wakes_the_wait() {
        let mut writer = SnapshotWriter::spawn_with(|mailbox| {
            mailbox.next_snapshot(); // taken, never written
        })
        .unwrap();
        let sent = InFlight {
            completed: 1,
            bytes: 1,
            now: 0.0,
        };
        writer.submit(vec![0], sent);
        // Wait on another thread so that a hang fails the test.
        let waiter = std::thread::spawn(move || writer.wait().1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(Instant::now() < deadline, "`wait` outlived the writer");
            std::thread::sleep(Duration::from_millis(1));
        }
        let panic = waiter.join().expect_err("`wait` panics");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("reports every snapshot"), "{message}");
    }
}
