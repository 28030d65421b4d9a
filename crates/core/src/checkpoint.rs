//! The per-run checkpoint/abort hook behind every [`crate::EasyBo`] run,
//! and the one writer thread that makes its snapshots durable.
//!
//! The loop thread captures and encodes snapshot k, waits for snapshot
//! k−1 to be durable, and hands k to the writer, which syncs it while
//! the next decision computes. At most one snapshot is in flight, so
//! snapshots land in completion order and the file on disk is always
//! a complete snapshot: k, or k−1 while k is being written.

use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
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
/// each snapshot it is handed, in order, and sends back the outcome
/// with the time the write took. Dropping it closes its queue and
/// joins it.
struct SnapshotWriter {
    queue: Option<Sender<Vec<u8>>>,
    results: Receiver<(Result<(), PersistError>, Duration)>,
    thread: Option<JoinHandle<()>>,
    /// The snapshot handed over and not yet waited for.
    in_flight: Option<InFlight>,
}

impl SnapshotWriter {
    fn spawn(path: PathBuf) -> std::io::Result<Self> {
        let (queue, snapshots) = channel::<Vec<u8>>();
        let (done, results) = channel();
        let thread = std::thread::Builder::new()
            .name("easybo-snapshot-writer".to_string())
            .spawn(move || {
                for bytes in snapshots {
                    let t0 = Instant::now();
                    let written = easybo_persist::write_snapshot_bytes(&path, &bytes);
                    if done.send((written, t0.elapsed())).is_err() {
                        break;
                    }
                }
            })?;
        Ok(SnapshotWriter {
            queue: Some(queue),
            results,
            thread: Some(thread),
            in_flight: None,
        })
    }

    fn submit(&mut self, bytes: Vec<u8>, sent: InFlight) {
        let queue = self.queue.as_ref().expect("the queue closes only on drop");
        queue
            .send(bytes)
            .expect("the snapshot writer takes every snapshot unless it panicked");
        self.in_flight = Some(sent);
    }

    /// The outcome of the oldest snapshot not yet waited for.
    fn wait(&self) -> (Result<(), PersistError>, Duration) {
        self.results
            .recv()
            .expect("the snapshot writer reports every snapshot unless it panicked")
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        drop(self.queue.take());
        if let Some(thread) = self.thread.take() {
            // A panic of the writer already surfaced in `submit` or `wait`.
            let _ = thread.join();
        }
    }
}
