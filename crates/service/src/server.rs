//! TCP front end for the [`SessionManager`].
//!
//! One listener thread accepts connections; each connection gets a
//! handler thread, a `Hello` handshake with a protocol-version check,
//! and a bounded reply cache keyed by request id. The cache is what
//! turns the lossy wire into at-most-once semantics: a retransmitted
//! or chaos-duplicated request replays its original reply bytes
//! instead of re-executing, so a lease is never granted twice for one
//! ask. A connection that dies — cleanly or mid-frame — has its work
//! leases reclaimed via [`SessionManager::drop_connection`], putting
//! the items back in the pool for the next asker.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use easybo_persist::write_snapshot_bytes;

use crate::frame::{read_frame, write_frame, WireError, PROTOCOL_VERSION};
use crate::manager::{SessionManager, SessionSpec};
use crate::proto::{decode_message, encode_message, Message};

/// How often an idle connection handler wakes to poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Replies remembered per connection for duplicate-request replay.
/// Clients run lockstep (one outstanding request), so even a handful
/// is generous; the bound keeps a chatty connection's memory flat.
const REPLY_CACHE_SIZE: usize = 64;

/// One decoded `OpenSession` request, handed to the server's
/// [`SessionFactory`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRequest {
    /// Black-box name workers resolve in their local registry.
    pub bench: String,
    /// Algorithm registry key (e.g. `"easybo"`, `"eps-greedy"`).
    pub algo: String,
    /// Seed for the initial design and the policy RNG.
    pub seed: u64,
    /// Virtual worker pool size (the async batch parallelism).
    pub workers: usize,
    /// Total task budget.
    pub max_evals: usize,
    /// Initial design points to draw.
    pub n_init: usize,
}

/// Maps an admin `OpenSession` request to a runnable [`SessionSpec`]
/// — supplied by the embedder, because only it knows which benches
/// exist, how to build a policy for an algorithm key, and what retry
/// discipline the deployment wants. Returning `Err` rejects the
/// request with a wire `Error` carrying the message.
pub type SessionFactory = dyn Fn(&OpenRequest) -> Result<SessionSpec, String> + Send + Sync;

/// A running service: listener thread + one handler thread per
/// connection, all sharing one [`SessionManager`] behind a mutex.
pub struct ServiceServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    manager: Arc<Mutex<SessionManager>>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ServiceServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `manager`. When `checkpoint_dir` is set, `Checkpoint`
    /// requests also write `session_<id>.snap` files there (atomic
    /// temp-file + rename via `easybo-persist`). Without a factory,
    /// admin `OpenSession` requests are rejected; sessions are opened
    /// through the [`ServiceServer::manager`] handle instead.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        manager: SessionManager,
        addr: &str,
        checkpoint_dir: Option<PathBuf>,
    ) -> io::Result<Self> {
        Self::start_with_factory(manager, addr, checkpoint_dir, None)
    }

    /// Like [`ServiceServer::start`], but with a [`SessionFactory`]
    /// that serves admin `OpenSession` requests — remote admins can
    /// then mix heterogeneous algorithms over one shared worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_with_factory(
        manager: SessionManager,
        addr: &str,
        checkpoint_dir: Option<PathBuf>,
        factory: Option<Arc<SessionFactory>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let manager = Arc::new(Mutex::new(manager));
        let accept_stop = Arc::clone(&stop);
        let accept_manager = Arc::clone(&manager);
        let accept_handle = std::thread::spawn(move || {
            let next_conn = AtomicU64::new(1);
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                let conn = next_conn.fetch_add(1, Ordering::SeqCst);
                let stop = Arc::clone(&accept_stop);
                let manager = Arc::clone(&accept_manager);
                let dir = checkpoint_dir.clone();
                let factory = factory.clone();
                handlers.push(std::thread::spawn(move || {
                    serve_connection(
                        stream,
                        conn,
                        &manager,
                        &stop,
                        dir.as_deref(),
                        factory.as_deref(),
                    );
                    lock(&manager).drop_connection(conn);
                }));
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(ServiceServer {
            local_addr,
            stop,
            manager,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared handle to the manager — the embedding process opens
    /// sessions and collects results through this.
    pub fn manager(&self) -> Arc<Mutex<SessionManager>> {
        Arc::clone(&self.manager)
    }

    /// Stops the listener and waits for every connection handler to
    /// finish (so lease reclamation has run when this returns).
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<'m>(manager: &'m Mutex<SessionManager>) -> std::sync::MutexGuard<'m, SessionManager> {
    manager
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs one connection to completion: handshake, then a request loop
/// with duplicate-replay. Returns when the peer disconnects, a fatal
/// wire error occurs, or the server stops.
fn serve_connection(
    mut stream: TcpStream,
    conn: u64,
    manager: &Mutex<SessionManager>,
    stop: &AtomicBool,
    checkpoint_dir: Option<&std::path::Path>,
    factory: Option<&SessionFactory>,
) {
    // The poll timeout doubles as the idle heartbeat. A timeout can in
    // principle fire mid-frame and desynchronize the parser; the next
    // read then fails the magic check, the connection is dropped, and
    // lease reclamation + client retransmit recover — the trajectory
    // is transport-independent either way.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    if !handshake(&mut stream, stop) {
        return;
    }
    let mut cache: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut cache_order: VecDeque<u64> = VecDeque::new();
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(WireError::Io(e)) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let msg = match decode_message(&payload) {
            Ok(m) => m,
            Err(e) => {
                // Malformed message on a healthy stream: reject it,
                // keep the connection.
                let reply = Message::Error {
                    req: 0,
                    message: e.to_string(),
                };
                if write_frame(&mut stream, &encode_message(&reply)).is_err() {
                    return;
                }
                continue;
            }
        };
        let Some(req) = request_id(&msg) else {
            let reply = Message::Error {
                req: 0,
                message: format!("unexpected message {msg:?} after handshake"),
            };
            if write_frame(&mut stream, &encode_message(&reply)).is_err() {
                return;
            }
            continue;
        };
        // Duplicate (retransmitted or chaos-duplicated) request:
        // replay the cached reply without re-executing.
        if let Some(cached) = cache.get(&req) {
            if stream.write_frame_bytes(cached).is_err() {
                return;
            }
            continue;
        }
        let reply = handle_request(msg, conn, manager, stop, checkpoint_dir, factory);
        let bytes = crate::frame::encode_frame(&encode_message(&reply));
        cache.insert(req, bytes.clone());
        cache_order.push_back(req);
        if cache_order.len() > REPLY_CACHE_SIZE {
            if let Some(old) = cache_order.pop_front() {
                cache.remove(&old);
            }
        }
        if stream.write_frame_bytes(&bytes).is_err() {
            return;
        }
    }
}

/// Small extension so cached (already-framed) replies share the send
/// path with fresh ones.
trait WriteFrameBytes {
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()>;
}

impl WriteFrameBytes for TcpStream {
    fn write_frame_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.write_all(bytes)?;
        self.flush()
    }
}

/// Reads the opening `Hello`, enforces the protocol version, and
/// acknowledges. Returns `false` when the connection should close.
fn handshake(stream: &mut TcpStream, stop: &AtomicBool) -> bool {
    let payload = loop {
        match read_frame(stream) {
            Ok(p) => break p,
            Err(WireError::Io(e)) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    };
    match decode_message(&payload) {
        Ok(Message::Hello { version, .. }) if version == PROTOCOL_VERSION => {
            let ack = Message::HelloAck {
                version: PROTOCOL_VERSION,
            };
            write_frame(stream, &encode_message(&ack)).is_ok()
        }
        Ok(Message::Hello { version, .. }) => {
            let err = WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            };
            let reply = Message::Error {
                req: 0,
                message: err.to_string(),
            };
            let _ = write_frame(stream, &encode_message(&reply));
            false
        }
        Ok(other) => {
            let reply = Message::Error {
                req: 0,
                message: format!("expected Hello, got {other:?}"),
            };
            let _ = write_frame(stream, &encode_message(&reply));
            false
        }
        Err(_) => false,
    }
}

/// The request id of a post-handshake request, or `None` for messages
/// that are not valid requests.
fn request_id(msg: &Message) -> Option<u64> {
    match msg {
        Message::AskWork { req }
        | Message::TellResult { req, .. }
        | Message::Checkpoint { req, .. }
        | Message::Evict { req, .. }
        | Message::Rehydrate { req, .. }
        | Message::Shutdown { req }
        | Message::Stats { req }
        | Message::OpenSession { req, .. } => Some(*req),
        _ => None,
    }
}

/// Executes one request against the shared manager.
fn handle_request(
    msg: Message,
    conn: u64,
    manager: &Mutex<SessionManager>,
    stop: &AtomicBool,
    checkpoint_dir: Option<&std::path::Path>,
    factory: Option<&SessionFactory>,
) -> Message {
    match msg {
        Message::AskWork { req } => {
            if stop.load(Ordering::SeqCst) {
                return Message::Bye { req };
            }
            let mut m = lock(manager);
            // Pull evicted sessions back in while residency allows;
            // without this, a fully-evicted service would starve.
            while m.resident_count() < m.resident_budget() {
                let Some(id) = m.evicted_ids().first().copied() else {
                    break;
                };
                if m.rehydrate(id).is_err() {
                    break;
                }
            }
            match m.ask(conn) {
                Some(w) => Message::Work {
                    req,
                    session: w.session,
                    task: w.task,
                    attempt: w.attempt,
                    worker: w.worker,
                    x: w.x,
                    bench: w.bench,
                },
                None if m.all_done() => Message::Bye { req },
                None => Message::NoWork { req },
            }
        }
        Message::TellResult {
            req,
            session,
            task,
            attempt,
            value,
            cost,
            outcome,
        } => {
            let accepted = lock(manager).tell(conn, session, task, attempt, value, cost, outcome);
            Message::TellAck { req, accepted }
        }
        Message::Checkpoint { req, session } => {
            // Bound first: a guard in a `match` scrutinee would hold the
            // manager through the disk write and stall every connection.
            let encoded = lock(manager).checkpoint(session);
            match encoded {
                Ok(bytes) => {
                    if let Some(dir) = checkpoint_dir {
                        let path = dir.join(format!("session_{session}.snap"));
                        if let Err(e) = write_snapshot_bytes(&path, &bytes) {
                            return Message::Error {
                                req,
                                message: format!("checkpoint write failed: {e}"),
                            };
                        }
                    }
                    Message::CheckpointAck {
                        req,
                        bytes: bytes.len() as u64,
                    }
                }
                Err(message) => Message::Error { req, message },
            }
        }
        Message::Evict { req, session } => match lock(manager).evict(session) {
            Ok(()) => Message::Ack { req },
            Err(message) => Message::Error { req, message },
        },
        Message::Rehydrate { req, session } => match lock(manager).rehydrate(session) {
            Ok(()) => Message::Ack { req },
            Err(message) => Message::Error { req, message },
        },
        Message::Stats { req } => {
            let m = lock(manager);
            let s = m.stats();
            Message::StatsReply {
                req,
                resident: m.resident_count(),
                evicted: m.evicted_count(),
                finished: m.finished_count(),
                asks: s.asks,
                tells: s.tells,
            }
        }
        Message::Shutdown { req } => {
            stop.store(true, Ordering::SeqCst);
            Message::Ack { req }
        }
        Message::OpenSession {
            req,
            bench,
            algo,
            seed,
            workers,
            max_evals,
            n_init,
        } => {
            let Some(factory) = factory else {
                return Message::Error {
                    req,
                    message: "this server has no session factory; \
                              open sessions through the manager handle"
                        .to_string(),
                };
            };
            let open = OpenRequest {
                bench,
                algo,
                seed,
                workers,
                max_evals,
                n_init,
            };
            match factory(&open) {
                Ok(spec) => {
                    let session = lock(manager).open_session(spec);
                    Message::SessionOpened { req, session }
                }
                Err(message) => Message::Error { req, message },
            }
        }
        other => Message::Error {
            req: 0,
            message: format!("not a request: {other:?}"),
        },
    }
}

/// Whether an I/O error is a read-timeout poll tick (platforms differ
/// on which kind a socket timeout raises).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
