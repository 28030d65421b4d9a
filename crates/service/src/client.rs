//! Client side of the wire protocol: a lockstep RPC core, the worker
//! loop that evaluates leased work against a local black-box registry,
//! and thin admin commands.
//!
//! The RPC core keeps exactly one request outstanding. Every request
//! carries a fresh id; on a read timeout the request is retransmitted
//! verbatim, replies whose id does not match are discarded (they are
//! replay-cache echoes of earlier duplicates), and a dead connection
//! is rebuilt with a fresh `Hello` handshake before resending. Those
//! three rules, against the server's reply cache, give at-most-once
//! request effects over a link that drops, duplicates, reorders, and
//! kills frames.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use easybo_exec::BlackBox;

use crate::chaos::{ChaosLink, WireFaultPlan};
use crate::frame::{WireError, PROTOCOL_VERSION};
use crate::proto::{decode_message, encode_message, Message, Role};

/// How long to wait for a reply before retransmitting the request.
const REPLY_TIMEOUT: Duration = Duration::from_millis(40);

/// Send/receive attempts per request before giving up. Generous: at a
/// 30% chaos rate the odds of this many consecutive losses are
/// negligible, while a genuinely dead server still fails fast enough
/// for tests.
const MAX_ATTEMPTS: u32 = 500;

/// Lockstep RPC connection to a [`crate::ServiceServer`].
pub struct ServiceClient {
    addr: SocketAddr,
    role: Role,
    plan: WireFaultPlan,
    link: Option<ChaosLink>,
    /// Fault-schedule position, carried across reconnects.
    chaos_counter: u64,
    next_req: u64,
}

impl ServiceClient {
    /// A client for `addr` with a clean (fault-free) link.
    pub fn connect(addr: SocketAddr, role: Role) -> Self {
        Self::connect_with_chaos(addr, role, WireFaultPlan::clean(0))
    }

    /// A client whose outgoing frames suffer the given fault plan.
    pub fn connect_with_chaos(addr: SocketAddr, role: Role, plan: WireFaultPlan) -> Self {
        ServiceClient {
            addr,
            role,
            plan,
            link: None,
            chaos_counter: 0,
            next_req: 1,
        }
    }

    /// Allocates the next request id.
    fn fresh_req(&mut self) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// Ensures a live, handshaken link, reconnecting as needed.
    fn ensure_link(&mut self) -> Result<&mut ChaosLink, WireError> {
        if self.link.is_none() {
            let link = self.try_handshake()?;
            self.link = Some(link);
        }
        Ok(self.link.as_mut().expect("just ensured"))
    }

    /// Opens a connection and performs the `Hello` handshake. The
    /// handshake rides the chaos link too; whatever happens, the
    /// fault-schedule position is saved before returning so a retried
    /// handshake draws *new* faults instead of replaying the one that
    /// just killed it.
    fn try_handshake(&mut self) -> Result<ChaosLink, WireError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        let mut link = ChaosLink::new(stream, self.plan, self.chaos_counter);
        link.set_read_timeout(REPLY_TIMEOUT)?;
        let result = Self::handshake_on(&mut link, self.role);
        self.chaos_counter = link.counter();
        result.map(|()| link)
    }

    fn handshake_on(link: &mut ChaosLink, role: Role) -> Result<(), WireError> {
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            role,
        };
        link.send(&encode_message(&hello))?;
        match decode_message(&link.recv()?)? {
            Message::HelloAck { .. } => Ok(()),
            Message::Error { message, .. } => Err(WireError::Protocol(message)),
            other => Err(WireError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Tears down the link, remembering the chaos-schedule position.
    fn drop_link(&mut self) {
        if let Some(link) = self.link.take() {
            self.chaos_counter = link.counter();
        }
    }

    /// Sends `request` (which must carry id `req`) until the matching
    /// reply arrives: retransmit on timeout, discard mismatched
    /// replies, reconnect on dead links.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] with context after `MAX_ATTEMPTS` (500)
    /// consecutive failures (server unreachable or permanently
    /// rejecting the handshake).
    pub fn rpc(&mut self, req: u64, request: &Message) -> Result<Message, WireError> {
        let payload = encode_message(request);
        let mut sent = false;
        for _ in 0..MAX_ATTEMPTS {
            let link = match self.ensure_link() {
                Ok(link) => link,
                Err(e) if e.is_fatal() => {
                    self.drop_link();
                    sent = false;
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(e),
            };
            if !sent {
                match link.send(&payload) {
                    Ok(()) => sent = true,
                    Err(_) => {
                        self.drop_link();
                        continue;
                    }
                }
            }
            match link.recv() {
                Ok(bytes) => match decode_message(&bytes) {
                    Ok(Message::Error { req: r, message }) if r == req => {
                        self.sync_counter();
                        return Err(WireError::Protocol(message));
                    }
                    Ok(reply) if reply_req(&reply) == Some(req) => {
                        self.sync_counter();
                        return Ok(reply);
                    }
                    // A stale reply (replayed duplicate of an earlier
                    // request) or an unmatched error: discard and keep
                    // reading.
                    Ok(_) => continue,
                    Err(e) if e.is_fatal() => {
                        self.drop_link();
                        sent = false;
                        continue;
                    }
                    Err(_) => continue,
                },
                Err(WireError::Io(e)) if is_timeout(&e) => {
                    // No reply yet: retransmit the same request; the
                    // server's reply cache absorbs the duplicate if
                    // the original actually arrived.
                    sent = false;
                    continue;
                }
                Err(_) => {
                    self.drop_link();
                    sent = false;
                    continue;
                }
            }
        }
        Err(WireError::Protocol(format!(
            "request {req} got no reply after {MAX_ATTEMPTS} attempts"
        )))
    }

    fn sync_counter(&mut self) {
        if let Some(link) = &self.link {
            self.chaos_counter = link.counter();
        }
    }

    /// Admin: snapshot a session durably on the server.
    ///
    /// # Errors
    ///
    /// Server-side failures arrive as [`WireError::Protocol`].
    pub fn checkpoint(&mut self, session: u64) -> Result<u64, WireError> {
        let req = self.fresh_req();
        match self.rpc(req, &Message::Checkpoint { req, session })? {
            Message::CheckpointAck { bytes, .. } => Ok(bytes),
            other => Err(unexpected("CheckpointAck", &other)),
        }
    }

    /// Admin: open a new optimization session on the server's shared
    /// worker pool. The server's session factory maps `algo` (an
    /// `Algorithm` registry key) to a policy, so different clients can
    /// run heterogeneous algorithms side by side. Returns the new
    /// session id.
    ///
    /// # Errors
    ///
    /// Server-side failures (no factory configured, unknown bench or
    /// algorithm key) arrive as [`WireError::Protocol`].
    #[allow(clippy::too_many_arguments)]
    pub fn open_session(
        &mut self,
        bench: &str,
        algo: &str,
        seed: u64,
        workers: usize,
        max_evals: usize,
        n_init: usize,
    ) -> Result<u64, WireError> {
        let req = self.fresh_req();
        let open = Message::OpenSession {
            req,
            bench: bench.to_string(),
            algo: algo.to_string(),
            seed,
            workers,
            max_evals,
            n_init,
        };
        match self.rpc(req, &open)? {
            Message::SessionOpened { session, .. } => Ok(session),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    /// Admin: evict a session to its snapshot.
    ///
    /// # Errors
    ///
    /// Server-side failures arrive as [`WireError::Protocol`].
    pub fn evict(&mut self, session: u64) -> Result<(), WireError> {
        let req = self.fresh_req();
        match self.rpc(req, &Message::Evict { req, session })? {
            Message::Ack { .. } => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Admin: rebuild an evicted session from its snapshot.
    ///
    /// # Errors
    ///
    /// Server-side failures arrive as [`WireError::Protocol`].
    pub fn rehydrate(&mut self, session: u64) -> Result<(), WireError> {
        let req = self.fresh_req();
        match self.rpc(req, &Message::Rehydrate { req, session })? {
            Message::Ack { .. } => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Admin: fetch `(resident, evicted, finished, asks, tells)`.
    ///
    /// # Errors
    ///
    /// Server-side failures arrive as [`WireError::Protocol`].
    pub fn stats(&mut self) -> Result<(usize, usize, usize, u64, u64), WireError> {
        let req = self.fresh_req();
        match self.rpc(req, &Message::Stats { req })? {
            Message::StatsReply {
                resident,
                evicted,
                finished,
                asks,
                tells,
                ..
            } => Ok((resident, evicted, finished, asks, tells)),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// Admin: tell the server to stop handing out work.
    ///
    /// # Errors
    ///
    /// Server-side failures arrive as [`WireError::Protocol`].
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        let req = self.fresh_req();
        match self.rpc(req, &Message::Shutdown { req })? {
            Message::Ack { .. } => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Message) -> WireError {
    WireError::Protocol(format!("expected {wanted}, got {got:?}"))
}

/// The request id a reply echoes, when it is a reply.
fn reply_req(msg: &Message) -> Option<u64> {
    match msg {
        Message::Work { req, .. }
        | Message::NoWork { req }
        | Message::Bye { req }
        | Message::TellAck { req, .. }
        | Message::CheckpointAck { req, .. }
        | Message::Ack { req }
        | Message::StatsReply { req, .. }
        | Message::SessionOpened { req, .. }
        | Message::Error { req, .. } => Some(*req),
        _ => None,
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// What a finished worker loop did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Evaluations performed.
    pub evaluated: u64,
    /// Results the server accepted.
    pub accepted: u64,
    /// Results rejected as stale.
    pub stale: u64,
}

/// A remote simulator slot: asks for work, evaluates it against a
/// local registry of black boxes, and reports results until the server
/// says `Bye`.
pub struct WorkerClient {
    rpc: ServiceClient,
    registry: HashMap<String, Box<dyn BlackBox>>,
}

impl WorkerClient {
    /// A worker for `addr` with a clean link.
    pub fn connect(addr: SocketAddr) -> Self {
        Self::connect_with_chaos(addr, WireFaultPlan::clean(0))
    }

    /// A worker whose link suffers the given fault plan.
    pub fn connect_with_chaos(addr: SocketAddr, plan: WireFaultPlan) -> Self {
        WorkerClient {
            rpc: ServiceClient::connect_with_chaos(addr, Role::Worker, plan),
            registry: HashMap::new(),
        }
    }

    /// Registers a black box under the name sessions dispatch with.
    pub fn register(&mut self, bench: impl Into<String>, bb: Box<dyn BlackBox>) {
        self.registry.insert(bench.into(), bb);
    }

    /// Runs the ask/evaluate/tell loop until the server says `Bye`.
    ///
    /// # Errors
    ///
    /// Transport exhaustion ([`ServiceClient::rpc`] giving up) or a
    /// work item naming a black box this worker does not have.
    pub fn run(&mut self) -> Result<WorkerSummary, WireError> {
        let mut summary = WorkerSummary::default();
        loop {
            let req = self.rpc.fresh_req();
            let reply = self.rpc.rpc(req, &Message::AskWork { req })?;
            let work = match reply {
                Message::Bye { .. } => return Ok(summary),
                Message::NoWork { .. } => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Message::Work {
                    session,
                    task,
                    attempt,
                    worker,
                    x,
                    bench,
                    ..
                } => crate::manager::Work {
                    session,
                    task,
                    attempt,
                    worker,
                    x,
                    bench,
                },
                other => return Err(unexpected("Work/NoWork/Bye", &other)),
            };
            let Some(bb) = self.registry.get(&work.bench) else {
                return Err(WireError::Protocol(format!(
                    "no black box registered for '{}'",
                    work.bench
                )));
            };
            let e = work.evaluate(bb.as_ref());
            summary.evaluated += 1;
            let req = self.rpc.fresh_req();
            let tell = Message::TellResult {
                req,
                session: work.session,
                task: work.task,
                attempt: work.attempt,
                value: e.value,
                cost: e.cost,
                outcome: e.resolved_outcome(),
            };
            match self.rpc.rpc(req, &tell)? {
                Message::TellAck { accepted, .. } => {
                    if accepted {
                        summary.accepted += 1;
                    } else {
                        summary.stale += 1;
                    }
                }
                other => return Err(unexpected("TellAck", &other)),
            }
        }
    }
}
