//! # easybo-service
//!
//! A std-only TCP optimization service for EasyBO: many concurrent
//! asynchronous-BO sessions served over a length-prefixed, checksummed
//! wire protocol to a pool of remote simulator workers.
//!
//! The layers, bottom up:
//!
//! - [`frame`] — self-delimiting frames (`magic | len | crc32 |
//!   payload`) with structured [`WireError`]s; malformed bytes never
//!   panic or hang the parser.
//! - [`proto`] — the [`Message`] set (versioned `Hello` handshake,
//!   ask/tell work exchange, checkpoint/evict/rehydrate/shutdown
//!   admin), encoded with the `easybo-persist` byte codec and pinned
//!   by a committed golden fixture.
//! - [`chaos`] — a seeded [`WireFaultPlan`] dropping, duplicating,
//!   reordering, stalling, and mid-frame-killing client frames, for
//!   chaos-testing the transport.
//! - [`manager`] — the [`SessionManager`]: many [`SessionState`]
//!   machines, each driven by the in-process virtual executor's own
//!   `EventLoop` with results that arrive later, so every session is
//!   *byte-identical* to an in-process run, with
//!   fair-share work leasing, at-most-once result folding, and LRU
//!   eviction to `easybo-persist` snapshots so resident memory stays
//!   bounded no matter how many sessions are open.
//! - [`server`] / [`client`] — the TCP ends: lockstep retransmitting
//!   RPC with a server-side reply cache, so every recovery path
//!   (dropped frame, duplicated frame, dead connection) converges to
//!   exactly-once work effects.
//!
//! The service's core guarantee, enforced end to end by the `service`
//! test suite: a seeded chaos run through a real socket pair finishes
//! with the same trace, dataset, and schedule — byte for byte — as a
//! clean in-process `VirtualExecutor::run` over the same black box.
//!
//! [`SessionState`]: easybo_exec::SessionState

pub mod chaos;
pub mod client;
pub mod frame;
pub mod manager;
pub mod proto;
pub mod server;

pub use chaos::{ChaosLink, WireFault, WireFaultPlan};
pub use client::{ServiceClient, WorkerClient, WorkerSummary};
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, WireError, FRAME_MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use manager::{ManagerStats, SessionManager, SessionSpec, Work};
pub use proto::{decode_message, encode_message, exemplar_messages, Message, Role};
pub use server::{OpenRequest, ServiceServer, SessionFactory};
